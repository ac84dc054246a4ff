"""One registry, four readers: a property over random recording sequences.

Every sample the registry holds must read the same in ``stats``, in a
lint-clean ``/metrics`` and in the observability plane after one scrape;
and the router rollup of k registries must equal one registry that
recorded all their events, bucket for bucket.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cost import WorkMeter
from repro.obs.exporters import prometheus_text
from repro.obs.plane import ObservabilityPlane, registry_collector
from repro.server.metrics import ServerMetrics
from tests.oracles import lint_prometheus

OPS = ("start", "fetch", "close", 'we"ird\\op')
KINDS = ("window", "knn", "sql")
UNITS = ("mbr_test", "rtree_node_visit", "exact_test_per_vertex")
SESSION_EVENTS = ("opened", "closed", "rejected_overload", "unheard_of")
RESILIENCE_EVENTS = ("retries", "hedges", "restarts")
#: bucket bounds, between them, below the first and past the last
LATENCIES = (0.0, 0.00005, 0.0001, 0.0013, 0.01, 0.2, 3.0, 500.0)

CALLS = st.one_of(
    st.tuples(st.just("record_request"), st.sampled_from(OPS), st.booleans()),
    st.tuples(
        st.just("record_query"),
        st.sampled_from(KINDS),
        st.sampled_from(LATENCIES),
        st.integers(0, 50),
        st.booleans(),
    ),
    st.tuples(
        st.just("merge_meter"),
        st.sampled_from(KINDS),
        st.dictionaries(st.sampled_from(UNITS), st.integers(0, 1000)),
    ),
    st.tuples(
        st.just("bump_session"), st.sampled_from(SESSION_EVENTS), st.integers(1, 3)
    ),
    st.tuples(
        st.just("bump_resilience"),
        st.sampled_from(RESILIENCE_EVENTS),
        st.integers(1, 3),
    ),
)


def apply(metrics, call):
    name, *args = call
    if name == "merge_meter":
        meter = WorkMeter()
        for unit, n in args[1].items():
            meter.add(unit, n)
        args = [args[0], meter]
    getattr(metrics, name)(*args)


_SAMPLE = re.compile(r"^(?P<name>\w+)(?:\{(?P<labels>.*)\})? (?P<value>\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        labels = frozenset(
            (k, re.sub(r"\\(.)", lambda m: {"n": "\n"}.get(m[1], m[1]), v))
            for k, v in _LABEL.findall(match["labels"] or "")
        )
        samples[(match["name"], labels)] = float(match["value"])
    return samples


def stats_value(snap, family, key):
    labels = iter(key)
    node = snap
    for part in family.stat:
        node = node[next(labels) if part == "*" else part]
    return node


@settings(max_examples=60, deadline=None)
@given(st.lists(CALLS, max_size=40))
def test_every_sample_reads_the_same_everywhere(calls):
    metrics = ServerMetrics()
    for call in calls:
        apply(metrics, call)
    text = prometheus_text(metrics)
    assert lint_prometheus(text) == []
    exposed = parse_exposition(text)
    snap = json.loads(json.dumps(metrics.snapshot()))
    plane = ObservabilityPlane(clock=lambda: 1000.0)
    plane.add_collector(registry_collector(metrics))
    plane.scrape_once()
    assert plane.collector_errors == {}
    checked = 0
    for family, samples in metrics.collect():
        for key, value in samples:
            labels = dict(zip(family.labels, key))
            if family.kind == "histogram":
                summary = value.snapshot()
                reads = [
                    (f"{family.name}_ms", dict(labels, stat=stat), summary[f"{stat}_ms"])
                    for stat in ("mean", "p50", "p90", "p99", "max")
                ] + [(f"{family.name}_count", labels, summary["count"])]
            elif isinstance(value, (int, float)):
                summary = value
                reads = [(family.name, labels, value)]
            else:  # a string (the durability mode) is stats-only
                continue
            if family.stat is not None:
                assert stats_value(snap, family, key) == summary
            for name, want_labels, want in reads:
                assert exposed[(name, frozenset(want_labels.items()))] == want
                assert plane.store.latest(name, want_labels) == want
                checked += 1
    assert checked == sum(len(s) for _, _, _, s in metrics.exposition())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(st.tuples(st.integers(0, k - 1), CALLS), max_size=40)
    .map(lambda tagged: (k, tagged))
))
def test_rollup_of_k_registries_equals_one_that_saw_everything(case):
    k, tagged = case
    parts = [ServerMetrics(shard_id=i) for i in range(k)]
    whole = ServerMetrics()
    for i, call in tagged:
        apply(parts[i], call)
        apply(whole, call)
    rollup = ServerMetrics().twin()
    for part in parts:
        # over the wire, as the router receives it
        rollup.merge_snapshot(json.loads(json.dumps(part.snapshot(raw=True))))
    got = {f.name: dict(s) for f, s in rollup.collect() if f.stat}
    want = {f.name: dict(s) for f, s in whole.collect() if f.stat}
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].keys() == want[name].keys(), name
        for key, value in want[name].items():
            merged = got[name][key]
            if name == "repro_query_latency":
                assert merged.counts == value.counts  # bucket for bucket
                assert merged.total == value.total
                assert merged.max_seconds == value.max_seconds
                assert merged.sum_seconds == pytest.approx(value.sum_seconds)
            else:
                assert merged == value, (name, key)
