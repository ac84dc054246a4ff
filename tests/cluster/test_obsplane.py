"""End-to-end observability on a live cluster: stitched traces reach the
client, the metrics plane scrapes cluster gauges, SLOs evaluate.

Real forked shard processes; tests keep the cluster small (2 shards,
few rows) so the suite stays fast.
"""

import random

import pytest

from repro import Geometry
from repro.cluster.local import LocalCluster
from repro.geometry.mbr import MBR
from repro.geometry.wkt import to_wkt
from repro.obs import trace
from repro.obs.trace import build_tree
from tests.oracles import lint_prometheus

BOX = MBR(0.0, 0.0, 100.0, 100.0)
FULL_WINDOW = "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))"


def _rows(n=80, seed=11):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 95), rng.uniform(0, 95)
        rect = Geometry.rectangle(x, y, x + 2.0, y + 2.0)
        rows.append([i, to_wkt(rect)])
    return rows


@pytest.fixture
def traced_cluster():
    # enable() BEFORE start(): forked shards inherit the enabled tracer.
    trace.enable()
    cluster = LocalCluster(
        2,
        BOX,
        n_entries_hint=80,
        halo=2.0,
        replicated=True,  # so the replication-lag gauges have a source
        health_check=True,  # so the per-shard up/down gauges have a source
        obs_plane=True,
        obs_interval=0.05,
    )
    try:
        cluster.start()
        cluster.create_spatial_table("shapes")
        cluster.load("shapes", _rows())
        yield cluster
    finally:
        cluster.stop()
        trace.disable()


class TestDistributedTrace:
    def test_window_query_returns_stitched_tree(self, traced_cluster):
        with traced_cluster.client() as client:
            session = client.start(
                "window",
                {
                    "table": "shapes",
                    "column": "geom",
                    "operator": "SDO_FILTER",
                    "wkt": FULL_WINDOW,  # full domain: hits every shard
                },
            )
            assert session.trace_id is not None
            rows = session.all()
            stitched = client.trace(session.session_id)
        assert rows
        assert stitched["trace"] == session.trace_id
        names = {s["name"] for s in stitched["spans"]}
        assert "router.scatter" in names  # router-side span
        assert "server.session" in names  # shard-side spans, adopted
        shards = {
            s["tags"].get("shard")
            for s in stitched["spans"]
            if s["tags"].get("shard") is not None
        }
        assert shards == {0, 1}  # full-domain window fans out to both
        # One connected tree, rooted at the router's client session span.
        assert len(stitched["tree"]) == 1
        rebuilt = build_tree(stitched["spans"])
        assert len(rebuilt) == 1

    def test_trace_meter_sums_match_stats_charges(self, traced_cluster):
        """Charge identity end to end: the stitched trace's per-unit
        meter deltas never exceed what the shard meters actually
        charged — tracing attributes existing work, adds none."""
        with traced_cluster.client() as client:
            session = client.start(
                "window",
                {
                    "table": "shapes",
                    "column": "geom",
                    "operator": "SDO_FILTER",
                    "wkt": FULL_WINDOW,
                },
            )
            session.all()
            stitched = client.trace(session.session_id)
            stats = client.stats(raw=True)
        # Sum only the shard-side session roots: nested spans overlap
        # their parents' windows, so summing every span double-counts.
        span_units = {}
        for s in stitched["spans"]:
            if s["name"] != "server.session":
                continue
            for unit, n in (s.get("meter_delta") or {}).items():
                span_units[unit] = span_units.get(unit, 0.0) + n
        assert span_units  # the query charged work, spans captured it
        meter_units = {}
        for key, section in stats["shards"].items():
            if key == "router":
                continue
            for units in (section.get("meters") or {}).values():
                for unit, n in units.items():
                    meter_units[unit] = meter_units.get(unit, 0.0) + n
        for unit, n in span_units.items():
            assert n <= meter_units.get(unit, 0.0) + 1e-9


class TestClusterPlane:
    def test_plane_scrapes_cluster_gauges(self, traced_cluster):
        with traced_cluster.client() as client:
            client.start(
                "window",
                {
                    "table": "shapes",
                    "column": "geom",
                    "operator": "SDO_FILTER",
                    "wkt": FULL_WINDOW,
                },
            ).all()
        plane = traced_cluster.plane
        assert plane is not None
        plane.scrape_once()
        store = plane.store
        assert store.latest("repro_cluster_scatter_fanout") is not None
        assert store.latest("repro_cluster_replication_lag_seconds") is not None
        for shard in (0, 1):
            assert store.latest("repro_cluster_shard_up", {"shard": shard}) == 1.0
            assert store.latest("repro_cluster_breaker_state", {"shard": shard}) == 0.0
        assert store.latest("repro_requests_total", {"op": "start"}) is not None
        assert plane.collector_errors == {}

    def test_slos_evaluate_and_export(self, traced_cluster):
        plane = traced_cluster.plane
        plane.scrape_once()
        burns = plane.engine.burn_rates()
        assert set(burns) == {"availability", "p99-latency", "replication-lag"}
        with traced_cluster.client() as client:
            text = client.metrics()
        assert lint_prometheus(text) == []
        assert "repro_slo_objective" in text
        assert 'repro_slo_alert_firing{severity="page",slo="availability"} 0' in text
        # the cluster gauges ride the same exposition
        assert 'repro_cluster_breaker_state{shard="0"} 0' in text

    def test_plane_off_by_default(self):
        with LocalCluster(2, BOX, n_entries_hint=8, halo=2.0) as cluster:
            assert cluster.plane is None
