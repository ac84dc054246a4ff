"""Runtime metrics for the query service: one registry of declared families.

Every signal a server reports is a :class:`Family` declared once on its
:class:`ServerMetrics` (name, type, help, labels, and the ``stats`` path
for the families ``stats`` shows).  The four readers are each one loop
over those families: ``stats`` (:meth:`ServerMetrics.snapshot`),
``/metrics`` (:func:`repro.obs.exporters.prometheus_text` over
:meth:`ServerMetrics.exposition`), the router rollup
(:meth:`ServerMetrics.merge_snapshot`) and the observability plane
(:func:`repro.obs.plane.registry_collector`).  A family either records
— the ``record_*`` / ``bump_*`` / ``merge_meter`` calls, under one lock,
since fetches run on a thread pool — or is *live*: a callback read at
collect time (storage and kernel counters, SLO state, cluster gauges).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import (
    Any, Callable, Collection, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.engine.cost import WorkMeter
from repro.geometry import kernels

__all__ = ["Family", "LatencyHistogram", "ServerMetrics"]


def _bucket_bounds() -> List[float]:
    """Log-spaced latency bucket upper bounds, in seconds (0.1ms..~2min)."""
    bounds = []
    value = 0.0001
    while value < 120.0:
        bounds.append(value)
        value *= 2.0
    return bounds


_BOUNDS = _bucket_bounds()

#: keys every snapshot's ``storage`` section carries, zeroed where the
#: server has no storage stats to report (its ``storage`` callback gives
#: none, or fails), so scrapers see a stable schema; ``"durability":
#: "none"`` then means "no storage stats", not a kind of store.
_STORAGE_ZERO: Dict[str, Any] = {
    "durability": "none",
    "num_pages": 0,
    "page_size": 0,
    "physical_reads": 0,
    "physical_writes": 0,
    "buffer_hit_ratio": 0.0,
    "prefetches": 0,
    "prefetch_hits": 0,
    "wal_bytes": 0,
    "recovered_pages": 0,
    "columnar_segments": 0,
    "columnar_chunks": 0,
    "columnar_pages": 0,
    "columnar_journal_rows": 0,
    "columnar_zone_prunes": 0,
}

_SESSION_EVENTS = (
    "opened", "closed", "exhausted", "cancelled_deadline", "closed_disconnect",
    "cancelled_shutdown", "rejected_overload", "rejected_shutdown",
)
# Resilience events (cluster router): zero-initialised so the exposition
# schema is stable whether or not faults ever happen.
_RESILIENCE_EVENTS = (
    "retries", "rescatters", "hedges", "write_retries", "breaker_open",
    "failovers", "scatters", "scatter_width_total", "deadline_misses",
    "trace_drain_failed",
)

#: the families every server records: name, type, help, labels, stats path
_RECORDED = (
    ("repro_requests_total", "counter", "Wire requests by op.",
     ("op",), "requests.*.count"),
    ("repro_request_errors_total", "counter", "Failed wire requests by op.",
     ("op",), "requests.*.errors"),
    ("repro_query_rows_total", "counter", "Rows served by query kind.",
     ("kind",), "queries.*.rows"),
    ("repro_query_errors_total", "counter", "Failed queries by kind.",
     ("kind",), "queries.*.errors"),
    ("repro_query_latency", "histogram",
     "Request latency summary (milliseconds) by kind and statistic.",
     ("kind",), "queries.*.latency"),
    ("repro_meter_units_total", "counter",
     "Simulated work units charged, by query kind and unit kind.",
     ("kind", "unit"), "meters.*.*"),
    ("repro_sessions_active", "gauge", "Sessions currently open.",
     (), "sessions.active"),
    ("repro_sessions_total", "counter", "Session lifecycle events.",
     ("event",), "sessions.*"),
    ("repro_resilience_total", "counter",
     "Cluster resilience events (retries, hedges, re-scatters, breaker "
     "trips, failovers).", ("event",), "resilience.*"),
)

#: the summary statistics a histogram exposes, in exposition order
_STATS = ("mean", "p50", "p90", "p99", "max")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float))


class LatencyHistogram:
    """Fixed log-bucket latency histogram with percentile estimates."""

    __slots__ = ("counts", "total", "sum_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(_BOUNDS) + 1)
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.counts[bisect_left(_BOUNDS, seconds)] += 1
        self.total += 1
        self.sum_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def percentile(self, p: float) -> float:
        """Bucket upper bound for the p-th percentile, clamped (seconds).

        The answer is never larger than the maximum value actually
        recorded: a single 0.15ms sample must not report a 0.2ms p99
        just because that is its bucket's upper bound, and the overflow
        bucket (which has no finite bound) likewise reports the observed
        max.
        """
        if self.total == 0:
            return 0.0
        rank = max(1, int(p / 100.0 * self.total + 0.5))
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                bound = _BOUNDS[i] if i < len(_BOUNDS) else self.max_seconds
                return min(bound, self.max_seconds)
        return self.max_seconds  # pragma: no cover - defensive

    def snapshot(self) -> Dict[str, Any]:
        mean = self.sum_seconds / self.total if self.total else 0.0
        return {
            "count": self.total,
            "mean_ms": round(mean * 1000.0, 3),
            "p50_ms": round(self.percentile(50) * 1000.0, 3),
            "p90_ms": round(self.percentile(90) * 1000.0, 3),
            "p99_ms": round(self.percentile(99) * 1000.0, 3),
            "max_ms": round(self.max_seconds * 1000.0, 3),
        }

    # -- cross-process aggregation (router-side rollup) -----------------
    def raw(self) -> Dict[str, Any]:
        """Wire-safe dump of the histogram's internal state."""
        return {
            "counts": list(self.counts),
            "total": self.total,
            "sum_seconds": self.sum_seconds,
            "max_seconds": self.max_seconds,
        }

    @classmethod
    def from_raw(cls, raw: Any) -> "LatencyHistogram":
        """Rebuild a histogram from another process's :meth:`raw` dump.

        Raises ``ValueError`` unless the dump has this process's bucket
        count, non-negative integer counts and a total that is their sum:
        a histogram from another process is never trusted unchecked.
        """
        counts = raw.get("counts") if isinstance(raw, dict) else None
        if not (
            isinstance(counts, list)
            and len(counts) == len(_BOUNDS) + 1
            and all(isinstance(c, int) and c >= 0 for c in counts)
            and raw.get("total") == sum(counts)
            and _is_number(raw.get("sum_seconds"))
            and _is_number(raw.get("max_seconds"))
        ):
            raise ValueError("latency histogram does not match this bucket table")
        hist = cls()
        hist.counts = list(counts)
        hist.total = raw["total"]
        hist.sum_seconds = float(raw["sum_seconds"])
        hist.max_seconds = float(raw["max_seconds"])
        return hist

    def copy(self) -> "LatencyHistogram":
        return LatencyHistogram.from_raw(self.raw())

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one (bucket-wise sum)."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.sum_seconds += other.sum_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)


def _total(values: List[Any]) -> Any:
    """Counter values summed, or histograms merged bucket-wise."""
    if not isinstance(values[0], LatencyHistogram):
        return sum(values)
    total = LatencyHistogram()
    for hist in values:
        total.merge(hist)
    return total


class Family:
    """One declared metric family: ``kind`` is ``counter``, ``gauge`` or
    ``histogram`` (a :class:`LatencyHistogram` per label set); ``stat`` is
    its dotted ``stats`` path, ``*`` parts taking the label values (None:
    not in ``stats``); ``collect``, if given, returns the live
    ``(label values, value)`` pairs, else ``values`` holds the recorded
    ones."""

    __slots__ = ("name", "kind", "help", "labels", "stat", "collect", "values")

    def __init__(self, name, kind, help_text, labels=(), stat=None, collect=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labels = tuple(labels)
        self.stat = tuple(stat.split(".")) if stat else None
        self.collect: Optional[Callable[[], Iterable[Tuple[tuple, Any]]]] = collect
        self.values: Dict[tuple, Any] = {}

    def add(self, key: tuple, value: Any) -> None:
        """Sum ``value`` into the sample at ``key`` (caller holds the lock)."""
        if self.kind == "histogram":
            self.values.setdefault(key, LatencyHistogram()).merge(value)
        else:
            self.values[key] = self.values.get(key, 0) + value


def _walk(node: Any, path: tuple, reserved: set, at: tuple = ()) -> Iterator:
    """``(label values, container, leaf key)`` for every leaf of a stats
    dict under ``path``; a ``*`` binds every key that no other family's
    path names literally (``sessions.*`` skips ``sessions.active``)."""
    if not isinstance(node, dict):
        raise ValueError(f"stats section {'.'.join(at)!r} is not an object")
    head, rest = path[0], path[1:]
    if head == "*":
        keys = [k for k in node if at + (k,) not in reserved]
    else:
        keys = [head] if head in node else []
    for key in keys:
        bound = (key,) if head == "*" else ()
        if not rest:
            yield bound, node, key
            continue
        for labels, parent, leaf in _walk(node[key], rest, reserved, at + (key,)):
            yield bound + labels, parent, leaf


class ServerMetrics:
    """Thread-safe registry of everything ``stats`` and ``/metrics`` report.

    ``shard_id`` tags every snapshot and labels every exposition sample
    of one shard of a cluster.  ``active_sessions`` and ``storage`` are
    the server's live readings (open sessions, ``storage_stats()``);
    without them the registry reports 0 and the zeroed storage schema.
    """

    def __init__(
        self,
        shard_id: Optional[Any] = None,
        active_sessions: Optional[Callable[[], int]] = None,
        storage: Callable[[], Dict[str, Any]] = dict,
    ) -> None:
        self.shard_id = shard_id
        self.storage = storage
        self._lock = threading.Lock()
        self.families: List[Family] = []
        (
            self._requests, self._request_errors, self._rows,
            self._query_errors, self._latency, self._meters, active,
            self._sessions, self._resilience,
        ) = [self.declare(*spec) for spec in _RECORDED]
        active.values[()] = 0
        if active_sessions is not None:
            active.collect = lambda: [((), active_sessions())]
        self._sessions.values.update(((e,), 0) for e in _SESSION_EVENTS)
        self._resilience.values.update(((e,), 0) for e in _RESILIENCE_EVENTS)
        self.declare(
            "repro_storage_info", "gauge",
            "Storage configuration (durability mode as a label).",
            ("durability",),
            collect=lambda: [((self._storage_section()["durability"],), 1)],
        )
        self.declare(
            "repro_storage", "gauge", "Storage counters from storage_stats().",
            ("stat",),
            collect=lambda: sorted(
                ((k,), v) for k, v in self._storage_section().items()
            ),
        )
        for part, help_text in (
            ("calls", "Batch-kernel invocations by entry point."),
            ("items", "Items processed by batch kernels, by entry point."),
        ):
            self.declare(
                f"repro_kernel_{part}_total", "counter", help_text, ("entry",),
                collect=lambda part=part: sorted(
                    ((entry,), n) for entry, n in kernels.counters()[part].items()
                ),
            )

    def declare(self, name, kind, help_text, labels=(), stat=None, collect=None):
        """Add a :class:`Family` (same arguments); every reader lists
        families in declaration order."""
        family = Family(name, kind, help_text, labels, stat, collect)
        with self._lock:
            self.families.append(family)
        return family

    # -- recording ------------------------------------------------------
    def record_request(self, op: str, ok: bool) -> None:
        key = (op,)
        with self._lock:
            self._requests.add(key, 1)
            self._request_errors.add(key, not ok)

    def record_query(
        self, kind: str, seconds: float, rows: int, ok: bool = True
    ) -> None:
        """One query-serving request (a ``start`` or ``fetch``) finished."""
        key = (kind,)
        with self._lock:
            hist = self._latency.values.get(key)
            if hist is None:
                hist = self._latency.values[key] = LatencyHistogram()
            hist.record(seconds)
            self._rows.add(key, rows)
            self._query_errors.add(key, not ok)

    def merge_meter(self, kind: str, meter: WorkMeter) -> None:
        """Fold one finished session's op counters into the per-kind total."""
        with self._lock:
            for unit, n in meter.counts.items():
                self._meters.add((kind, unit), n)

    def bump_session(self, event: str, n: int = 1) -> None:
        with self._lock:
            self._sessions.add((event,), n)

    def bump_resilience(self, event: str, n: int = 1) -> None:
        """One retry/hedge/re-scatter/breaker/failover event occurred."""
        with self._lock:
            self._resilience.add((event,), n)

    # -- reading --------------------------------------------------------
    def _storage_section(self) -> Dict[str, Any]:
        """``storage_stats()`` over the zeroed schema."""
        return dict(_STORAGE_ZERO, **self.storage())

    def collect(
        self, stats_only: bool = False, failed: Optional[List[str]] = None
    ) -> List[Tuple[Family, List[Tuple[tuple, Any]]]]:
        """Every family (with ``stats_only``, every family with a stats
        path) and its samples: recorded ones copied under the lock (in
        recording order), live ones read from their callbacks.  A live
        family whose callback raises is left out and its name appended to
        ``failed``; without a ``failed`` list the error propagates."""
        with self._lock:
            families = [f for f in self.families if f.stat or not stats_only]
            recorded = {
                id(f): [
                    (k, v.copy() if f.kind == "histogram" else v)
                    for k, v in f.values.items()
                ]
                for f in families
                if f.collect is None
            }
        out = []
        for family in families:
            if family.collect is None:
                out.append((family, recorded[id(family)]))
                continue
            try:
                out.append((family, list(family.collect())))
            except Exception:  # noqa: BLE001 - one bad reading hides only its family
                if failed is None:
                    raise
                failed.append(family.name)
        return out

    def snapshot(self, raw: bool = False) -> Dict[str, Any]:
        """The ``stats`` JSON: every family with a stats path, then
        ``storage``; ``raw=True`` adds each histogram's buckets
        (``latency_raw``) so a router merges them exactly."""
        out: Dict[str, Any] = {}
        for family, samples in self.collect(stats_only=True):
            section = out.setdefault(family.stat[0], {})
            for key, value in samples:
                labels = iter(key)
                node = section
                path = [next(labels) if p == "*" else p for p in family.stat[1:]]
                for part in path[:-1]:
                    node = node.setdefault(part, {})
                if family.kind == "histogram":
                    node[path[-1]] = value.snapshot()
                    if raw:
                        node[path[-1] + "_raw"] = value.raw()
                else:
                    node[path[-1]] = value
        out["storage"] = self._storage_section()
        if self.shard_id is not None:
            out["shard_id"] = self.shard_id
        return out

    def exposition(
        self, summed: Collection[str] = (), failed: Optional[List[str]] = None
    ) -> List[Tuple[str, str, str, List[Tuple[Dict[str, Any], Any]]]]:
        """Every family as Prometheus ``(name, type, help, [(labels,
        value)])``: a recorded family's samples sorted by labels, a live
        one's in callback order, non-numbers left out.  A histogram is a
        ``<name>_ms{stat}`` gauge and a ``<name>_count`` counter.  Each
        labelled family named in ``summed`` gains one unlabelled sample
        of all its label sets: counters summed, histograms bucket-wise.
        ``failed`` is as for :meth:`collect`."""
        extra = {"shard": self.shard_id} if self.shard_id is not None else {}
        out = []
        for family, samples in self.collect(failed=failed):
            if family.collect is None:
                samples.sort(key=lambda kv: kv[0])
            histogram = family.kind == "histogram"
            named = [
                (dict(extra, **dict(zip(family.labels, key))), value)
                for key, value in samples
                if histogram or _is_number(value)
            ]
            if family.name in summed and named and family.labels:
                named.append((dict(extra), _total([v for _, v in named])))
            if not histogram:
                out.append((family.name, family.kind, family.help, named))
                continue
            summaries = [(labels, hist.snapshot()) for labels, hist in named]
            out.append((family.name + "_ms", "gauge", family.help, [
                (dict(labels, stat=stat), summary[stat + "_ms"])
                for labels, summary in summaries
                for stat in _STATS
            ]))
            out.append((
                family.name + "_count", "counter",
                f"Latency samples by {', '.join(family.labels)}.",
                [(labels, summary["count"]) for labels, summary in summaries],
            ))
        return out

    # -- rollup ---------------------------------------------------------
    def twin(self) -> "ServerMetrics":
        """An empty registry to roll snapshots up into: every stats family
        records afresh, every other family is still read live here."""
        twin = ServerMetrics(storage=self.storage)
        fresh = {f.name: f for f in twin.families}
        twin.families = [fresh[f.name] if f.stat else f for f in self.families]
        return twin

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Sum another process's ``snapshot(raw=True)`` into this registry:
        counters and gauges per label set, histograms bucket-wise from
        ``*_raw``.  Raises ``ValueError``, merging nothing, on a sample
        that is not a number or a histogram ``from_raw`` refuses."""
        families = [f for f in self.families if f.stat]
        reserved = {f.stat for f in families if "*" not in f.stat}
        parsed = []
        for family in families:
            for key, parent, leaf in _walk(snap, family.stat, reserved):
                if family.kind == "histogram":
                    value = LatencyHistogram.from_raw(parent.get(leaf + "_raw"))
                else:
                    value = parent[leaf]
                    if not _is_number(value):
                        raise ValueError(
                            f"{family.name}{list(key)} is not a number: {value!r}"
                        )
                parsed.append((family, key, value))
        with self._lock:
            for family, key, value in parsed:
                family.add(key, value)
