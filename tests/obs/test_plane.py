"""Metrics store, SLO burn-rate engine and the scrape plane (no sockets).

Everything runs on an injected fake clock so retention and burn-rate
windows are exact, not timing-dependent.
"""

import pytest

from repro.obs.plane import (
    SLO,
    BurnWindow,
    MetricStore,
    ObservabilityPlane,
    SLOEngine,
    default_cluster_slos,
    registry_collector,
    series_key,
)
from repro.obs.dashboard import render_top
from repro.obs.exporters import prometheus_text
from repro.server.metrics import ServerMetrics
from tests.oracles import lint_prometheus


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


class TestMetricStore:
    def test_observe_and_latest(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        store.observe("qps", {"shard": 0}, 5.0)
        store.observe("qps", {"shard": 0}, 7.0)
        assert store.latest("qps", {"shard": 0}) == 7.0
        assert store.latest("qps", {"shard": 1}) is None
        # label values canonicalise to strings: int 0 == "0"
        assert store.latest("qps", {"shard": "0"}) == 7.0

    def test_series_key_label_order_irrelevant(self):
        assert series_key("m", {"a": 1, "b": 2}) == series_key(
            "m", {"b": 2, "a": 1}
        )

    def test_range_query_window(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        for i in range(5):
            store.observe("g", None, float(i))
            clock.advance(1.0)
        points = store.range_query("g", start=1001.0, end=1003.0)
        assert [v for _, v in points] == [1.0, 2.0, 3.0]

    def test_retention_evicts_old_points(self):
        clock = FakeClock()
        store = MetricStore(retention=10.0, clock=clock)
        store.observe("g", None, 1.0)
        clock.advance(11.0)
        store.observe("g", None, 2.0)
        assert [v for _, v in store.range_query("g")] == [2.0]

    def test_ring_buffer_bounds_points(self):
        store = MetricStore(max_points=4, clock=FakeClock())
        for i in range(10):
            store.observe("g", None, float(i))
        assert len(store.range_query("g")) == 4

    def test_rate_survives_counter_reset(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        # 0 -> 100, restart drops to 0, climbs to 40: increase = 140.
        for v in (0, 100, 0, 40):
            store.observe("c", None, float(v))
            clock.advance(1.0)
        assert store.increase("c", window=10.0) == pytest.approx(140.0)

    def test_match_filters_series(self):
        store = MetricStore(clock=FakeClock())
        store.observe("up", {"shard": 0}, 1.0)
        store.observe("up", {"shard": 1}, 0.0)
        store.observe("other", {"shard": 0}, 1.0)
        assert len(store.match("up")) == 2
        assert store.match("up", shard=1) == [{"shard": "1"}]


#: compressed windows so a test drives hours of SRE-workbook burn logic
#: through seconds of fake time
FAST = (BurnWindow(5.0, 60.0, 10.0, "page"),)


def _availability_slo() -> SLO:
    return SLO(
        "avail",
        "availability",
        objective=0.99,
        total_metric="req.total",
        error_metric="req.errors",
    )


class TestSLOEngine:
    def _feed(self, store, clock, seconds, total_per_s, err_per_s):
        total = store.latest("req.total") or 0.0
        errors = store.latest("req.errors") or 0.0
        for _ in range(int(seconds)):
            total += total_per_s
            errors += err_per_s
            store.observe("req.total", None, total)
            store.observe("req.errors", None, errors)
            clock.advance(1.0)

    def test_no_data_does_not_fire(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        engine = SLOEngine(store, [_availability_slo()], windows=FAST, clock=clock)
        assert engine.evaluate() == []
        assert engine.burn_rates()["avail"] == {}

    def test_fires_when_both_windows_burn(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        engine = SLOEngine(store, [_availability_slo()], windows=FAST, clock=clock)
        # 50% errors against a 1% budget = burn 50 in BOTH windows.
        self._feed(store, clock, 70, total_per_s=10, err_per_s=5)
        transitions = engine.evaluate()
        assert [a.state for a in transitions] == ["firing"]
        alert = transitions[0]
        assert alert.slo == "avail" and alert.severity == "page"
        assert alert.burn_short >= 10.0 and alert.burn_long >= 10.0
        assert engine.firing()[0].slo == "avail"
        # Steady burn: already firing, no duplicate transition.
        assert engine.evaluate() == []

    def test_short_window_alone_does_not_fire(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        engine = SLOEngine(store, [_availability_slo()], windows=FAST, clock=clock)
        # A long clean history, then a 5s error spike: the short window
        # burns hot but the long window stays calm -> no page (this is
        # the point of multi-window alerts).
        self._feed(store, clock, 60, total_per_s=10, err_per_s=0)
        self._feed(store, clock, 5, total_per_s=10, err_per_s=5)
        assert engine.evaluate() == []

    def test_resolves_after_recovery(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        engine = SLOEngine(store, [_availability_slo()], windows=FAST, clock=clock)
        self._feed(store, clock, 70, total_per_s=10, err_per_s=5)
        assert engine.evaluate()[0].state == "firing"
        self._feed(store, clock, 70, total_per_s=10, err_per_s=0)
        transitions = engine.evaluate()
        assert [a.state for a in transitions] == ["resolved"]
        assert engine.firing() == []
        # Both transitions live in the typed log, in order.
        assert [a.state for a in engine.alerts] == ["firing", "resolved"]

    def test_time_scale_shrinks_windows(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        # Workbook page windows (300s/3600s) scaled down 100x -> 3s/36s.
        engine = SLOEngine(
            store, [_availability_slo()], time_scale=0.01, clock=clock
        )
        self._feed(store, clock, 40, total_per_s=10, err_per_s=5)
        states = {(a.slo, a.severity) for a in engine.evaluate()}
        assert ("avail", "page") in states

    def test_gauge_ceiling_slo(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        slo = SLO(
            "lag", "gauge_ceiling", objective=0.9,
            metric="lag_s", threshold=2.0,
        )
        engine = SLOEngine(store, [slo], windows=FAST, clock=clock)
        for _ in range(70):
            store.observe("lag_s", None, 5.0)  # always over the ceiling
            clock.advance(1.0)
        assert engine.evaluate()[0].state == "firing"

    def test_prometheus_exposition(self):
        clock = FakeClock()
        store = MetricStore(clock=clock)
        engine = SLOEngine(store, [_availability_slo()], windows=FAST, clock=clock)
        self._feed(store, clock, 70, total_per_s=10, err_per_s=5)
        engine.evaluate()
        metrics = ServerMetrics()
        engine.declare(metrics)
        text = prometheus_text(metrics)
        assert '# TYPE repro_slo_objective gauge' in text
        assert 'repro_slo_alert_firing{severity="page",slo="avail"} 1' in text
        assert 'repro_slo_alerts_total{severity="page",slo="avail"} 1' in text
        assert lint_prometheus(text) == []


class TestObservabilityPlane:
    def test_scrape_runs_collectors_and_engine(self):
        clock = FakeClock()
        plane = ObservabilityPlane(
            slos=[_availability_slo()], windows=FAST, clock=clock
        )
        state = {"total": 0.0}

        def collector(store, now):
            state["total"] += 10.0
            store.observe("req.total", None, state["total"], now)
            store.observe("req.errors", None, state["total"] / 2.0, now)

        plane.add_collector(collector)
        for _ in range(70):
            plane.scrape_once()
            clock.advance(1.0)
        assert plane.scrapes == 70
        snap = plane.snapshot()
        assert snap["alerts_firing"][0]["slo"] == "avail"
        assert any(s["name"] == "req.total" for s in snap["series"])

    def test_broken_collector_counted_not_fatal(self):
        plane = ObservabilityPlane(clock=FakeClock())

        def broken(store, now):
            raise RuntimeError("collector bug")

        plane.add_collector(broken, name="bad")
        plane.add_collector(lambda store, now: store.observe("ok", None, 1.0, now))
        plane.scrape_once()
        plane.scrape_once()
        assert plane.collector_errors["bad"] == 2
        assert plane.store.latest("ok") == 1.0

    def test_snapshot_is_json_safe(self):
        import json

        plane = ObservabilityPlane(
            slos=default_cluster_slos(), clock=FakeClock()
        )
        plane.add_collector(
            lambda store, now: store.observe("g", {"shard": 1}, 2.5, now)
        )
        plane.scrape_once()
        parsed = json.loads(plane.snapshot_json())
        assert parsed["scrapes"] == 1
        assert {s["name"] for s in parsed["slos"]} == {
            "availability", "p99-latency", "replication-lag",
        }

    def test_prometheus_text_has_slo_family(self):
        plane = ObservabilityPlane(
            slos=default_cluster_slos(), clock=FakeClock()
        )
        metrics = ServerMetrics()
        plane.engine.declare(metrics)
        assert "repro_slo_objective" in prometheus_text(metrics)

    def test_background_thread_scrapes(self):
        import time as _time

        plane = ObservabilityPlane(interval=0.01)
        plane.add_collector(
            lambda store, now: store.observe("tick", None, 1.0, now)
        )
        plane.start()
        try:
            deadline = _time.monotonic() + 5.0
            while plane.scrapes == 0 and _time.monotonic() < deadline:
                _time.sleep(0.01)
        finally:
            plane.stop()
        assert plane.scrapes > 0
        assert plane.store.latest("tick") == 1.0


class TestRegistryCollector:
    def test_plane_reads_the_registry_under_family_names(self):
        metrics = ServerMetrics()
        metrics.record_request("start", ok=True)
        metrics.record_request("start", ok=False)
        metrics.bump_session("opened")
        plane = ObservabilityPlane(
            slos=default_cluster_slos(), clock=FakeClock()
        )
        plane.add_collector(registry_collector(metrics, plane.engine.slos))
        plane.scrape_once()
        store = plane.store
        assert store.latest("repro_requests_total", {"op": "start"}) == 2.0
        assert store.latest("repro_request_errors_total", {"op": "start"}) == 1.0
        # the families an SLO or a panel reads summed also land summed
        # over their label sets; no other family does
        assert store.latest("repro_requests_total") == 2.0
        assert store.latest("repro_request_errors_total") == 1.0
        assert store.latest("repro_sessions_total", {"event": "opened"}) == 1.0
        assert store.latest("repro_sessions_total") is None
        assert store.latest("repro_sessions_active") == 0.0
        assert plane.collector_errors == {}

    def test_latency_slo_watches_the_worst_query_kind(self):
        """A slow kind carrying 1% of the traffic cannot move the p99 of
        all kinds merged, but its own p99 still burns the budget."""
        metrics = ServerMetrics()
        for _ in range(990):
            metrics.record_query("window", 0.001, 1)
        for _ in range(10):
            metrics.record_query("knn", 0.500, 1)
        plane = ObservabilityPlane(
            slos=default_cluster_slos(p99_ms=250.0), clock=FakeClock()
        )
        plane.add_collector(registry_collector(metrics, plane.engine.slos))
        plane.scrape_once()
        store = plane.store
        assert store.latest("repro_query_latency_ms", {"stat": "p99"}) < 250.0
        slo = next(s for s in plane.engine.slos if s.name == "p99-latency")
        assert slo.bad_ratio(store, 60.0, plane.clock()) == 1.0

    def test_a_raising_live_family_is_counted_and_skipped(self):
        metrics = ServerMetrics()
        metrics.record_request("start", ok=True)

        def broken():
            raise RuntimeError("reading failed")

        metrics.declare("repro_broken", "gauge", "Always fails.", collect=broken)
        plane = ObservabilityPlane(clock=FakeClock())
        plane.add_collector(registry_collector(metrics), name="router")
        plane.scrape_once()
        # the other families still land; the failure is counted
        assert plane.store.latest("repro_requests_total", {"op": "start"}) == 1.0
        assert plane.collector_errors == {"router": 1}
        text = prometheus_text(metrics)
        assert lint_prometheus(text) == []
        assert "repro_broken" not in text
        assert 'repro_requests_total{op="start"} 1' in text
        assert metrics.snapshot()["requests"]["start"]["count"] == 1

    def test_dashboard_p50_merges_every_query_kind(self):
        """950 fast requests of one kind and 50 slow ones of another:
        the p50 over all traffic is the fast kind's, not whichever kind's
        series happens to sort first."""
        metrics = ServerMetrics()
        for _ in range(950):
            metrics.record_query("window", 0.001, 1)
        for _ in range(50):
            metrics.record_query("knn", 0.200, 1)
        plane = ObservabilityPlane(clock=FakeClock())
        plane.add_collector(registry_collector(metrics))
        plane.scrape_once()
        screen = render_top(plane.snapshot())
        p50 = float(screen.split("p50ms", 1)[1].split()[0])
        assert p50 <= 2.0
        p99 = float(screen.split("p99ms", 1)[1].split()[0])
        assert p99 == pytest.approx(200.0)
