"""Exporter tests: Chrome trace JSON, rollups, Prometheus."""

import json

import pytest

from repro.engine.cost import DEFAULT_COST_MODEL, WorkMeter
from repro.obs import trace
from repro.obs.exporters import (
    aggregate_spans,
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)
from repro.server.metrics import ServerMetrics
from tests.oracles import lint_prometheus


@pytest.fixture
def sample_tracer():
    meter = WorkMeter()
    with trace.tracing() as tracer:
        with trace.span("outer", meter, query=1):
            meter.add("mbr_test", 4)
            trace.instant("tick", page=7)
            with trace.span("inner", meter):
                meter.add("result_row", 2)
    return tracer


class TestChromeTrace:
    def test_document_shape(self, sample_tracer):
        doc = chrome_trace(sample_tracer)
        assert doc["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in phases and "X" in phases and "i" in phases

    def test_span_events_nest_by_timestamps(self, sample_tracer):
        doc = chrome_trace(sample_tracer)
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_meter_and_simulated_seconds_in_args(self, sample_tracer):
        doc = chrome_trace(sample_tracer)
        outer = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "outer"
        )
        # outer's delta covers both its own and the nested span's charges
        assert outer["args"]["meter"] == {"mbr_test": 4.0, "result_row": 2.0}
        expected = 4 * DEFAULT_COST_MODEL.cost_of(
            "mbr_test"
        ) + 2 * DEFAULT_COST_MODEL.cost_of("result_row")
        assert outer["args"]["simulated_seconds"] == pytest.approx(expected)

    def test_json_serialisable_and_writeable(self, sample_tracer, tmp_path):
        path = write_chrome_trace(
            str(tmp_path / "trace.json"), sample_tracer
        )
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]

    def test_empty_source(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


class TestAggregate:
    def test_rollup_sums_meters_and_counts(self, sample_tracer):
        rollup = aggregate_spans(sample_tracer.spans)
        assert rollup["outer"]["count"] == 1
        assert rollup["inner"]["meter"] == {"result_row": 2.0}
        assert rollup["inner"]["simulated_seconds"] == pytest.approx(
            2 * DEFAULT_COST_MODEL.cost_of("result_row")
        )


class TestPrometheus:
    def _metrics(self):
        metrics = ServerMetrics(active_sessions=lambda: 1)
        metrics.record_request("start", ok=True)
        metrics.record_request("fetch", ok=False)
        metrics.record_query("sql", 0.01, rows=5)
        meter = WorkMeter()
        meter.add("mbr_test", 3)
        metrics.merge_meter("sql", meter)
        metrics.bump_session("opened")
        return metrics

    def test_exposition_is_lint_clean(self, monkeypatch):
        from repro.geometry import kernels

        monkeypatch.setattr(
            kernels,
            "counters",
            lambda: {
                "calls": {"mbr_filter_indices": 2},
                "items": {"mbr_filter_indices": 9},
            },
        )
        text = prometheus_text(self._metrics())
        assert lint_prometheus(text) == []
        assert 'repro_requests_total{op="start"} 1' in text
        assert 'repro_request_errors_total{op="fetch"} 1' in text
        assert 'repro_query_rows_total{kind="sql"} 5' in text
        assert 'repro_meter_units_total{kind="sql",unit="mbr_test"} 3' in text
        assert "repro_sessions_active 1" in text
        assert 'repro_kernel_calls_total{entry="mbr_filter_indices"} 2' in text

    def test_storage_zeros_without_durability(self):
        # the registry must expose a stable zeroed storage schema even
        # when the server has no storage stats to report
        text = prometheus_text(ServerMetrics())
        assert 'repro_storage_info{durability="none"} 1' in text
        assert 'repro_storage{stat="wal_bytes"} 0' in text
        assert 'repro_storage{stat="recovered_pages"} 0' in text
        assert lint_prometheus(text) == []

    def test_label_escaping(self):
        metrics = ServerMetrics()
        metrics.record_request('we"ird\\op', ok=True)
        text = prometheus_text(metrics)
        assert lint_prometheus(text) == []


class TestLint:
    def test_valid_minimal_exposition(self):
        text = (
            "# HELP x_total things\n"
            "# TYPE x_total counter\n"
            'x_total{a="b"} 1\n'
            "x_total 2.5\n"
        )
        assert lint_prometheus(text) == []

    def test_missing_trailing_newline(self):
        errors = lint_prometheus("# TYPE x counter\nx 1")
        assert any("newline" in e for e in errors)

    def test_sample_without_type(self):
        errors = lint_prometheus("lonely_metric 1\n")
        assert any("no preceding TYPE" in e for e in errors)

    def test_bad_type_value(self):
        errors = lint_prometheus("# TYPE x weird\nx 1\n")
        assert any("bad TYPE" in e for e in errors)

    def test_duplicate_sample(self):
        text = "# TYPE x counter\nx 1\nx 2\n"
        errors = lint_prometheus(text)
        assert any("duplicate sample" in e for e in errors)

    def test_malformed_sample_line(self):
        errors = lint_prometheus("# TYPE x counter\nx one\n")
        assert any("malformed sample" in e for e in errors)

    def test_malformed_label_pair(self):
        errors = lint_prometheus('# TYPE x counter\nx{a=b} 1\n')
        assert any("malformed label pair" in e for e in errors)

    def test_histogram_suffixes_allowed(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 3\n'
            "h_sum 2.5\n"
            "h_count 3\n"
        )
        assert lint_prometheus(text) == []
