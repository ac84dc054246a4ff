"""Trace and metrics exporters.

* :func:`chrome_trace` — Chrome trace-event JSON (the ``traceEvents``
  format Perfetto and ``chrome://tracing`` load): one complete-event
  (``ph:"X"``) per span with wall-clock ``ts``/``dur`` in microseconds
  and the span's simulated-seconds / meter-delta attached as ``args``.
* :func:`prometheus_text` — Prometheus text exposition (version 0.0.4)
  of a :class:`~repro.server.metrics.ServerMetrics` registry.
* :func:`aggregate_spans` — per-span-name rollup (count, meter delta,
  simulated seconds) used by ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.engine.cost import CostModel, DEFAULT_COST_MODEL
from repro.obs.trace import Span, Tracer

__all__ = [
    "aggregate_spans",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
]


def _spans_and_events(source: Union[Tracer, Sequence[Span]]):
    if isinstance(source, Tracer):
        with source._lock:
            return list(source.spans), list(source.events)
    return list(source), []


# ---------------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto)
# ---------------------------------------------------------------------------

def chrome_trace(
    source: Union[Tracer, Sequence[Span]],
    model: CostModel = DEFAULT_COST_MODEL,
) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event document.

    Wall-clock bounds become ``ts``/``dur`` (µs, rebased to the earliest
    span) so nesting renders correctly; the simulated-time story rides
    along in ``args`` (``simulated_seconds`` + per-kind meter deltas).
    """
    spans, events = _spans_and_events(source)
    if not spans and not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    starts = [s.start_wall for s in spans] + [e["ts"] for e in events]
    epoch = min(starts)
    trace_events: List[Dict[str, Any]] = []
    seen_threads = set()
    for s in spans:
        if (s.pid, s.tid) not in seen_threads:
            seen_threads.add((s.pid, s.tid))
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": s.pid,
                    "tid": s.tid,
                    "args": {"name": f"repro pid={s.pid}"},
                }
            )
        args: Dict[str, Any] = {
            "trace_id": s.trace_id,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
        }
        args.update(s.tags)
        if s.meter_delta:
            args["meter"] = {k: s.meter_delta[k] for k in sorted(s.meter_delta)}
            args["simulated_seconds"] = s.simulated_seconds(model)
        trace_events.append(
            {
                "name": s.name,
                "cat": s.cat or "repro",
                "ph": "X",
                "ts": (s.start_wall - epoch) * 1e6,
                "dur": max(0.0, s.end_wall - s.start_wall) * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": args,
            }
        )
    for e in events:
        trace_events.append(
            {
                "name": e["name"],
                "cat": "repro",
                "ph": "i",
                "s": "t",
                "ts": (e["ts"] - epoch) * 1e6,
                "pid": e["pid"],
                "tid": e["tid"],
                "args": dict(e["tags"], parent_id=e["parent_id"]),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    source: Union[Tracer, Sequence[Span]],
    model: CostModel = DEFAULT_COST_MODEL,
) -> str:
    with open(path, "w") as fh:
        json.dump(chrome_trace(source, model), fh, indent=1, default=str)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Per-operator rollup (EXPLAIN ANALYZE)
# ---------------------------------------------------------------------------

def aggregate_spans(
    spans: Iterable[Span],
    model: CostModel = DEFAULT_COST_MODEL,
) -> Dict[str, Dict[str, Any]]:
    """Roll spans up by name: count, summed meter delta, simulated and
    wall seconds.  Summation is order-independent (sorted kinds)."""
    rollup: Dict[str, Dict[str, Any]] = {}
    for s in spans:
        entry = rollup.setdefault(
            s.name,
            {"count": 0, "meter": {}, "wall_seconds": 0.0},
        )
        entry["count"] += 1
        entry["wall_seconds"] += s.wall_seconds
        for kind, n in s.meter_delta.items():
            entry["meter"][kind] = entry["meter"].get(kind, 0.0) + n
    for entry in rollup.values():
        total = 0.0
        for kind in sorted(entry["meter"]):
            total += model.cost_of(kind) * entry["meter"][kind]
        entry["simulated_seconds"] = total
    return rollup


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: Any) -> str:
    text = str(value)
    for raw, escaped in _LABEL_ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def _fmt_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: Any) -> str:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "0"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_text(metrics) -> str:
    """Render a :class:`~repro.server.metrics.ServerMetrics` registry as
    Prometheus text: HELP and TYPE from each family's declaration, then
    one line per sample of its :meth:`exposition
    <repro.server.metrics.ServerMetrics.exposition>`.  A live family whose
    callback raises is left out; the rest still render."""
    lines: List[str] = []
    for name, mtype, help_text, samples in metrics.exposition(failed=[]):
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(value)}")
    return "\n".join(lines) + "\n"

