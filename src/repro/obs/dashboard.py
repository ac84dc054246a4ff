"""Live cluster dashboard: terminal ``top`` view and HTML export.

Pure rendering over the wire-safe :meth:`ObservabilityPlane.snapshot
<repro.obs.plane.ObservabilityPlane.snapshot>` dict (plus the router's
``topology``/``health`` responses when available), so the shell's ``top``
command, the HTML exporter and the tests all share one code path and none
of them need a live cluster to render.

* :func:`spark` — a unicode sparkline (``▁▂▃▄▅▆▇█``) of a value series.
* :func:`render_top` — the ``python -m repro.shell top`` screen: topology
  with per-shard health and breaker state, replication lag, QPS and
  latency sparklines, SLO burn rates and firing alerts.
* :func:`render_html` — a self-contained HTML page of the same view
  (inline SVG sparklines, no external assets), for CI artifacts.
"""

from __future__ import annotations

import html
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["spark", "series_points", "qps_from_points", "render_top", "render_html"]

_BLOCKS = "▁▂▃▄▅▆▇█"

#: families the panels read summed over every label set (the latency
#: histogram bucket-merged), which the plane's registry collector stores
SUMMED_FAMILIES = ("repro_requests_total", "repro_query_latency")


def spark(values: Sequence[float], width: int = 40) -> str:
    """Render ``values`` as a fixed-width unicode sparkline.

    Longer series are tail-truncated (the most recent ``width`` samples
    matter on a live screen); an empty series renders as spaces so the
    layout never jumps.
    """
    values = [float(v) for v in values][-width:]
    if not values:
        return " " * width
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        # Flat line: sit at the bottom unless the level itself is high.
        level = 0 if hi <= 0 else 3
        return (_BLOCKS[level] * len(values)).rjust(width)
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[idx])
    return "".join(out).rjust(width)


def series_points(
    plane: Dict[str, Any],
    name: str,
    labels: Optional[Dict[str, Any]] = None,
) -> List[Tuple[float, float]]:
    """The ``(ts, value)`` tail of the series ``name{labels}`` in a plane
    snapshot; labels match exactly (string-compared, like the store's
    keys), ``None`` meaning none."""
    want = {str(k): str(v) for k, v in (labels or {}).items()}
    for series in plane.get("series", []):
        if series["name"] == name and series.get("labels", {}) == want:
            return [(p[0], p[1]) for p in series.get("points", [])]
    return []


def _latest(plane: Dict[str, Any], name: str, labels=None) -> Optional[float]:
    points = series_points(plane, name, labels)
    return points[-1][1] if points else None


def qps_from_points(points: Sequence[Tuple[float, float]]) -> List[float]:
    """Per-second rates between consecutive samples of a counter series.

    Resets (value drops across a restart) clip to 0 rather than going
    negative.
    """
    out: List[float] = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        out.append(max(0.0, (v1 - v0)) / dt)
    return out


def _shard_rows(
    plane: Dict[str, Any],
    topology: Optional[Dict[str, Any]],
    health: Optional[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One merged row per shard: address, health state, breaker, lag."""
    shards: Dict[str, Dict[str, Any]] = {}

    def row(shard: str) -> Dict[str, Any]:
        return shards.setdefault(str(shard), {"shard": str(shard)})

    # Router topology reports a shard *count* (addresses are the router's
    # private handles); seed one row per shard so they render even before
    # any per-shard series exists.
    count = (topology or {}).get("shards")
    if isinstance(count, int):
        for shard in range(count):
            row(shard)
    for shard, state in ((topology or {}).get("breakers") or {}).items():
        row(shard).setdefault("breaker", state)
    breakers = (health or {}).get("breakers", {})
    for shard, status in breakers.items():
        r = row(shard)
        r["breaker"] = status.get("state")
        r["opens"] = status.get("opens")
    for shard, status in ((health or {}).get("health") or {}).items():
        row(shard)["state"] = status.get("state")
    for series in plane.get("series", []):
        shard = series.get("labels", {}).get("shard")
        if shard is None:
            continue
        r = row(shard)
        if series["name"] == "repro_cluster_shard_up" and "state" not in r:
            r["state"] = "up" if (series.get("latest") or 0) >= 1 else "down"
        if series["name"] == "repro_cluster_breaker_state" and "breaker" not in r:
            code = series.get("latest")
            r["breaker"] = {0: "closed", 1: "open", 2: "half_open"}.get(
                int(code) if code is not None else -1, "?"
            )
        if series["name"] == "repro_cluster_deadline_misses_total":
            r["deadline_misses"] = series.get("latest")
    return [shards[k] for k in sorted(shards, key=str)]


def _panels(
    plane: Dict[str, Any],
    topology: Optional[Dict[str, Any]] = None,
    health: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The computed view-model both renderers draw from."""
    # Every op's requests and every query kind's latency: the unlabelled
    # sums of SUMMED_FAMILIES (histograms bucket-wise, as the router
    # merges its shards).
    qps = qps_from_points(series_points(plane, "repro_requests_total"))
    p50, p99 = (
        [v for _, v in series_points(plane, "repro_query_latency_ms", {"stat": stat})]
        for stat in ("p50", "p99")
    )
    lag_lsn = _latest(plane, "repro_cluster_replication_lag_lsn")
    lag_s = _latest(plane, "repro_cluster_replication_lag_seconds")
    lag_series = [
        v for _, v in series_points(plane, "repro_cluster_replication_lag_seconds")
    ]
    fanout = _latest(plane, "repro_cluster_scatter_fanout")
    return {
        "shards": _shard_rows(plane, topology, health),
        "qps": qps,
        "p50": p50,
        "p99": p99,
        "lag_lsn": lag_lsn,
        "lag_seconds": lag_s,
        "lag_series": lag_series,
        "fanout": fanout,
        "slos": plane.get("slos", []),
        "burn_rates": plane.get("burn_rates", {}),
        "alerts": plane.get("alerts_firing", []),
        "collector_errors": plane.get("collector_errors", {}),
        "scrapes": plane.get("scrapes", 0),
    }


def _num(value: Optional[float], fmt: str = "{:.1f}") -> str:
    return "-" if value is None else fmt.format(value)


def render_top(
    plane: Dict[str, Any],
    topology: Optional[Dict[str, Any]] = None,
    health: Optional[Dict[str, Any]] = None,
    width: int = 40,
) -> str:
    """The terminal ``top`` screen as one string (no cursor control)."""
    p = _panels(plane, topology, health)
    lines: List[str] = []
    lines.append(
        f"repro cluster top — scrapes={p['scrapes']} "
        f"collector_errors={sum(p['collector_errors'].values()) or 0}"
    )
    lines.append("")
    lines.append("SHARDS")
    if p["shards"]:
        for r in p["shards"]:
            lines.append(
                f"  shard {r['shard']:>2}  "
                f"state={r.get('state', '?'):<7} "
                f"breaker={r.get('breaker', '?'):<9} "
                f"opens={r.get('opens', 0) or 0:<3} "
                f"deadline_misses={int(r.get('deadline_misses') or 0)}"
            )
    else:
        lines.append("  (no per-shard series yet)")
    lines.append("")
    lines.append(
        "REPLICATION  "
        f"lag_lsn={_num(p['lag_lsn'], '{:.0f}')} "
        f"lag_seconds={_num(p['lag_seconds'], '{:.3f}')}  "
        + spark(p["lag_series"], width)
    )
    lines.append(
        f"FAN-OUT      last_scatter_width={_num(p['fanout'], '{:.0f}')}"
    )
    lines.append("")
    qps_now = p["qps"][-1] if p["qps"] else None
    lines.append(f"QPS   {_num(qps_now, '{:8.1f}')}  " + spark(p["qps"], width))
    p50_now = p["p50"][-1] if p["p50"] else None
    p99_now = p["p99"][-1] if p["p99"] else None
    lines.append(f"p50ms {_num(p50_now, '{:8.2f}')}  " + spark(p["p50"], width))
    lines.append(f"p99ms {_num(p99_now, '{:8.2f}')}  " + spark(p["p99"], width))
    lines.append("")
    lines.append("SLOs")
    for slo in p["slos"]:
        burns = p["burn_rates"].get(slo["name"], {})
        burn_txt = " ".join(
            f"{window}={_num(rate, '{:.2f}')}"
            for window, rate in sorted(burns.items())
        )
        lines.append(
            f"  {slo['name']:<18} objective={slo['objective']:<8} "
            f"burn[{burn_txt}]"
        )
    if p["alerts"]:
        lines.append("")
        lines.append("ALERTS FIRING")
        for alert in p["alerts"]:
            lines.append(
                f"  [{alert['severity']:>6}] {alert['slo']} "
                f"burn_short={alert['burn_short']:.1f} "
                f"burn_long={alert['burn_long']:.1f}"
            )
    else:
        lines.append("")
        lines.append("ALERTS FIRING: none")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# HTML export
# ---------------------------------------------------------------------------


def _svg_spark(values: Sequence[float], w: int = 240, h: int = 36) -> str:
    """A tiny inline SVG polyline of ``values`` (no external assets)."""
    values = [float(v) for v in values]
    if not values:
        return f'<svg width="{w}" height="{h}"></svg>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = w / max(1, n - 1)
    points = " ".join(
        f"{i * step:.1f},{h - 2 - (v - lo) / span * (h - 4):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg width="{w}" height="{h}">'
        f'<polyline fill="none" stroke="#2a7" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def render_html(
    plane: Dict[str, Any],
    topology: Optional[Dict[str, Any]] = None,
    health: Optional[Dict[str, Any]] = None,
    title: str = "repro cluster dashboard",
) -> str:
    """A self-contained HTML dashboard page (CI uploads this artifact)."""
    p = _panels(plane, topology, health)
    esc = html.escape
    rows = "".join(
        "<tr>"
        f"<td>{esc(str(r['shard']))}</td>"
        f"<td class={esc(str(r.get('state', 'unknown')))!r}>"
        f"{esc(str(r.get('state', '?')))}</td>"
        f"<td>{esc(str(r.get('breaker', '?')))}</td>"
        f"<td>{esc(str(r.get('opens', 0) or 0))}</td>"
        f"<td>{esc(str(int(r.get('deadline_misses') or 0)))}</td>"
        "</tr>"
        for r in p["shards"]
    )
    slo_rows = "".join(
        "<tr>"
        f"<td>{esc(slo['name'])}</td>"
        f"<td>{esc(str(slo['objective']))}</td>"
        f"<td>{esc(json.dumps(p['burn_rates'].get(slo['name'], {})))}</td>"
        "</tr>"
        for slo in p["slos"]
    )
    alerts = (
        "".join(
            f"<li class=alert>[{esc(a['severity'])}] {esc(a['slo'])} "
            f"burn {a['burn_short']:.1f}/{a['burn_long']:.1f}</li>"
            for a in p["alerts"]
        )
        or "<li>none</li>"
    )
    return f"""<!doctype html>
<html><head><meta charset="utf-8"><title>{esc(title)}</title>
<style>
 body {{ font: 13px/1.4 monospace; margin: 1.5em; color: #222; }}
 h2 {{ border-bottom: 1px solid #ccc; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid #ccc; padding: 2px 8px; }}
 td.up {{ color: #2a7; }} td.down {{ color: #c22; }}
 li.alert {{ color: #c22; font-weight: bold; }}
</style></head><body>
<h1>{esc(title)}</h1>
<p>generated {esc(time.strftime('%Y-%m-%d %H:%M:%S'))} —
scrapes={p['scrapes']}</p>
<h2>Shards</h2>
<table><tr><th>shard</th><th>state</th><th>breaker</th><th>opens</th>
<th>deadline misses</th></tr>{rows}</table>
<h2>Replication</h2>
<p>lag_lsn={_num(p['lag_lsn'], '{:.0f}')}
lag_seconds={_num(p['lag_seconds'], '{:.3f}')}
{_svg_spark(p['lag_series'])}</p>
<h2>Traffic</h2>
<p>QPS {_svg_spark(p['qps'])}</p>
<p>p50 ms {_svg_spark(p['p50'])}</p>
<p>p99 ms {_svg_spark(p['p99'])}</p>
<h2>SLOs</h2>
<table><tr><th>slo</th><th>objective</th><th>burn rates</th></tr>
{slo_rows}</table>
<h2>Alerts firing</h2>
<ul>{alerts}</ul>
</body></html>
"""
