"""repro.obs: tracing, metrics exposition, and the observability plane.

Three parts:

* :mod:`repro.obs.trace` — hierarchical spans with ``WorkMeter`` deltas,
  a zero-overhead disabled path, wire-propagated trace contexts, and
  ``REPRO_TRACE`` gating.
* :mod:`repro.obs.exporters` — Chrome trace-event JSON (Perfetto) and
  the Prometheus text exposition of a
  :class:`~repro.server.metrics.ServerMetrics` registry.
* :mod:`repro.obs.plane` — the in-process ring-buffer TSDB
  (:class:`~repro.obs.plane.MetricStore`), scrape-loop
  :class:`~repro.obs.plane.ObservabilityPlane` whose stock collector
  observes that same registry under its family names, and the SLO
  burn-rate engine with typed alerts (exposed as live ``repro_slo_*``
  families on the registry).

The metric families themselves — names, types, labels and which reader
shows which — are declared once, in :mod:`repro.server.metrics`.

``trace`` is imported eagerly (it depends only on the stdlib, so any
layer — storage, geometry, engine — can import :mod:`repro.obs` without
cycles); the exporters and the plane, which pull in heavier deps, load
lazily on first attribute access.
"""

from repro.obs import trace
from repro.obs.trace import (
    Span,
    Tracer,
    build_tree,
    current_span,
    disable,
    enable,
    enabled,
    get_tracer,
    instant,
    span,
    tracing,
    wire_ctx,
)

_EXPORTER_NAMES = (
    "aggregate_spans",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
)

_PLANE_NAMES = (
    "Alert",
    "MetricStore",
    "ObservabilityPlane",
    "SLO",
    "SLOEngine",
)

__all__ = [
    "Span",
    "Tracer",
    "build_tree",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "instant",
    "span",
    "trace",
    "tracing",
    "wire_ctx",
    *_EXPORTER_NAMES,
    *_PLANE_NAMES,
]


def __getattr__(name):
    if name in _EXPORTER_NAMES:
        from repro.obs import exporters

        return getattr(exporters, name)
    if name in _PLANE_NAMES:
        from repro.obs import plane

        return getattr(plane, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
