"""Cluster observability plane: in-process TSDB, SLO engine, scrape loop.

Three cooperating pieces, all dependency-free and lock-safe:

* :class:`MetricStore` — a ring-buffer time-series database.  Each
  ``(name, labels)`` series keeps a bounded deque of raw ``(ts, value)``
  points under a fixed retention window.  ``range_query()`` reads raw
  points, ``increase()`` a counter-reset-aware increase.

* :class:`SLOEngine` — declarative :class:`SLO` objectives (availability
  from counter pairs, latency/gauge ceilings from gauge series) evaluated
  over the store with **multi-window burn-rate alerts** à la the SRE
  workbook: a *page* fires when both the 5-minute and 1-hour burn rates
  exceed 14.4× budget, a *ticket* when both the 6-hour and 24-hour rates
  exceed 6×.  Transitions append typed :class:`Alert` records to an event
  log; :meth:`SLOEngine.declare` puts the current state on a metrics
  registry as the live ``repro_slo_*`` families.

* :class:`ObservabilityPlane` — a collector registry plus a background
  scrape thread.  Collectors are plain callables ``fn(store, now)``; the
  stock one, :func:`registry_collector`, observes every sample of a
  :class:`~repro.server.metrics.ServerMetrics` registry under its family
  name — a *pull* model, so when no plane is attached the instrumented
  subsystems pay nothing beyond keeping the counters they already kept.

Windows scale with ``time_scale`` so tests (and the chaos CI job) can
exercise real burn-rate math in hundreds of milliseconds.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left, bisect_right
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.dashboard import SUMMED_FAMILIES

__all__ = [
    "Alert",
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "MetricStore",
    "ObservabilityPlane",
    "SLO",
    "SLOEngine",
    "default_cluster_slos",
    "registry_collector",
    "series_key",
]


_ts, _value = itemgetter(0), itemgetter(1)


def series_key(name: str, labels: Optional[Dict[str, Any]] = None) -> Tuple:
    """Canonical hashable key for one series."""
    if not labels:
        return (name,)
    return (name,) + tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Series:
    """One ring buffer of raw points."""

    __slots__ = ("name", "labels", "points")

    def __init__(self, name: str, labels: Dict[str, str], maxlen: int) -> None:
        self.name = name
        self.labels = labels
        self.points: deque = deque(maxlen=maxlen)  # (ts, value)


class MetricStore:
    """Lock-safe in-process ring-buffer TSDB."""

    def __init__(
        self,
        retention: float = 600.0,
        max_points: int = 2048,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retention = float(retention)
        self.max_points = int(max_points)
        self.clock = clock
        self._series: Dict[Tuple, _Series] = {}
        self._lock = threading.Lock()

    # -- writes ------------------------------------------------------------
    def observe(
        self,
        name: str,
        labels: Optional[Dict[str, Any]] = None,
        value: float = 0.0,
        ts: Optional[float] = None,
    ) -> None:
        """Record one sample; evicts raw points older than retention."""
        now = self.clock() if ts is None else float(ts)
        value = float(value)
        key = series_key(name, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                canon = (
                    {str(k): str(v) for k, v in labels.items()}
                    if labels
                    else {}
                )
                series = _Series(name, canon, self.max_points)
                self._series[key] = series
            series.points.append((now, value))
            horizon = now - self.retention
            points = series.points
            while points and points[0][0] < horizon:
                points.popleft()

    # -- reads -------------------------------------------------------------
    def _get(self, name: str, labels: Optional[Dict[str, Any]]) -> Optional[_Series]:
        return self._series.get(series_key(name, labels))

    def latest(
        self, name: str, labels: Optional[Dict[str, Any]] = None
    ) -> Optional[float]:
        with self._lock:
            series = self._get(name, labels)
            if series is None or not series.points:
                return None
            return series.points[-1][1]

    def range_query(
        self,
        name: str,
        labels: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Raw ``(ts, value)`` points within ``[start, end]``, time-ordered."""
        with self._lock:
            series = self._get(name, labels)
            points = [] if series is None else list(series.points)
        lo = 0 if start is None else bisect_left(points, start, key=_ts)
        hi = len(points) if end is None else bisect_right(points, end, key=_ts)
        return points[lo:hi]

    def increase(
        self,
        name: str,
        labels: Optional[Dict[str, Any]] = None,
        window: float = 60.0,
        now: Optional[float] = None,
    ) -> float:
        """Reset-aware total increase of a counter over ``window``."""
        now = self.clock() if now is None else now
        points = self.range_query(name, labels, start=now - window, end=now)
        if len(points) < 2:
            return 0.0
        total = 0.0
        prev = points[0][1]
        for _, value in points[1:]:
            total += value - prev if value >= prev else value
            prev = value
        return total

    # -- listings ----------------------------------------------------------
    def series(self) -> List[Dict[str, Any]]:
        """All series: name, labels, latest value."""
        with self._lock:
            out = [
                {
                    "name": series.name,
                    "labels": dict(series.labels),
                    "latest": series.points[-1][1] if series.points else None,
                }
                for series in self._series.values()
            ]
            out.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))
            return out

    def match(self, name: str, **label_filter: Any) -> List[Dict[str, str]]:
        """Label sets of series named ``name`` matching the filter subset."""
        with self._lock:
            out = []
            for series in self._series.values():
                if series.name != name:
                    continue
                if all(
                    series.labels.get(k) == str(v)
                    for k, v in label_filter.items()
                ):
                    out.append(dict(series.labels))
            return out


# ---------------------------------------------------------------------------
# SLOs and burn-rate alerting
# ---------------------------------------------------------------------------


class BurnWindow:
    """One multi-window burn-rate rule: fire when BOTH windows burn hot."""

    __slots__ = ("short_s", "long_s", "factor", "severity")

    def __init__(
        self, short_s: float, long_s: float, factor: float, severity: str
    ) -> None:
        self.short_s = float(short_s)
        self.long_s = float(long_s)
        self.factor = float(factor)
        self.severity = severity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BurnWindow({self.short_s:g}s/{self.long_s:g}s "
            f"x{self.factor:g} -> {self.severity})"
        )


#: SRE-workbook defaults: fast pair pages, slow pair files a ticket.
DEFAULT_WINDOWS = (
    BurnWindow(300.0, 3600.0, 14.4, "page"),
    BurnWindow(21600.0, 86400.0, 6.0, "ticket"),
)


class SLO:
    """One declarative objective evaluated against the metric store.

    Kinds:

    * ``availability`` — ``total_metric``/``error_metric`` are cumulative
      counters; the bad-event ratio is ``increase(error)/increase(total)``.
    * ``latency`` / ``gauge_ceiling`` — ``metric`` names gauge series
      (e.g. scraped p99s or a replication-lag reading); a sample is bad
      when it exceeds ``threshold``.  Every series of that name whose
      labels include ``labels`` is judged on its own, and the worst
      series' bad fraction is the SLO's.

    ``objective`` is the good fraction promised (0.999 → 0.1% budget);
    the *burn rate* over a window is ``bad_ratio / (1 - objective)``.
    """

    __slots__ = (
        "name",
        "kind",
        "objective",
        "metric",
        "labels",
        "threshold",
        "total_metric",
        "error_metric",
        "description",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        objective: float,
        metric: Optional[str] = None,
        labels: Optional[Dict[str, Any]] = None,
        threshold: Optional[float] = None,
        total_metric: Optional[str] = None,
        error_metric: Optional[str] = None,
        description: str = "",
    ) -> None:
        if kind not in ("availability", "latency", "gauge_ceiling"):
            raise ValueError(f"unknown SLO kind {kind!r}")
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if kind == "availability":
            if not (total_metric and error_metric):
                raise ValueError("availability SLO needs total/error metrics")
        elif metric is None or threshold is None:
            raise ValueError(f"{kind} SLO needs metric and threshold")
        self.name = name
        self.kind = kind
        self.objective = float(objective)
        self.metric = metric
        self.labels = dict(labels) if labels else None
        self.threshold = threshold
        self.total_metric = total_metric
        self.error_metric = error_metric
        self.description = description

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def bad_ratio(
        self, store: MetricStore, window: float, now: float
    ) -> Optional[float]:
        """Fraction of bad events/samples in the window; None = no data."""
        if self.kind == "availability":
            total = store.increase(
                self.total_metric, self.labels, window=window, now=now
            )
            if total <= 0:
                return None
            errors = store.increase(
                self.error_metric, self.labels, window=window, now=now
            )
            return max(0.0, min(1.0, errors / total))
        over = float(self.threshold).__lt__
        ratios = []
        for labels in store.match(self.metric, **(self.labels or {})):
            points = store.range_query(
                self.metric, labels, start=now - window, end=now
            )
            if points:
                ratios.append(sum(map(over, map(_value, points))) / len(points))
        return max(ratios, default=None)

    def burn_rate(
        self, store: MetricStore, window: float, now: float
    ) -> Optional[float]:
        ratio = self.bad_ratio(store, window, now)
        if ratio is None:
            return None
        return ratio / self.budget

    def to_dict(self) -> Dict[str, Any]:
        out = {slot: getattr(self, slot) for slot in self.__slots__}
        return dict(out, labels=dict(self.labels) if self.labels else None)


class Alert:
    """One typed alert transition (``firing`` or ``resolved``)."""

    __slots__ = ("slo", "severity", "state", "ts", "burn_short", "burn_long", "window")

    def __init__(
        self,
        slo: str,
        severity: str,
        state: str,
        ts: float,
        burn_short: float,
        burn_long: float,
        window: Tuple[float, float],
    ) -> None:
        self.slo = slo
        self.severity = severity
        self.state = state
        self.ts = ts
        self.burn_short = burn_short
        self.burn_long = burn_long
        self.window = window

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "state": self.state,
            "ts": self.ts,
            "burn_short": round(self.burn_short, 4),
            "burn_long": round(self.burn_long, 4),
            "window_s": list(self.window),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Alert({self.slo}/{self.severity} {self.state} "
            f"burn={self.burn_short:.1f}/{self.burn_long:.1f})"
        )


class SLOEngine:
    """Evaluates SLO burn rates over the store; logs alert transitions."""

    def __init__(
        self,
        store: MetricStore,
        slos: Iterable[SLO] = (),
        windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
        time_scale: float = 1.0,
        max_alerts: int = 1000,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.slos: List[SLO] = list(slos)
        self.windows = tuple(windows)
        self.time_scale = float(time_scale)
        self.max_alerts = max_alerts
        self.clock = clock
        self.alerts: List[Alert] = []
        self.alerts_total: Dict[Tuple[str, str], int] = {}
        self._firing: Dict[Tuple[str, str], Alert] = {}
        #: (slo, window) -> burn rate as of the last evaluate()
        self._burns: Dict[Tuple[str, str], float] = {}
        self._lock = threading.Lock()

    # -- evaluation --------------------------------------------------------
    def burn_rates(self) -> Dict[str, Dict[str, float]]:
        """Burn rate per SLO per (unscaled) window, as last evaluated."""
        out: Dict[str, Dict[str, float]] = {s.name: {} for s in list(self.slos)}
        for (name, window), burn in self._burns.items():
            out.setdefault(name, {})[window] = burn
        return out

    def evaluate(self, now: Optional[float] = None) -> List[Alert]:
        """One evaluation pass; returns newly-logged transitions."""
        now = self.clock() if now is None else now
        transitions: List[Alert] = []
        burns: Dict[Tuple[str, str], float] = {}
        for slo in list(self.slos):
            for bw in self.windows:
                short, long_ = (
                    slo.burn_rate(self.store, seconds * self.time_scale, now)
                    for seconds in (bw.short_s, bw.long_s)
                )
                for seconds, burn in ((bw.short_s, short), (bw.long_s, long_)):
                    if burn is not None:
                        burns[(slo.name, f"{seconds:g}s")] = round(burn, 4)
                hot = (
                    short is not None
                    and long_ is not None
                    and min(short, long_) >= bw.factor
                )
                key = (slo.name, bw.severity)
                with self._lock:
                    if hot == (key in self._firing):
                        continue
                    alert = Alert(
                        slo.name,
                        bw.severity,
                        "firing" if hot else "resolved",
                        now,
                        short or 0.0,
                        long_ or 0.0,
                        (bw.short_s, bw.long_s),
                    )
                    if hot:
                        self._firing[key] = alert
                        self.alerts_total[key] = self.alerts_total.get(key, 0) + 1
                    else:
                        del self._firing[key]
                    self.alerts.append(alert)
                    del self.alerts[: max(0, len(self.alerts) - self.max_alerts)]
                transitions.append(alert)
        self._burns = burns
        return transitions

    def firing(self) -> List[Alert]:
        with self._lock:
            return list(self._firing.values())

    # -- exposition --------------------------------------------------------
    def declare(self, metrics) -> None:
        """Put the live ``repro_slo_*`` families on a metrics registry."""
        for name, kind, help_text, labels, collect in (
            ("objective", "gauge", "Declared good-fraction objective per SLO.",
             ("slo", "kind"),
             lambda: [((s.name, s.kind), s.objective) for s in list(self.slos)]),
            ("burn_rate", "gauge",
             "Error-budget burn rate per SLO and window, as last evaluated.",
             ("slo", "window"), lambda: list(self._burns.items())),
            ("alert_firing", "gauge", "1 when the SLO alert is currently firing.",
             ("slo", "severity"),
             lambda: [
                 ((slo.name, bw.severity), int((slo.name, bw.severity) in self._firing))
                 for slo in list(self.slos)
                 for bw in self.windows
             ]),
            ("alerts_total", "counter",
             "Alert firings per SLO and severity since start.",
             ("slo", "severity"), lambda: sorted(dict(self.alerts_total).items())),
        ):
            metrics.declare(f"repro_slo_{name}", kind, help_text, labels, collect=collect)


# ---------------------------------------------------------------------------
# The plane: collectors + scrape loop + wire-safe snapshot
# ---------------------------------------------------------------------------


class ObservabilityPlane:
    """Feeds a :class:`MetricStore` from registered collectors.

    Collectors are ``fn(store, now)`` callables that read cheap existing
    snapshot surfaces and call ``store.observe``; a raising collector is
    counted (``collector_errors``) and skipped, never fatal.  The plane
    owns an optional background thread (``start()``/``stop()``) and the
    :class:`SLOEngine`, which it evaluates after every scrape.
    """

    def __init__(
        self,
        store: Optional[MetricStore] = None,
        slos: Iterable[SLO] = (),
        interval: float = 0.5,
        windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
        time_scale: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store if store is not None else MetricStore(clock=clock)
        self.engine = SLOEngine(
            self.store,
            slos,
            windows=windows,
            time_scale=time_scale,
            clock=clock,
        )
        self.interval = float(interval)
        self.clock = clock
        self.scrapes = 0
        self.collector_errors: Dict[str, int] = {}
        self._collectors: List[Tuple[str, Callable[[MetricStore, float], Any]]] = []
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def add_collector(
        self,
        fn: Callable[[MetricStore, float], Any],
        name: Optional[str] = None,
    ) -> None:
        with self._lock:
            self._collectors.append((name or getattr(fn, "__name__", "collector"), fn))

    def scrape_once(self, now: Optional[float] = None) -> List[Alert]:
        """Run every collector then evaluate SLOs; returns transitions."""
        now = self.clock() if now is None else now
        with self._lock:
            collectors = list(self._collectors)
        for name, fn in collectors:
            try:
                fn(self.store, now)
            except Exception:  # noqa: BLE001 - a bad collector must not kill the loop
                self.collector_errors[name] = (
                    self.collector_errors.get(name, 0) + 1
                )
        self.scrapes += 1
        return self.engine.evaluate(now)

    # -- background loop ---------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-plane", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.scrape_once()

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)

    # -- export ------------------------------------------------------------
    def snapshot(self, points: int = 120) -> Dict[str, Any]:
        """Wire-safe dump: series tails, firing alerts, burn rates, log."""
        series_out = []
        for meta in self.store.series():
            tail = self.store.range_query(meta["name"], meta["labels"])
            series_out.append(
                {
                    "name": meta["name"],
                    "labels": meta["labels"],
                    "latest": meta["latest"],
                    "points": [
                        [round(ts, 4), value] for ts, value in tail[-points:]
                    ],
                }
            )
        return {
            "now": self.clock(),
            "scrapes": self.scrapes,
            "collector_errors": dict(self.collector_errors),
            "series": series_out,
            "slos": [s.to_dict() for s in list(self.engine.slos)],
            "burn_rates": self.engine.burn_rates(),
            "alerts_firing": [a.to_dict() for a in self.engine.firing()],
            "alert_log": [a.to_dict() for a in list(self.engine.alerts)],
        }

    def snapshot_json(self, points: int = 120) -> str:
        return json.dumps(self.snapshot(points))


# ---------------------------------------------------------------------------
# Stock collectors
# ---------------------------------------------------------------------------


def registry_collector(
    metrics, slos: Iterable[SLO] = ()
) -> Callable[[MetricStore, float], None]:
    """The stock collector: every sample of a
    :class:`~repro.server.metrics.ServerMetrics` registry's exposition,
    under its family name and labels.  The families read summed over all
    their label sets — the dashboard's :data:`SUMMED_FAMILIES
    <repro.obs.dashboard.SUMMED_FAMILIES>` and the counters of each
    unlabelled availability SLO in ``slos`` (read at every scrape) — also
    land as one unlabelled series, histograms merged bucket-wise.  A live
    family whose callback raises is left out and the collector then
    raises, so the plane counts it in ``collector_errors``."""

    def collect(store: MetricStore, now: float) -> None:
        summed = set(SUMMED_FAMILIES)
        for slo in slos:
            if slo.kind == "availability" and not slo.labels:
                summed.update((slo.total_metric, slo.error_metric))
        failed: List[str] = []
        for name, _type, _help, samples in metrics.exposition(summed, failed):
            for labels, value in samples:
                store.observe(name, labels, value, ts=now)
        if failed:
            raise RuntimeError(f"live families failed: {', '.join(failed)}")

    return collect


def default_cluster_slos(
    availability: float = 0.999,
    p99_ms: float = 250.0,
    lag_seconds: float = 2.0,
) -> List[SLO]:
    """The stock objectives the cluster plane evaluates out of the box."""
    return [
        SLO(
            "availability",
            kind="availability",
            objective=availability,
            total_metric="repro_requests_total",
            error_metric="repro_request_errors_total",
            description="fraction of wire requests answered without error",
        ),
        SLO(
            "p99-latency",
            kind="latency",
            objective=0.99,
            metric="repro_query_latency_ms",
            labels={"stat": "p99"},
            threshold=p99_ms,
            description=(
                f"p99 of every query kind, and of all kinds merged, "
                f"stays under {p99_ms:g}ms"
            ),
        ),
        SLO(
            "replication-lag",
            kind="gauge_ceiling",
            objective=0.99,
            metric="repro_cluster_replication_lag_seconds",
            threshold=lag_seconds,
            description=f"follower stays within {lag_seconds:g}s of the leader",
        ),
    ]
