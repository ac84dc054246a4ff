"""Cluster observability plane: in-process TSDB, SLO engine, scrape loop.

Three cooperating pieces, all dependency-free and lock-safe:

* :class:`MetricStore` — a ring-buffer time-series database.  Each
  ``(name, labels)`` series keeps a bounded deque of raw ``(ts, value)``
  points under a fixed retention window, plus coarser *rollup* buckets
  (min/max/sum/count per ``rollup_every`` seconds) retained much longer,
  so dashboards get full-resolution recent history and downsampled
  long-range history from a few hundred KB of memory.  ``range_query()``
  reads raw points, ``rate()`` computes a counter-reset-aware per-second
  rate, ``rollup_query()`` reads the downsampled aggregates.

* :class:`SLOEngine` — declarative :class:`SLO` objectives (availability
  from counter pairs, latency/gauge ceilings from gauge series) evaluated
  over the store with **multi-window burn-rate alerts** à la the SRE
  workbook: a *page* fires when both the 5-minute and 1-hour burn rates
  exceed 14.4× budget, a *ticket* when both the 6-hour and 24-hour rates
  exceed 6×.  Transitions append typed :class:`Alert` records to an event
  log; current state exports as a Prometheus ``repro_slo_*`` family.

* :class:`ObservabilityPlane` — a collector registry plus a background
  scrape thread.  Collectors are plain callables ``fn(store, now)`` that
  read existing snapshot surfaces (``ServerMetrics.snapshot()``,
  ``storage_stats()``, kernel counters, replication/breaker/chaos state)
  and ``observe()`` into the store — a *pull* model, so when no plane is
  attached the instrumented subsystems pay nothing beyond keeping the
  counters they already kept.

Windows scale with ``time_scale`` so tests (and the chaos CI job) can
exercise real burn-rate math in hundreds of milliseconds.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Alert",
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "MetricStore",
    "ObservabilityPlane",
    "SLO",
    "SLOEngine",
    "series_key",
]


def series_key(name: str, labels: Optional[Dict[str, Any]] = None) -> Tuple:
    """Canonical hashable key for one series."""
    if not labels:
        return (name,)
    return (name,) + tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Series:
    """One ring buffer of raw points plus its rollup buckets."""

    __slots__ = ("name", "labels", "points", "rollups", "observed")

    def __init__(self, name: str, labels: Dict[str, str], maxlen: int) -> None:
        self.name = name
        self.labels = labels
        self.points: deque = deque(maxlen=maxlen)  # (ts, value)
        self.rollups: Dict[float, List[float]] = {}  # bucket -> [min,max,sum,n]
        self.observed = 0


class MetricStore:
    """Lock-safe in-process ring-buffer TSDB with downsampling rollups."""

    def __init__(
        self,
        retention: float = 600.0,
        max_points: int = 2048,
        rollup_every: float = 10.0,
        rollup_retention: float = 3600.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retention = float(retention)
        self.max_points = int(max_points)
        self.rollup_every = float(rollup_every)
        self.rollup_retention = float(rollup_retention)
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
            series.observed += 1
            bucket = now - (now % self.rollup_every)
            agg = series.rollups.get(bucket)
            if agg is None:
                series.rollups[bucket] = [value, value, value, 1.0]
            else:
                if value < agg[0]:
                    agg[0] = value
                if value > agg[1]:
                    agg[1] = value
                agg[2] += value
                agg[3] += 1.0
            self._evict_locked(series, now)

    def _evict_locked(self, series: _Series, now: float) -> None:
        horizon = now - self.retention
        points = series.points
        while points and points[0][0] < horizon:
            points.popleft()
        if series.rollups:
            roll_horizon = now - self.rollup_retention
            stale = [b for b in series.rollups if b < roll_horizon]
            for b in stale:
                del series.rollups[b]

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
            if series is None:
                return []
            return [
                (ts, v)
                for ts, v in series.points
                if (start is None or ts >= start)
                and (end is None or ts <= end)
            ]

    def rollup_query(
        self,
        name: str,
        labels: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[float, float, float, float, int]]:
        """Downsampled ``(bucket_ts, min, max, mean, count)`` aggregates."""
        with self._lock:
            series = self._get(name, labels)
            if series is None:
                return []
            out = []
            for bucket in sorted(series.rollups):
                if start is not None and bucket + self.rollup_every < start:
                    continue
                if end is not None and bucket > end:
                    continue
                mn, mx, total, n = series.rollups[bucket]
                out.append((bucket, mn, mx, total / n if n else 0.0, int(n)))
            return out

    def rate(
        self,
        name: str,
        labels: Optional[Dict[str, Any]] = None,
        window: float = 60.0,
        now: Optional[float] = None,
    ) -> float:
        """Per-second increase of a cumulative counter over ``window``.

        Counter resets (a value *dropping*, e.g. across a shard restart)
        contribute the post-reset value rather than a negative delta —
        the standard Prometheus ``rate()`` semantics.
        """
        now = self.clock() if now is None else now
        points = self.range_query(name, labels, start=now - window, end=now)
        if len(points) < 2:
            return 0.0
        increase = 0.0
        prev = points[0][1]
        for _, value in points[1:]:
            increase += value - prev if value >= prev else value
            prev = value
        elapsed = points[-1][0] - points[0][0]
        return increase / elapsed if elapsed > 0 else 0.0

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
        """All series: name, labels, point/rollup counts, latest value."""
        with self._lock:
            out = []
            for series in self._series.values():
                latest = series.points[-1] if series.points else None
                out.append(
                    {
                        "name": series.name,
                        "labels": dict(series.labels),
                        "points": len(series.points),
                        "rollups": len(series.rollups),
                        "observed": series.observed,
                        "latest": latest[1] if latest else None,
                        "latest_ts": latest[0] if latest else None,
                    }
                )
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
    * ``latency`` / ``gauge_ceiling`` — ``metric`` is a gauge series
      (e.g. a scraped p99 or a replication-lag reading); a sample is bad
      when it exceeds ``threshold``.

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
        points = store.range_query(
            self.metric, self.labels, start=now - window, end=now
        )
        if not points:
            return None
        bad = sum(1 for _, v in points if v > self.threshold)
        return bad / len(points)

    def burn_rate(
        self, store: MetricStore, window: float, now: float
    ) -> Optional[float]:
        ratio = self.bad_ratio(store, window, now)
        if ratio is None:
            return None
        return ratio / self.budget

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "metric": self.metric,
            "labels": dict(self.labels) if self.labels else None,
            "threshold": self.threshold,
            "total_metric": self.total_metric,
            "error_metric": self.error_metric,
            "description": self.description,
        }


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
        self._lock = threading.Lock()

    def add(self, slo: SLO) -> None:
        with self._lock:
            self.slos.append(slo)

    # -- evaluation --------------------------------------------------------
    def burn_rates(self, now: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        """Current burn rate per SLO per (scaled) window, for display."""
        now = self.clock() if now is None else now
        out: Dict[str, Dict[str, float]] = {}
        for slo in list(self.slos):
            rates: Dict[str, float] = {}
            for bw in self.windows:
                for label, seconds in (
                    (f"{bw.short_s:g}s", bw.short_s),
                    (f"{bw.long_s:g}s", bw.long_s),
                ):
                    burn = slo.burn_rate(
                        self.store, seconds * self.time_scale, now
                    )
                    if burn is not None:
                        rates[label] = round(burn, 4)
            out[slo.name] = rates
        return out

    def evaluate(self, now: Optional[float] = None) -> List[Alert]:
        """One evaluation pass; returns newly-logged transitions."""
        now = self.clock() if now is None else now
        transitions: List[Alert] = []
        for slo in list(self.slos):
            for bw in self.windows:
                short = slo.burn_rate(
                    self.store, bw.short_s * self.time_scale, now
                )
                long_ = slo.burn_rate(
                    self.store, bw.long_s * self.time_scale, now
                )
                hot = (
                    short is not None
                    and long_ is not None
                    and short >= bw.factor
                    and long_ >= bw.factor
                )
                key = (slo.name, bw.severity)
                with self._lock:
                    firing = key in self._firing
                    if hot and not firing:
                        alert = Alert(
                            slo.name,
                            bw.severity,
                            "firing",
                            now,
                            short,
                            long_,
                            (bw.short_s, bw.long_s),
                        )
                        self._firing[key] = alert
                        self.alerts_total[key] = self.alerts_total.get(key, 0) + 1
                        self._log_locked(alert)
                        transitions.append(alert)
                    elif not hot and firing:
                        del self._firing[key]
                        alert = Alert(
                            slo.name,
                            bw.severity,
                            "resolved",
                            now,
                            short or 0.0,
                            long_ or 0.0,
                            (bw.short_s, bw.long_s),
                        )
                        self._log_locked(alert)
                        transitions.append(alert)
        return transitions

    def _log_locked(self, alert: Alert) -> None:
        self.alerts.append(alert)
        if len(self.alerts) > self.max_alerts:
            del self.alerts[: len(self.alerts) - self.max_alerts]

    def firing(self) -> List[Alert]:
        with self._lock:
            return list(self._firing.values())

    # -- exposition --------------------------------------------------------
    def prometheus_into(self, expo) -> None:
        """Emit the ``repro_slo_*`` family into an exporter accumulator."""
        expo.family(
            "repro_slo_objective",
            "gauge",
            "Declared good-fraction objective per SLO.",
        )
        for slo in list(self.slos):
            expo.sample(
                "repro_slo_objective",
                {"slo": slo.name, "kind": slo.kind},
                slo.objective,
            )
        expo.family(
            "repro_slo_burn_rate",
            "gauge",
            "Error-budget burn rate per SLO and window.",
        )
        for name, rates in self.burn_rates().items():
            for window, burn in rates.items():
                expo.sample(
                    "repro_slo_burn_rate",
                    {"slo": name, "window": window},
                    burn,
                )
        expo.family(
            "repro_slo_alert_firing",
            "gauge",
            "1 when the SLO alert is currently firing.",
        )
        with self._lock:
            firing_keys = set(self._firing)
            totals = dict(self.alerts_total)
        for slo in list(self.slos):
            for bw in self.windows:
                key = (slo.name, bw.severity)
                expo.sample(
                    "repro_slo_alert_firing",
                    {"slo": slo.name, "severity": bw.severity},
                    1 if key in firing_keys else 0,
                )
        expo.family(
            "repro_slo_alerts_total",
            "counter",
            "Alert firings per SLO and severity since start.",
        )
        for (name, severity), count in sorted(totals.items()):
            expo.sample(
                "repro_slo_alerts_total",
                {"slo": name, "severity": severity},
                count,
            )


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

    def prometheus_text(self) -> str:
        """The ``repro_slo_*`` family as Prometheus exposition text."""
        from repro.obs.exporters import _Expo

        expo = _Expo()
        self.engine.prometheus_into(expo)
        return expo.text()


# ---------------------------------------------------------------------------
# Stock collectors
# ---------------------------------------------------------------------------


def server_metrics_collector(
    snapshot_fn: Callable[[], Dict[str, Any]],
    labels: Optional[Dict[str, Any]] = None,
) -> Callable[[MetricStore, float], None]:
    """Collector over a ``ServerMetrics.snapshot()``-shaped callable.

    Feeds request counters/errors per op, per-kind query latency
    percentiles and counts, active sessions, resilience counters, and a
    roll-up ``server.latency.p99_ms`` gauge (worst kind) the stock
    latency SLO watches.
    """
    base = dict(labels) if labels else {}

    def collect(store: MetricStore, now: float) -> None:
        snap = snapshot_fn()
        total = errors = 0
        for op, counts in (snap.get("requests") or {}).items():
            n = int(counts.get("count", 0))
            e = int(counts.get("errors", 0))
            total += n
            errors += e
            store.observe(
                "server.requests", {**base, "op": op}, n, ts=now
            )
            store.observe(
                "server.request_errors", {**base, "op": op}, e, ts=now
            )
        store.observe("server.requests_total", base, total, ts=now)
        store.observe("server.request_errors_total", base, errors, ts=now)
        worst_p99 = 0.0
        for kind, q in (snap.get("queries") or {}).items():
            lat = q.get("latency") or {}
            klabels = {**base, "kind": kind}
            store.observe(
                "server.query.count", klabels, lat.get("count", 0), ts=now
            )
            store.observe(
                "server.query.p50_ms", klabels, lat.get("p50_ms", 0.0), ts=now
            )
            store.observe(
                "server.query.p99_ms", klabels, lat.get("p99_ms", 0.0), ts=now
            )
            store.observe(
                "server.query.rows", klabels, q.get("rows", 0), ts=now
            )
            worst_p99 = max(worst_p99, float(lat.get("p99_ms", 0.0)))
        store.observe("server.latency.p99_ms", base, worst_p99, ts=now)
        sessions = snap.get("sessions") or {}
        store.observe(
            "server.sessions.active", base, sessions.get("active", 0), ts=now
        )
        for event, count in (snap.get("resilience") or {}).items():
            store.observe(
                "cluster.resilience", {**base, "event": event}, count, ts=now
            )

    collect.__name__ = "server_metrics"
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
            total_metric="server.requests_total",
            error_metric="server.request_errors_total",
            description="fraction of wire requests answered without error",
        ),
        SLO(
            "p99-latency",
            kind="latency",
            objective=0.99,
            metric="server.latency.p99_ms",
            threshold=p99_ms,
            description=f"worst per-kind p99 stays under {p99_ms:g}ms",
        ),
        SLO(
            "replication-lag",
            kind="gauge_ceiling",
            objective=0.99,
            metric="cluster.replication.lag_seconds",
            threshold=lag_seconds,
            description=f"follower stays within {lag_seconds:g}s of the leader",
        ),
    ]
