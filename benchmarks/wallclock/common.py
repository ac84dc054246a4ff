"""Shared plumbing of the wall-clock benchmark.

Everything here is the benchmark's own: environment isolation, sample
statistics, the span recorder behind ``--trace 1``, and the report every
workload fills in.  Nothing in this file imports ``repro`` at module
level — :func:`bootstrap` must run first, because it scrubs the
environment variables the program reads at import time.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent  # the checkout the benchmark runs in
SPEC_PATH = ROOT / "BENCHMARK.json"

#: environment the program under test reads; a stray value would silently
#: change what is measured (tracing on, the slow kernel backend, a
#: dataset cache outside the checkout)
SCRUBBED_ENV = (
    "REPRO_TRACE",
    "REPRO_TRACE_SAMPLE",
    "REPRO_KERNELS",
    "REPRO_BENCH_PROFILE",
    "REPRO_DATASET_CACHE",
)


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` — the one declaration of names, units and bounds."""
    with SPEC_PATH.open() as fh:
        return json.load(fh)


def bootstrap(out_dir: Path) -> Path:
    """Isolate the process, then make ``repro`` importable from the checkout.

    Returns the private temp directory (inside ``out_dir``) that every
    ``tempfile`` user in this process and its children lands in; it is
    removed on exit.  Fails — before any measurement — when the checkout
    has no ``src/repro``, or when ``import repro`` would resolve to some
    other installation than the checkout's.
    """
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro  # noqa: PLC0415 - must follow the scrub above

    if src not in Path(repro.__file__).resolve().parents:
        raise BenchError(
            f"'import repro' resolved to {repro.__file__}, not the checkout's src/"
        )
    from repro.geometry import kernels  # noqa: PLC0415

    kernels.set_backend("numpy")  # forked shard children inherit it

    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=str(out_dir)))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    atexit.register(shutil.rmtree, str(tmp), ignore_errors=True)
    return tmp


def run_header(seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    import numpy  # noqa: PLC0415

    from repro.geometry import kernels  # noqa: PLC0415

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "kernels": kernels.get_backend(),
        "seed": seed,
    }


def client_count() -> int:
    """Load comes from one driver process with at most ``nproc`` clients."""
    return max(1, min(2, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: List[float]) -> Tuple[str, float]:
    """p95 when at least ten samples lie beyond it, else the next lower."""
    ordered = sorted(values)
    n = len(ordered)
    for label, p in (("p95", 0.95), ("p90", 0.90)):
        if n * (1.0 - p) >= 10:
            return label, ordered[min(n - 1, int(p * n))]
    return "max", ordered[-1]


class Series:
    """One timed series: the samples behind a reported median."""

    def __init__(self, unit: str, scale: float = 1.0):
        self.unit = unit
        self.scale = scale  # seconds -> unit
        self.values: List[float] = []

    def add(self, seconds: float) -> None:
        self.values.append(seconds * self.scale)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    @property
    def total_seconds(self) -> float:
        return sum(self.values) / self.scale


def ms() -> Series:
    return Series("ms", 1e3)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
class Report:
    """What one run of one workload measured and checked.

    ``values`` holds every metric by its declared name; ``unmeasured``
    holds the reason for each per-layer probe that could not run (the
    metric then reads ``null`` here and 0 on the contract line).
    ``attempted``/``failed`` count timed operations *and* correctness
    checks: a refused, timed-out, raising or wrong-result operation is a
    failure.
    """

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}
        self.unmeasured: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.golden: Dict[str, Any] = {}  # input hash and result counts (drift guard)
        self.facts: Dict[str, Any] = {}  # diagnostics printed with the run

    def put(self, name: str, value: float, unit: str, n: int = 1,
            q1: Optional[float] = None, q3: Optional[float] = None) -> None:
        self.values[name] = {
            "value": float(value), "unit": unit, "n": n, "q1": q1, "q3": q3,
        }

    def put_series(self, name: str, series: Series) -> None:
        if not series.values:
            self.unmeasured[name] = "no samples"
            return
        q1, med, q3 = quartiles(series.values)
        self.put(name, med, series.unit, len(series), q1, q3)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, condition: bool, what: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(what)
        return bool(condition)

    @contextmanager
    def probe(self, *names: str) -> Iterator[None]:
        """Fence one per-layer probe.

        A layer that moved, lost an attribute or raises must cost only its
        own metrics, never an end-to-end number or another layer's probe.
        """
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - the fence is the point
            for name in names:
                if name not in self.values:
                    self.unmeasured[name] = f"{type(exc).__name__}: {exc}"

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def peak_rss_mb() -> float:
    """Driver peak plus the largest reaped child (shards, join slaves)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Timing loops
# ----------------------------------------------------------------------
def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


class Budget:
    """A wall-clock allowance for one timed phase."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> bool:
        return time.perf_counter() < self.deadline


# ----------------------------------------------------------------------
# Spans (the traced run)
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans owned by the benchmark, written once on exit.

    A span is ``name, start, end, parent, op``: spans of one operation
    (one join, one session) share ``op``.  Spans wrap calls from the
    benchmark's files into a layer's public functions; nothing inside
    ``src/`` is instrumented.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **args: Any) -> Iterator[Dict[str, Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record: Dict[str, Any] = {
            "name": name,
            "op": op if op is not None else (parent["op"] if parent else None),
            "parent": parent["id"] if parent else None,
            "tid": threading.get_ident(),
            "args": args,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and "end" in s]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write_chrome(self, path: Path, header: Dict[str, Any]) -> None:
        """One Chrome-trace JSON (chrome://tracing, Perfetto, speedscope)."""
        tids = {tid: i for i, tid in enumerate(sorted({s["tid"] for s in self.spans}))}
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "pid": 1,
                "tid": tids[s["tid"]],
                "ts": round((s["start"] - self._epoch) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "args": dict(s["args"], id=s["id"], parent=s["parent"], op=s["op"]),
            }
            for s in self.spans
            if "end" in s
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"traceEvents": events, "otherData": header}, fh)
