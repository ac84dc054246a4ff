"""What every workload shares: configuration, lifecycle, metric emission."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from common import BenchError, Report, Series, SpanRecorder
from inputs import SIZES, golden, rows_for, wkt_sha256


@dataclass
class Config:
    seed: int
    seconds: float
    profile: str  # "full" | "quick"
    tmp: Path  # private scratch directory inside --out, removed on exit
    pin: bool = False  # compute the input hash even for an unpinned seed

    @property
    def repeats(self) -> int:
        """k of the traced run (one repetition when there is barely time)."""
        return 2 if self.seconds >= 5 else 1

    def samples(self, n: int) -> int:
        """Sample count of a traced probe (an eighth when there is barely time)."""
        return n if self.seconds >= 5 else max(1, n // 8)


class Workload:
    """One set of inputs and the operations timed on it.

    Lifecycle, driven by ``run.py``: ``setup`` (timed, repeated, torn down
    in between) → ``run`` *or* ``trace`` → ``check`` → ``teardown``.

    Every workload reports the same end-to-end vector, because the
    benchmark contract has one metric list for all workloads:

    * ``op_p50_ms`` / ``op_per_s`` — the workload's *primary* operation,
      complete (start → last row → close): median latency, and operations
      completed per second of the phase's wall time over all clients;
    * ``alt_p50_ms`` — its *second* operation, the other code path over
      the same data.

    ``primary`` / ``alt`` say what those are here; ``aliases`` give the
    operation-specific names the design issue used for them.
    """

    name = ""
    primary = ""
    alt = ""
    aliases: Dict[str, str] = {}

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.n = SIZES[cfg.profile][self.name]
        self.pins = golden(cfg.profile, cfg.seed, self.name)
        self.geoms: List = []

    # -- lifecycle -------------------------------------------------------
    def generate(self) -> None:
        self.geoms = rows_for(self.name, self.n, self.cfg.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run(self, report: Report) -> None:
        raise NotImplementedError

    def trace(self, report: Report, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def check(self, report: Report) -> None:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    def guard_inputs(self, report: Report) -> None:
        """Drift guard: a pinned seed must still generate the pinned rows."""
        want = self.pins.get("sha256")
        if want is None and not self.cfg.pin:
            return
        got = wkt_sha256(self.geoms)
        report.golden["sha256"] = got
        if want is not None and got != want:
            raise BenchError(
                f"workload drift: {self.name} seed {self.cfg.seed} generates "
                f"WKT {got[:16]}…, pinned {want[:16]}… — these would be times "
                "for different work"
            )

    def guard_count(self, report: Report, key: str, got: int) -> None:
        """Drift guard for golden counts (pairs, tiles) of a pinned seed."""
        report.golden[key] = got
        want = self.pins.get(key)
        if want is not None and want != got:
            raise BenchError(
                f"workload drift: {self.name} seed {self.cfg.seed} {key} = {got}, "
                f"pinned {want}"
            )

    @staticmethod
    def emit(report: Report, op: Series, alt: Series,
             op_wall: Optional[float] = None) -> None:
        """The three operation metrics of the common end-to-end vector."""
        report.put_series("op_p50_ms", op)
        report.put_series("alt_p50_ms", alt)
        wall = op_wall if op_wall is not None else op.total_seconds
        report.put("op_per_s", len(op) / wall, "1/s", len(op))
