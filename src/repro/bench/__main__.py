"""Standalone benchmark runner: ``python -m repro.bench [experiment ...]``.

Runs the paper-table regenerators without pytest and prints each table.
Valid experiment names: table1 table2 table3 figure1 figure2
ablation_sweep grid columnar cluster resilience obsplane (default: all).
Honours ``REPRO_BENCH_PROFILE=small|paper``.

Flags:

* ``--list`` — print every experiment name with a one-line description
  and exit (no workload is built).
* ``--sizes=25,2500,250000`` — override the star-subset sweep used by the
  stars-based experiments (default: the active profile's sweep; the paper
  profile runs the full 25 → 250K Table 2 sweep).
* ``--regen`` — bypass the on-disk dataset cache and regenerate (and
  re-cache) the star geometries.

Besides the printed table, each experiment writes a machine-readable
``BENCH_<name>.json`` next to the tables the pytest form of each bench file
renders (simulated seconds plus raw operation counters, worker imbalance, and
per-worker seconds per row) so CI can diff benchmark output across
commits.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional, Tuple

from repro.bench.workloads import (
    BlockgroupsWorkload,
    CountiesWorkload,
    StarsWorkload,
    profile,
)
from repro.bench.reporting import ExperimentTable, emit_bench_json

EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "figure1",
    "figure2",
    "ablation_sweep",
    "grid",
    "columnar",
    "cluster",
    "resilience",
    "obsplane",
)

#: one-liners for ``--list`` — what each experiment measures and which
#: paper artifact (if any) it regenerates.
DESCRIPTIONS = {
    "table1": "counties self-join at distance 0 / 0.1 / 0.25 / 0.5: nested loop vs index join (Table 1)",
    "table2": "star-cluster self-join scaling: nested loop vs I1 vs I2 (Table 2)",
    "table3": "parallel quadtree and R-tree index creation at 1 / 2 / 4 processors (Table 3)",
    "figure1": "subtree-pair decomposition of a two-R-tree join (Figure 1)",
    "figure2": "parallel quadtree creation pipeline: per-worker tessellation + B-tree tail (Figure 2)",
    "ablation_sweep": "primary-filter node pairing, NESTED vs SWEEP, on counties and stars (Ablation G)",
    "grid": "grid-partitioned parallel join vs serial ablation",
    "columnar": "slotted heap vs zone-mapped column chunks ablation",
    "cluster": "sharded router scaling + cross-shard join exactness",
    "resilience": "leader-kill MTTR + degraded throughput (self-healing)",
    "obsplane": "metrics/SLO plane + tracing overhead on the cluster path",
}

# bench_<name>.py files whose runner wants (counties, stars) workloads.
_COUNTIES_STARS = ("ablation_sweep", "grid", "columnar")

# Experiments whose bench file name differs from the experiment name.
_MODULE_FILES = {
    "grid": "ablation_grid",
    "columnar": "ablation_columnar",
}


def _load_bench_module(name: str):
    """Import the bench module by path (benchmarks/ is not a package)."""
    import importlib.util

    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__))))
    path = os.path.join(here, "benchmarks", f"bench_{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def _write_json(name: str, prof: str, elapsed: float, rows) -> str:
    """Persist one experiment's rows as ``BENCH_<name>.json``."""
    payload = {
        "experiment": name,
        "profile": prof,
        "driver_wall_seconds": round(elapsed, 3),
        "rows": rows,
    }
    return emit_bench_json(name, payload)


def _parse_flags(argv) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """Extract ``--sizes=...`` and ``--regen`` from the argument list."""
    sizes: Optional[Tuple[int, ...]] = None
    regen = False
    for arg in argv[1:]:
        if arg.startswith("--sizes="):
            sizes = tuple(
                int(part) for part in arg.split("=", 1)[1].split(",") if part
            )
            if not sizes:
                raise SystemExit(f"no sizes in {arg!r}")
        elif arg == "--regen":
            regen = True
        elif arg.startswith("-"):
            raise SystemExit(
                f"unknown flag {arg!r}; supported: "
                "--list --sizes=N,N,... --regen"
            )
    return sizes, regen


def list_experiments(out=None) -> int:
    """Print every experiment name with its one-line description."""
    out = out if out is not None else sys.stdout
    width = max(len(n) for n in EXPERIMENTS)
    for name in EXPERIMENTS:
        out.write(f"{name.ljust(width)}  {DESCRIPTIONS[name]}\n")
    return 0


def main(argv) -> int:
    """Run the named experiments (argv style: [prog, name, ...])."""
    if "--list" in argv[1:]:
        return list_experiments()
    names = [a for a in argv[1:] if not a.startswith("-")] or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; valid: {EXPERIMENTS}")
        return 2
    sizes, regen = _parse_flags(argv)

    prof = profile()
    print(f"profile: {prof} (set REPRO_BENCH_PROFILE=paper for full sizes)")
    if sizes:
        print(f"star sizes: {list(sizes)}")

    counties = stars = blockgroups = None
    for name in names:
        started = time.perf_counter()
        module = _load_bench_module(_MODULE_FILES.get(name, name))
        if name in ("cluster", "resilience", "obsplane"):
            # Self-contained drivers: boot shard processes, print their
            # own table and write BENCH_<name>.json themselves.
            rc = module.main()
            if rc:
                return rc
            continue
        if name in ("table1", "figure1"):
            counties = counties or CountiesWorkload.build(prof)
            runner = getattr(module, f"run_{name}")
            rows = runner(counties)
        elif name == "table2":
            stars = stars or StarsWorkload.build(prof, sizes=sizes, regen=regen)
            rows = module.run_table2(stars)
        elif name in _COUNTIES_STARS:
            counties = counties or CountiesWorkload.build(prof)
            stars = stars or StarsWorkload.build(prof, sizes=sizes, regen=regen)
            rows = getattr(module, f"run_{name}")(counties, stars)
        else:  # table3 / figure2
            blockgroups = blockgroups or BlockgroupsWorkload.build(prof)
            runner = getattr(module, f"run_{name}")
            rows = runner(blockgroups)
        elapsed = time.perf_counter() - started
        # Nested values (op-counter dicts) go to the JSON sidecar only;
        # the printed table keeps the scalar columns.
        scalar_cols = (
            sorted(
                k for k, v in rows[0].items() if not isinstance(v, (dict, list))
            )
            if rows
            else ["(empty)"]
        )
        table = ExperimentTable(
            experiment=name,
            title=f"{name} (driver wall time {elapsed:.1f}s)",
            columns=scalar_cols,
        )
        for row in rows:
            table.add_row(*(row[k] for k in table.columns))
        print()
        print(table.render())
        json_path = _write_json(name, prof, elapsed, rows)
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
