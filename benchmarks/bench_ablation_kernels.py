"""Ablation H — secondary filter: scalar oracle vs the numpy pair kernel.

The secondary filter (paper §4.2) bottoms out in exact geometry tests.
``SecondaryFilter(use_batch=False)`` evaluates them one candidate at a
time with the scalar predicates (``repro.geometry.predicates`` /
``distance``, the test oracle); the default batch mode resolves each
candidate array with one ``kernels.evaluate_predicate_pairs`` call.
Results are bit-identical by construction, so the two may only differ in
wall-clock time.

Measured on the exact-predicate stage of the counties (intersect and
within-distance) and stars-25K self-joins: result pairs must be
byte-identical (``json.dumps`` comparison), simulated charges must match
exactly, and the numpy kernel must be at least 2x faster.

Wall-clock rounds are interleaved scalar/numpy so background load drifts
into both sides of the ratio instead of one.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.bench.reporting import ExperimentTable
from repro.core.secondary_filter import JoinPredicate, SecondaryFilter
from repro.engine.parallel import WorkerContext
from repro.index.rtree.join import RTreeJoinCursor

# (row label, SecondaryFilter batch mode)
MODES = (("scalar", False), ("numpy", True))
ROUNDS = 2
MIN_FILTER_SPEEDUP = 2.0


def _collect_candidates(db, table: str, distance: float):
    """Primary-filter output: every candidate pair of the self-join."""
    tree = db.rtree_of(table, "geom")
    cursor = RTreeJoinCursor([(tree.root, tree.root)], distance=distance)
    out = []
    while True:
        batch = cursor.next_candidates(8192)
        if not batch:
            break
        out.extend(batch)
    return out


def _filter_once(db, table, cands, distance, use_batch):
    filt = SecondaryFilter(
        db.table(table), "geom", db.table(table), "geom",
        JoinPredicate(distance=distance), use_batch=use_batch,
    )
    ctx = WorkerContext(0)
    started = time.perf_counter()
    pairs = filt.process(list(cands), ctx)
    wall = time.perf_counter() - started
    return pairs, wall, ctx.meter


def _secondary_filter_row(db, table, workload, distance):
    """One row: both modes over the same candidate array, equal output."""
    cands = _collect_candidates(db, table, distance)
    wall = {name: 0.0 for name, _ in MODES}
    blobs: dict = {}
    meters: dict = {}
    n_pairs = 0
    for _ in range(ROUNDS):
        for name, use_batch in MODES:
            pairs, elapsed, meter = _filter_once(
                db, table, cands, distance, use_batch
            )
            wall[name] += elapsed
            blob = json.dumps(pairs, default=str)
            assert blobs.setdefault(name, blob) == blob, (
                f"{workload}/{name}: non-deterministic result"
            )
            meters[name] = meter
            n_pairs = len(pairs)
    # The kernel's contract against its oracle: byte-identical pairs and
    # identical simulated charges, differing only in wall time.
    assert blobs["scalar"] == blobs["numpy"], f"{workload}: kernel != oracle"
    assert meters["scalar"].counts == meters["numpy"].counts, (
        f"{workload}: kernel and oracle charged different simulated work"
    )
    return {
        "workload": workload,
        "stage": "secondary_filter",
        "distance": distance,
        "candidates": len(cands),
        "result_pairs": n_pairs,
        "scalar_wall_s": round(wall["scalar"], 3),
        "numpy_wall_s": round(wall["numpy"], 3),
        "speedup": round(wall["scalar"] / wall["numpy"], 2),
        "identical_output": True,
        "sim_s": round(meters["numpy"].seconds(), 4),
    }


def run_kernels(counties_workload, stars_workload):
    stars_size = max(
        (s for s in stars_workload.sizes if s >= 25_000),
        default=max(stars_workload.sizes),
    )
    stars_db = stars_workload.dbs[stars_size]
    rows = [
        _secondary_filter_row(counties_workload.db, "counties", "counties", 0.0),
        _secondary_filter_row(
            counties_workload.db, "counties", "counties", 0.25
        ),
        _secondary_filter_row(stars_db, "stars", f"stars-{stars_size}", 0.0),
    ]
    for row in rows:
        assert row["speedup"] >= MIN_FILTER_SPEEDUP, (
            f"{row['workload']}: numpy secondary filter only "
            f"{row['speedup']}x over scalar (need >={MIN_FILTER_SPEEDUP}x)"
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_kernels(benchmark, counties_workload, stars_workload):
    rows = benchmark.pedantic(
        run_kernels,
        args=(counties_workload, stars_workload),
        rounds=1,
        iterations=1,
    )

    table = ExperimentTable(
        experiment="kernels",
        title="Ablation H — secondary filter (scalar oracle vs numpy kernel)",
        columns=[
            "workload", "stage", "distance", "candidates",
            "scalar (wall s)", "numpy (wall s)", "speedup", "identical",
        ],
        paper_note=(
            "not in the paper (engineering ablation): the numpy pair kernel "
            "must produce byte-identical join results and identical charges "
            "to the scalar predicates while cutting refinement wall time"
        ),
    )
    for row in rows:
        table.add_row(
            row["workload"], row["stage"], row["distance"], row["candidates"],
            row["scalar_wall_s"], row["numpy_wall_s"], row["speedup"],
            row["identical_output"],
        )
    table.emit()

    # --- shape assertions -------------------------------------------------
    assert {r["workload"] for r in rows} >= {"counties"}
    assert any(r["workload"].startswith("stars-") for r in rows)
    for row in rows:
        assert row["identical_output"]
        assert row["speedup"] >= MIN_FILTER_SPEEDUP

    benchmark.extra_info["rows"] = rows
