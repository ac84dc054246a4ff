"""Ablation H — kernel backend: scalar vs vectorized refinement.

The secondary filter (paper §4.2) and tessellation (§5) bottom out in
exact geometry tests.  ``repro.geometry.kernels`` evaluates those tests
either one tuple at a time (``REPRO_KERNELS=python``) or as numpy array
batches (``REPRO_KERNELS=numpy``); results are bit-identical by
construction, so the backends may only differ in wall-clock time.

This bench measures both stages under both backends:

* **secondary filter** — the exact-predicate stage of the counties and
  stars-25K self-joins, scalar per-candidate evaluation vs the batch mode
  that resolves each candidate array with one pair-kernel call.  Result pairs must be
  byte-identical (``json.dumps`` comparison) and simulated charges must
  match exactly; the numpy backend must be at least 2x faster.
* **tessellation** — fixed-level tile cover of a sample of geometries;
  tile output must be identical across backends.

Wall-clock rounds are interleaved scalar/numpy so background load drifts
into both sides of the ratio instead of one.
"""

from __future__ import annotations

import json
import time
from typing import List

import pytest

from repro.bench.reporting import ExperimentTable
from repro.core.secondary_filter import JoinPredicate, SecondaryFilter
from repro.engine.parallel import WorkerContext
from repro.geometry import kernels
from repro.geometry.mbr import EMPTY_MBR, MBR
from repro.index.quadtree.codes import TileGrid
from repro.index.quadtree.tessellate import tessellate
from repro.index.rtree.join import RTreeJoinCursor

# (row label, kernels backend, SecondaryFilter batch mode)
BACKENDS = (("scalar", "python", False), ("numpy", "numpy", True))
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


def _filter_once(db, table, cands, distance, backend, use_batch):
    with kernels.use_backend(backend):
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
    """One row: both backends over the same candidate array, equal output."""
    cands = _collect_candidates(db, table, distance)
    wall = {name: 0.0 for name, _, _ in BACKENDS}
    blobs: dict = {}
    meters: dict = {}
    n_pairs = 0
    for _ in range(ROUNDS):
        for name, backend, use_batch in BACKENDS:
            pairs, elapsed, meter = _filter_once(
                db, table, cands, distance, backend, use_batch
            )
            wall[name] += elapsed
            blob = json.dumps(pairs, default=str)
            assert blobs.setdefault(name, blob) == blob, (
                f"{workload}/{name}: non-deterministic result"
            )
            meters[name] = meter
            n_pairs = len(pairs)
    # The whole point of the dual-backend design: byte-identical pairs and
    # identical simulated charges, differing only in wall time.
    assert blobs["scalar"] == blobs["numpy"], f"{workload}: backends disagree"
    assert meters["scalar"].counts == meters["numpy"].counts, (
        f"{workload}: backends charged different simulated work"
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


def _data_domain(db, table: str) -> MBR:
    box = EMPTY_MBR
    for _, row in db.table(table).scan():
        box = box.union(row[1].mbr)
    return box


def _tessellation_row(db, table, workload, level, sample):
    geoms = [row[1] for _, row in db.table(table).scan()][:sample]
    grid = TileGrid(domain=_data_domain(db, table), level=level)
    wall = {}
    tiles: dict = {}
    for name, backend, _ in BACKENDS:
        with kernels.use_backend(backend):
            started = time.perf_counter()
            out: List[tuple] = [
                tuple((t.code, t.interior) for t in tessellate(g, grid))
                for g in geoms
            ]
            wall[name] = time.perf_counter() - started
            tiles[name] = out
    assert tiles["scalar"] == tiles["numpy"], f"{workload}: tile cover differs"
    return {
        "workload": workload,
        "stage": "tessellation",
        "distance": 0.0,
        "candidates": len(geoms),
        "result_pairs": sum(len(t) for t in tiles["numpy"]),
        "scalar_wall_s": round(wall["scalar"], 3),
        "numpy_wall_s": round(wall["numpy"], 3),
        "speedup": round(wall["scalar"] / wall["numpy"], 2),
        "identical_output": True,
        "sim_s": 0.0,
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
        _tessellation_row(
            counties_workload.db, "counties", "counties", level=6, sample=200
        ),
        _tessellation_row(
            stars_db, "stars", f"stars-{stars_size}", level=8, sample=1500
        ),
    ]
    for row in rows:
        if row["stage"] == "secondary_filter":
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
        title="Ablation H — kernel backend (scalar vs vectorized)",
        columns=[
            "workload", "stage", "distance", "candidates",
            "scalar (wall s)", "numpy (wall s)", "speedup", "identical",
        ],
        paper_note=(
            "not in the paper (engineering ablation): the vectorized "
            "kernel backend must produce byte-identical join results and "
            "tile covers while cutting refinement wall time"
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
    filter_rows = [r for r in rows if r["stage"] == "secondary_filter"]
    assert {r["workload"] for r in filter_rows} >= {"counties"}
    assert any(r["workload"].startswith("stars-") for r in filter_rows)
    for row in filter_rows:
        assert row["identical_output"]
        assert row["speedup"] >= MIN_FILTER_SPEEDUP
    for row in rows:
        if row["stage"] == "tessellation":
            assert row["identical_output"]

    benchmark.extra_info["rows"] = rows
