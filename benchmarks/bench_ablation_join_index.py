"""Ablation F — R-tree synchronized join vs quadtree tile-merge join.

The paper builds its spatial join on R-trees; the linear quadtree joins by
merging sorted tile lists (the older Oracle path).  This bench runs the
counties self-join through both index kinds and compares simulated cost
and candidate quality (the quadtree gets interior-tile certainty, the
R-tree gets a tighter primary filter).
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import ExperimentTable
from repro.datasets import CONUS_INDEX_DOMAIN
from repro.engine.parallel import WorkerContext
from repro.geometry.mbr import MBR
from repro.index.quadtree.join import quadtree_join_candidates, quadtree_tile_join
from repro.index.quadtree.quadtree import QuadtreeIndex

TILING_LEVEL = 8


def run_join_index_ablation(workload):
    db = workload.db
    table = db.table("counties")

    # R-tree path (the paper's).
    rtree_result = db.spatial_join("counties", "geom", "counties", "geom")

    # Quadtree path: build the index, then the tile-merge join.
    domain = MBR(*CONUS_INDEX_DOMAIN)
    qidx = QuadtreeIndex(
        "counties_q_join", table, "geom", domain=domain, tiling_level=TILING_LEVEL
    )
    qidx.create()
    ctx = WorkerContext(0)
    quad_pairs = quadtree_tile_join(qidx, qidx, ctx)
    assert sorted(quad_pairs) == sorted(rtree_result.pairs)
    candidates = quadtree_join_candidates(qidx, qidx)
    certain = sum(1 for flag in candidates.values() if flag)

    return [
        {
            "method": "R-tree synchronized traversal",
            "sim_s": rtree_result.makespan_seconds,
            "candidates": "n/a",
            "certain": "n/a",
        },
        {
            "method": f"quadtree tile merge (level {TILING_LEVEL})",
            "sim_s": ctx.meter.seconds(db.cost_model),
            "candidates": len(candidates),
            "certain": certain,
        },
    ]


@pytest.mark.benchmark(group="ablation")
def test_ablation_join_index_kind(benchmark, counties_workload):
    rows = benchmark.pedantic(
        run_join_index_ablation, args=(counties_workload,), rounds=1, iterations=1
    )

    table = ExperimentTable(
        experiment="ablation_join_index",
        title="Ablation F — join through R-tree vs linear quadtree",
        columns=["method", "join (sim s)", "candidates", "tile-certain"],
        paper_note=(
            "the paper's join traverses the two R-tree indexes; quadtrees "
            "join by matching tile codes (both supported in Oracle Spatial)"
        ),
    )
    for row in rows:
        table.add_row(row["method"], row["sim_s"], row["candidates"], row["certain"])
    table.emit()

    quad = rows[1]
    assert quad["certain"] > 0, "interior tiles must certify some pairs"
    benchmark.extra_info["rows"] = rows
