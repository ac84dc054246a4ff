"""Index-creation scenario: parallel builds on complex polygons (Table 3).

Run with::

    python examples/parallel_index_build.py

Builds quadtree and R-tree indexes on a block-group-style layer at degrees
1/2/4 and prints the scaling table, the per-worker balance, and where the
time goes (the cost-model breakdown) — demonstrating the paper's §5
finding that tessellation dominates quadtree creation and parallelises
well.
"""

from __future__ import annotations

from repro import Database
from repro.datasets import CONUS_INDEX_DOMAIN, blockgroups, load_geometries
from repro.engine.parallel import make_executor
from repro.geometry.mbr import MBR
from repro.core.index_build import create_quadtree_parallel, create_rtree_parallel
from repro.index.quadtree.quadtree import QuadtreeIndex
from repro.index.rtree.spatial_index import RTreeIndex

N_POLYGONS = 800


def main() -> None:
    db = Database()
    layer = blockgroups(N_POLYGONS, seed=7)
    load_geometries(db, "blockgroups", layer)
    vertices = sum(g.num_vertices for g in layer)
    print(f"loaded {N_POLYGONS} complex polygons ({vertices} vertices, "
          f"max {max(g.num_vertices for g in layer)} in one polygon)")

    print(f"\n{'procs':>5} | {'quadtree (sim s)':>17} | {'speedup':>7} | "
          f"{'rtree (sim s)':>14} | {'speedup':>7}")
    q_base = r_base = None
    for degree in (1, 2, 4):
        q_index = QuadtreeIndex(
            f"bg_q{degree}", db.table("blockgroups"), "geom",
            domain=MBR(*CONUS_INDEX_DOMAIN), tiling_level=9,
        )
        q_report = create_quadtree_parallel(
            q_index, make_executor(degree, db.cost_model)
        )
        r_index = RTreeIndex(f"bg_r{degree}", db.table("blockgroups"), "geom")
        r_report = create_rtree_parallel(
            r_index, make_executor(degree, db.cost_model)
        )
        q_base = q_base or q_report.makespan_seconds
        r_base = r_base or r_report.makespan_seconds
        print(f"{degree:>5} | {q_report.makespan_seconds:>17.2f} | "
              f"{q_base / q_report.makespan_seconds:>6.2f}x | "
              f"{r_report.makespan_seconds:>14.2f} | "
              f"{r_base / r_report.makespan_seconds:>6.2f}x")
        if degree == 4:
            last_q, last_r = q_report, r_report

    # ------------------------------------------------------------------
    # Where does the time go?  (degree-4 quadtree build)
    # ------------------------------------------------------------------
    print("\ndegree-4 quadtree build cost breakdown (top work kinds):")
    meter = last_q.run.combined_meter()
    for kind, count, seconds in list(meter.breakdown())[:5]:
        print(f"  {kind:<24} x{count:>12,.0f}  {seconds:8.2f}s")
    print(f"  serial B-tree stitch tail          {last_q.serial_tail_seconds:8.2f}s")
    print(f"per-worker times: "
          f"{['%.2f' % t for t in last_q.run.worker_seconds]} "
          f"(imbalance {last_q.run.imbalance:.2f})")

    print(f"\nquadtree holds {last_q.tiles_created} tiles for "
          f"{N_POLYGONS} polygons; R-tree merge tail "
          f"{last_r.serial_tail_seconds:.3f}s")


if __name__ == "__main__":
    main()
