"""Unit tests for parallel index creation (quadtree + R-tree)."""

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine.cost import CostModel
from repro.engine.parallel import ProcessExecutor, SimulatedExecutor
from repro.core.index_build import create_quadtree_parallel, create_rtree_parallel
from repro.index.quadtree.quadtree import QuadtreeIndex
from repro.index.rtree.spatial_index import RTreeIndex


@pytest.fixture
def build_db(random_rects):
    db = Database()
    load_geometries(db, "shapes", random_rects(150, seed=71))
    return db


def make_quadtree(db, level=6):
    from repro.geometry.mbr import MBR

    return QuadtreeIndex(
        "qidx", db.table("shapes"), "geom", domain=MBR(0, 0, 110, 110),
        tiling_level=level,
    )


class TestQuadtreeParallelBuild:
    def test_parallel_equals_serial_content(self, build_db):
        serial = make_quadtree(build_db)
        serial.create()
        parallel = make_quadtree(build_db)
        create_quadtree_parallel(parallel, SimulatedExecutor(4))
        assert list(serial.btree.items()) == list(parallel.btree.items())

    def test_queries_after_parallel_build(self, build_db):
        index = make_quadtree(build_db)
        create_quadtree_parallel(index, SimulatedExecutor(3))
        window = Geometry.rectangle(20, 20, 50, 50)
        from repro.geometry.predicates import intersects

        expected = sorted(
            rid for rid, row in build_db.table("shapes").scan()
            if intersects(row[1], window)
        )
        got = sorted(index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
        assert got == expected

    def test_speedup_with_degree(self, build_db):
        model = CostModel(worker_startup=0.0)
        r1 = create_quadtree_parallel(make_quadtree(build_db), SimulatedExecutor(1, model))
        r4 = create_quadtree_parallel(make_quadtree(build_db), SimulatedExecutor(4, model))
        assert r4.makespan_seconds < r1.makespan_seconds
        # same total tiles either way
        assert r1.tiles_created == r4.tiles_created

    def test_report_fields(self, build_db):
        report = create_quadtree_parallel(make_quadtree(build_db), SimulatedExecutor(2))
        assert report.kind == "QUADTREE"
        assert report.degree == 2
        assert report.rows_indexed == 150
        assert report.tiles_created > 0
        assert report.serial_tail_seconds > 0

    def test_process_build(self, build_db):
        index = make_quadtree(build_db)
        create_quadtree_parallel(index, ProcessExecutor(2))
        serial = make_quadtree(build_db)
        serial.create()
        assert list(index.btree.items()) == list(serial.btree.items())


class TestRTreeParallelBuild:
    def test_parallel_equals_serial_content(self, build_db):
        serial = RTreeIndex("ridx", build_db.table("shapes"), "geom", fanout=8)
        serial.create()
        parallel = RTreeIndex("ridx2", build_db.table("shapes"), "geom", fanout=8)
        create_rtree_parallel(parallel, SimulatedExecutor(4))
        assert sorted(r for _m, r in parallel.tree.leaf_entries()) == sorted(
            r for _m, r in serial.tree.leaf_entries()
        )
        parallel.tree.check_invariants()

    def test_queries_after_parallel_build(self, build_db):
        index = RTreeIndex("ridx", build_db.table("shapes"), "geom", fanout=8)
        create_rtree_parallel(index, SimulatedExecutor(3))
        window = Geometry.rectangle(10, 10, 60, 60)
        from repro.geometry.predicates import intersects

        expected = sorted(
            rid for rid, row in build_db.table("shapes").scan()
            if intersects(row[1], window)
        )
        got = sorted(index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
        assert got == expected

    def test_speedup_with_degree(self, build_db):
        model = CostModel(worker_startup=0.0)
        i1 = RTreeIndex("a", build_db.table("shapes"), "geom", fanout=8)
        i4 = RTreeIndex("b", build_db.table("shapes"), "geom", fanout=8)
        r1 = create_rtree_parallel(i1, SimulatedExecutor(1, model))
        r4 = create_rtree_parallel(i4, SimulatedExecutor(4, model))
        assert r4.makespan_seconds < r1.makespan_seconds


class TestRelativeCosts:
    def test_quadtree_build_slower_than_rtree(self, build_db):
        """Table 3's qualitative claim: tessellation makes quadtree
        creation much more expensive than R-tree creation."""
        q = create_quadtree_parallel(make_quadtree(build_db), SimulatedExecutor(1))
        r = create_rtree_parallel(
            RTreeIndex("r", build_db.table("shapes"), "geom", fanout=8),
            SimulatedExecutor(1),
        )
        assert q.makespan_seconds > r.makespan_seconds

    def test_database_facade_parallel_clause(self, build_db):
        _idx, report = build_db.create_spatial_index(
            "shapes_q", "shapes", "geom", kind="QUADTREE", parallel=2, tiling_level=5
        )
        assert report.degree == 2
        meta = build_db.catalog.index("shapes_q")
        assert meta.parallel_degree == 2
