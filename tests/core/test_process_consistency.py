"""Real-process consistency: decompositions correct on forked slaves.

The simulated executor runs every task in the parent; these tests run the
parallel paths on actual slave processes (tasks inherited by fork, results
and meters pickled back) and check the results stay identical to serial
execution.
"""

import pytest

from repro import Database
from repro.datasets import CONUS_INDEX_DOMAIN, blockgroups, load_geometries, stars
from repro.engine.parallel import ProcessExecutor


class TestProcessJoin:
    def test_process_parallel_join_many_degrees(self):
        db = Database()
        load_geometries(db, "t", stars(800, seed=41))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        serial = db.spatial_join("t", "geom", "t", "geom")
        for degree in (2, 5, 8):
            forked = db.spatial_join(
                "t", "geom", "t", "geom", parallel=degree, use_processes=True
            )
            assert sorted(forked.pairs) == sorted(serial.pairs), degree

    def test_process_meters_account_all_work(self):
        from repro.core.parallel_join import parallel_spatial_join

        db = Database()
        load_geometries(db, "t", stars(400, seed=42))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        result = parallel_spatial_join(
            db.table("t"), "geom", db.spatial_index("t_idx").tree,
            db.table("t"), "geom", db.spatial_index("t_idx").tree,
            ProcessExecutor(4),
        )
        combined = result.run.combined_meter()
        assert combined.counts.get("exact_test_base", 0) > 0
        assert result.run.wall_seconds > 0


class TestProcessBuilds:
    def test_process_quadtree_build_equals_serial(self):
        from repro.engine.parallel import make_executor
        from repro.core.index_build import create_quadtree_parallel
        from repro.geometry.mbr import MBR
        from repro.index.quadtree.quadtree import QuadtreeIndex

        db = Database()
        load_geometries(db, "t", blockgroups(250, seed=43))
        domain = MBR(*CONUS_INDEX_DOMAIN)
        serial = QuadtreeIndex("q1", db.table("t"), "geom", domain=domain, tiling_level=7)
        serial.create()
        forked = QuadtreeIndex("q2", db.table("t"), "geom", domain=domain, tiling_level=7)
        create_quadtree_parallel(forked, make_executor(4, use_processes=True))
        assert list(forked.btree.items()) == list(serial.btree.items())

    def test_process_rtree_build_equals_serial_content(self):
        from repro.engine.parallel import make_executor
        from repro.core.index_build import create_rtree_parallel
        from repro.index.rtree.spatial_index import RTreeIndex

        db = Database()
        load_geometries(db, "t", blockgroups(300, seed=44))
        serial = RTreeIndex("r1", db.table("t"), "geom")
        serial.create()
        forked = RTreeIndex("r2", db.table("t"), "geom")
        create_rtree_parallel(forked, make_executor(4, use_processes=True))
        assert sorted(r for _m, r in forked.tree.leaf_entries()) == sorted(
            r for _m, r in serial.tree.leaf_entries()
        )
        forked.tree.check_invariants()
