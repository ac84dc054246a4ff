"""Unit tests for STR bulk loading and the parallel subtree build."""

import random

import pytest

from repro import Database, Geometry
from repro.core.index_build import create_rtree_parallel
from repro.datasets import load_geometries
from repro.engine.parallel import SerialExecutor, SimulatedExecutor
from repro.geometry.mbr import MBR
from repro.index.rtree.bulkload import merge_subtrees, str_pack
from repro.index.rtree.rtree import RTree
from repro.index.rtree.spatial_index import RTreeIndex
from repro.storage.heap import RowId


def rid(i):
    return RowId(i // 100, i % 100)


def random_entries(n, seed=0, extent=1000.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, extent), rng.uniform(0, extent)
        out.append((MBR(x, y, x + rng.uniform(1, 8), y + rng.uniform(1, 8)), rid(i)))
    return out


class TestStrPack:
    def test_contains_everything(self):
        entries = random_entries(500, seed=1)
        tree = str_pack(entries, fanout=16)
        assert len(tree) == 500
        assert sorted(r for _m, r in tree.leaf_entries()) == sorted(
            r for _m, r in entries
        )
        tree.check_invariants()

    def test_search_equivalent_to_dynamic(self):
        entries = random_entries(400, seed=2)
        packed = str_pack(entries, fanout=10)
        dynamic = RTree(fanout=10)
        for m, r in entries:
            dynamic.insert(m, r)
        q = MBR(100, 100, 400, 400)
        assert sorted(r for _m, r in packed.search(q)) == sorted(
            r for _m, r in dynamic.search(q)
        )

    def test_packed_tree_is_shallower_or_equal(self):
        entries = random_entries(600, seed=3)
        packed = str_pack(entries, fanout=10, fill=0.9)
        dynamic = RTree(fanout=10)
        for m, r in entries:
            dynamic.insert(m, r)
        assert packed.height <= dynamic.height

    def test_empty_and_single(self):
        assert len(str_pack([], fanout=8)) == 0
        tree = str_pack(random_entries(1), fanout=8)
        assert len(tree) == 1
        tree.check_invariants()

    def test_bad_fill_rejected(self):
        from repro.errors import IndexBuildError

        with pytest.raises(IndexBuildError):
            str_pack([], fill=0.1)

    def test_packed_tree_supports_dynamic_updates(self):
        entries = random_entries(200, seed=4)
        tree = str_pack(entries, fanout=8)
        tree.insert(MBR(0, 0, 1, 1), rid(9999))
        assert tree.delete(entries[0][0], entries[0][1])
        assert len(tree) == 200
        tree.check_invariants()


class TestMergeSubtrees:
    def test_merge_two_halves_equals_whole(self):
        entries = random_entries(300, seed=5)
        left = str_pack(entries[:150], fanout=8)
        right = str_pack(entries[150:], fanout=8)
        merged = merge_subtrees([left, right], fanout=8)
        assert len(merged) == 300
        assert sorted(r for _m, r in merged.leaf_entries()) == sorted(
            r for _m, r in entries
        )
        merged.check_invariants()

    def test_merge_uneven_heights(self):
        entries = random_entries(420, seed=6)
        big = str_pack(entries[:400], fanout=8)
        small = str_pack(entries[400:], fanout=8)
        assert big.height > small.height
        merged = merge_subtrees([big, small], fanout=8)
        assert len(merged) == 420
        merged.check_invariants()

    def test_merge_with_empty_trees(self):
        entries = random_entries(50, seed=7)
        merged = merge_subtrees([RTree(8), str_pack(entries, fanout=8), RTree(8)])
        assert len(merged) == 50

    def test_merge_single(self):
        tree = str_pack(random_entries(50, seed=8), fanout=8)
        assert merge_subtrees([tree]) is tree

    def test_merge_all_empty(self):
        assert len(merge_subtrees([RTree(8), RTree(8)])) == 0


class TestBuildParallel:
    """§5's recipe, partitions packed on the workers and merged serially,
    through the engine's parallel R-tree creation."""

    def _index(self, entries):
        db = Database()
        load_geometries(db, "shapes", [Geometry.from_mbr(m) for m, _r in entries])
        return RTreeIndex("shapes_sidx", db.table("shapes"), "geom", fanout=8)

    def test_parallel_build_equals_serial_content(self):
        index = self._index(random_entries(400, seed=9))
        report = create_rtree_parallel(index, SimulatedExecutor(4))
        tree = index.tree
        assert len(tree) == 400
        assert sorted(r for _m, r in tree.leaf_entries()) == sorted(
            r for r, _row in index.table.scan()
        )
        tree.check_invariants()
        assert report.run.degree == 4

    def test_parallel_makespan_below_serial(self):
        from repro.engine.cost import CostModel

        model = CostModel(worker_startup=0.0)
        entries = random_entries(2000, seed=10)
        run1 = create_rtree_parallel(self._index(entries), SerialExecutor(model))
        run4 = create_rtree_parallel(self._index(entries), SimulatedExecutor(4, model))
        assert run4.makespan_seconds < run1.makespan_seconds

    def test_search_correct_after_parallel_build(self):
        index = self._index(random_entries(300, seed=11))
        create_rtree_parallel(index, SimulatedExecutor(3))
        q = MBR(0, 0, 500, 500)
        expected = sorted(r for r, row in index.table.scan() if row[1].mbr.intersects(q))
        assert sorted(r for _m, r in index.tree.search(q)) == expected
