"""Unit tests for k-nearest-neighbour search."""

import random
from itertools import islice

from repro.geometry.mbr import MBR
from repro.index.rtree.bulkload import str_pack
from repro.index.rtree.knn import incremental_nearest
from repro.storage.heap import RowId


def rid(i):
    return RowId(0, i)


def random_entries(n, seed):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        out.append((MBR(x, y, x + 1, y + 1), rid(i)))
    return out


class TestKnn:
    def test_matches_brute_force(self):
        entries = random_entries(200, seed=1)
        tree = str_pack(entries, fanout=8)
        qx, qy = 37.0, 64.0
        expected = sorted(
            ((m.distance_to_point(qx, qy), r) for m, r in entries),
        )[:10]
        got = list(islice(incremental_nearest(tree, qx, qy), 10))
        assert [r for _d, r in got] == [r for _d, r in expected]

    def test_distances_non_decreasing(self):
        entries = random_entries(150, seed=2)
        tree = str_pack(entries, fanout=8)
        dists = [d for d, _r in islice(incremental_nearest(tree, 50, 50), 40)]
        assert dists == sorted(dists)

    def test_incremental_enumerates_everything(self):
        entries = random_entries(60, seed=3)
        tree = str_pack(entries, fanout=8)
        all_hits = list(incremental_nearest(tree, 0, 0))
        assert len(all_hits) == 60
        assert sorted(r for _d, r in all_hits) == sorted(r for _m, r in entries)

    def test_k_larger_than_population(self):
        entries = random_entries(5, seed=4)
        tree = str_pack(entries, fanout=8)
        assert len(list(islice(incremental_nearest(tree, 0, 0), 50))) == 5

    def test_empty_tree(self):
        from repro.index.rtree.rtree import RTree

        assert list(incremental_nearest(RTree(8), 0, 0)) == []

    def test_point_inside_an_entry_has_distance_zero(self):
        entries = [(MBR(10, 10, 20, 20), rid(0)), (MBR(50, 50, 60, 60), rid(1))]
        tree = str_pack(entries, fanout=4)
        d, r = next(incremental_nearest(tree, 15, 15))
        assert d == 0.0 and r == rid(0)
