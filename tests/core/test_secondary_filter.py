"""Unit tests for the secondary filter, fetch order, and geometry cache."""

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine.parallel import WorkerContext
from repro.core.secondary_filter import (
    FetchOrder,
    GeometryCache,
    JoinPredicate,
    SecondaryFilter,
)
from repro.geometry.mbr import MBR


@pytest.fixture
def filter_db(random_rects):
    db = Database()
    load_geometries(db, "t", random_rects(60, seed=31))
    return db


def candidates_of(db, limit=None):
    """All-pairs MBR candidates for the single table (self-join style)."""
    rows = [(rid, row[1]) for rid, row in db.table("t").scan()]
    out = []
    for ra, ga in rows:
        for rb, gb in rows:
            if ga.mbr.intersects(gb.mbr):
                out.append((ra, rb, ga.mbr, gb.mbr))
    return out[:limit] if limit else out


class TestJoinPredicate:
    def test_intersect_semantics(self):
        p = JoinPredicate()
        a, b = Geometry.rectangle(0, 0, 2, 2), Geometry.rectangle(1, 1, 3, 3)
        assert p.evaluate(a, b)
        assert not p.evaluate(a, Geometry.rectangle(9, 9, 10, 10))

    def test_distance_semantics(self):
        p = JoinPredicate(distance=3.0)
        a, b = Geometry.rectangle(0, 0, 1, 1), Geometry.rectangle(3, 0, 4, 1)
        assert p.evaluate(a, b)
        assert not JoinPredicate(distance=1.0).evaluate(a, b)

    def test_mask_passthrough(self):
        p = JoinPredicate(mask="CONTAINS")
        big, small = Geometry.rectangle(0, 0, 10, 10), Geometry.rectangle(2, 2, 3, 3)
        assert p.evaluate(big, small)
        assert not p.evaluate(small, big)


class TestGeometryCache:
    def test_hit_after_miss(self, filter_db):
        table = filter_db.table("t")
        rid = next(iter(table.heap.rowids()))
        cache = GeometryCache(capacity=4)
        ctx = WorkerContext(0)
        g1 = cache.fetch(table, rid, 1, ctx)
        g2 = cache.fetch(table, rid, 1, ctx)
        assert g1 == g2
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self, filter_db):
        table = filter_db.table("t")
        rids = list(table.heap.rowids())[:3]
        cache = GeometryCache(capacity=2)
        ctx = WorkerContext(0)
        cache.fetch(table, rids[0], 1, ctx)
        cache.fetch(table, rids[1], 1, ctx)
        cache.fetch(table, rids[2], 1, ctx)  # evicts rids[0]
        cache.fetch(table, rids[0], 1, ctx)
        assert cache.misses == 4

    def test_miss_charges_more_than_hit(self, filter_db):
        table = filter_db.table("t")
        rid = next(iter(table.heap.rowids()))
        cache = GeometryCache(capacity=4)
        ctx_miss, ctx_hit = WorkerContext(0), WorkerContext(1)
        cache.fetch(table, rid, 1, ctx_miss)
        cache.fetch(table, rid, 1, ctx_hit)
        assert ctx_miss.meter.seconds() > ctx_hit.meter.seconds()


class TestSecondaryFilter:
    def make_filter(self, db, order=FetchOrder.SORTED, capacity=2048):
        return SecondaryFilter(
            db.table("t"), "geom", db.table("t"), "geom",
            JoinPredicate(), fetch_order=order, cache_capacity=capacity,
        )

    def test_results_independent_of_order(self, filter_db):
        cands = candidates_of(filter_db)
        results = {}
        for order in FetchOrder:
            f = self.make_filter(filter_db, order=order)
            results[order] = sorted(f.process(list(cands)))
        assert results[FetchOrder.SORTED] == results[FetchOrder.RANDOM]
        assert results[FetchOrder.SORTED] == results[FetchOrder.AS_PRODUCED]

    def test_results_subset_of_candidates(self, filter_db):
        cands = candidates_of(filter_db)
        f = self.make_filter(filter_db)
        results = f.process(list(cands))
        cand_pairs = {(a, b) for a, b, _m, _n in cands}
        assert all(pair in cand_pairs for pair in results)

    def test_sorted_order_has_better_cache_hit_ratio(self, filter_db):
        """The paper's §4.2 claim, made mechanical: sorting candidates by
        first rowid improves fetch locality under a bounded cache."""
        cands = candidates_of(filter_db)
        f_sorted = self.make_filter(filter_db, FetchOrder.SORTED, capacity=8)
        f_random = self.make_filter(filter_db, FetchOrder.RANDOM, capacity=8)
        f_sorted.process(list(cands))
        f_random.process(list(cands))
        assert f_sorted.cache.hit_ratio > f_random.cache.hit_ratio

    def test_work_charged(self, filter_db):
        cands = candidates_of(filter_db, limit=50)
        f = self.make_filter(filter_db)
        ctx = WorkerContext(0)
        f.process(list(cands), ctx)
        assert ctx.meter.counts["exact_test_base"] == 50
        assert ctx.meter.counts.get("geom_fetch_base", 0) > 0

    def test_identity_pairs_always_pass(self, filter_db):
        rows = [(rid, row[1]) for rid, row in filter_db.table("t").scan()]
        cands = [(rid, rid, g.mbr, g.mbr) for rid, g in rows]
        f = self.make_filter(filter_db)
        assert len(f.process(cands)) == len(cands)


def test_two_columns_of_one_table_are_cached_apart():
    """The cache keys a row by column as well as by table and rowid: a
    join of two geometry columns of one table must not hand one column's
    geometry to the other side (an L and a square inside its MBR that it
    does not touch; same row on both sides)."""
    db = Database()
    db.sql("create table t (id number, g1 sdo_geometry, g2 sdo_geometry)")
    db.sql(
        "insert into t values (1, "
        "sdo_geometry('POLYGON ((0 0, 10 0, 10 1, 1 1, 1 10, 0 10, 0 0))'), "
        "sdo_geometry('POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))'))"
    )
    db.create_spatial_index("t_g1", "t", "g1", kind="RTREE")
    db.create_spatial_index("t_g2", "t", "g2", kind="RTREE")
    assert db.nested_loop_join("t", "g1", "t", "g2").pairs == []
    assert db.spatial_join("t", "g1", "t", "g2").pairs == []
    table = db.table("t")
    (rid, row), = table.scan()
    f = SecondaryFilter(table, "g1", table, "g2", JoinPredicate())
    assert f.process([(rid, rid, row[1].mbr, row[2].mbr)]) == []
