"""Unit tests for the cost-model mechanisms behind the paper's shapes.

These pin down the *mechanisms* (not magic constants): per-probe operator
overhead, fetch locality through the domain index's geometry cache, the
node-cache miss penalty for repeatedly probed large trees, and the fixed
per-statement overhead that makes tiny joins strategy-insensitive.
"""

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine.parallel import WorkerContext


@pytest.fixture
def probe_db(random_rects):
    db = Database()
    load_geometries(db, "t", random_rects(60, seed=91))
    db.create_spatial_index("t_idx", "t", "geom", kind="RTREE", fanout=8)
    return db


class TestIndexProbeCharge:
    def test_each_fetch_charges_one_probe(self, probe_db):
        index = probe_db.spatial_index("t_idx")
        ctx = WorkerContext(0)
        window = Geometry.rectangle(0, 0, 50, 50)
        for _ in range(5):
            list(index.fetch("SDO_RELATE", (window, "ANYINTERACT"), ctx))
        assert ctx.meter.counts["index_probe"] == 5

    def test_quadtree_fetch_also_charges(self, probe_db):
        probe_db.create_spatial_index(
            "t_q", "t", "geom", kind="QUADTREE", tiling_level=5
        )
        index = probe_db.spatial_index("t_q")
        ctx = WorkerContext(0)
        list(index.fetch("SDO_RELATE", (Geometry.rectangle(0, 0, 50, 50), "ANYINTERACT"), ctx))
        assert ctx.meter.counts["index_probe"] == 1


class TestGeometryCacheInDomainIndex:
    def test_repeated_fetch_hits_cache(self, probe_db):
        index = probe_db.spatial_index("t_idx")
        rid = next(iter(probe_db.table("t").heap.rowids()))
        ctx1, ctx2 = WorkerContext(0), WorkerContext(1)
        index.geometry_of(rid, ctx1)  # miss
        index.geometry_of(rid, ctx2)  # hit
        assert "geom_fetch_base" in ctx1.meter.counts
        assert "geom_fetch_base" not in ctx2.meter.counts
        assert ctx2.meter.counts["buffer_get_hit"] == 1

    def test_dml_invalidates_cache(self, probe_db):
        index = probe_db.spatial_index("t_idx")
        table = probe_db.table("t")
        rid = table.insert((777, Geometry.rectangle(200, 200, 201, 201)))
        index.geometry_of(rid)  # warm the cache
        table.update(rid, (777, Geometry.rectangle(300, 300, 301, 301)))
        geom = index.geometry_of(rid)
        assert geom.mbr.min_x == 300
        table.delete(rid)

    def test_capacity_bounded(self, probe_db):
        index = probe_db.spatial_index("t_idx")
        index._geom_cache.capacity = 8  # shrink for the test
        rids = list(probe_db.table("t").heap.rowids())[:20]
        for rid in rids:
            index.geometry_of(rid)
        assert len(index._geom_cache._entries) <= 8


class TestStatementOverhead:
    def test_tiny_join_strategies_near_parity(self, random_rects):
        """The Table 2 25-row behaviour: fixed statement cost dominates."""
        db = Database()
        load_geometries(db, "t", random_rects(10, seed=92))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        nested = db.nested_loop_join("t", "geom", "t", "geom")
        index = db.spatial_join("t", "geom", "t", "geom")
        ratio = nested.makespan_seconds / index.makespan_seconds
        assert ratio < 1.3

    def test_overhead_constant_across_degrees(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(100, seed=93))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        s = db.spatial_join("t", "geom", "t", "geom")
        p = db.spatial_join("t", "geom", "t", "geom", parallel=2)
        assert s.statement_overhead_seconds == p.statement_overhead_seconds > 0


class TestNodeCacheMisses:
    def test_small_tree_never_penalised(self, probe_db):
        index = probe_db.spatial_index("t_idx")
        ctx = WorkerContext(0)
        list(index.fetch("SDO_RELATE", (Geometry.rectangle(0, 0, 100, 100), "ANYINTERACT"), ctx))
        assert "physical_read" not in ctx.meter.counts

    def test_large_tree_probes_pay_physical_reads(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(600, seed=94))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE", fanout=4)
        index = db.spatial_index("t_idx")
        index.NODE_CACHE = 16  # pretend the cache is tiny
        index._node_count_cache = None
        ctx = WorkerContext(0)
        list(index.fetch("SDO_RELATE", (Geometry.rectangle(0, 0, 100, 100), "ANYINTERACT"), ctx))
        assert ctx.meter.counts.get("physical_read", 0) > 0
