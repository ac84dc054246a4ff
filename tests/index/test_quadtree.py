"""Unit tests for the linear quadtree domain index."""

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.errors import IndexTypeError, OperatorError
from repro.geometry.predicates import intersects


@pytest.fixture
def qdb(random_rects):
    db = Database()
    geoms = random_rects(120, seed=21)
    load_geometries(db, "shapes", geoms)
    index, _report = db.create_spatial_index(
        "shapes_qidx", "shapes", "geom", kind="QUADTREE", tiling_level=6
    )
    return db, index, geoms


class TestWindowQueries:
    def window(self):
        return Geometry.rectangle(25, 25, 50, 50)

    def test_anyinteract_matches_brute_force(self, qdb):
        db, index, _geoms = qdb
        window = self.window()
        expected = sorted(
            rid
            for rid, row in db.table("shapes").scan()
            if intersects(row[1], window)
        )
        got = sorted(index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
        assert got == expected

    def test_filter_is_superset_of_exact(self, qdb):
        _db, index, _geoms = qdb
        window = self.window()
        exact = set(index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
        primary = set(index.fetch("SDO_FILTER", (window,)))
        assert exact <= primary

    def test_within_distance(self, qdb):
        db, index, _geoms = qdb
        from repro.geometry.distance import within_distance

        probe = Geometry.rectangle(10, 10, 12, 12)
        expected = sorted(
            rid
            for rid, row in db.table("shapes").scan()
            if within_distance(row[1], probe, 8.0)
        )
        got = sorted(index.fetch("SDO_WITHIN_DISTANCE", (probe, 8.0)))
        assert got == expected

    def test_no_duplicates_across_tiles(self, qdb):
        _db, index, _geoms = qdb
        hits = list(index.fetch("SDO_RELATE", (Geometry.rectangle(0, 0, 100, 100), "ANYINTERACT")))
        assert len(hits) == len(set(hits))

    def test_unknown_operator_rejected(self, qdb):
        _db, index, _geoms = qdb
        with pytest.raises(OperatorError):
            list(index.fetch("SDO_WARP", (self.window(),)))

    def test_missing_query_geometry(self, qdb):
        _db, index, _geoms = qdb
        with pytest.raises(OperatorError):
            list(index.fetch("SDO_RELATE", ()))


class TestDml:
    def test_insert_then_query(self, qdb):
        db, index, _geoms = qdb
        table = db.table("shapes")
        before = index.tile_count()
        rid = table.insert((777, Geometry.rectangle(70, 70, 72, 72)))
        assert index.tile_count() > before
        hits = list(
            index.fetch("SDO_RELATE", (Geometry.rectangle(69, 69, 73, 73), "ANYINTERACT"))
        )
        assert rid in hits

    def test_delete_removes_tiles(self, qdb):
        db, index, _geoms = qdb
        table = db.table("shapes")
        rid = table.insert((888, Geometry.rectangle(80, 80, 82, 82)))
        count_with = index.tile_count()
        table.delete(rid)
        assert index.tile_count() < count_with
        hits = list(
            index.fetch("SDO_RELATE", (Geometry.rectangle(79, 79, 83, 83), "ANYINTERACT"))
        )
        assert rid not in hits

    def test_tiles_of_diagnostic(self, qdb):
        db, index, _geoms = qdb
        table = db.table("shapes")
        rid = table.insert((999, Geometry.rectangle(90, 90, 92, 92)))
        tiles = index.tiles_of(rid)
        assert tiles
        table.delete(rid)
        assert index.tiles_of(rid) == []


class TestAgreementWithRTree:
    def test_quadtree_and_rtree_answer_identically(self, indexed_db):
        db = indexed_db
        r_index = db.spatial_index("shapes_ridx")
        q_index = db.spatial_index("shapes_qidx")
        for window in (
            Geometry.rectangle(10, 10, 30, 30),
            Geometry.rectangle(0, 0, 5, 5),
            Geometry.rectangle(40, 60, 90, 95),
        ):
            r_hits = sorted(r_index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
            q_hits = sorted(q_index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
            assert r_hits == q_hits

    def test_metadata_recorded_in_catalog(self, indexed_db):
        meta = indexed_db.catalog.index("shapes_qidx")
        assert meta.index_kind == "QUADTREE"
        assert meta.parameters.get("tiling_level") == 6
