"""Integration tests for the Database façade."""

import math
import warnings

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.errors import CatalogError, EngineError, JoinError, OperatorError
from repro.storage.pager import FilePager


class TestDdl:
    def test_create_and_drop_table(self):
        db = Database()
        db.create_table("t", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
        assert db.catalog.has_table("t")
        db.drop_table("t")
        assert not db.catalog.has_table("t")
        with pytest.raises(CatalogError):
            db.table("t")

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", [("id", "NUMBER")])
        with pytest.raises(CatalogError):
            db.create_table("T", [("id", "NUMBER")])

    def test_index_requires_table(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_spatial_index("idx", "missing", "geom")

    def test_index_metadata_recorded(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(20, seed=1))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE", fanout=16)
        meta = db.catalog.index("t_idx")
        assert meta.index_kind == "RTREE"
        assert meta.table_name == "t"
        assert meta.parameters["fanout"] == 16

    def test_drop_index(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(10, seed=2))
        db.create_spatial_index("t_idx", "t", "geom")
        db.drop_index("t_idx")
        with pytest.raises(CatalogError):
            db.spatial_index("t_idx")


class TestQueryPaths:
    def test_select_rowids_through_index(self, indexed_db):
        window = Geometry.rectangle(10, 10, 40, 40)
        rowids = list(indexed_db.select_rowids("shapes", "geom", "SDO_RELATE", (window, "ANYINTERACT")))
        from repro.geometry.predicates import intersects

        expected = sorted(
            rid for rid, row in indexed_db.table("shapes").scan()
            if intersects(row[1], window)
        )
        assert sorted(rowids) == expected

    def test_join_requires_rtree(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(10, seed=3))
        db.create_spatial_index("t_q", "t", "geom", kind="QUADTREE", tiling_level=4)
        with pytest.raises(JoinError):
            db.spatial_join("t", "geom", "t", "geom")

    def test_join_requires_index(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(10, seed=4))
        with pytest.raises(CatalogError):
            db.spatial_join("t", "geom", "t", "geom")

    @pytest.mark.parametrize("degree", [0, -3])
    @pytest.mark.parametrize("use_processes", [False, True])
    def test_join_degree_below_one_is_an_engine_error(
        self, indexed_db, degree, use_processes
    ):
        """The same error the index build raises — not a silently serial join."""
        with pytest.raises(EngineError, match="degree must be >= 1"):
            indexed_db.spatial_join(
                "shapes", "geom", "shapes", "geom",
                parallel=degree, use_processes=use_processes,
            )
        with pytest.raises(EngineError, match="degree must be >= 1"):
            indexed_db.create_spatial_index(
                "again", "shapes", "geom", parallel=degree, use_processes=use_processes
            )


    @pytest.mark.parametrize(
        "options",
        [{}, {"strategy": "GRID"}, {"parallel": 2, "strategy": "GRID"}],
        ids=["serial", "grid", "grid-p2"],
    )
    @pytest.mark.parametrize("distance", [math.nan, math.inf, -1.0, "abc", None])
    def test_bad_join_distance_is_an_operator_error(
        self, indexed_db, distance, options
    ):
        """Validated once, by the predicate: NaN was 0 pairs (and numpy
        cast warnings on the grid path), inf every pair, -1 a bare
        ValueError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorError, match="distance"):
                indexed_db.spatial_join(
                    "shapes", "geom", "shapes", "geom", distance=distance, **options
                )

    def test_bad_join_mask_is_an_operator_error(self, indexed_db):
        with pytest.raises(OperatorError, match="mask"):
            indexed_db.spatial_join("shapes", "geom", "shapes", "geom", mask="BOGUS")

    def test_join_distance_is_stored_as_a_float(self, indexed_db):
        from repro.core.secondary_filter import JoinPredicate

        assert JoinPredicate(distance="0.5").distance == 0.5
        as_int = indexed_db.spatial_join("shapes", "geom", "shapes", "geom", distance=1)
        as_float = indexed_db.spatial_join("shapes", "geom", "shapes", "geom", distance=1.0)
        assert as_int.pairs == as_float.pairs


class TestFileBacked:
    def test_database_on_file_pager(self, tmp_path, random_rects):
        pager = FilePager(str(tmp_path / "db.pages"))
        db = Database(pager=pager)
        geoms = random_rects(30, seed=5)
        load_geometries(db, "t", geoms)
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        result = db.spatial_join("t", "geom", "t", "geom")
        assert len(result.pairs) >= 30  # identity pairs at least
        db.pool.flush()
        pager.flush()
        pager.close()

    def test_rows_survive_buffer_invalidation(self, random_rects):
        db = Database(buffer_capacity=4)  # tiny cache: constant eviction
        geoms = random_rects(40, seed=6)
        table = load_geometries(db, "t", geoms)
        db.pool.invalidate()
        rows = [row for _rid, row in table.scan()]
        assert len(rows) == 40
        assert rows[7][1] == geoms[7]
