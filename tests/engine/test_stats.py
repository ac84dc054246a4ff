"""Unit tests for optimizer statistics and ANALYZE."""

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine.stats import (
    analyze_table,
    estimate_join_pairs,
    estimate_window_rows,
)
from repro.errors import CatalogError
from repro.geometry.mbr import MBR
from tests.oracles import analyze_table_reference


@pytest.fixture
def stats_db(random_rects):
    db = Database()
    load_geometries(db, "t", random_rects(200, seed=161))
    return db


class TestAnalyze:
    def test_row_counts_and_averages(self, stats_db):
        stats = stats_db.analyze("t")
        assert stats.row_count == 200
        col = stats.column("geom")
        assert col.geometry_count == 200
        assert 0 < col.avg_width <= 4.0
        assert col.avg_vertices == 4.0  # rectangles
        assert not col.layer_mbr.is_empty

    def test_null_geometries_excluded_from_column_stats(self):
        db = Database()
        t = db.create_table("t", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
        t.insert((1, Geometry.rectangle(0, 0, 2, 2)))
        t.insert((2, None))
        stats = analyze_table(t)
        assert stats.row_count == 2
        assert stats.column("geom").geometry_count == 1

    def test_missing_stats_raise(self, stats_db):
        stats = stats_db.analyze("t")
        with pytest.raises(CatalogError):
            stats.column("not_a_column")

    def test_analyze_via_sql(self, stats_db):
        msg = stats_db.sql("analyze table t compute statistics").message
        assert "200 rows" in msg
        assert stats_db.table_stats("t") is not None


class TestAnalyzeMatchesDecodeReference:
    """``analyze_table`` reads bounds; the reference decodes every row.
    The statistics are equal field for field, float sums included."""

    @staticmethod
    def mixed_table(db):
        table = db.create_table(
            "m", [("id", "NUMBER"), ("a", "SDO_GEOMETRY"), ("b", "SDO_GEOMETRY")]
        )
        shapes = [
            Geometry.rectangle(0.1, 0.2, 3.3, 4.7),
            Geometry.point(-1.0, 3.0),
            Geometry.linestring([(0, 0), (5, -2), (7.5, 1)]),
            Geometry.polygon(
                [(0, 0), (9, 0), (9, 9), (0, 9)], [[(2, 2), (4, 2), (4, 4)]]
            ),
            Geometry.polygon([(-0.0, 0.0), (1.5, 0.0), (0.75, 2.25)]),
            None,
        ]
        for i in range(90):
            a = shapes[i % len(shapes)]
            b = shapes[(i * 5 + 1) % len(shapes)]
            if a is not None and i % 4 == 0:
                a = Geometry.rectangle(i * 0.37, i * 0.11, i * 0.37 + 1.9, i * 0.11 + 0.3)
            table.insert((i, a, b))
        return table

    def test_heap_table(self, stats_db):
        for table in (stats_db.table("t"), self.mixed_table(stats_db)):
            assert analyze_table(table) == analyze_table_reference(table)

    def test_compacted_and_journaled_table(self, stats_db):
        table = self.mixed_table(stats_db)
        stats_db.compact_table("m", "a", chunk_rows=16)
        assert analyze_table(table) == analyze_table_reference(table)
        rowids = [rowid for rowid, _row in table.scan()]
        for rowid in rowids[::7]:
            table.update(rowid, (-1, Geometry.rectangle(1, 1, 2.5, 2), None))
        for rowid in rowids[3::11]:
            table.delete(rowid)
        table.insert((500, Geometry.rectangle(-3, -3, -1, -1), None))
        assert table.columnar.journal_size() > 0
        assert analyze_table(table) == analyze_table_reference(table)

    def test_table_without_geometry(self, stats_db):
        table = stats_db.create_table("n", [("id", "NUMBER")])
        for i in range(5):
            table.insert((i,))
        assert analyze_table(table) == analyze_table_reference(table)
        assert analyze_table(table).row_count == 5


class TestEstimates:
    def test_window_estimate_tracks_actual(self, stats_db):
        from repro.geometry.predicates import intersects

        stats = stats_db.analyze("t")
        col = stats.column("geom")
        window = MBR(20, 20, 60, 60)
        estimate = estimate_window_rows(col, window)
        window_geom = Geometry.from_mbr(window)
        actual = sum(
            1
            for _r, row in stats_db.table("t").scan()
            if intersects(row[1], window_geom)
        )
        # uniformity model: order-of-magnitude agreement is the contract
        assert actual / 3 <= estimate <= actual * 3

    def test_window_estimate_monotone_in_window_size(self, stats_db):
        col = stats_db.analyze("t").column("geom")
        small = estimate_window_rows(col, MBR(40, 40, 45, 45))
        large = estimate_window_rows(col, MBR(10, 10, 90, 90))
        assert small < large

    def test_join_estimate_tracks_actual(self, stats_db):
        col = stats_db.analyze("t").column("geom")
        estimate = estimate_join_pairs(col, col)
        actual = len(stats_db_join(stats_db))
        assert actual / 4 <= estimate <= actual * 4

    def test_empty_column(self):
        from repro.engine.stats import ColumnGeometryStats

        col = ColumnGeometryStats(column="g")
        assert estimate_window_rows(col, MBR(0, 0, 1, 1)) == 0.0
        assert estimate_join_pairs(col, col) == 0.0


def stats_db_join(db):
    from repro.geometry.predicates import intersects

    rows = [(r, row[1]) for r, row in db.table("t").scan()]
    return [
        (ra, rb)
        for ra, ga in rows
        for rb, gb in rows
        if ga.mbr.intersects(gb.mbr)
    ]


class TestExplainEstimates:
    def test_window_estimate_in_plan(self, stats_db):
        stats_db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        stats_db.sql("analyze table t")
        plan = "\n".join(
            r[0]
            for r in stats_db.sql(
                "explain select id from t where sdo_relate(geom, "
                "sdo_geometry('POLYGON ((20 20, 60 20, 60 60, 20 60, 20 20))'), "
                "'ANYINTERACT') = 'TRUE'"
            ).rows
        )
        assert "estimated rows:" in plan

    def test_join_estimate_in_plan(self, stats_db):
        stats_db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        stats_db.sql("analyze table t")
        plan = "\n".join(
            r[0]
            for r in stats_db.sql(
                "explain select count(*) from t a, t b where "
                "sdo_relate(a.geom, b.geom, 'ANYINTERACT') = 'TRUE'"
            ).rows
        )
        assert "estimated candidate pairs:" in plan

    def test_no_stats_no_estimates(self, stats_db):
        stats_db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        plan = "\n".join(
            r[0]
            for r in stats_db.sql(
                "explain select id from t where sdo_relate(geom, "
                "sdo_geometry('POINT (1 1)'), 'ANYINTERACT') = 'TRUE'"
            ).rows
        )
        assert "estimated" not in plan
