"""SQL-level ``strategy`` argument and EXPLAIN output for grid joins."""

import pytest

from repro import Database
from repro.datasets import load_geometries
from repro.errors import EngineError, JoinError


@pytest.fixture
def db(random_rects):
    db = Database()
    load_geometries(db, "a_tab", random_rects(120, seed=31))
    load_geometries(db, "b_tab", random_rects(130, seed=32))
    db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
    db.create_spatial_index("b_idx", "b_tab", "geom", kind="RTREE", fanout=6)
    return db


JOIN = "spatial_join('a_tab','geom','b_tab','geom','INTERSECT'{tail})"


def run(db, tail=""):
    sql = f"select * from table({JOIN.format(tail=tail)})"
    return db.sql(sql)


class TestStrategyArgument:
    def test_grid_equals_default(self, db):
        ref = run(db)
        grid = run(db, ", 0, 1, 'GRID'")
        assert sorted(grid.rows) == sorted(ref.rows)
        assert grid.rowcount == ref.rowcount

    def test_parallel_grid_equals_default(self, db):
        ref = run(db)
        grid = run(db, ", 0, 4, 'GRID'")
        assert sorted(grid.rows) == sorted(ref.rows)

    def test_distance_grid_equals_default(self, db):
        ref = run(db, ", 3.0")
        grid = run(db, ", 3.0, 4, 'GRID'")
        assert sorted(grid.rows) == sorted(ref.rows)

    def test_nested_strategy_still_works(self, db):
        ref = run(db)
        nested = run(db, ", 0, 1, 'NESTED'")
        assert sorted(nested.rows) == sorted(ref.rows)

    def test_unknown_strategy_raises(self, db):
        """Parsed where the API parses it: ``Database.spatial_join``."""
        with pytest.raises(JoinError, match="unknown join strategy"):
            run(db, ", 0, 1, 'KDTREE'")

    @pytest.mark.parametrize("degree", [0, -3])
    def test_degree_below_one_is_an_engine_error(self, db, degree):
        """Not a silently serial join: the API's and the index build's error."""
        with pytest.raises(EngineError, match="degree must be >= 1"):
            run(db, f", 0, {degree}")


class TestExplain:
    def test_grid_plan_lines(self, db):
        result = db.sql(
            "explain select * from table("
            "spatial_join('a_tab','geom','b_tab','geom','INTERSECT',0,4,'GRID'))"
        )
        text = "\n".join(r[0] for r in result.rows)
        assert "GRID PARTITION" in text
        assert "PER-TILE PLANE SWEEP (two-layer duplicate avoidance)" in text
        assert "SYNCHRONIZED R-TREE TRAVERSAL" not in text
        assert "pipelined" not in text  # tiles run to completion first

    def test_default_plan_unchanged(self, db):
        result = db.sql(
            "explain select * from table("
            "spatial_join('a_tab','geom','b_tab','geom','INTERSECT'))"
        )
        text = "\n".join(r[0] for r in result.rows)
        assert "SYNCHRONIZED R-TREE TRAVERSAL" in text
        assert "GRID PARTITION" not in text
        assert "(pipelined)" in text
