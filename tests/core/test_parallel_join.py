"""Unit tests for the parallel spatial join driver."""

import pytest

from repro import Database
from repro.datasets import load_geometries
from repro.engine.cost import CostModel
from repro.engine.parallel import SimulatedExecutor
from repro.core.parallel_join import parallel_spatial_join, spatial_join
from repro.core.secondary_filter import JoinPredicate


@pytest.fixture
def pj_db(random_rects):
    db = Database()
    load_geometries(db, "a_tab", random_rects(200, seed=51))
    load_geometries(db, "b_tab", random_rects(220, seed=52))
    db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
    db.create_spatial_index("b_idx", "b_tab", "geom", kind="RTREE", fanout=6)
    return db


def serial_pairs(db, predicate=JoinPredicate()):
    result = spatial_join(
        db.table("a_tab"), "geom", db.spatial_index("a_idx").tree,
        db.table("b_tab"), "geom", db.spatial_index("b_idx").tree,
        predicate=predicate,
    )
    return result


def parallel_pairs(db, executor, predicate=JoinPredicate(), **kw):
    return parallel_spatial_join(
        db.table("a_tab"), "geom", db.spatial_index("a_idx").tree,
        db.table("b_tab"), "geom", db.spatial_index("b_idx").tree,
        executor, predicate=predicate, **kw,
    )


class TestEquivalence:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_parallel_equals_serial(self, pj_db, degree):
        serial = serial_pairs(pj_db)
        parallel = parallel_pairs(pj_db, SimulatedExecutor(degree))
        assert sorted(parallel.pairs) == sorted(serial.pairs)

    def test_process_execution_equals_serial(self, pj_db):
        from repro.engine.parallel import ProcessExecutor

        serial = serial_pairs(pj_db)
        parallel = parallel_pairs(pj_db, ProcessExecutor(3))
        assert sorted(parallel.pairs) == sorted(serial.pairs)
        # slave processes really metered their work and reported it back
        combined = parallel.run.combined_meter()
        assert combined.counts.get("mbr_test", 0) > 0

    def test_distance_join_parallel(self, pj_db):
        pred = JoinPredicate(distance=6.0)
        serial = serial_pairs(pj_db, pred)
        parallel = parallel_pairs(pj_db, SimulatedExecutor(2), pred)
        assert sorted(parallel.pairs) == sorted(serial.pairs)

    def test_forced_descent_levels(self, pj_db):
        serial = serial_pairs(pj_db)
        parallel = parallel_pairs(
            pj_db, SimulatedExecutor(2), descent_levels=(2, 2)
        )
        assert sorted(parallel.pairs) == sorted(serial.pairs)
        assert parallel.descent_levels == (2, 2)

    def test_no_duplicates_across_slaves(self, pj_db):
        parallel = parallel_pairs(pj_db, SimulatedExecutor(4))
        assert len(parallel.pairs) == len(set(parallel.pairs))


class TestScaling:
    def test_parallel_reduces_makespan_on_large_join(self, pj_db):
        model = CostModel(worker_startup=0.0)
        one = parallel_pairs(pj_db, SimulatedExecutor(1, model))
        two = parallel_pairs(pj_db, SimulatedExecutor(2, model))
        four = parallel_pairs(pj_db, SimulatedExecutor(4, model))
        assert two.makespan_seconds < one.makespan_seconds
        assert four.makespan_seconds <= two.makespan_seconds

    def test_startup_cost_hurts_tiny_joins(self, random_rects):
        """Table 2's first row: at 25 geometries parallelism does not pay."""
        db = Database()
        load_geometries(db, "a_tab", random_rects(25, seed=53))
        load_geometries(db, "b_tab", random_rects(25, seed=54))
        db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
        db.create_spatial_index("b_idx", "b_tab", "geom", kind="RTREE", fanout=6)
        one = parallel_pairs(db, SimulatedExecutor(1))
        two = parallel_pairs(db, SimulatedExecutor(2))
        assert two.makespan_seconds > one.makespan_seconds

    def test_subtree_pair_count_recorded(self, pj_db):
        parallel = parallel_pairs(pj_db, SimulatedExecutor(4))
        assert parallel.subtree_pair_count >= 8  # >= degree * min_pairs

    def test_work_meters_balanced_reasonably(self, pj_db):
        parallel = parallel_pairs(pj_db, SimulatedExecutor(4))
        assert parallel.run.imbalance < 3.0
