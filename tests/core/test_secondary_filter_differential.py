"""``SecondaryFilter.process`` against the per-candidate reference
(``tests/oracles.py::secondary_filter_reference``) on twin filters, over
random candidate arrays: every fetch order, within-distance and a mask
the pair kernel declines, caches from one row to more than the array's
distinct rows (so arrays span many segments of the cache's bulk
accounting), kernel groups cut small, and a join of two tables whose
rowids coincide."""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import Database, Geometry
from repro.core.secondary_filter import FetchOrder, JoinPredicate, SecondaryFilter
from repro.datasets import load_geometries, stars
from repro.engine.cost import WorkMeter
from repro.engine.parallel import WorkerContext
from repro.geometry import kernels
from tests.oracles import secondary_filter_reference

ROWS = 24


def _layer(seed):
    rng = random.Random(seed)
    out = []
    for _ in range(ROWS - 4):
        x, y = rng.uniform(0, 12), rng.uniform(0, 12)
        w, h = rng.uniform(0.5, 4), rng.uniform(0.5, 4)
        out.append(Geometry.rectangle(x, y, x + w, y + h))
    out += stars(4, seed, extent=(0, 0, 14, 14))
    return out


def _table(name, seed):
    """A table of its own database: two of them share every rowid."""
    table = load_geometries(Database(), name, _layer(seed))
    return table, [(rid, row[1].mbr) for rid, row in table.scan()]


TABLE_A, ROWS_A = _table("a", 1)
TABLE_B, ROWS_B = _table("b", 2)
assert [rid for rid, _ in ROWS_A] == [rid for rid, _ in ROWS_B]


@given(
    picks=st.lists(st.tuples(st.integers(0, ROWS - 1), st.integers(0, ROWS - 1)),
                   max_size=120),
    splits=st.lists(st.integers(0, 120), max_size=3),
    capacity=st.integers(1, 2 * ROWS + 2),
    order=st.sampled_from(list(FetchOrder)),
    distance=st.sampled_from([0.0, 0.4, 2.5]),
    mask=st.sampled_from(["ANYINTERACT", "CONTAINS"]),
    two_tables=st.booleans(),
    group=st.sampled_from([12, 60, kernels.GROUP_VERTICES]),
    seed=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_process_equals_the_per_candidate_reference(
    picks, splits, capacity, order, distance, mask, two_tables, group, seed
):
    table_b, rows_b = (TABLE_B, ROWS_B) if two_tables else (TABLE_A, ROWS_A)
    candidates = [
        (ROWS_A[i][0], rows_b[j][0], ROWS_A[i][1], rows_b[j][1]) for i, j in picks
    ]
    cuts = sorted({0, len(candidates), *(min(s, len(candidates)) for s in splits)})
    arrays = [candidates[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    runs = []
    with mock.patch.object(kernels, "GROUP_VERTICES", group):
        for resolve in (SecondaryFilter.process, secondary_filter_reference):
            filt = SecondaryFilter(
                TABLE_A, "geom", table_b, "geom", JoinPredicate(mask, distance),
                fetch_order=order, cache_capacity=capacity, rng_seed=seed,
            )
            ctx = WorkerContext(0, WorkMeter())
            # several arrays through one filter: cache state carries over
            pairs = [resolve(filt, list(array), ctx) for array in arrays]
            runs.append((
                pairs,
                filt.cache.hits,
                filt.cache.misses,
                ctx.meter.counts,
                list(filt.cache._entries),
            ))
    assert runs[0] == runs[1]
