"""Batch secondary filter: result/charge identity with the scalar path,
seeded RANDOM fetch order, and end-to-end join equivalence between the
pair kernel and the scalar predicates (``use_batch=False``)."""

import pytest

from repro import Database
from repro.datasets import counties, load_geometries
from repro.engine.parallel import WorkerContext
from repro.geometry import kernels
from repro.core.secondary_filter import FetchOrder, JoinPredicate, SecondaryFilter


@pytest.fixture
def filter_db(random_rects):
    db = Database()
    load_geometries(db, "t", random_rects(80, seed=17))
    return db


def candidates_of(db, slack=0.0):
    rows = [(rid, row[1]) for rid, row in db.table("t").scan()]
    out = []
    for ra, ga in rows:
        for rb, gb in rows:
            if ga.mbr.expand(slack).intersects(gb.mbr):
                out.append((ra, rb, ga.mbr, gb.mbr))
    return out


def make_filter(db, **kw):
    return SecondaryFilter(
        db.table("t"), "geom", db.table("t"), "geom", JoinPredicate(), **kw
    )


class TestBatchIdentity:
    def test_batch_matches_scalar_results_and_charges(self, filter_db):
        cands = candidates_of(filter_db)
        f_batch = make_filter(filter_db, use_batch=True)
        f_scalar = make_filter(filter_db, use_batch=False)
        ctx_b, ctx_s = WorkerContext(0), WorkerContext(1)
        res_b = f_batch.process(list(cands), ctx_b)
        res_s = f_scalar.process(list(cands), ctx_s)
        # Same pairs, in the same emission order.
        assert res_b == res_s
        # Same simulated work, charge kind by charge kind.
        assert ctx_b.meter.counts == ctx_s.meter.counts
        assert ctx_b.meter.seconds() == ctx_s.meter.seconds()

    @pytest.mark.parametrize("distance", (0.0, 1.5))
    @pytest.mark.parametrize("use_interior", (False, True))
    def test_array_at_a_time_keeps_cache_and_meter_identical(
        self, filter_db, distance, use_interior
    ):
        """One kernel call per array, yet the fetch sequence — and so the
        LRU state, hit/miss counters and every charge — is the oracle's,
        even when the cache is far smaller than the candidate array."""
        cands = candidates_of(filter_db, slack=8.0)
        assert len(cands) > 200
        filters, contexts, results = [], [], []
        for use_batch in (True, False):
            f = SecondaryFilter(
                filter_db.table("t"), "geom", filter_db.table("t"), "geom",
                JoinPredicate(distance=distance), use_batch=use_batch,
                cache_capacity=5, use_interior=use_interior,
            )
            ctx = WorkerContext(0)
            # two arrays through one filter: state carries over
            half = len(cands) // 2
            results.append(f.process(cands[:half], ctx) + f.process(cands[half:], ctx))
            filters.append(f)
            contexts.append(ctx)
        batch, scalar = filters
        assert results[0] == results[1]
        assert (batch.cache.hits, batch.cache.misses) == (scalar.cache.hits, scalar.cache.misses)
        assert list(batch.cache._entries) == list(scalar.cache._entries)
        assert batch.cache.misses > 5  # the capacity really was exceeded
        assert contexts[0].meter.counts == contexts[1].meter.counts
        assert (batch.candidates_seen, batch.results_produced, batch.fast_accepts) == (
            scalar.candidates_seen, scalar.results_produced, scalar.fast_accepts
        )
        assert batch.batched_candidates == batch.candidates_seen - batch.fast_accepts

    def test_pinned_geometries_are_bounded_by_a_constant(self, monkeypatch):
        """Every cache miss decodes a fresh object, so with a small cache a
        candidate array of large polygons fetches far more geometry than
        it has rows; the filter may hold a group's worth at a time."""
        import gc
        import math

        from repro.geometry.geometry import Geometry

        def disc(cx, cy):
            turn = 2 * math.pi / 400
            return Geometry.polygon(
                [(cx + 0.52 * math.cos(turn * k), cy + 0.52 * math.sin(turn * k))
                 for k in range(400)]
            )

        db = Database()
        load_geometries(db, "t", [disc(i % 8, i // 8) for i in range(48)])
        rows = [(rid, row[1].mbr) for rid, row in db.table("t").scan()]
        cands = [(ra, rb, ma, mb) for ra, ma in rows for rb, mb in rows]
        vertices, alive = [], []
        kernel = kernels.evaluate_predicate_pairs

        def live_geometries():
            return sum(isinstance(o, Geometry) for o in gc.get_objects())

        def recording(geoms_a, geoms_b, mask, distance):
            vertices.append(sum(g.num_vertices for g in (*geoms_a, *geoms_b)))
            alive.append(live_geometries())
            return kernel(geoms_a, geoms_b, mask, distance)

        monkeypatch.setattr(kernels, "evaluate_predicate_pairs", recording)
        f = make_filter(db, cache_capacity=4)
        before = live_geometries()
        pairs = f.process(cands, WorkerContext(0))
        assert len(pairs) == 48 + 2 * (6 * 7 + 8 * 5)  # itself and its 4-neighbours
        assert f.cache.misses > 2000  # nearly every second fetch decoded anew
        assert len(vertices) > 10
        assert max(vertices) < kernels.GROUP_VERTICES + 2 * 401
        # One group is ~165 fetched discs; the whole array would be ~2 300.
        assert max(alive) - before < 400, alive

    def test_batched_candidates_counter(self, filter_db):
        cands = candidates_of(filter_db)
        f = make_filter(filter_db, use_batch=True)
        f.process(list(cands))
        assert f.batched_candidates > 0

    def test_scalar_path_never_batches(self, filter_db):
        cands = candidates_of(filter_db)
        f = make_filter(filter_db, use_batch=False)
        f.process(list(cands))
        assert f.batched_candidates == 0


class TestSeededRandomOrder:
    def test_same_seed_same_order(self, filter_db):
        cands = candidates_of(filter_db)
        f1 = make_filter(filter_db, fetch_order=FetchOrder.RANDOM, rng_seed=7)
        f2 = make_filter(filter_db, fetch_order=FetchOrder.RANDOM, rng_seed=7)
        assert f1.order_candidates(list(cands)) == f2.order_candidates(list(cands))

    def test_different_seed_different_order(self, filter_db):
        cands = candidates_of(filter_db)
        f1 = make_filter(filter_db, fetch_order=FetchOrder.RANDOM, rng_seed=7)
        f2 = make_filter(filter_db, fetch_order=FetchOrder.RANDOM, rng_seed=8)
        assert f1.order_candidates(list(cands)) != f2.order_candidates(list(cands))

    def test_rng_is_lazy(self, filter_db):
        f = make_filter(filter_db, fetch_order=FetchOrder.SORTED, rng_seed=7)
        f.process(candidates_of(filter_db))
        assert f._rng is None  # never materialized outside RANDOM order

    def test_random_order_results_match_sorted(self, filter_db):
        cands = candidates_of(filter_db)
        f_rand = make_filter(filter_db, fetch_order=FetchOrder.RANDOM, rng_seed=3)
        f_sort = make_filter(filter_db, fetch_order=FetchOrder.SORTED)
        assert sorted(f_rand.process(list(cands))) == sorted(
            f_sort.process(list(cands))
        )


class TestJoinEquivalenceAcrossBackends:
    """The two refinement paths: pair kernel and scalar predicates."""

    def _join(self, db, **kw):
        return db.spatial_join("c", "geom", "c", "geom", **kw)

    @pytest.fixture(scope="class")
    def county_db(self):
        db = Database()
        load_geometries(
            db, "c", counties(120, seed=13, refine=4, extent=(0, 0, 10, 5))
        )
        db.create_spatial_index("c_idx", "c", "geom", kind="RTREE")
        return db

    @pytest.mark.parametrize("dist", [0.0, 0.15])
    def test_pairs_and_makespan_invariant(self, county_db, dist):
        batch = self._join(county_db, distance=dist, use_batch=True)
        scalar = self._join(county_db, distance=dist, use_batch=False)
        assert batch.pairs == scalar.pairs  # and in the same order
        assert batch.makespan_seconds == scalar.makespan_seconds
