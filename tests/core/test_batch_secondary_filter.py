"""Secondary filter: result/charge identity of ``SecondaryFilter.process``
with the per-candidate reference (``oracles.secondary_filter_reference``),
seeded RANDOM fetch order, and the end-to-end join pinned and replayed
through that reference."""

import hashlib
from unittest import mock

import pytest

from repro import Database
from repro.datasets import counties, load_geometries
from repro.engine.parallel import WorkerContext
from repro.geometry import kernels
from repro.core.secondary_filter import FetchOrder, JoinPredicate, SecondaryFilter
from tests.oracles import secondary_filter_reference


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


def make_filter(db, predicate=JoinPredicate(), **kw):
    return SecondaryFilter(
        db.table("t"), "geom", db.table("t"), "geom", predicate, **kw
    )


class TestBatchIdentity:
    def test_batch_matches_scalar_results_and_charges(self, filter_db):
        cands = candidates_of(filter_db)
        # twin filters: the reference drives its filter's own cache
        f_array, f_ref = make_filter(filter_db), make_filter(filter_db)
        ctx_a, ctx_r = WorkerContext(0), WorkerContext(1)
        res_a = f_array.process(list(cands), ctx_a)
        res_r = secondary_filter_reference(f_ref, list(cands), ctx_r)
        # Same pairs, in the same emission order.
        assert res_a == res_r
        # Same simulated work, charge kind by charge kind.
        assert ctx_a.meter.counts == ctx_r.meter.counts
        assert ctx_a.meter.seconds() == ctx_r.meter.seconds()

    @pytest.mark.parametrize("distance", (0.0, 0.15, 1.5))
    @pytest.mark.parametrize("clear_between", (False, True))
    def test_array_at_a_time_keeps_cache_and_meter_identical(
        self, filter_db, distance, clear_between
    ):
        """One kernel call per array, yet the fetch sequence — and so the
        LRU state, hit/miss counters and every charge — is the oracle's,
        even when the cache is far smaller than the candidate array, and
        whether the cache carries over to the next array or
        ``clear_caches`` empties it in between."""
        cands = candidates_of(filter_db, slack=8.0)
        assert len(cands) > 200
        half = len(cands) // 2
        filters, contexts, results, batched = [], [], [], []
        for run in (SecondaryFilter.process, secondary_filter_reference):
            kernels.reset_counters()
            f = make_filter(
                filter_db, JoinPredicate(distance=distance), cache_capacity=5
            )
            ctx = WorkerContext(0)
            # two arrays through one filter
            pairs = run(f, cands[:half], ctx)
            if clear_between:
                f.clear_caches()
                assert not f.cache._entries
            results.append(pairs + run(f, cands[half:], ctx))
            filters.append(f)
            contexts.append(ctx)
            batched.append(
                kernels.counters()["items"].get("evaluate_predicate_pairs", 0)
            )
        array, ref = filters
        assert results[0] == results[1]
        assert (array.cache.hits, array.cache.misses) == (ref.cache.hits, ref.cache.misses)
        assert list(array.cache._entries) == list(ref.cache._entries)
        assert array.cache.misses > 5  # the capacity really was exceeded
        assert contexts[0].meter.counts == contexts[1].meter.counts
        # Every candidate went through the pair kernel; the oracle's none.
        assert batched == [len(cands), 0]

    def test_pinned_geometries_are_bounded_by_a_constant(self, monkeypatch):
        """Every cache miss decodes a fresh object, so with a small cache a
        candidate array of large polygons fetches far more geometry than
        it has rows; the filter may hold a group's worth at a time."""
        import gc
        import math

        from repro.geometry.geometry import Geometry
        from repro.geometry.packed import PackedRing

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
            return sum(isinstance(o, (Geometry, PackedRing)) for o in gc.get_objects())

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
        f = make_filter(filter_db)
        kernels.reset_counters()
        f.process(list(cands))
        assert kernels.counters()["items"]["evaluate_predicate_pairs"] == len(cands)

    def test_scalar_path_never_batches(self, filter_db):
        """A mask the pair kernel declines (``CONTAINS``) goes candidate by
        candidate through the scalar predicate, and still equals the
        reference."""
        cands = candidates_of(filter_db)
        contains = JoinPredicate(mask="CONTAINS")
        f, f_ref = make_filter(filter_db, contains), make_filter(filter_db, contains)
        ctx, ctx_ref = WorkerContext(0), WorkerContext(0)
        scalar = []
        evaluate = JoinPredicate.evaluate

        def counting(predicate, a, b):
            scalar.append(1)
            return evaluate(predicate, a, b)

        with mock.patch.object(JoinPredicate, "evaluate", counting):
            pairs = f.process(list(cands), ctx)
        assert len(scalar) == len(cands)
        assert pairs == secondary_filter_reference(f_ref, list(cands), ctx_ref)
        assert len(pairs) >= 80  # every rectangle contains itself
        assert ctx.meter.counts == ctx_ref.meter.counts


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
    """The whole join: pinned, and replayed with the per-candidate
    reference standing in for ``SecondaryFilter.process``."""

    #: distance -> (pairs, sha256 of their (page, slot) order, makespan) at
    #: the commit that removed ``use_batch`` (both of its values agreed)
    PINNED = {
        0.0: (936, "cfa4beb229263bd414c5e22abee2e915e580680024a830f4b2e1bb784c285ed9",
              0.679861053879882),
        0.15: (936, "cfa4beb229263bd414c5e22abee2e915e580680024a830f4b2e1bb784c285ed9",
               0.6798984908968426),
    }

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
    def test_pairs_and_makespan_invariant(self, county_db, dist, monkeypatch):
        result = self._join(county_db, distance=dist)
        flat = [(a.page, a.slot, b.page, b.slot) for a, b in result.pairs]
        digest = hashlib.sha256(repr(flat).encode()).hexdigest()
        assert (len(flat), digest, result.makespan_seconds) == self.PINNED[dist]
        monkeypatch.setattr(SecondaryFilter, "process", secondary_filter_reference)
        reference = self._join(county_db, distance=dist)
        assert result.pairs == reference.pairs  # and in the same order
        assert result.makespan_seconds == reference.makespan_seconds
