"""Primary-filter strategy tests: plane sweep vs nested pairing.

Covers the two guarantees the sweep refactor must keep:

* **Resumability** — draining the join cursor in batches of any size
  yields exactly the full drain, *in the same order* (the candidate
  buffer drains FIFO, so batch boundaries cannot reorder emission).
* **Equivalence** — SWEEP and NESTED produce identical candidate sets on
  seeded counties/stars samples, for intersection and within-distance
  joins, on bulk-loaded and dynamically built (insert/delete) trees alike.
"""

import hashlib
import random

import pytest

from repro import Database
from repro.datasets import load_geometries, stars
from repro.engine.parallel import WorkerContext
from repro.geometry.mbr import MBR
from repro.index.rtree.bulkload import str_pack
from repro.index.rtree.join import JoinStrategy, RTreeJoinCursor
from repro.index.rtree.rtree import RTree
from repro.storage.heap import RowId


def rid(i):
    return RowId(i // 100, i % 100)


def random_entries(n, seed, extent=400.0, size=10.0, id_base=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, extent), rng.uniform(0, extent)
        out.append(
            (
                MBR(x, y, x + rng.uniform(1, size), y + rng.uniform(1, size)),
                rid(id_base + i),
            )
        )
    return out


def brute_pairs(ea, eb, distance=0.0):
    out = set()
    for ma, ra in ea:
        for mb, rb in eb:
            hit = ma.intersects(mb) if distance == 0.0 else ma.distance(mb) <= distance
            if hit:
                out.add((ra, rb))
    return out


def geometry_entries(geoms, id_base=0):
    return [(g.mbr, rid(id_base + i)) for i, g in enumerate(geoms)]


def cursor_pairs(cursor):
    return {(a, b) for a, b, _ma, _mb in cursor.drain()}


ALL_STRATEGIES = [JoinStrategy.NESTED, JoinStrategy.SWEEP]


class TestResumability:
    """drain() == concatenated next_candidates(k) for every batch size."""

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("strategy", [JoinStrategy.NESTED, JoinStrategy.SWEEP])
    def test_batched_equals_drain(self, k, strategy):
        ea = random_entries(120, seed=41)
        eb = random_entries(110, seed=42, id_base=5000)
        ta, tb = str_pack(ea, fanout=8), str_pack(eb, fanout=8)

        full = RTreeJoinCursor([(ta.root, tb.root)], strategy=strategy).drain()
        batched = []
        cursor = RTreeJoinCursor([(ta.root, tb.root)], strategy=strategy)
        while True:
            chunk = cursor.next_candidates(k)
            if not chunk:
                break
            assert len(chunk) <= k
            batched.extend(chunk)
        # Same pairs in the same order: the overflow buffer drains FIFO, so
        # batch boundaries are invisible to the consumer.
        assert batched == full
        assert cursor.exhausted

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_batched_equals_drain_with_distance(self, k):
        ea = random_entries(90, seed=43)
        eb = random_entries(90, seed=44, id_base=5000)
        ta, tb = str_pack(ea, fanout=8), str_pack(eb, fanout=8)
        full = RTreeJoinCursor([(ta.root, tb.root)], distance=9.0).drain()
        cursor = RTreeJoinCursor([(ta.root, tb.root)], distance=9.0)
        batched = []
        while True:
            chunk = cursor.next_candidates(k)
            if not chunk:
                break
            batched.extend(chunk)
        assert batched == full


class TestStrategyEquivalence:
    @pytest.mark.parametrize("distance", [0.0, 6.0])
    def test_random_rect_sets_identical(self, distance):
        ea = random_entries(250, seed=45)
        eb = random_entries(230, seed=46, id_base=9000)
        ta, tb = str_pack(ea, fanout=8), str_pack(eb, fanout=8)
        expected = brute_pairs(ea, eb, distance)
        for strategy in ALL_STRATEGIES:
            cursor = RTreeJoinCursor(
                [(ta.root, tb.root)],
                distance=distance,
                strategy=strategy,
            )
            assert cursor_pairs(cursor) == expected, strategy

    @pytest.mark.parametrize("distance", [0.0, 0.2])
    def test_counties_sample(self, small_counties, distance):
        entries = geometry_entries(small_counties)
        tree = str_pack(entries, fanout=12)
        expected = brute_pairs(entries, entries, distance)
        for strategy in ALL_STRATEGIES:
            cursor = RTreeJoinCursor(
                [(tree.root, tree.root)],
                distance=distance,
                strategy=strategy,
            )
            assert cursor_pairs(cursor) == expected, strategy

    @pytest.mark.parametrize("distance", [0.0, 1.5])
    def test_stars_sample(self, small_stars, distance):
        entries = geometry_entries(small_stars)
        tree = str_pack(entries, fanout=16)
        expected = brute_pairs(entries, entries, distance)
        for strategy in ALL_STRATEGIES:
            cursor = RTreeJoinCursor(
                [(tree.root, tree.root)],
                distance=distance,
                strategy=strategy,
            )
            assert cursor_pairs(cursor) == expected, strategy

    def test_dynamic_tree_after_mutation(self):
        """Insert/delete-built trees exercise the coords-cache invalidation."""
        entries = random_entries(160, seed=47)
        tree = RTree(fanout=8)
        for mbr, r in entries:
            tree.insert(mbr, r)
        # Warm the flat-array caches with a sweep join, then mutate.
        RTreeJoinCursor([(tree.root, tree.root)]).drain()
        removed = entries[::5]
        for mbr, r in removed:
            assert tree.delete(mbr, r)
        kept = [e for i, e in enumerate(entries) if i % 5 != 0]
        extra = random_entries(40, seed=48, id_base=7000)
        for mbr, r in extra:
            tree.insert(mbr, r)
        live = kept + extra
        expected = brute_pairs(live, live)
        for strategy in ALL_STRATEGIES:
            cursor = RTreeJoinCursor([(tree.root, tree.root)], strategy=strategy)
            assert cursor_pairs(cursor) == expected, strategy

    def test_sweep_charges_fewer_mbr_tests(self):
        entries = random_entries(400, seed=49)
        tree = str_pack(entries, fanout=16)
        meters = {}
        for strategy in (JoinStrategy.NESTED, JoinStrategy.SWEEP):
            ctx = WorkerContext(0)
            RTreeJoinCursor([(tree.root, tree.root)], strategy=strategy).drain(ctx)
            meters[strategy] = ctx.meter
        nested, sweep = meters[JoinStrategy.NESTED], meters[JoinStrategy.SWEEP]
        assert sweep.counts["mbr_test"] < nested.counts["mbr_test"]
        assert sweep.seconds() < nested.seconds()
        assert sweep.counts["sweep_sort_per_item"] > 0
        assert sweep.counts["sweep_pair_emit"] > 0


class TestDriverLevelEquivalence:
    """The strategy knob threads through the join drivers end to end."""

    def test_spatial_join_strategies_agree(self, small_counties):
        db = Database()
        load_geometries(db, "c", small_counties)
        db.create_spatial_index("c_idx", "c", "geom", kind="RTREE")
        sweep = db.spatial_join("c", "geom", "c", "geom")
        nested = db.spatial_join(
            "c", "geom", "c", "geom", strategy=JoinStrategy.NESTED
        )
        parallel = db.spatial_join(
            "c", "geom", "c", "geom", parallel=3, strategy=JoinStrategy.NESTED
        )
        assert set(sweep.pairs) == set(nested.pairs)
        assert set(parallel.pairs) == set(sweep.pairs)
        # The sweep primary filter must make the simulated join cheaper.
        assert sweep.makespan_seconds < nested.makespan_seconds


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestPinnedDigests:
    """SWEEP and NESTED pinned at the values they had before the R-tree
    cursor lost its GRID copy and NESTED its per-entry descent loop:
    pairs *and order*, every ``WorkMeter`` count and ``makespan_seconds``
    (processes: pairs and counts — which slave takes which partition, and
    so each slave's time, is up to the scheduler).  The two trees have
    different heights, so the one-sided descent runs."""

    #: (strategy, distance, degree, processes) ->
    #: (pairs, sha of their order, sha of the sorted meter counts, makespan)
    JOINS = {
        ("SWEEP", 0.0, 1, False): (718, "6524d9d4e81ea532", "bebd83dd642bd929", 0.6896780258103805),
        ("SWEEP", 0.0, 4, False): (718, "6b78195fe1533803", "b7abf9e642273e1f", 0.6416755488750217),
        ("SWEEP", 0.0, 2, True): (718, "8d3bcf920a5fc7f8", "f89f5a096483b824", None),
        ("SWEEP", 0.25, 1, False): (1019, "e2d6b6d9bce310af", "8be4759f86e7ec2a", 0.7324595730444997),
        ("SWEEP", 0.25, 4, False): (1019, "480bfe2c71210411", "ee9b216f998da31e", 0.6548331543230737),
        ("SWEEP", 0.25, 2, True): (1019, "26f5d8b2e8d51b66", "47b264cfc16bd9c5", None),
        ("NESTED", 0.0, 1, False): (718, "6524d9d4e81ea532", "89ccfc5e84f0d321", 0.6894039821915559),
        ("NESTED", 0.25, 1, False): (1019, "e2d6b6d9bce310af", "11e3e0b98353f285", 0.7319271873194175),
    }
    #: (strategy, distance) -> (candidates, sha of their order,
    #: pairs_tested, nodes_visited, sha of the sorted meter counts)
    CURSORS = {
        ("SWEEP", 0.0): (886, "41ea43e3799b3bf2", 4791, 830, "c09cd04aca970557"),
        ("SWEEP", 0.25): (1264, "288b20efdb2a21e2", 5542, 910, "edbe40b73a131386"),
        ("NESTED", 0.0): (886, "01abff0efd3c92c5", 6547, 830, "d83dd169cb4b5f90"),
        ("NESTED", 0.25): (1264, "a76c6b4b593344b3", 7179, 910, "b265467f5011218e"),
    }

    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        load_geometries(db, "a", stars(600, seed=7))
        load_geometries(db, "b", stars(600, seed=7)[::5])
        db.create_spatial_index("a_idx", "a", "geom", kind="RTREE", fanout=6)
        db.create_spatial_index("b_idx", "b", "geom", kind="RTREE", fanout=6)
        assert db.rtree_of("a", "geom").root.level != db.rtree_of("b", "geom").root.level
        return db

    @pytest.mark.parametrize("key", list(JOINS), ids=str)
    def test_join(self, db, key):
        strategy, distance, degree, processes = key
        result = db.spatial_join(
            "a", "geom", "b", "geom", distance=distance, parallel=degree,
            use_processes=processes, strategy=strategy,
        )
        flat = [(a.page, a.slot, b.page, b.slot) for a, b in result.pairs]
        counts = sorted(result.run.combined_meter().counts.items())
        makespan = None if processes else result.makespan_seconds
        assert (len(flat), _sha(flat), _sha(counts), makespan) == self.JOINS[key]

    @pytest.mark.parametrize("key", list(CURSORS), ids=str)
    def test_cursor(self, db, key):
        strategy, distance = key
        ta, tb = db.rtree_of("a", "geom"), db.rtree_of("b", "geom")
        ctx = WorkerContext(0)
        cursor = RTreeJoinCursor(
            [(ta.root, tb.root)], distance=distance, strategy=JoinStrategy[strategy]
        )
        cands = [(a.page, a.slot, b.page, b.slot) for a, b, _, _ in cursor.drain(ctx)]
        counts = sorted(ctx.meter.counts.items())
        assert (
            len(cands), _sha(cands), cursor.pairs_tested, cursor.nodes_visited, _sha(counts)
        ) == self.CURSORS[key]
