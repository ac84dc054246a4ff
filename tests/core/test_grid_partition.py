"""Adversarial correctness tests for grid-partitioned joins.

The two-layer duplicate-avoidance scheme (DESIGN.md §10) claims every
interacting pair is emitted from *exactly one* tile with no dedup
structure.  The claim is easiest to break where replica ranges are
decided: MBRs lying exactly on tile boundaries, zero-area MBRs on tile
corners, geometries replicated into every tile of the grid, and grids
degenerate enough that every class label collapses to A.  Each case is
checked candidate-level (tile sweeps vs a brute-force rectangle test,
counting multiplicity) and the end-to-end paths are checked against the
SWEEP strategy (and serial GRID against the grid driver itself), with the
numpy binning kernel and again with its ``math.floor`` oracle standing in
(``tests/oracles.py``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Database
from repro.core.grid_partition import (
    GridSweepStats,
    build_grid_spec,
    build_tiles,
    tile_sweep,
)
from repro.core.parallel_join import grid_parallel_join
from repro.core.secondary_filter import JoinPredicate
from repro.datasets import load_geometries, stars
from repro.engine.parallel import SerialExecutor
from repro.errors import JoinError
from repro.geometry import kernels
from repro.geometry.mbr import EMPTY_MBR, MBR
from repro.index.rtree.join import JoinStrategy, RTreeJoinCursor
from repro.server import BackgroundServer, QueryClient
from repro.storage.heap import RowId
from tests import oracles


def rid(i: int) -> RowId:
    return RowId(page=0, slot=i)


def entries(mbrs) -> list:
    return [(mbr, rid(i)) for i, mbr in enumerate(mbrs)]


def grid_candidates(entries_a, entries_b, nx, ny, distance=0.0):
    """All tile-sweep emissions across the grid, *with* multiplicity."""
    box = EMPTY_MBR
    for mbr, _ in entries_a:
        box = box.union(mbr)
    for mbr, _ in entries_b:
        box = box.union(mbr)
    spec = build_grid_spec(box, nx, ny)
    tiles_a = build_tiles(entries_a, spec)
    tiles_b = (
        tiles_a
        if entries_b is entries_a and distance == 0.0
        else build_tiles(entries_b, spec, expand=distance)
    )
    stats = GridSweepStats()
    out = []
    for tile_id in sorted(tiles_a.keys() & tiles_b.keys()):
        out.extend(
            (a, b)
            for a, b, _, _ in tile_sweep(
                tiles_a[tile_id], tiles_b[tile_id], distance, stats=stats
            )
        )
    return out, stats


def brute_pairs(entries_a, entries_b, distance=0.0):
    """Reference result: every rectangle pair within gap distance."""
    out = set()
    for ma, ra in entries_a:
        for mb, rb in entries_b:
            dx = max(mb.min_x - ma.max_x, ma.min_x - mb.max_x, 0.0)
            dy = max(mb.min_y - ma.max_y, ma.min_y - mb.max_y, 0.0)
            if dx * dx + dy * dy <= distance * distance:
                out.add((ra, rb))
    return out


def assert_exactly_once(entries_a, entries_b, nx, ny, distance=0.0):
    """The grid must emit the brute-force set, each pair exactly once."""
    got, _stats = grid_candidates(entries_a, entries_b, nx, ny, distance)
    counts = Counter(got)
    dupes = {pair: n for pair, n in counts.items() if n > 1}
    assert not dupes, f"pairs emitted more than once: {dupes}"
    assert set(got) == brute_pairs(entries_a, entries_b, distance)


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    """Every case runs on the binning kernel and on its oracle: the
    duplicate-avoidance argument needs only the integer bins."""
    with oracles.kernel_impl(request.param):
        yield request.param


class TestTileRangesKernel:
    """``tile_ranges_batch`` against ``floor((v ± expand − origin) / size)``."""

    @pytest.mark.parametrize("expand", [0.0, 1.0, 4.0])
    def test_edges_exactly_on_tile_boundaries(self, expand):
        # 4x4 grid over [0,16]^2: every coordinate below is a multiple of
        # the tile size, a domain corner, or just off one.
        xs = [0.0, 4.0, 8.0, 12.0, 16.0, 3.999999999999999, 4.000000000000001, -2.0, 19.0]
        coords = (
            [x for x in xs for _ in xs],
            [y for _ in xs for y in xs],
            [x + 4.0 for x in xs for _ in xs],
            [y + 8.0 for _ in xs for y in xs],
        )
        args = (coords, (0.0, 0.0), (4.0, 4.0), (4, 4), expand)
        got = kernels.tile_ranges_batch(*args)
        assert got == oracles.tile_ranges_batch(*args)
        ix0, ix1, iy0, iy1 = got
        assert all(0 <= lo <= hi <= 3 for lo, hi in zip(ix0 + iy0, ix1 + iy1))

    def test_irrational_tile_size_and_offset_origin(self):
        coords = tuple(
            [k * 0.1 + shift for k in range(-20, 140)] for shift in (0.0, 0.3, 0.7, 1.1)
        )
        args = (coords, (-1.7, 0.3), (10.0 / 3.0, 0.7), (5, 9), 0.25)
        assert kernels.tile_ranges_batch(*args) == oracles.tile_ranges_batch(*args)


class TestBoundaryStraddlers:
    """MBR edges exactly on tile boundaries — the replica-range edge."""

    def test_edges_on_every_tile_boundary(self, backend):
        # 4x4 grid over [0,16]^2 -> boundaries at every multiple of 4.
        boxes = [
            MBR(4.0, 4.0, 8.0, 8.0),  # aligned with a full tile
            MBR(0.0, 0.0, 16.0, 4.0),  # bottom row exactly
            MBR(8.0, 0.0, 8.0, 16.0),  # zero-width line on a boundary
            MBR(3.0, 3.0, 5.0, 5.0),  # straddles a corner
            MBR(12.0, 12.0, 16.0, 16.0),  # touches the domain max corner
            MBR(0.0, 12.0, 4.0, 16.0),
        ]
        ea = entries(boxes)
        assert_exactly_once(ea, ea, 4, 4)

    def test_shared_edge_pairs_across_boundary(self, backend):
        # Two MBRs meeting exactly on a tile boundary: they interact
        # (touching counts) and are both replicated into the adjacent
        # columns — classic double-report territory.
        ea = entries([MBR(0.0, 0.0, 4.0, 8.0)])
        eb = [(MBR(4.0, 0.0, 8.0, 8.0), rid(99))]
        assert_exactly_once(ea, eb, 2, 2)
        assert_exactly_once(ea, eb, 4, 4)

    @pytest.mark.parametrize("distance", [0.0, 1.0, 4.0])
    def test_distance_join_boundary(self, backend, distance):
        ea = entries([MBR(0.0, 0.0, 3.9, 3.9), MBR(8.1, 8.1, 12.0, 12.0)])
        eb = [
            (MBR(4.0, 4.0, 8.0, 8.0), rid(50)),
            (MBR(12.0, 0.0, 16.0, 4.0), rid(51)),
        ]
        assert_exactly_once(ea, eb, 4, 4, distance)


class TestZeroAreaMBRs:
    """Point and line MBRs, including points exactly on tile corners."""

    def test_points_on_tile_corners(self, backend):
        pts = [
            MBR(4.0, 4.0, 4.0, 4.0),  # interior tile corner
            MBR(0.0, 0.0, 0.0, 0.0),  # domain min corner
            MBR(16.0, 16.0, 16.0, 16.0),  # domain max corner (clamped bin)
            MBR(8.0, 4.0, 8.0, 4.0),
            MBR(4.0, 4.0, 4.0, 4.0),  # duplicate coordinates, distinct rowid
        ]
        # Anchor the domain so corners land on tile boundaries.
        anchor = [MBR(0.0, 0.0, 16.0, 16.0)]
        ea = entries(pts + anchor)
        assert_exactly_once(ea, ea, 4, 4)

    @pytest.mark.parametrize("distance", [0.0, 2.0])
    def test_coincident_points(self, backend, distance):
        ea = entries([MBR(5.0, 5.0, 5.0, 5.0) for _ in range(4)])
        assert_exactly_once(ea, ea, 3, 3, distance)


class TestWholeGridSpanners:
    """Geometries replicated into every tile of the grid."""

    def test_spanner_vs_small(self, backend):
        spanner = MBR(0.0, 0.0, 100.0, 100.0)
        smalls = [
            MBR(10.0 * i, 10.0 * j, 10.0 * i + 5.0, 10.0 * j + 5.0)
            for i in range(10)
            for j in range(10)
        ]
        ea = entries([spanner] + smalls)
        assert_exactly_once(ea, ea, 8, 8)

    def test_two_spanners(self, backend):
        ea = entries(
            [MBR(0.0, 0.0, 50.0, 50.0), MBR(0.0, 0.0, 50.0, 50.0)]
        )
        # Both replicas appear in every tile; the pair must come out once,
        # from tile (0, 0) — where both carry class A.
        got, stats = grid_candidates(ea, ea, 5, 5)
        assert Counter(got) == Counter(
            {(rid(0), rid(0)): 1, (rid(0), rid(1)): 1,
             (rid(1), rid(0)): 1, (rid(1), rid(1)): 1}
        )
        assert stats.duplicates_avoided > 0

    def test_row_and_column_spanners(self, backend):
        ea = entries(
            [
                MBR(0.0, 4.0, 40.0, 6.0),  # spans a row of tiles
                MBR(20.0, 0.0, 22.0, 40.0),  # spans a column of tiles
                MBR(0.0, 0.0, 40.0, 40.0),  # spans everything
            ]
        )
        assert_exactly_once(ea, ea, 4, 4)


class TestDegenerateGrids:
    def test_single_tile_grid(self, backend):
        # 1x1 grid: every entry is class A and the tile sweep must equal
        # the brute force outright.
        boxes = [
            MBR(float(i), float(i), float(i) + 2.0, float(i) + 2.0)
            for i in range(10)
        ]
        ea = entries(boxes)
        assert_exactly_once(ea, ea, 1, 1)

    def test_zero_extent_domain(self, backend):
        # All inputs identical points: domain width and height are zero
        # and the spec falls back to unit tiles.
        ea = entries([MBR(7.0, 7.0, 7.0, 7.0) for _ in range(3)])
        assert_exactly_once(ea, ea, 4, 4)

    def test_empty_inputs(self, backend):
        ea = entries([MBR(0.0, 0.0, 1.0, 1.0)])
        got, _ = grid_candidates(ea, [], 2, 2)
        assert got == []
        spec = build_grid_spec(EMPTY_MBR, 3, 3)
        assert spec.tiles == 1  # empty domain degenerates to one tile

    def test_bad_shape_rejected(self):
        with pytest.raises(JoinError):
            build_grid_spec(MBR(0, 0, 1, 1), 0, 3)


class TestSerialGrid:
    """Serial GRID is ``grid_parallel_join`` on a ``SerialExecutor`` —
    pairs *and order* — through the API, SQL and the wire alike."""

    @pytest.fixture(scope="class")
    def served(self):
        db = Database()
        load_geometries(db, "t", stars(600, seed=7))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        with BackgroundServer(db) as handle:
            yield handle, db

    @pytest.mark.parametrize("distance", [0.0, 0.15])
    def test_every_front_end_runs_the_grid_driver(self, served, distance):
        handle, db = served
        table, tree = db.table("t"), db.rtree_of("t", "geom")
        want = grid_parallel_join(
            table, "geom", tree, table, "geom", tree, SerialExecutor(db.cost_model),
            predicate=JoinPredicate(distance=distance),
        )
        api = db.spatial_join("t", "geom", "t", "geom", distance=distance, strategy="GRID")
        assert api.pairs == want.pairs
        assert api.run.combined_meter().counts == want.run.combined_meter().counts
        assert api.makespan_seconds == want.makespan_seconds
        sql = db.sql(
            "select * from table(spatial_join("
            f"'t','geom','t','geom','INTERSECT',{distance},1,'GRID'))"
        )
        assert [tuple(row) for row in sql.rows] == want.pairs
        with QueryClient(port=handle.port) as client:
            rows = client.start(
                "spatial_join",
                {"table_a": "t", "column_a": "geom", "table_b": "t",
                 "column_b": "geom", "distance": distance, "strategy": "GRID"},
            ).all(page=1000)
        assert rows == [
            [[a.page, a.slot], [b.page, b.slot]] for a, b in want.pairs
        ]

    def test_cursor_refuses_grid(self, served):
        _, db = served
        tree = db.rtree_of("t", "geom")
        with pytest.raises(JoinError):
            RTreeJoinCursor([(tree.root, tree.root)], strategy=JoinStrategy.GRID)


class TestEndToEndParity:
    """Full joins (primary + secondary filter) across executors."""

    @pytest.fixture()
    def rect_db(self, random_rects):
        db = Database()
        load_geometries(db, "a_tab", random_rects(120, seed=93))
        load_geometries(db, "b_tab", random_rects(110, seed=94))
        db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
        db.create_spatial_index("b_idx", "b_tab", "geom", kind="RTREE", fanout=6)
        return db

    @pytest.mark.parametrize("distance", [0.0, 3.0])
    @pytest.mark.parametrize("parallel", [1, 3])
    def test_grid_equals_sweep(self, rect_db, backend, distance, parallel):
        ref = rect_db.spatial_join(
            "a_tab", "geom", "b_tab", "geom", distance=distance
        )
        got = rect_db.spatial_join(
            "a_tab", "geom", "b_tab", "geom", distance=distance,
            parallel=parallel, strategy="GRID",
        )
        assert len(got.pairs) == len(set(got.pairs))
        assert sorted(got.pairs) == sorted(ref.pairs)
        if parallel > 1:
            assert got.grid is not None
            assert got.grid.tasks == got.subtree_pair_count

    def test_process_grid(self, rect_db):
        ref = rect_db.spatial_join("a_tab", "geom", "b_tab", "geom")
        got = rect_db.spatial_join(
            "a_tab", "geom", "b_tab", "geom",
            parallel=3, use_processes=True, strategy="GRID",
        )
        assert sorted(got.pairs) == sorted(ref.pairs)
        # slave processes metered tile sweeps and shipped counts back
        combined = got.run.combined_meter()
        assert combined.counts.get("mbr_test", 0) > 0

    def test_self_join_grid(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(100, seed=95))
        db.create_spatial_index("t_idx", "t", "geom", kind="RTREE", fanout=6)
        ref = db.spatial_join("t", "geom", "t", "geom")
        got = db.spatial_join(
            "t", "geom", "t", "geom", parallel=4, strategy="GRID"
        )
        assert sorted(got.pairs) == sorted(ref.pairs)
        assert len(got.pairs) == len(set(got.pairs))

    def test_unknown_strategy_rejected(self, rect_db):
        with pytest.raises(JoinError):
            rect_db.spatial_join(
                "a_tab", "geom", "b_tab", "geom", strategy="HILBERT"
            )
