"""``tessellate`` against ``tests/oracles.py::tessellate_reference``.

The shipped tessellation carries each quadrant's surviving edges down the
levels, a batch of geometries at a time; the reference tests every quadrant
against the whole geometry, one geometry at a time.  Tile lists (codes,
interior flags, order) and the full ``WorkMeter.counts`` dict must be
equal — on the wall-clock harness's golden input, on the other two paper
layers, on geometry built to sit exactly on tile lines, and on random mixed
batches; and a geometry's tiles never depend on the batch it came in.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Geometry
from repro.datasets import blockgroups, counties, load_geometries, stars
from repro.engine.parallel import WorkerContext
from repro.geometry.mbr import MBR
from repro.geometry.packed import pack_ring
from repro.index.quadtree.codes import TileGrid
from repro.index.quadtree.quadtree import DEFAULT_TILING_LEVEL, TESSELLATE_BATCH
from repro.index.quadtree.tessellate import Tile, tessellate, tessellate_batch
from tests.oracles import assert_tessellation_matches_reference as assert_same
from tests.oracles import tessellate_reference


def batch_tiles(geoms, grid, ctx=None):
    """``tessellate_batch`` as one tile list per geometry."""
    owner, codes, interior = tessellate_batch(geoms, grid, ctx)
    cut = np.searchsorted(owner, np.arange(len(geoms) + 1))
    tiles = list(map(Tile, codes.tolist(), interior.tolist()))
    return [tiles[a:b] for a, b in zip(cut[:-1], cut[1:])]


def assert_batch_matches_reference(geoms, grid):
    """Per geometry, the batch's tiles are the reference's; the batch's
    charges are the reference's summed over its geometries."""
    ctx, ref_ctx = WorkerContext(0), WorkerContext(0)
    got = batch_tiles(geoms, grid, ctx)
    for geom, tiles in zip(geoms, got):
        assert tiles == tessellate_reference(geom, grid, ref_ctx)
    assert ctx.meter.counts == ref_ctx.meter.counts
    return sum(map(len, got))


# ----------------------------------------------------------------------
# The paper layers, on the grid create_spatial_index(kind="QUADTREE") gives
# them, in the batches the index build uses.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make, tiles",
    [
        (lambda: blockgroups(600, 2003), 3120),  # benchmarks/wallclock index_build input
        (lambda: counties(200, 2003, refine=4), 32165),
        (lambda: stars(1500, 2003), 4268),
    ],
    ids=["blockgroups", "counties", "stars"],
)
def test_paper_layers(make, tiles):
    geoms = make()
    db = Database()
    domain = db._infer_domain(load_geometries(db, "t", geoms), "geom")
    grid = TileGrid(domain, DEFAULT_TILING_LEVEL)
    step = TESSELLATE_BATCH
    made = [
        assert_batch_matches_reference(geoms[i : i + step], grid)
        for i in range(0, len(geoms), step)
    ]
    assert sum(made) == tiles


# ----------------------------------------------------------------------
# Adversarial geometry on the half-integer snap grid: at level 5 the tile
# lines of DOMAIN are exactly the half-integers.
# ----------------------------------------------------------------------
DOMAIN = MBR(-8, -8, 8, 8)
LEVELS = (0, 1, 3, 5)
NUDGE = 5e-10  # inside EPSILON: met by the edge tests, missed by exact MBRs

SLIVER_A = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SLIVER_B = [  # PR 13 deviation 7: near-collinear with SLIVER_A's diagonal, far apart
    (1.1363961044043247, 1.136396101731461),
    (4.671930017761683, 4.671930000239578),
    (4.7, 1.0),
]

NAMED = {
    "edges_on_tile_lines": Geometry.rectangle(-2, -2.5, 3, 1.5),
    "vertices_on_tile_lines": Geometry.polygon([(-3, 0), (0, -2.5), (3.5, 0), (0, 4)]),
    "equals_one_quadrant": Geometry.rectangle(0, 0, 4, 4),
    "equals_one_tile": Geometry.rectangle(1, 1, 1.5, 1.5),
    "equals_the_domain": Geometry.rectangle(-8, -8, 8, 8),
    "hole_inside_one_tile": Geometry.polygon(
        [(-6, -6), (6, -6), (6, 6), (-6, 6)],
        holes=[[(0.1, 0.1), (0.4, 0.1), (0.4, 0.4), (0.1, 0.4)]],
    ),
    "tiles_inside_a_hole": Geometry.polygon(
        [(-6, -6), (6, -6), (6, 6), (-6, 6)],
        holes=[[(-2, -2), (2, -2), (2, 2), (-2, 2)]],
    ),
    "parts_in_different_quadrants": Geometry.multipolygon(
        [([(-7, -7), (-5, -7), (-5, -5.5)], []), ([(1, 2), (6.5, 2), (6.5, 7), (1, 7)], [])]
    ),
    "line_along_a_tile_edge": Geometry.linestring([(-3, 1), (2, 1)]),
    "line_closing_on_a_tile": Geometry.linestring(
        [(1, 1), (1.5, 1), (1.5, 1.5), (1, 1.5), (1, 1)]
    ),
    "point_on_a_tile_corner": Geometry.point(1, 1),
    "multipoint_on_tile_corners": Geometry.multipoint([(0, 0), (2.5, -3), (7.9, 7.9)]),
    "mixed_collection": Geometry.collection(
        [
            Geometry.rectangle(-4, -4, -1, -1),
            Geometry.linestring([(0, 0), (4, 4)]),
            Geometry.point(-6.25, 6.25),
        ]
    ),
    "near_collinear_sliver_a": Geometry.polygon(SLIVER_A),
    "near_collinear_sliver_b": Geometry.polygon(SLIVER_B),
    "near_collinear_slivers": Geometry.multipolygon([(SLIVER_A, []), (SLIVER_B, [])]),
    # A part whose MBR misses a tile by less than EPSILON while its edges
    # "touch" it: the part's MBR gate, not the edge test, decides.
    "part_within_epsilon_of_a_tile": Geometry.multipolygon(
        [
            ([(1 + NUDGE, 0.1), (1.4, 0.1), (1.4, 0.4), (1 + NUDGE, 0.4)], []),
            ([(-3, -3), (-2, -3), (-2, -2), (-3, -2)], []),
        ]
    ),
    "line_within_epsilon_of_tile_corners": Geometry.collection(
        [
            Geometry.linestring([(1 + NUDGE, -1), (1 + NUDGE, 2)]),
            Geometry.rectangle(-3, -3, -2, -2),
        ]
    ),
    "point_within_epsilon_of_a_tile": Geometry.multipoint([(1 + NUDGE, 1), (-3, -3)]),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_adversarial(name):
    for level in LEVELS:
        assert_same(NAMED[name], TileGrid(DOMAIN, level))


def _snap(rng, reach=7):
    return rng.randrange(-2 * reach, 2 * reach + 1) / 2.0


def _snapped_ring(rng):
    """A star-shaped ring round a snapped centre, every vertex snapped; it
    may reach past DOMAIN, where tessellation clips it."""
    cx, cy = _snap(rng, 4), _snap(rng, 4)
    spokes = ((3, 0), (2, 2), (0, 3), (-2, 2), (-3, 0), (-2, -2), (0, -3), (2, -2))
    scales = [rng.choice((0.5, 1.0, 1.0, 1.5)) for _ in spokes]
    return [(cx + dx * k, cy + dy * k) for (dx, dy), k in zip(spokes, scales)]


def _snapped_geometry(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Geometry.polygon(_snapped_ring(rng))
    if kind == 1:
        x, y = _snap(rng, 4), _snap(rng, 4)
        hole = [(x - 0.5, y - 0.5), (x + 0.5, y - 0.5), (x + 0.5, y + 0.5), (x - 0.5, y + 0.5)]
        outer = [(x - 3, y - 2.5), (x + 3.5, y - 2.5), (x + 3.5, y + 3), (x - 3, y + 3)]
        return Geometry.polygon(outer, holes=[hole])
    if kind == 2:
        x, y = _snap(rng), _snap(rng)
        return Geometry.multipolygon(
            [
                ([(x, y), (x + 1, y), (x + 1, y + 0.5), (x, y + 0.5)], []),
                (_snapped_ring(rng), []),
            ]
        )
    if kind == 3:
        return Geometry.linestring(
            [(_snap(rng), _snap(rng)) for _ in range(rng.randrange(2, 6))]
        )
    if kind == 4:
        return Geometry.multipoint(
            [(_snap(rng), _snap(rng)) for _ in range(rng.randrange(1, 5))]
        )
    return Geometry.collection(
        [Geometry.polygon(_snapped_ring(rng)), Geometry.point(_snap(rng), _snap(rng))]
    )


@pytest.mark.parametrize("seed", range(8))
def test_seeded_snapped_geometry(seed):
    rng = random.Random(seed)
    for _ in range(12):
        geom = _snapped_geometry(rng)
        for level in LEVELS:
            assert_same(geom, TileGrid(DOMAIN, level))


# ----------------------------------------------------------------------
# Mixed batches: every geometry kind at once, on tile lines of their level.
# ----------------------------------------------------------------------
@st.composite
def mixed_batch(draw):
    """A grid level 0-9 and up to six geometries whose vertices mostly lie
    on that level's half-tile lines of DOMAIN (some an EPSILON-nudge off),
    a few tiles across, so the reference stays cheap at every level."""
    level = draw(st.integers(0, 9))
    unit = 8.0 / (1 << level)
    nudge = st.sampled_from((0.0, 0.0, 0.0, NUDGE, -NUDGE))
    at = st.builds(lambda k, d: k * unit + d, st.integers(-12, 12), nudge)
    snap = st.integers(-12, 12).map(lambda k: k * unit)

    def box(x, y, w, h):
        return [(x, y), (x + w * unit, y), (x + w * unit, y + h * unit), (x, y + h * unit)]

    sizes = st.integers(1, 4)
    kinds = {
        "point": st.builds(Geometry.point, at, at),
        "line": st.lists(st.tuples(at, at), min_size=2, max_size=5).map(Geometry.linestring),
        "ring": st.builds(lambda *a: Geometry.polygon(box(*a)), snap, snap, sizes, sizes),
        "holed": st.builds(
            lambda x, y: Geometry.polygon(
                box(x - 2 * unit, y - 2 * unit, 5, 4), holes=[box(x, y, 1, 1)]
            ),
            snap,
            snap,
        ),
        "multipolygon": st.builds(
            lambda a, b, c, d: Geometry.multipolygon(
                [(box(a, b, 1, 2), []), (box(c, d, 2, 1), [])]
            ),
            *[snap] * 4,
        ),
        "zero_area_ring": st.builds(
            lambda x, y, k: Geometry.polygon(
                [(x, y), (x + k * unit, y + unit), (x + 2 * k * unit, y + 2 * unit)]
            ),
            snap,
            snap,
            sizes,
        ),
        "triangle": st.lists(st.tuples(at, at), min_size=3, max_size=3, unique=True).map(
            Geometry.polygon
        ),
    }
    geoms = draw(st.lists(st.one_of(*kinds.values()), min_size=1, max_size=6))
    return level, geoms


@given(mixed_batch())
@settings(max_examples=80, deadline=None)
def test_mixed_batches_match_the_reference(case):
    level, geoms = case
    assert_batch_matches_reference(geoms, TileGrid(DOMAIN, level))


def _packed(geom):
    """A hole-free polygon as the PackedRing its heap record decodes to,
    where its record would decode to one; else the geometry."""
    if geom.geom_type.name != "POLYGON" or geom.holes:
        return geom
    ring = geom.exterior.coords
    return pack_ring(np.array(ring + ring[:1])) or geom


def test_batches_are_independent():
    """One batch, each geometry alone, and the batch split anywhere give
    the same tiles and charges; a PackedRing tessellates as its polygon."""
    rng = random.Random(11)
    geoms = [NAMED[name] for name in sorted(NAMED)]
    geoms += [_snapped_geometry(rng) for _ in range(24)]
    for level in LEVELS:
        grid = TileGrid(DOMAIN, level)
        ctx = WorkerContext(0)
        whole = batch_tiles(geoms, grid, ctx)
        alone_ctx = WorkerContext(0)
        assert whole == [tessellate(g, grid, alone_ctx) for g in geoms]
        assert ctx.meter.counts == alone_ctx.meter.counts
        cut = rng.randrange(1, len(geoms))
        assert whole == batch_tiles(geoms[:cut], grid) + batch_tiles(geoms[cut:], grid)
        packed = list(map(_packed, geoms))
        assert packed != geoms and batch_tiles(packed, grid) == whole


# ----------------------------------------------------------------------
# Query windows are tessellated by the same function: answers and charges
# of QuadtreeIndex.fetch do not depend on which formulation ran.
# ----------------------------------------------------------------------
def test_index_fetch_answers_and_charges_unchanged(small_counties):
    far = 60.0  # past the inferred domain's corner
    probes = [
        ("SDO_RELATE", (Geometry.rectangle(10, 5, 22.5, 12), "ANYINTERACT")),
        ("SDO_RELATE", (small_counties[17], "ANYINTERACT")),
        ("SDO_RELATE", (small_counties[40], "TOUCH")),
        # past the domain on two sides: legal, clipped
        ("SDO_RELATE", (Geometry.rectangle(-30, -30, 12, 9), "ANYINTERACT")),
        ("SDO_FILTER", (Geometry.linestring([(0, 0), (57, 25)]),)),
        ("SDO_WITHIN_DISTANCE", (Geometry.point(30, 12), 3.0)),
        ("SDO_WITHIN_DISTANCE", (small_counties[5], 1.25)),
        ("SDO_WITHIN_DISTANCE", (Geometry.point(far, far), 40.0)),
    ]

    def run(window_tessellation):
        # A fresh database per run: buffer and geometry caches start cold.
        db = Database()
        load_geometries(db, "c", small_counties)
        index, _report = db.create_spatial_index(
            "c_q", "c", "geom", kind="QUADTREE", tiling_level=6
        )
        out = []
        with mock.patch("repro.index.quadtree.quadtree.tessellate", window_tessellation):
            for operator, args in probes:
                ctx = WorkerContext(0)
                rows = list(index.fetch(operator, args, ctx))
                out.append((rows, dict(ctx.meter.counts)))
        return out

    shipped = run(tessellate)
    assert all(rows for rows, _counts in shipped)
    assert run(tessellate_reference) == shipped
