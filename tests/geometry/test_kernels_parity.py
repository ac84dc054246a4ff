"""Parity suite: the numpy kernels must agree with the scalar engine, bit for bit.

The whole refinement pipeline leans on the kernels being interchangeable
with the scalar predicates they vectorize: a join result, a tessellation
or a window-query answer must not depend on which of the two resolved it.
This suite drives the kernels over thousands of seeded-random cases —
plus the degenerate shapes that break naive vector rewrites (collinear
edges, shared vertices, zero-length segments, boundary points) — and
asserts exact equality against the scalar predicates, not approximate
agreement.  Tests parametrised ``[numpy]`` / ``[python]`` hold the kernel,
respectively its ``tests/oracles.py`` stand-in, to the same scalar truth.
"""

import math
import random
from array import array

import numpy as np
import pytest

from repro.core.secondary_filter import JoinPredicate
from repro.errors import GeometryError
from repro.geometry import kernels
from repro.geometry.distance import within_distance
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.geometry.predicates import contains, intersects
from repro.geometry.segments import segment_segment_distance_sq, segments_intersect
from repro.index.quadtree.codes import TileGrid
from tests import oracles
from tests.oracles import (
    TILE_BOUNDARY,
    TILE_INTERIOR,
    TILE_OUTSIDE,
    TILE_OUTSIDE_MBR,
    assert_tessellation_matches_reference,
    classify_tile,
    kernel_impl,
)

BACKENDS = oracles.IMPLS


# ----------------------------------------------------------------------
# Seeded generators.  Coordinates snap to a coarse half-integer grid so
# shared edges, shared vertices and exact-touch configurations occur
# constantly instead of almost never.
# ----------------------------------------------------------------------
def _grid(rng, lo=-6, hi=6):
    return rng.randrange(lo * 2, hi * 2 + 1) / 2.0


def _convex_polygon(rng):
    cx, cy = _grid(rng), _grid(rng)
    r_x = rng.uniform(0.5, 3.0)
    r_y = rng.uniform(0.5, 3.0)
    n = rng.randrange(3, 9)
    phase = rng.uniform(0, 2 * math.pi)
    pts = [
        (cx + r_x * math.cos(phase + 2 * math.pi * k / n),
         cy + r_y * math.sin(phase + 2 * math.pi * k / n))
        for k in range(n)
    ]
    return Geometry.polygon(pts)


def _star_polygon(rng):
    cx, cy = _grid(rng), _grid(rng)
    n = rng.randrange(4, 8)
    pts = []
    for k in range(2 * n):
        r = rng.uniform(1.5, 3.0) if k % 2 == 0 else rng.uniform(0.4, 1.2)
        t = math.pi * k / n
        pts.append((cx + r * math.cos(t), cy + r * math.sin(t)))
    return Geometry.polygon(pts)


def _holed_polygon(rng):
    cx, cy = _grid(rng), _grid(rng)
    outer = [(cx - 3, cy - 3), (cx + 3, cy - 3), (cx + 3, cy + 3), (cx - 3, cy + 3)]
    hole = [(cx - 1, cy - 1), (cx + 1, cy - 1), (cx + 1, cy + 1), (cx - 1, cy + 1)]
    return Geometry.polygon(outer, holes=[hole])


def _rectangle(rng):
    x0, y0 = _grid(rng), _grid(rng)
    return Geometry.rectangle(x0, y0, x0 + rng.randrange(1, 5), y0 + rng.randrange(1, 5))


def _linestring(rng):
    n = rng.randrange(2, 6)
    return Geometry.linestring([(_grid(rng), _grid(rng)) for _ in range(n)])


def _multipoint(rng):
    n = rng.randrange(1, 5)
    return Geometry.multipoint([(_grid(rng), _grid(rng)) for _ in range(n)])


def _point(rng):
    return Geometry.point(_grid(rng), _grid(rng))


_MAKERS = (
    _convex_polygon, _star_polygon, _holed_polygon,
    _rectangle, _rectangle, _linestring, _multipoint, _point,
)


def geometry_pool(seed, n):
    rng = random.Random(seed)
    return [_MAKERS[i % len(_MAKERS)](rng) for i in range(n)]


def random_edges(rng, n):
    """Random segments, seeded with degenerates: ~1 in 5 is zero-length and
    grid snapping makes collinear / shared-endpoint pairs common."""
    out = []
    for _ in range(n):
        x0, y0 = _grid(rng), _grid(rng)
        if rng.random() < 0.2:
            out.append((x0, y0, x0, y0))  # zero-length
        else:
            out.append((x0, y0, _grid(rng), _grid(rng)))
    return out


# ----------------------------------------------------------------------
# Predicate parity: 40x40 = 1600 ordered pairs per predicate, checked
# against the scalar engine.
# ----------------------------------------------------------------------
POOL = geometry_pool(seed=20030642, n=40)


class TestPredicateParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_intersects_bulk(self, backend):
        with kernel_impl(backend):
            for g1 in POOL:
                got = kernels.evaluate_predicate_batch(g1, POOL, "ANYINTERACT")
                assert got == [intersects(g1, g2) for g2 in POOL]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dist", [0.25, 1.0, 3.0])
    def test_within_distance_bulk(self, backend, dist):
        with kernel_impl(backend):
            for g1 in POOL[::4]:
                got = kernels.evaluate_predicate_batch(g1, POOL, "ANYINTERACT", dist)
                assert got == [within_distance(g1, g2, dist) for g2 in POOL]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "mask,dist", [("ANYINTERACT", 0.0), ("INTERSECT", 0.0), ("ANYINTERACT", 0.8)]
    )
    def test_evaluate_predicate_batch(self, backend, mask, dist):
        pred = JoinPredicate(mask=mask, distance=dist)
        with kernel_impl(backend):
            for g1 in POOL[::4]:
                got = kernels.evaluate_predicate_batch(g1, POOL, mask, dist)
                assert got == [pred.evaluate(g1, g2) for g2 in POOL]
                # Candidate on the a side: the kernel's other argument order.
                got = kernels.evaluate_predicate_pairs(POOL, [g1] * len(POOL), mask, dist)
                assert got == [pred.evaluate(g2, g1) for g2 in POOL]

    def test_unsupported_mask_returns_none_not_garbage(self):
        assert kernels.evaluate_predicate_batch(POOL[0], POOL, "EQUAL", 0.0) is None
        assert oracles.evaluate_predicate_batch(POOL[0], POOL, "EQUAL", 0.0) is None


# ----------------------------------------------------------------------
# Edge-pair columns: the core of the ring pair kernel
# (``_intersect_cols``, ``_endpoint_distance_sq_cols``).
# ----------------------------------------------------------------------
def _edge_matrices(ea, eb):
    """Every ``(ea[i], eb[j])`` pair through the kernel's flat layout
    (edge pair ``k`` at entry ``k`` of eight equal-length columns), folded
    back to ``[i][j]`` lists."""
    ea = np.asarray(ea, dtype=np.float64).reshape(-1, 4)
    eb = np.asarray(eb, dtype=np.float64).reshape(-1, 4)
    rows_a = ea.repeat(len(eb), axis=0).T.copy()
    rows_b = np.tile(eb, (len(ea), 1)).T.copy()
    ends = (*rows_a, *rows_b)
    hits = kernels._intersect_cols(*ends)
    dist_sq = np.where(hits, 0.0, kernels._endpoint_distance_sq_cols(*ends))
    shape = (len(ea), len(eb))
    return hits.reshape(shape).tolist(), dist_sq.reshape(shape).tolist()


class TestSegmentKernelParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_segments_intersect_matrix(self, backend):
        """The same matrix through the public kernel, as two-point lines."""
        rng = random.Random(78)
        ea = [e for e in random_edges(rng, 48) if e[:2] != e[2:]][:30]
        eb = [e for e in random_edges(rng, 48) if e[:2] != e[2:]][:30]
        lines_a = [Geometry.linestring([e[:2], e[2:]]) for e in ea]
        lines_b = [Geometry.linestring([e[:2], e[2:]]) for e in eb]
        with kernel_impl(backend):
            for a, line in zip(ea, lines_a):
                got = kernels.evaluate_predicate_batch(line, lines_b, "ANYINTERACT")
                assert got == [
                    segments_intersect(a[:2], a[2:], b[:2], b[2:]) for b in eb
                ], a

    def test_segment_distance_matrix_bit_identical(self):
        rng = random.Random(77)
        ea, eb = random_edges(rng, 36), random_edges(rng, 36)  # 36x36 = 1296 pairs
        hits, dist_sq = _edge_matrices(ea, eb)
        for i, (ax0, ay0, ax1, ay1) in enumerate(ea):
            for j, (bx0, by0, bx1, by1) in enumerate(eb):
                ends = (ax0, ay0), (ax1, ay1), (bx0, by0), (bx1, by1)
                assert hits[i][j] == segments_intersect(*ends), (ea[i], eb[j])
                assert dist_sq[i][j] == segment_segment_distance_sq(*ends), (ea[i], eb[j])

    @pytest.mark.parametrize(
        "a,b,c,d",
        [
            # collinear overlap
            ((0, 0), (4, 0), (2, 0), (6, 0)),
            # collinear, disjoint
            ((0, 0), (1, 0), (2, 0), (3, 0)),
            # shared endpoint only
            ((0, 0), (2, 2), (2, 2), (4, 0)),
            # zero-length on a segment interior
            ((0, 0), (4, 4), (2, 2), (2, 2)),
            # zero-length off the segment
            ((0, 0), (4, 4), (5, 0), (5, 0)),
            # both zero-length, coincident
            ((1, 1), (1, 1), (1, 1), (1, 1)),
            # both zero-length, distinct
            ((1, 1), (1, 1), (2, 2), (2, 2)),
            # T-junction: endpoint on interior
            ((0, 0), (4, 0), (2, 0), (2, 3)),
        ],
    )
    def test_degenerate_segments(self, a, b, c, d):
        hits, dist_sq = _edge_matrices([(*a, *b)], [(*c, *d)])
        assert hits[0][0] == segments_intersect(a, b, c, d)
        assert dist_sq[0][0] == segment_segment_distance_sq(a, b, c, d)


# ----------------------------------------------------------------------
# Point-in-polygon: one probe geometry against many point candidates.
# ----------------------------------------------------------------------
class TestPointInPolygonParity:
    def _cases(self):
        rng = random.Random(4242)
        polys = [
            _convex_polygon(rng), _star_polygon(rng), _holed_polygon(rng),
            _rectangle(rng), _linestring(rng), _multipoint(rng),
        ]
        for poly in polys:
            pts = [(_grid(rng), _grid(rng)) for _ in range(160)]
            # Degenerate probes: every vertex and every edge midpoint of the
            # geometry itself (boundary hits, not near-misses).
            for part in poly.simple_parts():
                verts = list(part.vertices())
                pts.extend(verts)
                for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
                    pts.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0))
            yield poly, [Geometry.point(x, y) for x, y in pts]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_contains_point_parity(self, backend):
        total = 0
        with kernel_impl(backend):
            for poly, pts in self._cases():
                got = kernels.evaluate_predicate_batch(poly, pts, "ANYINTERACT")
                assert got == [intersects(poly, pt) for pt in pts]
                got = kernels.evaluate_predicate_batch(poly, pts, "ANYINTERACT", 0.5)
                assert got == [within_distance(poly, pt, 0.5) for pt in pts]
                total += len(pts)
        assert total >= 1000


# ----------------------------------------------------------------------
# MBR kernels, over plain lists and array('d') (the R-tree node layout).
# ----------------------------------------------------------------------
class TestMbrKernelParity:
    def _coords(self, rng, n, typed):
        xs0 = [_grid(rng) for _ in range(n)]
        ys0 = [_grid(rng) for _ in range(n)]
        xs1 = [x + rng.randrange(0, 4) for x in xs0]
        ys1 = [y + rng.randrange(0, 4) for y in ys0]
        if typed:
            return (array("d", xs0), array("d", ys0), array("d", xs1), array("d", ys1))
        return xs0, ys0, xs1, ys1

    @pytest.mark.parametrize("typed", [False, True])
    @pytest.mark.parametrize("dist", [0.0, 0.7])
    def test_mbr_intersects_batch_matches_mbr_class(self, typed, dist):
        rng = random.Random(99)
        coords = self._coords(rng, 200, typed)
        box = (-2.0, -2.0, 3.5, 1.0)
        window = MBR(*box).expand(dist)
        ref = [
            i
            for i, (x0, y0, x1, y1) in enumerate(zip(*coords))
            if MBR(x0, y0, x1, y1).intersects(window)
        ]
        assert kernels.mbr_filter_indices(coords, box, distance=dist) == ref
        assert oracles.mbr_filter_indices(coords, box, distance=dist) == ref

    @pytest.mark.parametrize("typed", [False, True])
    @pytest.mark.parametrize("dist", [0.0, 0.7])
    @pytest.mark.parametrize("exact", [False, True])
    def test_mbr_filter_indices_parity_and_truth(self, typed, dist, exact):
        rng = random.Random(1234)
        coords = self._coords(rng, 200, typed)
        box = (-1.5, -3.0, 2.0, 2.5)
        got = kernels.mbr_filter_indices(coords, box, distance=dist, exact=exact)
        assert got == oracles.mbr_filter_indices(coords, box, distance=dist, exact=exact)
        if exact:
            # Exact refinement must match the true (squared) MBR gap test.
            bx0, by0, bx1, by1 = box
            ref = []
            for i, (x0, y0, x1, y1) in enumerate(zip(*coords)):
                dx = max(bx0 - x1, x0 - bx1, 0.0)
                dy = max(by0 - y1, y0 - by1, 0.0)
                if dx * dx + dy * dy <= dist * dist:
                    ref.append(i)
            assert got == ref

    def test_exact_is_subset_of_expanded(self):
        rng = random.Random(5)
        coords = self._coords(rng, 150, typed=True)
        box = (0.0, 0.0, 1.0, 1.0)
        loose = set(kernels.mbr_filter_indices(coords, box, distance=1.3))
        tight = set(kernels.mbr_filter_indices(coords, box, distance=1.3, exact=True))
        assert tight <= loose


# ----------------------------------------------------------------------
# Tile classification: ``tessellate`` (edge lists carried down the
# recursion) against the per-quadrant full-geometry reference.
# ----------------------------------------------------------------------
class TestClassifyTilesParity:
    def _quads(self, domain, max_level):
        grid = TileGrid(domain, max_level)
        out = []
        for level in range(max_level + 1):
            for ix in range(1 << level):
                for iy in range(1 << level):
                    out.append(grid.quadrant_mbr(level, ix, iy))
        return out

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_backend_parity_and_ground_truth(self, seed):
        rng = random.Random(seed)
        geom = (_star_polygon, _holed_polygon, _linestring, _convex_polygon)[
            seed % 4
        ](rng)
        polygonal = any(p.geom_type.name == "POLYGON" for p in geom.simple_parts())
        domain = MBR(-8, -8, 8, 8)
        seen = set()
        for quad in self._quads(domain, max_level=3):
            code = classify_tile(geom, quad, polygonal)
            seen.add(code)
            rect = Geometry.rectangle(quad.min_x, quad.min_y, quad.max_x, quad.max_y)
            if code == TILE_OUTSIDE_MBR:
                assert not geom.mbr.intersects(quad)
            elif code == TILE_OUTSIDE:
                assert not intersects(geom, rect)
            elif code == TILE_INTERIOR:
                assert polygonal and contains(geom, rect)
            else:
                assert code == TILE_BOUNDARY
                assert intersects(geom, rect)
                if polygonal:
                    assert not contains(geom, rect)
        assert {TILE_OUTSIDE_MBR, TILE_BOUNDARY} <= seen
        for level in range(6):
            assert_tessellation_matches_reference(geom, TileGrid(domain, level))

    def test_degenerate_quadrant_falls_back(self):
        # Zero-width / zero-area quadrants become line / point windows.
        g = Geometry.rectangle(-1.0, -1.0, 3.0, 3.0)
        inside = [MBR(0.0, 0.0, 0.0, 2.0), MBR(1.0, 1.0, 1.0, 1.0)]
        crossing = MBR(2.0, 2.0, 2.0, 5.0)
        for quad in inside:
            assert classify_tile(g, quad, polygonal=True) == TILE_INTERIOR
        assert classify_tile(g, crossing, polygonal=True) == TILE_BOUNDARY
        # The recursion meets them on a grid so far from the origin that its
        # deep quadrants collapse (x0 + size == x0 below level 12).
        far = float(2 ** 40)
        grid = TileGrid(MBR(far, far, far + 1, far + 1), 16)
        for geom in (
            Geometry.point(far + 0.5, far + 0.5),
            Geometry.linestring([(far + 0.1, far + 0.1), (far + 0.11, far + 0.105)]),
        ):
            assert_tessellation_matches_reference(geom, grid)


# ----------------------------------------------------------------------
# Degenerate whole-geometry cases, every predicate, both backends.
# ----------------------------------------------------------------------
DEGENERATE_PAIRS = [
    # identical polygons
    (Geometry.rectangle(0, 0, 2, 2), Geometry.rectangle(0, 0, 2, 2)),
    # shared edge
    (Geometry.rectangle(0, 0, 2, 2), Geometry.rectangle(2, 0, 4, 2)),
    # shared vertex only
    (Geometry.rectangle(0, 0, 2, 2), Geometry.rectangle(2, 2, 4, 4)),
    # polygon vs its own vertex
    (Geometry.rectangle(0, 0, 2, 2), Geometry.point(0, 0)),
    # polygon vs point on edge interior
    (Geometry.rectangle(0, 0, 2, 2), Geometry.point(1, 0)),
    # polygon vs interior point
    (Geometry.rectangle(0, 0, 2, 2), Geometry.point(1, 1)),
    # point in the hole of a holed polygon
    (_holed_polygon(random.Random(0)), _point(random.Random(0))),
    # collinear linestrings
    (Geometry.linestring([(0, 0), (4, 0)]), Geometry.linestring([(2, 0), (6, 0)])),
    # crossing linestrings
    (Geometry.linestring([(0, 0), (2, 2)]), Geometry.linestring([(0, 2), (2, 0)])),
    # coincident points
    (Geometry.point(1, 1), Geometry.point(1, 1)),
    # distinct points
    (Geometry.point(1, 1), Geometry.point(3, 1)),
    # multipoint straddling a boundary
    (Geometry.rectangle(0, 0, 2, 2), Geometry.multipoint([(0, 0), (1, 1), (5, 5)])),
]


class TestDegenerateGeometryParity:
    @pytest.mark.parametrize("g1,g2", DEGENERATE_PAIRS)
    def test_all_predicates_both_backends(self, g1, g2):
        for a, b in ((g1, g2), (g2, g1)):
            ref = (intersects(a, b), within_distance(a, b, 0.5))
            for fn in (kernels.evaluate_predicate_pairs, oracles.evaluate_predicate_pairs):
                got = (
                    fn([a], [b], "ANYINTERACT")[0],
                    fn([a], [b], "ANYINTERACT", 0.5)[0],
                )
                assert got == ref, fn.__module__


# ----------------------------------------------------------------------
# What is left of backend selection: the surface the wall-clock harness
# (benchmarks/wallclock/common.py) still calls.
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(GeometryError):
            kernels.set_backend("fortran")

    def test_numpy_is_the_only_backend(self):
        with pytest.raises(GeometryError):
            kernels.set_backend("python")
        kernels.set_backend("numpy")
        assert kernels.get_backend() == "numpy"
