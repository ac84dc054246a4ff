"""Geometry tessellation: the expensive step of quadtree index creation.

``tessellate_batch`` covers a batch of geometries with fixed-level quadtree
tiles, each *boundary* (the geometry's boundary passes through it) or
*interior* (wholly inside a polygon, so window queries and joins skip the
secondary filter for it).  Interior quadrants expand without further tests,
so the cost follows boundary length, as the paper observes for "large and
complex polygon geometries" (§5).  ``tessellate`` is the batch of one that
query windows and row maintenance use.

Subdivision is level-synchronous across the batch: a level is an array of
``(geometry, ix, iy)`` quadrants over one flat edge soup (``_Soup``), each
tested only against the edges that survived its parent.  An edge whose box
is more than ``_KEEP`` from the quadrant's on an axis is dropped: the gap
reject of ``segments_intersect`` at twice its tolerance, so a child box
overshooting its parent's by a rounding error never wants an edge the
parent dropped.  Each quadrant is classified by the definition —
``intersects(rect, geom)`` then ``contains(geom, rect)`` — in numpy passes
over the flat (quadrant, edge) expansion, in the float expressions of
``segments.py`` / ``predicates.py``.  A dropped edge cannot meet or properly
cross a side, and a quadrant with no survivor is off the boundary, settled
by one point-in-polygon test of its corner, so tiles and charges equal
``tests/oracles.py::tessellate_reference``, which tests every quadrant
against the whole geometry.

Work units charged: ``tessellate_per_vertex`` per vertex, ``mbr_test`` per
quadrant and ``tessellate_per_tile`` per quadrant past the geometry-MBR
gate, summed per level: the counts of one geometry at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.parallel import WorkerContext
from repro.errors import IndexBuildError
from repro.geometry.geometry import Geometry, GeometryType
from repro.geometry.kernels import _orient_tests, _ragged_arange, _soup_ring_hits
from repro.geometry.packed import PackedRing
from repro.geometry.segments import EPSILON
from repro.index.quadtree.codes import TileGrid
from repro.obs import trace

__all__ = ["Tile", "tessellate", "tessellate_batch"]

_KEEP = 2.0 * EPSILON
# Chain kinds (see _Soup).
_SHELL, _HOLE, _LINE, _POINT = range(4)
# Quadrant rectangles are rows (x0, y0, x1, y1).  Side k runs from corner
# (_SIDES[0][k], _SIDES[1][k]) to (_SIDES[2][k], _SIDES[3][k]),
# counter-clockwise from (x0, y0).
_SIDES = np.array([[0, 2, 2, 0], [1, 1, 3, 3], [2, 2, 0, 0], [1, 3, 3, 1]])

@dataclass(frozen=True, slots=True)
class Tile:
    """One index tile: its fixed-level Morton code and interior flag."""

    code: int
    interior: bool


def tessellate(
    geom: Geometry, grid: TileGrid, ctx: Optional[WorkerContext] = None
) -> List[Tile]:
    """Cover ``geom`` with fixed-level tiles of ``grid``, sorted by code (a
    batch of one)."""
    _owner, codes, interior = tessellate_batch([geom], grid, ctx)
    return list(map(Tile, codes.tolist(), interior.tolist()))


def tessellate_batch(
    geoms: Sequence[Union[Geometry, PackedRing]],
    grid: TileGrid,
    ctx: Optional[WorkerContext] = None,
    names: Optional[Sequence[Any]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cover every geometry of ``geoms`` with fixed-level tiles of ``grid``.

    Returns parallel arrays ``(owner, code, interior)`` — tile ``code`` of
    ``geoms[owner]`` — sorted by owner, then by code (deterministic, and
    the order bulk B-tree loading wants).  Given ``names`` (one per
    geometry), the batch is data: a geometry whose MBR leaves the tiled
    square raises :class:`IndexBuildError` naming it, before any charge.
    Query windows, unnamed, are clipped.
    """
    if not geoms:
        return np.zeros(0, np.intp), np.zeros(0, np.int64), np.zeros(0, bool)
    with trace.span("tessellate", ctx, geometries=len(geoms), grid_level=grid.level) as span:
        soup = _Soup(geoms)
        if names is not None:
            square = np.array(grid.quadrant_bounds(0, 0, 0))[:, None]
            out = (soup.gbox[:2] < square[:2]) | (soup.gbox[2:] > square[2:])
            bad = np.flatnonzero(out.any(axis=0))
            if bad.size:
                raise IndexBuildError(
                    f"geometry of {names[bad[0]]} has MBR {tuple(soup.gbox[:, bad[0]].tolist())}"
                    f" outside the index domain {tuple(square[:, 0].tolist())}"
                )
        vertices = sum(g.num_vertices for g in geoms)
        span.set_tag("vertices", vertices)
        if ctx is not None:
            ctx.charge("tessellate_per_vertex", vertices)
        # Quadrant rows: geometry, ix, iy, Morton code.  Level 0's parents
        # are the geometries, whose every edge and start survives.
        quads = np.zeros((4, len(geoms)), np.int64)
        parent = quads[0] = np.arange(len(geoms))
        parents = soup.roots
        out = [(np.zeros(0, np.int64),) * 2 + (1, False)]
        level = quadrants = 0
        while quads.shape[1]:
            with trace.span(
                "tessellate.level", ctx, level=level, frontier=quads.shape[1]
            ) as level_span:
                level_span.set_tag("edges", int(parents[4][parent].sum()))
                quadrants += quads.shape[1]
                quads, parent, parents = _level(
                    soup, grid, level, quads, parent, parents, ctx, out
                )
                level += 1
        owner = np.concatenate([o.repeat(n) for o, _c, n, _i in out])
        code = np.concatenate([(c[:, None] + np.arange(n)).ravel() for _o, c, n, _i in out])
        interior = np.concatenate([np.full(len(o) * n, i) for o, _c, n, i in out])
        order = np.lexsort((code, owner))
        span.set_tag("tiles", len(order))
        span.set_tag("quadrants", quadrants)
    return owner[order], code[order], interior[order]


def _level(soup, grid, level, quads, parent, parents, ctx, out):
    """Classify one level's quadrants; append its tiles to ``out`` as
    ``(owner, first code, tiles each, interior)`` and return the next
    level's quadrants, their parent slots and the parents' survivors."""
    size = grid.side / (1 << level)
    x0 = grid.domain.min_x + quads[1] * size
    y0 = grid.domain.min_y + quads[2] * size
    rect = np.array((x0, y0, x0 + size, y0 + size))
    gbox = soup.gbox.take(quads[0], axis=1)
    # Cheap reject on the geometry's MBR before any exact work (one charge
    # per quadrant examined, exactly as per-tile descent would).
    meet = (rect[:2] <= gbox[2:]) & (gbox[:2] <= rect[2:])
    gate = (meet[0] & meet[1]).nonzero()[0]
    if ctx is not None:
        ctx.charge("mbr_test", quads.shape[1])
        if gate.size:
            ctx.charge("tessellate_per_tile", gate.size)
    quads, rect, gbox, parent = quads[:, gate], rect[:, gate], gbox[:, gate], parent[gate]
    nq, geom = len(gate), quads[0]
    poly, hull = soup.poly[geom], soup.hull.take(geom, axis=1)
    within = (gbox[:2] <= rect[:2]) & (gbox[2:] >= rect[2:])
    within = within[0] & within[1]  # the MBR contains the rectangle
    # A quadrant holding every vertex of its geometry, whose parent kept
    # every edge, keeps them all and has a start inside; no edge can cross
    # its sides.  It skips the edge tests (the MBR may still cover it).
    holds = (rect[:2] <= hull[:2]) & (hull[2:] <= rect[2:])
    easy = parents[3][parent] & holds[0] & holds[1]
    rep = np.where(easy, 0, parents[1][parent])
    met, crossed = easy.copy(), np.zeros(nq, bool)
    sq, items, start = np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, bool)
    if rep.any():
        sq = np.arange(nq).repeat(rep)
        items = parents[2][parents[0][parent].repeat(rep) + _ragged_arange(rep)]
        sq, items, start = _meets(soup, rect, sq, items, met, crossed, poly & within)
    # intersects(rect, geom)'s last term: a polygon part holds its corner.
    ask = (~met & poly).nonzero()[0]
    if ask.size:
        met[ask] = _contains(soup, rect[0, ask], rect[1, ask], geom[ask], True)
    # With no survivor the quadrant is off the boundary, so a polygon
    # holding its corner holds all of it; else contains(geom, rect): MBR
    # containment, no survivor properly crossing a side, and the corners
    # and side midpoints in the geometry.
    alive = easy | (np.bincount(sq, minlength=nq) > 0)
    block = met & ~alive
    ask = (met & alive & poly & within & ~crossed).nonzero()[0]
    if ask.size:
        x0, y0, x1, y1 = rect[:, ask]
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        px = np.concatenate((x0, x1, x1, x0, mx, x1, mx, x0))
        py = np.concatenate((y0, y0, y1, y1, y0, my, y1, my))
        inside = _contains(soup, px, py, np.tile(geom[ask], 8), False)
        block[ask[inside.reshape(8, -1).all(axis=0)]] = True
    span = grid.level - level
    b = block.nonzero()[0]
    if b.size:
        out.append((geom[b], quads[3, b] << (2 * span), 1 << (2 * span), True))
    down = met & ~block
    if not span:
        out.append((geom[down], quads[3, down], 1, False))
        down[:] = False
    rest, descend = down.nonzero()[0], down[sq]
    # The next level: four children per descending quadrant, Morton digit
    # d = dx + 2 * dy, each with its parent's survivors.
    q, d = quads[:, rest].repeat(4, axis=1), np.arange(4 * len(rest)) & 3
    children = np.array((q[0], 2 * q[1] + (d & 1), 2 * q[2] + (d >> 1), 4 * q[3] + d))
    count = np.bincount(sq[descend], minlength=nq)[rest]
    edges = np.bincount(sq[descend & ~start], minlength=nq)[rest]
    easy, roots, g = easy[rest], soup.roots, geom[rest]
    parents = (
        np.where(easy, roots[0][g], len(roots[2]) + count.cumsum() - count),
        np.where(easy, roots[1][g], count),
        np.concatenate((roots[2], items[descend])),
        easy,
        np.where(easy, roots[4][g], edges),
    )
    return children, np.arange(len(rest)).repeat(4), parents


def _meets(soup, rect, sq, items, met, crossed, covered):
    """Drop the (quadrant ``sq``, edge ``items``) pairs whose boxes are
    apart; mark the quadrants a survivor meets in ``met`` and those one
    properly crosses (of the ``covered`` ones) in ``crossed``; return the
    survivors and which of them are starts."""
    box, r = soup.box.take(items, axis=1), rect.take(sq, axis=1)
    near = (box[:2] - r[2:] <= _KEEP) & (r[:2] - box[2:] <= _KEEP)
    keep = (near[0] & near[1]).nonzero()[0]
    items, sq, box, r = items[keep], sq[keep], box.take(keep, axis=1), r.take(keep, axis=1)
    # intersects(rect, geom): a part starts inside the rectangle, ...
    start = soup.start[items]
    s = start.nonzero()[0]
    inside = (r[:2, s] <= box[:2, s]) & (box[:2, s] <= r[2:, s])
    met[sq[s[inside[0] & inside[1]]]] = True
    # ... or an edge of a part whose MBR meets it touches a side.  Only an
    # edge whose box is within EPSILON of a side's line can touch the side
    # or properly cross it (whose ends lie strictly either side of it).
    e = (~start & (~met | covered)[sq]).nonzero()[0]
    eq, ei, r = sq[e], items[e], r[:, e]
    lo, hi, lines = box[:2, e], box[2:, e], r.reshape(2, 2, -1)
    below, above = lo - lines <= EPSILON, lines - hi <= EPSILON
    side, j = np.nonzero((below & above).reshape(4, -1)[[1, 2, 3, 0]])
    if j.size:
        ends = soup.ends.take(ei[j], axis=1)
        hit, proper = _orient_tests(*(r[_SIDES[c][side], j] for c in range(4)), *ends)
        rj, pbox = r[:, j], soup.pbox.take(soup.part[ei[j]], axis=1)
        over = below[1] & above[0]
        meet = (rj[:2] <= pbox[2:]) & (pbox[:2] <= rj[2:])
        hit &= over[side % 2, j] & meet[0] & meet[1]
        met[eq[j[hit]]] = True
        crossed[eq[j[proper]]] = True
    return sq, items, start


class _Soup:
    """A batch's geometry as flat arrays: shells, holes, lines and points are
    chains of vertices back to back, column ``v`` of ``ends`` / ``box`` the
    edge from vertex ``v`` to ``v + 1``.  A part's first chain leads with a
    repeat of its first vertex (column 0 is the part's *start*, a degenerate
    edge), rings close on their first vertex, and the column after a chain's
    last edge is never read: a geometry's edges and starts are one run."""

    def __init__(self, geoms: Sequence[Union[Geometry, PackedRing]]):
        rows, size, kind, c_part, g_first, poly = [], [], [], [], [], []
        for geom in geoms:
            g_first.append(len(kind))
            poly.append(True)
            if type(geom) is PackedRing:  # a closed shell, as stored
                rows += (geom.vertices[:1], geom.vertices)
                size.append(len(geom.vertices) + 1)
                kind.append(_SHELL)
                c_part.append(c_part[-1] + 1 if c_part else 0)
                continue
            poly[-1] = False
            for part in geom.simple_parts():
                if part.geom_type is GeometryType.POLYGON:
                    poly[-1] = True
                    ext, holes = part.exterior.coords, part.holes
                    chains = (ext[:1] + ext + ext[:1], *(h.coords + h.coords[:1] for h in holes))
                    kind += (_SHELL,) + (_HOLE,) * len(part.holes)
                else:
                    chains = (part.coords[:1] + part.coords,)
                    kind.append(_LINE if part.geom_type is GeometryType.LINESTRING else _POINT)
                rows += chains
                size += map(len, chains)
                c_part += (c_part[-1] + 1 if c_part else 0,) * len(chains)
        xy = np.concatenate(rows).T
        size = np.array(size)
        first = size.cumsum() - size
        self.kind, self.c_part = np.array(kind), np.array(c_part)
        lead = self.kind != _HOLE  # the chain opens with its part's start
        self.c_first, self.c_edges = first + lead, size - 1 - lead  # its edges
        self.g_first = np.array(g_first)
        self.g_chains = np.diff(np.append(self.g_first, len(kind)))
        self.poly = np.array(poly)
        self.ends = np.concatenate((xy, np.roll(xy, -1, axis=1)))
        self.box = np.concatenate((np.minimum(xy, self.ends[2:]), np.maximum(xy, self.ends[2:])))
        # Chain, part and geometry MBRs.  A shell's or hole's MBR is its
        # containment gate; a line's, grown by EPSILON, bounds where
        # on_segment can hold.  Holes add nothing to a part's MBR; the hull
        # bounds every vertex of a geometry.
        box = _bounds(xy, xy, first)
        grow = np.where(self.kind == _LINE, EPSILON, 0.0)
        self.cbox = np.concatenate((box[:2] - grow, box[2:] + grow))
        self.hull = _bounds(box[:2], box[2:], self.g_first)
        lo, hi = np.where(lead, box[:2], np.inf), np.where(lead, box[2:], -np.inf)
        self.pbox = _bounds(lo, hi, np.flatnonzero(lead))
        self.gbox = _bounds(lo, hi, self.g_first)
        # Each chain's starts and edges: its columns but the last.
        cols = first.repeat(size - 1) + _ragged_arange(size - 1)
        self.part = np.zeros(xy.shape[1], np.intp)
        self.part[cols] = self.c_part.repeat(size - 1)
        self.start = np.zeros(xy.shape[1], bool)
        self.start[first[lead]] = True
        count = np.add.reduceat(size - 1, self.g_first)
        # Parents of the root quadrants: (first, count) of each geometry's
        # run in ``cols``, which holds every edge (``whole``), and its
        # edges other than starts.
        whole = np.ones(len(geoms), bool)
        edges = np.add.reduceat(self.c_edges, self.g_first)
        self.roots = (count.cumsum() - count, count, cols, whole, edges)


def _bounds(lo, hi, at):
    """Rows ``(min_x, min_y, max_x, max_y)`` of the column runs starting at ``at``."""
    lo, hi = np.minimum.reduceat(lo, at, axis=1), np.maximum.reduceat(hi, at, axis=1)
    return np.concatenate((lo, hi))


def _contains(soup: _Soup, x, y, g, polygons_only: bool) -> np.ndarray:
    """``Geometry.contains_point(x[k], y[k])`` of soup geometry ``g[k]``, or
    (``polygons_only``) whether one of its polygon parts holds the point."""
    n = soup.g_chains[g]
    k = np.arange(len(g)).repeat(n)
    ch = soup.g_first[g].repeat(n) + _ragged_arange(n)
    if polygons_only:
        keep = soup.kind[ch] <= _HOLE
        k, ch = k[keep], ch[keep]
    kind, pts, cbox = soup.kind[ch], np.array((x[k], y[k])), soup.cbox.take(ch, axis=1)
    # Each ring's MBR gates its test; a line's bounds where it can be met.
    gate = (cbox[:2] <= pts) & (pts <= cbox[2:])
    gate = gate[0] & gate[1] & (kind != _POINT)
    on, odd = np.zeros(len(k), bool), np.zeros(len(k), bool)
    at = ch[gate]
    on[gate], odd[gate] = _soup_ring_hits(
        soup.ends, soup.c_first[at], soup.c_edges[at], pts[:, gate]
    )
    d = soup.ends[:2, soup.c_first[ch]] - pts
    held = np.where(kind == _SHELL, on | odd, on) & (kind != _HOLE)
    held |= (kind == _POINT) & (d[0] * d[0] + d[1] * d[1] <= EPSILON * EPSILON)
    # A part holds the point when its shell (or line, or point) does and
    # none of its holes holds it strictly.
    hole = (kind == _HOLE) & ~on & odd
    if hole.any():
        part = k * len(soup.kind) + soup.c_part[ch]
        held &= ~np.isin(part, part[hole])
    out = np.zeros(len(g), bool)
    out[k[held]] = True
    return out
