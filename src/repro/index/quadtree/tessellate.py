"""Geometry tessellation: the expensive step of quadtree index creation.

``tessellate`` covers a geometry with fixed-level quadtree tiles by
quadrant subdivision, classifying each emitted tile as *boundary* (the
geometry's boundary passes through it) or *interior* (the tile lies wholly
inside a polygon).  Interior tiles let window queries and joins skip the
secondary filter, and entire interior quadrants are expanded without
further geometry tests — which is why the per-geometry cost is dominated
by boundary length, as the paper observes for "large and complex polygon
geometries" (§5).

Subdivision is level-synchronous, and the frontier carries, per quadrant,
the boundary edges (and part first vertices) that survived its parent, so a
child is tested only against what its parent met.  An edge is dropped when
its box is more than ``_KEEP`` from the quadrant's on either axis: the
gap-form reject of ``segments_intersect``, at twice its tolerance so that a
child box overshooting its parent's by a rounding error never wants an edge
the parent dropped.  Each quadrant is still classified by the definition —
``intersects(rect, geom)`` then ``contains(geom, rect)`` — on the survivors,
cheapest term first, and the outcome cannot differ: a dropped edge is
box-rejected against all four rectangle sides and cannot properly cross
them, and a quadrant with no survivor is a connected region off the
boundary, settled by one point-in-polygon test of its corner and never
descended.  ``tests/oracles.py::tessellate_reference`` keeps the
full-geometry formulation.

Work units charged: ``tessellate_per_vertex`` once per geometry vertex,
``mbr_test`` per quadrant and ``tessellate_per_tile`` per quadrant that
passes the geometry-MBR gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.parallel import WorkerContext
from repro.geometry.geometry import Coord, Geometry, GeometryType
from repro.geometry.predicates import _proper_crossing
from repro.geometry.segments import EPSILON, segments_intersect
from repro.index.quadtree.codes import TileGrid, morton_encode
from repro.obs import trace

__all__ = ["Tile", "tessellate"]

_KEEP = 2.0 * EPSILON
_CHILDREN = ((0, 0), (0, 1), (1, 0), (1, 1))

Box = Tuple[float, float, float, float]  # min_x, min_y, max_x, max_y
# (min_x, min_y, max_x, max_y, a, b, part MBR); a first vertex is an edge with a == b.
Edge = Tuple[float, float, float, float, Coord, Coord, Box]


@dataclass(frozen=True, slots=True)
class Tile:
    """One index tile: its fixed-level Morton code and interior flag."""

    code: int
    interior: bool


def tessellate(
    geom: Geometry, grid: TileGrid, ctx: Optional[WorkerContext] = None
) -> List[Tile]:
    """Cover ``geom`` with fixed-level tiles of ``grid``.

    Returns the tiles sorted by code (deterministic, and the order bulk
    B-tree loading wants).
    """
    if ctx is not None:
        ctx.charge("tessellate_per_vertex", geom.num_vertices)
    with trace.span(
        "tessellate", ctx, vertices=geom.num_vertices, grid_level=grid.level
    ) as geom_span:
        tiles: List[Tile] = []
        parts = list(geom.simple_parts())
        polygons = [p for p in parts if p.geom_type is GeometryType.POLYGON]
        gbox = gx0, gy0, gx1, gy1 = geom.mbr.as_tuple()
        quadrants = 0
        # (ix, iy, the parent's surviving edges, its surviving first vertices)
        frontier = [(0, 0, *_edges_and_starts(parts))]
        level = 0
        while frontier:
            with trace.span(
                "tessellate.level", ctx, level=level, frontier=len(frontier)
            ) as level_span:
                # Cheap reject on the geometry's MBR before any exact work (one
                # charge per quadrant examined, exactly as per-tile descent would).
                if ctx is not None:
                    ctx.charge("mbr_test", len(frontier))
                if trace.ENABLED:
                    level_span.set_tag("edges", sum(len(q[2]) for q in frontier))
                examined = 0
                below = []
                for ix, iy, edges, starts in frontier:
                    x0, y0, x1, y1 = rect = grid.quadrant_bounds(level, ix, iy)
                    if not (x0 <= gx1 and gx0 <= x1 and y0 <= gy1 and gy0 <= y1):
                        continue
                    examined += 1
                    edges, starts = _near(edges, rect), _near(starts, rect)
                    if not _meets(rect, edges, starts, polygons):
                        continue
                    # With no survivor the quadrant is off the boundary, so a
                    # polygon holding its corner holds all of it.
                    if not (edges or starts) or (
                        polygons and _covers(geom, gbox, rect, edges)
                    ):
                        _emit_block(grid, level, ix, iy, out=tiles)
                    elif level == grid.level:
                        tiles.append(Tile(morton_encode(ix, iy), interior=False))
                    else:
                        for dx, dy in _CHILDREN:
                            below.append((ix * 2 + dx, iy * 2 + dy, edges, starts))
                if ctx is not None and examined:
                    ctx.charge("tessellate_per_tile", examined)
                quadrants += len(frontier)
                frontier = below
                level += 1
        tiles.sort(key=lambda t: t.code)
        geom_span.set_tag("tiles", len(tiles))
        geom_span.set_tag("quadrants", quadrants)
    return tiles


def _edges_and_starts(parts: Sequence[Geometry]) -> Tuple[List[Edge], List[Edge]]:
    edges, starts = [], []
    for part in parts:
        box = part.mbr.as_tuple()
        first = part.coords[0] if part.exterior is None else part.exterior.coords[0]
        starts.append((*first, *first, first, first, box))
        for a, b in part.boundary_edges():
            lo_x, hi_x = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
            lo_y, hi_y = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
            edges.append((lo_x, lo_y, hi_x, hi_y, a, b, box))
    return edges, starts


def _near(edges: Sequence[Edge], rect: Box) -> List[Edge]:
    """The edges whose box is within ``_KEEP`` of ``rect`` on both axes."""
    x0, y0, x1, y1 = rect
    return [
        e for e in edges
        if e[0] - x1 <= _KEEP and x0 - e[2] <= _KEEP
        and e[1] - y1 <= _KEEP and y0 - e[3] <= _KEEP
    ]


def _sides(rect: Box) -> Tuple[Tuple[Coord, Coord], ...]:
    """The rectangle's edges, counter-clockwise from (min_x, min_y)."""
    x0, y0, x1, y1 = rect
    sw, se, ne, nw = (x0, y0), (x1, y0), (x1, y1), (x0, y1)
    return ((sw, se), (se, ne), (ne, nw), (nw, sw))


def _meets(
    rect: Box, edges: Sequence[Edge], starts: Sequence[Edge], polygons: Sequence[Geometry]
) -> bool:
    """``intersects(rect, geom)``: a part starts inside the rectangle, an edge
    of a part whose MBR meets the rectangle touches one of its sides, or a
    polygon part holds its corner."""
    x0, y0, x1, y1 = rect
    for start in starts:
        if x0 <= start[0] <= x1 and y0 <= start[1] <= y1:
            return True
    sides = _sides(rect)
    for _, _, _, _, a, b, (px0, py0, px1, py1) in edges:
        for s1, s2 in sides:
            if segments_intersect(s1, s2, a, b) and (
                x0 <= px1 and px0 <= x1 and y0 <= py1 and py0 <= y1
            ):
                return True
    return any(p.contains_point(x0, y0) for p in polygons)


def _covers(geom: Geometry, gbox: Box, rect: Box, edges: Sequence[Edge]) -> bool:
    """``contains(geom, rect)``: MBR containment, no surviving edge properly
    crosses a side, and the four corners and four side midpoints lie in
    ``geom``."""
    x0, y0, x1, y1 = rect
    if not (gbox[0] <= x0 and gbox[2] >= x1 and gbox[1] <= y0 and gbox[3] >= y1):
        return False
    sides = _sides(rect)
    for edge in edges:
        for s1, s2 in sides:
            if _proper_crossing(s1, s2, edge[4], edge[5]):
                return False
    return all(
        geom.contains_point(sx, sy) and geom.contains_point((sx + tx) / 2.0, (sy + ty) / 2.0)
        for (sx, sy), (tx, ty) in sides
    )


def _emit_block(grid: TileGrid, level: int, ix: int, iy: int, out: List[Tile]) -> None:
    """Expand a fully-interior quadrant into its fixed-level tiles."""
    span = 1 << (grid.level - level)
    for x in range(ix * span, (ix + 1) * span):
        for y in range(iy * span, (iy + 1) * span):
            out.append(Tile(morton_encode(x, y), interior=True))
