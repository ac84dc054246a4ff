"""Geometry tessellation: the expensive step of quadtree index creation.

``tessellate`` covers a geometry with fixed-level quadtree tiles by
quadrant subdivision, classifying each emitted tile as *boundary* (the
geometry's boundary passes through it) or *interior* (the tile lies wholly
inside a polygon).  Interior tiles let window queries and joins skip the
secondary filter, and entire interior quadrants are expanded without
further geometry tests — which is why the per-geometry cost is dominated
by boundary length, as the paper observes for "large and complex polygon
geometries" (§5).

Subdivision proceeds level-synchronously: the whole quadrant frontier of a
recursion level is classified, tile by tile with the scalar predicates
(MBR gate, ``intersects(rect, geom)``, then ``contains(geom, rect)``),
before the next level is expanded.  Tile output, work charges and
classification outcomes are identical to the depth-first formulation.

Work units charged: ``tessellate_per_vertex`` once per geometry vertex and
``tessellate_per_tile`` per quadrant examined with an exact test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.parallel import WorkerContext
from repro.geometry.geometry import Geometry, GeometryType
from repro.geometry.mbr import MBR
from repro.geometry.predicates import contains, intersects
from repro.index.quadtree.codes import TileGrid, morton_encode
from repro.obs import trace

__all__ = ["Tile", "tessellate"]

# Tile classification codes of :func:`_classify_tile_scalar`.
TILE_OUTSIDE_MBR = 0  # quadrant does not even meet the geometry's MBR
TILE_OUTSIDE = 1  # meets the MBR but not the geometry
TILE_BOUNDARY = 2  # intersects the geometry boundary
TILE_INTERIOR = 3  # wholly inside a polygonal geometry


@dataclass(frozen=True, slots=True)
class Tile:
    """One index tile: its fixed-level Morton code and interior flag."""

    code: int
    interior: bool


def tessellate(
    geom: Geometry,
    grid: TileGrid,
    ctx: Optional[WorkerContext] = None,
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
        polygonal = any(
            p.geom_type is GeometryType.POLYGON for p in geom.simple_parts()
        )
        frontier: List[Tuple[int, int]] = [(0, 0)]
        level = 0
        while frontier:
            with trace.span(
                "tessellate.level", ctx, level=level, frontier=len(frontier)
            ):
                quads = [grid.quadrant_mbr(level, ix, iy) for ix, iy in frontier]
                # Cheap reject on the geometry's MBR before any exact work (one
                # charge per quadrant examined, exactly as per-tile descent would).
                if ctx is not None:
                    ctx.charge("mbr_test", len(quads))
                codes = [_classify_tile_scalar(geom, q, polygonal) for q in quads]
                if ctx is not None:
                    examined = sum(1 for c in codes if c != TILE_OUTSIDE_MBR)
                    if examined:
                        ctx.charge("tessellate_per_tile", examined)
                next_frontier: List[Tuple[int, int]] = []
                for (ix, iy), code in zip(frontier, codes):
                    if code in (TILE_OUTSIDE_MBR, TILE_OUTSIDE):
                        continue
                    if code == TILE_INTERIOR:
                        _emit_block(grid, level, ix, iy, interior=True, out=tiles)
                    elif level == grid.level:
                        tiles.append(Tile(morton_encode(ix, iy), interior=False))
                    else:
                        for dx in (0, 1):
                            for dy in (0, 1):
                                next_frontier.append((ix * 2 + dx, iy * 2 + dy))
                frontier = next_frontier
                level += 1
        tiles.sort(key=lambda t: t.code)
        geom_span.set_tag("tiles", len(tiles))
    return tiles


def _classify_tile_scalar(geom: Geometry, quad: MBR, polygonal: bool) -> int:
    if not quad.intersects(geom.mbr):
        return TILE_OUTSIDE_MBR
    rect = Geometry.from_mbr(quad)
    if not intersects(rect, geom):
        return TILE_OUTSIDE
    if polygonal and contains(geom, rect):
        return TILE_INTERIOR
    return TILE_BOUNDARY


def _emit_block(
    grid: TileGrid, level: int, ix: int, iy: int, interior: bool, out: List[Tile]
) -> None:
    """Expand a fully-interior quadrant into its fixed-level tiles."""
    span = 1 << (grid.level - level)
    base_x = ix * span
    base_y = iy * span
    for dx in range(span):
        for dy in range(span):
            out.append(Tile(morton_encode(base_x + dx, base_y + dy), interior))
