"""Synthetic "US counties" layer (stand-in for the paper's Table 1 data).

The paper joins the 3230 US county polygons with themselves at distance 0
(intersect) and at distances 0.1 / 0.25 / 0.5 (degrees).  What matters for
the join's behaviour is that the layer is a contiguous planar tessellation:
neighbouring polygons share boundaries (so the intersect self-join returns
each polygon with itself and its ring of neighbours), and the result size
grows steadily with join distance.

This generator builds exactly that: a jittered grid over a CONUS-shaped
extent (~57.5 x 25 "degrees"), with shared cell edges refined by
deterministic midpoint jitter so the borders look hand-drawn but remain
watertight (both neighbours compute identical edge vertices).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from repro.errors import DatasetError
from repro.datasets.random_geom import edge_jitter_seed
from repro.geometry.geometry import Geometry

__all__ = ["counties", "DEFAULT_COUNTY_COUNT", "CONUS_EXTENT", "CONUS_INDEX_DOMAIN"]

DEFAULT_COUNTY_COUNT = 3230
CONUS_EXTENT = (0.0, 0.0, 57.5, 25.0)  # ~ lon/lat span of the lower 48
# Square quadtree domain for layers generated over CONUS_EXTENT: counties and
# block groups are centred inside the extent and overhang it by less than 1.
CONUS_INDEX_DOMAIN = (-1.0, -1.0, 59.0, 59.0)

Coord = Tuple[float, float]


def counties(
    n: int = DEFAULT_COUNTY_COUNT,
    seed: int = 42,
    extent: Tuple[float, float, float, float] = CONUS_EXTENT,
    refine: int = 2,
) -> List[Geometry]:
    """Generate ``n`` contiguous county-like polygons.

    ``refine`` extra vertices are inserted per cell edge (deterministically
    shared with the neighbouring cell), giving each county ~4*(refine+1)
    boundary vertices.
    """
    if n < 1:
        raise DatasetError(f"county count must be >= 1, got {n}")
    min_x, min_y, max_x, max_y = extent
    width, height = max_x - min_x, max_y - min_y
    if width <= 0 or height <= 0:
        raise DatasetError(f"degenerate extent {extent}")

    # Grid shape matching the extent's aspect ratio, with >= n cells.
    aspect = width / height
    rows = max(1, int(math.sqrt(n / aspect)))
    cols = max(1, math.ceil(n / rows))
    while rows * cols < n:
        cols += 1

    dx, dy = width / cols, height / rows
    rng = random.Random(seed)

    # Jittered lattice: interior vertices move up to 30% of a cell; the
    # outer boundary stays put so the tessellation exactly tiles the extent.
    lattice: Dict[Tuple[int, int], Coord] = {}
    for i in range(cols + 1):
        for j in range(rows + 1):
            x = min_x + i * dx
            y = min_y + j * dy
            if 0 < i < cols:
                x += rng.uniform(-0.3, 0.3) * dx
            if 0 < j < rows:
                y += rng.uniform(-0.3, 0.3) * dy
            lattice[(i, j)] = (x, y)

    polygons: List[Geometry] = []
    for j in range(rows):
        for i in range(cols):
            if len(polygons) >= n:
                break
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]  # CCW
            ring: List[Coord] = []
            for k in range(4):
                a, b = corners[k], corners[(k + 1) % 4]
                ring.append(lattice[a])
                ring.extend(_refined_edge(seed, lattice, a, b, refine))
            polygons.append(Geometry.polygon(ring))
    return polygons


def _refined_edge(
    base_seed: int,
    lattice: Dict[Tuple[int, int], Coord],
    a: Tuple[int, int],
    b: Tuple[int, int],
    refine: int,
) -> List[Coord]:
    """Interior vertices of edge a->b, identical for both adjacent cells.

    The per-edge RNG is seeded from the *sorted* endpoint pair; points are
    generated in canonical (sorted) direction and reversed when the caller
    walks the edge the other way, so the shared border is a single polyline.
    """
    if refine < 1:
        return []
    pa, pb = lattice[a], lattice[b]
    lo, hi = sorted((a, b))
    p_lo, p_hi = lattice[lo], lattice[hi]
    edge_rng = random.Random(edge_jitter_seed(base_seed, a, b))
    ex, ey = p_hi[0] - p_lo[0], p_hi[1] - p_lo[1]
    length = math.hypot(ex, ey) or 1.0
    # Unit normal for perpendicular jitter.
    nx, ny = -ey / length, ex / length
    pts: List[Coord] = []
    for k in range(1, refine + 1):
        t = k / (refine + 1)
        offset = edge_rng.uniform(-0.08, 0.08) * length
        pts.append((p_lo[0] + t * ex + offset * nx, p_lo[1] + t * ey + offset * ny))
    if (pa, pb) != (p_lo, p_hi):
        pts.reverse()
    return pts
