"""Low-level planar primitives: orientation, segment intersection, distances.

These routines use a small epsilon for robustness rather than exact
arithmetic.  That matches the precision model of the system being
reproduced (Oracle Spatial operates on a user-supplied tolerance); all
higher-level predicates funnel through the functions here so the tolerance
policy lives in one place.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "EPSILON",
    "orientation",
    "on_segment",
    "segments_intersect",
    "point_segment_distance_sq",
    "segment_segment_distance_sq",
]

# Default tolerance for collinearity / incidence decisions.  Datasets in this
# library live in coordinate ranges of roughly [0, 1e4], for which 1e-9 is far
# below any meaningful feature size while still absorbing float noise.
EPSILON = 1e-9

Point = Tuple[float, float]


def orientation(p: Point, q: Point, r: Point, eps: float = EPSILON) -> int:
    """Orientation of the ordered triple (p, q, r).

    Returns +1 for counter-clockwise, -1 for clockwise and 0 for collinear
    (within ``eps`` scaled by the magnitude of the cross product operands).
    """
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    # Scale the tolerance by the operand magnitude so large coordinates do
    # not spuriously read as collinear-or-not depending on their offset.
    scale = (
        abs(q[0] - p[0]) + abs(q[1] - p[1]) + abs(r[0] - p[0]) + abs(r[1] - p[1])
    )
    tol = eps * max(scale, 1.0)
    if cross > tol:
        return 1
    if cross < -tol:
        return -1
    return 0


def on_segment(p: Point, a: Point, b: Point, eps: float = EPSILON) -> bool:
    """True if point ``p`` lies on segment ``ab`` (inclusive of endpoints)."""
    if orientation(a, b, p, eps) != 0:
        return False
    return (
        min(a[0], b[0]) - eps <= p[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= p[1] <= max(a[1], b[1]) + eps
    )


def segments_intersect(
    a: Point, b: Point, c: Point, d: Point, eps: float = EPSILON
) -> bool:
    """True if closed segments ``ab`` and ``cd`` share at least one point.

    Segments whose bounding boxes are more than ``eps`` apart never
    intersect.  That is part of the definition, not a shortcut: the
    tolerance-scaled orientations alone call two near-collinear segments
    that lie far apart along their common line "intersecting".  It is also
    what lets the batch kernels discard edge pairs by box before any
    orientation is computed and stay bit-identical.
    """
    ax0, ax1 = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
    cx0, cx1 = (c[0], d[0]) if c[0] <= d[0] else (d[0], c[0])
    if cx0 - ax1 > eps or ax0 - cx1 > eps:
        return False
    ay0, ay1 = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
    cy0, cy1 = (c[1], d[1]) if c[1] <= d[1] else (d[1], c[1])
    if cy0 - ay1 > eps or ay0 - cy1 > eps:
        return False

    o1 = orientation(a, b, c, eps)
    o2 = orientation(a, b, d, eps)
    o3 = orientation(c, d, a, eps)
    o4 = orientation(c, d, b, eps)

    if o1 != o2 and o3 != o4:
        return True

    # Collinear special cases: an endpoint of one segment lies on the other.
    if o1 == 0 and on_segment(c, a, b, eps):
        return True
    if o2 == 0 and on_segment(d, a, b, eps):
        return True
    if o3 == 0 and on_segment(a, c, d, eps):
        return True
    if o4 == 0 and on_segment(b, c, d, eps):
        return True
    return False


def point_segment_distance_sq(p: Point, a: Point, b: Point) -> float:
    """Squared Euclidean distance from point ``p`` to closed segment ``ab``.

    All distance comparisons in the library happen in squared space (one
    multiply instead of a ``sqrt`` per comparison); the square root is
    taken once at the public API boundary.  The batch kernels replicate
    exactly these arithmetic operations, so the scalar and vectorized
    code produce bit-identical comparison outcomes.
    """
    ab_x, ab_y = b[0] - a[0], b[1] - a[1]
    ap_x, ap_y = p[0] - a[0], p[1] - a[1]
    denom = ab_x * ab_x + ab_y * ab_y
    if denom == 0.0:  # degenerate segment
        return ap_x * ap_x + ap_y * ap_y
    t = (ap_x * ab_x + ap_y * ab_y) / denom
    t = max(0.0, min(1.0, t))
    dx = p[0] - (a[0] + t * ab_x)
    dy = p[1] - (a[1] + t * ab_y)
    return dx * dx + dy * dy


def segment_segment_distance_sq(a: Point, b: Point, c: Point, d: Point) -> float:
    """Squared minimum distance between closed segments ``ab`` and ``cd``."""
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance_sq(a, c, d),
        point_segment_distance_sq(b, c, d),
        point_segment_distance_sq(c, a, b),
        point_segment_distance_sq(d, a, b),
    )
