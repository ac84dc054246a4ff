"""Hole-free single-ring polygons as one closed vertex array.

The join's secondary filter reads most rows only to hand their edges to the
pair kernel (:mod:`repro.geometry.kernels`).  For a polygon stored as one
exterior ring, the stored ordinates already are that ring: a
:class:`PackedRing` is a view of them, with no :class:`Geometry` built.

:func:`pack_ring` accepts a stored ring only when ``Geometry.polygon``
would keep it exactly as stored — so that the kernel sees the same edges
and the same vertex 0 either way, and :meth:`PackedRing.geometry` equals
what the full decode returns.  Anything else is the caller's to decode.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul, sub
from typing import Optional, Union

from repro.geometry.geometry import Geometry

__all__ = ["PackedRing", "pack_ring", "as_geometry"]


class PackedRing:
    """A hole-free single-ring polygon: ``vertices`` is its closed
    ``(n + 1, 2)`` float64 vertex array (row ``n`` repeats row 0), so ring
    edge ``k`` runs from row ``k`` to row ``k + 1``."""

    __slots__ = ("vertices", "num_vertices", "_geometry")

    def __init__(self, vertices):
        self.vertices = vertices
        self.num_vertices = len(vertices) - 1
        self._geometry: Optional[Geometry] = None

    def geometry(self) -> Geometry:
        """The polygon as a :class:`Geometry` (built once, on first use)."""
        if self._geometry is None:
            self._geometry = Geometry.polygon(self.vertices.tolist())
        return self._geometry

    def __repr__(self) -> str:
        return f"PackedRing({self.num_vertices} vertices)"


def pack_ring(vertices) -> Optional[PackedRing]:
    """``vertices`` (a closed ``(n + 1, 2)`` float64 array, as stored) as a
    :class:`PackedRing`, or None when ``Geometry.polygon`` might change it.

    Accepted: at least 3 ring vertices, a closing row that repeats row 0 bit
    for bit, and a counter-clockwise orientation decided by the very sum
    ``Ring.signed_area`` computes — the same products and subtractions,
    added left to right from 0.0 — so a zero-area, sliver or clockwise
    ring, which ``Ring.oriented`` would reverse, is refused.  A NaN or
    infinite ordinate, which ``Ring`` rejects, makes that sum NaN or
    infinite, so a non-finite sum is refused too (an overflowing sum of
    finite ordinates just takes the full decode).
    """
    if len(vertices) < 4 or vertices[0].tobytes() != vertices[-1].tobytes():
        return None
    xs, ys = vertices.T.tolist()
    total = reduce(add, map(sub, map(mul, xs, ys[1:]), map(mul, xs[1:], ys)), 0.0)
    if not 0.0 < total / 2.0 < math.inf:
        return None
    return PackedRing(vertices)


def as_geometry(geom: Union[Geometry, PackedRing]) -> Geometry:
    """``geom`` as a :class:`Geometry` (a packed ring builds its own)."""
    return geom.geometry() if type(geom) is PackedRing else geom
