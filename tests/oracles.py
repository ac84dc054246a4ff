"""Scalar oracles for :mod:`repro.geometry.kernels`.

The kernels have one (numpy) implementation; what they must agree with,
bit for bit, is written here once, in plain Python, straight from the
scalar definitions: the closed-interval gap test, ``math.floor`` binning,
and ``JoinPredicate.evaluate`` pair by pair.

Tests use the oracles two ways.  Kernel-level tests call both and compare
the results directly.  System-level tests that are parametrised
``[numpy]`` / ``[python]`` replay their scenario under
:func:`kernel_impl`: the ``numpy`` leg runs the code as shipped, the
``python`` leg runs it with the oracles standing in for the kernel entry
points, so a whole join, window scan or cluster answer is checked against
the reference implementation and not just against itself.  (Forked
processes inherit the substitution, like any other module state.)
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, List, Optional
from unittest import mock

from repro.core.secondary_filter import JoinPredicate
from repro.geometry import kernels

IMPLS = ("numpy", "python")


def mbr_filter_indices(coords, box, distance=0.0, exact=False) -> List[int]:
    """No axis gap above ``distance``; ``exact`` adds the squared corner
    distance, as ``MBR.distance(...) <= distance`` would."""
    x0s, y0s, x1s, y1s = coords
    lo_x, lo_y, hi_x, hi_y = box
    out = []
    for i in range(len(x0s)):
        gap_x = max(lo_x - x1s[i], x0s[i] - hi_x)
        gap_y = max(lo_y - y1s[i], y0s[i] - hi_y)
        if gap_x > distance or gap_y > distance:
            continue
        if exact and distance > 0.0:
            dx, dy = max(gap_x, 0.0), max(gap_y, 0.0)
            if dx * dx + dy * dy > distance * distance:
                continue
        out.append(i)
    return out


def tile_ranges_batch(coords, origin, tile_size, shape, expand=0.0):
    """``floor((v ± expand − origin) / size)`` clamped to the grid."""
    x0s, y0s, x1s, y1s = coords

    def bins(values, grow, start, size, n):
        return [
            min(max(math.floor((v + grow - start) / size), 0), n - 1) for v in values
        ]

    (gx, gy), (tw, th), (nx, ny) = origin, tile_size, shape
    return (
        bins(x0s, -expand, gx, tw, nx),
        bins(x1s, expand, gx, tw, nx),
        bins(y0s, -expand, gy, th, ny),
        bins(y1s, expand, gy, th, ny),
    )


def evaluate_predicate_pairs(geoms_a, geoms_b, mask, distance=0.0) -> Optional[List[bool]]:
    """``JoinPredicate.evaluate`` pair by pair; ``None`` for the masks the
    kernel declines, so callers take the same branch either way."""
    if not (distance and distance > 0.0):
        names = [n.strip() for n in mask.upper().split("+")] if mask else []
        if not names or any(n not in ("ANYINTERACT", "INTERSECT") for n in names):
            return None
    predicate = JoinPredicate(mask=mask, distance=distance)
    return [predicate.evaluate(a, b) for a, b in zip(geoms_a, geoms_b)]


def evaluate_predicate_batch(g1, geoms, mask, distance=0.0) -> Optional[List[bool]]:
    return evaluate_predicate_pairs([g1] * len(geoms), geoms, mask, distance)


_ORACLES = {
    fn.__name__: fn
    for fn in (
        mbr_filter_indices,
        tile_ranges_batch,
        evaluate_predicate_pairs,
        evaluate_predicate_batch,
    )
}


@contextmanager
def kernel_impl(name: str) -> Iterator[None]:
    """``"numpy"``: the kernels as shipped.  ``"python"``: every kernel
    entry point replaced by its oracle for the duration of the block."""
    assert name in IMPLS, name
    if name == "numpy":
        yield
        return
    with mock.patch.multiple(kernels, **_ORACLES):
        yield
