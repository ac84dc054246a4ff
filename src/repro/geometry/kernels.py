"""Vectorized batch geometry kernels (the data-parallel secondary filter).

The paper's two-stage query pipeline bottoms out in exact geometry tests:
the secondary filter of the spatial join (§4.2).  This module evaluates
those tests over *batches* — a whole array of candidate pairs, a node's
entries against one window — with numpy.  Candidate pairs of hole-free
polygons go through one ragged ring pair kernel: the edges of many pairs
laid out as flat arrays and tested in one pass.  Every other pair (points,
lines, holed and multi-part shapes) takes one call of the scalar predicate
in :mod:`repro.geometry.predicates` / :mod:`repro.geometry.distance`,
which, with :mod:`repro.geometry.segments`, is also the oracle the tests
compare the kernels to.

Bit-identical results
---------------------
The kernels return *identical* results to the scalar oracle, not merely
approximately equal ones: they replicate the scalar code's floating-point
operations in the same order (same subtractions, same products, same
tolerance scaling), so every comparison resolves the same way down to the
last ULP.  Two library-wide conventions make this practical:

* all distance comparisons happen in *squared* space (``math.hypot`` and
  ``np.hypot`` may differ by one ULP; ``dx*dx + dy*dy`` cannot);
* the epsilon-scaled orientation test is a fixed expression shared by
  ``segments.orientation`` and :func:`_orient_signs` below.

The parity suites (``tests/geometry/test_kernels_parity.py`` and
``test_pair_kernel.py``) enforce the contract over randomized and
adversarially degenerate inputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.distance import within_distance
from repro.geometry.geometry import Geometry, GeometryType
from repro.geometry.packed import PackedRing, as_geometry
from repro.geometry.predicates import intersects
from repro.geometry.segments import EPSILON

__all__ = [
    "GROUP_VERTICES",
    "get_backend",
    "set_backend",
    "counters",
    "reset_counters",
    "mbr_filter_indices",
    "tile_ranges_batch",
    "evaluate_predicate_batch",
    "evaluate_predicate_pairs",
]

# The ragged pair kernel's bound, applied twice: to the edges (both sides)
# of the candidate pairs resolved per slice, and to the edge pairs expanded
# per chunk within a slice.  Each expansion holds a dozen index and
# coordinate temporaries at once, hence the much smaller figure (~64 KB
# each): larger slices measured no faster, and their temporaries cost the
# served join ~10 % of peak RSS in allocator retention.
_PAIR_SLICE_ELEMS = 1 << 13

# The callers' bound.  A fetched geometry stays referenced until its exact
# test has run, cached or not; the join's secondary filter and the index
# operators close a candidate array once this many vertices are waiting,
# which bounds that by a constant instead of by the array size.
GROUP_VERTICES = 1 << 17


def get_backend() -> str:
    """Always ``"numpy"``; kept for ``benchmarks/wallclock/common.py``."""
    return "numpy"


def set_backend(name: str) -> None:
    """Accepts ``"numpy"`` only; kept for ``benchmarks/wallclock/common.py``."""
    if name != "numpy":
        raise GeometryError(f"unknown kernels backend {name!r}; only 'numpy' exists")


# ----------------------------------------------------------------------
# Kernel call counters (exposed by the server's ``metrics`` op)
# ----------------------------------------------------------------------
_counters: Dict[str, Dict[str, int]] = {"calls": {}, "items": {}}


def _count(entry: str, items: int) -> None:
    calls = _counters["calls"]
    calls[entry] = calls.get(entry, 0) + 1
    tally = _counters["items"]
    tally[entry] = tally.get(entry, 0) + int(items)


def counters() -> Dict[str, Dict[str, int]]:
    """Per-entry-point call and item tallies for the active process.

    ``calls`` counts invocations of each batch entry point; ``items``
    counts the elements those invocations processed, so
    ``items / calls`` is the mean batch width the kernel actually saw.
    """
    return {
        "calls": dict(_counters["calls"]),
        "items": dict(_counters["items"]),
    }


def reset_counters() -> None:
    """Zero the kernel counters (tests and per-run benchmarks)."""
    _counters["calls"].clear()
    _counters["items"].clear()


# ======================================================================
# MBR kernels
# ======================================================================
def mbr_filter_indices(
    coords: Tuple[Sequence[float], Sequence[float], Sequence[float], Sequence[float]],
    box: Tuple[float, float, float, float],
    distance: float = 0.0,
    exact: bool = False,
) -> List[int]:
    """Indices of entries whose MBR passes the window / within-distance test.

    ``coords`` is the flat ``(min_xs, min_ys, max_xs, max_ys)`` layout that
    R-tree nodes expose via ``coords()``.  ``exact=True`` additionally
    applies the corner-distance refinement (squared, matching the scalar
    sweep in :mod:`repro.index.rtree.join`): the axis-gap test alone admits
    rectangles whose corner distance exceeds ``distance``.
    """
    x0s, y0s, x1s, y1s = coords
    lo_x, lo_y, hi_x, hi_y = box
    d = distance
    _count("mbr_filter_indices", len(x0s))
    x0, y0, x1, y1 = (_as_f64(a) for a in (x0s, y0s, x1s, y1s))
    gx_lo = lo_x - x1
    gx_hi = x0 - hi_x
    gy_lo = lo_y - y1
    gy_hi = y0 - hi_y
    keep = (gx_lo <= d) & (gx_hi <= d) & (gy_lo <= d) & (gy_hi <= d)
    if exact and d > 0.0:
        dx = np.maximum(np.maximum(gx_lo, gx_hi), 0.0)
        dy = np.maximum(np.maximum(gy_lo, gy_hi), 0.0)
        keep &= dx * dx + dy * dy <= d * d
    return np.nonzero(keep)[0].tolist()


def _as_f64(seq):
    """Zero-copy float64 view where possible (ndarray / array('d'))."""
    if isinstance(seq, np.ndarray):
        return seq if seq.dtype == np.float64 else seq.astype(np.float64)
    try:
        return np.frombuffer(seq, dtype=np.float64)  # array('d') fast path
    except (TypeError, ValueError, AttributeError):
        return np.asarray(seq, dtype=np.float64)


def tile_ranges_batch(
    coords: Tuple[Sequence[float], Sequence[float], Sequence[float], Sequence[float]],
    origin: Tuple[float, float],
    tile_size: Tuple[float, float],
    shape: Tuple[int, int],
    expand: float = 0.0,
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Bin MBRs into uniform-grid tile index ranges (grid-join assignment).

    ``coords`` is the flat ``(min_xs, min_ys, max_xs, max_ys)`` layout; the
    grid starts at ``origin`` with ``tile_size = (width, height)`` tiles in
    an ``shape = (nx, ny)`` arrangement.  Each MBR — optionally expanded by
    ``expand`` on every side, the within-distance slack — maps to the
    inclusive index ranges ``ix0..ix1`` / ``iy0..iy1`` of the tiles it
    overlaps, clamped to the grid.  Returned as four parallel int lists.

    The bins are the floor of the float64 expression ``(v - origin) / size``
    (``math.floor`` of the same expression is the test oracle), so downstream
    duplicate avoidance, which compares only these integers, never faces an
    epsilon: an MBR edge exactly on a tile boundary lands in the same bin
    for every entry sharing that coordinate.
    """
    x0s, y0s, x1s, y1s = coords
    gx, gy = origin
    tw, th = tile_size
    nx, ny = shape
    n = len(x0s)
    _count("tile_ranges_batch", n)
    x0, y0, x1, y1 = (_as_f64(a) for a in (x0s, y0s, x1s, y1s))
    ix0a = np.clip(np.floor((x0 - expand - gx) / tw), 0, nx - 1).astype(np.intp)
    ix1a = np.clip(np.floor((x1 + expand - gx) / tw), 0, nx - 1).astype(np.intp)
    iy0a = np.clip(np.floor((y0 - expand - gy) / th), 0, ny - 1).astype(np.intp)
    iy1a = np.clip(np.floor((y1 + expand - gy) / th), 0, ny - 1).astype(np.intp)
    return ix0a.tolist(), ix1a.tolist(), iy0a.tolist(), iy1a.tolist()


# ======================================================================
# Segment-pair kernels
# ======================================================================
def _orient_signs(bqx, bqy, b_abs, drx, dry):
    """Vectorized ``segments.orientation`` against a shared base vector
    (``dq`` and ``|dqx| + |dqy|`` hoisted by the caller).

    Same cross and tolerance floats as the scalar test — the scale sum
    keeps its left-to-right association — with the sign landing in two
    bool masks: strictly positive, strictly negative.
    """
    cross = bqx * dry - bqy * drx
    scale = b_abs + np.abs(drx) + np.abs(dry)
    tol = EPSILON * np.maximum(scale, 1.0)
    return cross > tol, cross < -tol


def _bounds_arr(px, py, ax, ay, bx, by):
    """Bounding-box incidence (the non-orientation half of ``on_segment``)."""
    return (
        (np.minimum(ax, bx) - EPSILON <= px)
        & (px <= np.maximum(ax, bx) + EPSILON)
        & (np.minimum(ay, by) - EPSILON <= py)
        & (py <= np.maximum(ay, by) + EPSILON)
    )


def _edge_boxes_apart(ax, ay, bx, by, cx, cy, dx, dy, tol):
    """Are the boxes of edges ``ab`` and ``cd`` more than ``tol`` apart?

    The gap form ``lo - hi > tol`` of ``segments_intersect``'s reject, so a
    prune at ``tol >= EPSILON`` can only drop pairs the definition drops.
    """
    return (
        (np.minimum(cx, dx) - np.maximum(ax, bx) > tol)
        | (np.minimum(ax, bx) - np.maximum(cx, dx) > tol)
        | (np.minimum(cy, dy) - np.maximum(ay, by) > tol)
        | (np.minimum(ay, by) - np.maximum(cy, dy) > tol)
    )


def _orient_tests(ax, ay, bx, by, cx, cy, dx, dy):
    """``segments_intersect`` of edge ``ab`` vs edge ``cd`` past its box
    reject — the orientation and collinear-bounds terms alone — and
    ``predicates._proper_crossing`` of the same pairs, from one set of
    orientations: ``(hit, proper)``.

    The operands are equal-length flat arrays; entry ``k`` tests edge pair
    ``k`` only.  The four orientations share their base-vector differences
    and abs sums (``o1``/``o2`` sit on edge ``ab``, ``o3``/``o4`` on
    ``cd``), and signs stay as bool-mask pairs: ``o_i != o_j`` becomes a
    pair of mask comparisons, ``o_i == 0`` becomes neither-mask.
    """
    abx, aby = bx - ax, by - ay
    ab_abs = np.abs(abx) + np.abs(aby)
    p1, n1 = _orient_signs(abx, aby, ab_abs, cx - ax, cy - ay)
    p2, n2 = _orient_signs(abx, aby, ab_abs, dx - ax, dy - ay)
    cdx, cdy = dx - cx, dy - cy
    cd_abs = np.abs(cdx) + np.abs(cdy)
    p3, n3 = _orient_signs(cdx, cdy, cd_abs, ax - cx, ay - cy)
    p4, n4 = _orient_signs(cdx, cdy, cd_abs, bx - cx, by - cy)
    hit = ((p1 != p2) | (n1 != n2)) & ((p3 != p4) | (n3 != n4))
    # The collinear/bounds terms only matter where some orientation is
    # exactly zero.  Zeros are sparse but not rare — any shared border
    # produces them — so the four bounds tests run on the gathered zero
    # entries, not on every pair.
    nz = (p1 | n1) & (p2 | n2) & (p3 | n3) & (p4 | n4)
    proper = hit & nz
    if not nz.all():
        z = np.nonzero(~nz)[0]
        axz, ayz, bxz, byz, cxz, cyz, dxz, dyz = (
            v[z] for v in (ax, ay, bx, by, cx, cy, dx, dy)
        )
        hz = hit[z]
        hz |= ~(p1[z] | n1[z]) & _bounds_arr(cxz, cyz, axz, ayz, bxz, byz)
        hz |= ~(p2[z] | n2[z]) & _bounds_arr(dxz, dyz, axz, ayz, bxz, byz)
        hz |= ~(p3[z] | n3[z]) & _bounds_arr(axz, ayz, cxz, cyz, dxz, dyz)
        hz |= ~(p4[z] | n4[z]) & _bounds_arr(bxz, byz, cxz, cyz, dxz, dyz)
        hit[z] = hz
    return hit, proper


def _intersect_cols(*operands):
    """Vectorized ``segments_intersect``; operands as ``_orient_tests``.

    The definition's box reject can only turn a hit into a miss, and hits
    are few: the boxes of those entries alone are tested.
    """
    hit = _orient_tests(*operands)[0]
    if hit.any():
        h = np.nonzero(hit)[0]
        hit[h] = ~_edge_boxes_apart(*(v[h] for v in operands), EPSILON)
    return hit


def _point_segment_dist_sq_arr(px, py, ax, ay, bx, by):
    """Vectorized ``segments.point_segment_distance_sq`` (same op order)."""
    ab_x, ab_y = bx - ax, by - ay
    ap_x, ap_y = px - ax, py - ay
    denom = ab_x * ab_x + ab_y * ab_y
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ap_x * ab_x + ap_y * ab_y) / denom
    t = np.maximum(0.0, np.minimum(1.0, t))
    dx = px - (ax + t * ab_x)
    dy = py - (ay + t * ab_y)
    d = dx * dx + dy * dy
    return np.where(denom == 0.0, ap_x * ap_x + ap_y * ap_y, d)


def _endpoint_distance_sq_cols(ax, ay, bx, by, cx, cy, dx, dy):
    """Least squared distance from an endpoint of either edge to the other
    edge: ``segment_segment_distance_sq`` of a pair that does not cross."""
    return np.minimum(
        np.minimum(
            _point_segment_dist_sq_arr(ax, ay, cx, cy, dx, dy),
            _point_segment_dist_sq_arr(bx, by, cx, cy, dx, dy),
        ),
        np.minimum(
            _point_segment_dist_sq_arr(cx, cy, ax, ay, bx, by),
            _point_segment_dist_sq_arr(dx, dy, ax, ay, bx, by),
        ),
    )


# ----------------------------------------------------------------------
# Array-at-a-time pair kernel.
#
# The secondary filter hands over a whole ordered candidate array — pair k
# is ``(geoms_a[k], geoms_b[k])``, each a Geometry or a PackedRing — and
# gets one verdict per pair.  Two
# polygons can only interact where their MBRs overlap, so each pair keeps
# just the edges whose box meets its clip window ``MBR(a) ∩ MBR(b)``
# (grown by the tolerance); the surviving ragged a×b edge pairs of many
# candidates are laid out as flat 1-D arrays, pruned by edge box, and put
# through the same float expressions as the scalar tests in one pass.
# Both prunes use ``segments_intersect``'s own gap-form box reject, and
# float subtraction is monotone, so an edge outside the window is an edge
# whose every pair the definition rejects: results are bit-identical to
# ``predicates.intersects`` / ``distance.within_distance`` by construction.
# Columns are gathered with ``rows.take(idx, axis=1)``: fancy indexing
# ``rows[:, idx]`` of a C-ordered 2-D array is ~2.5x slower.
# ----------------------------------------------------------------------
def _pairs_np(geoms_a, geoms_b, dist: float) -> List[bool]:
    """Intersect (``dist == 0``) or within-distance verdict of every pair."""
    n = len(geoms_a)
    if n == 0:
        return []
    # Index the array's distinct geometries, by identity.
    every = (*geoms_a, *geoms_b)
    distinct = dict(zip(map(id, every), every))
    rank = dict(zip(distinct, range(len(distinct))))
    slot = np.fromiter(map(rank.__getitem__, map(id, every)), dtype=np.intp, count=2 * n)
    ia, ib = slot[:n], slot[n:]
    # The flat path takes hole-free polygons as closed vertex arrays: ring
    # edge i runs from row i to row i + 1.
    rings = list(map(_closed_ring, distinct.values()))
    count = np.fromiter(
        (0 if r is None else len(r) - 1 for r in rings), dtype=np.intp, count=len(rings)
    )
    flat = (count[ia] > 0) & (count[ib] > 0)
    # A self-join's identity pair always qualifies, as the scalar path
    # concludes the long way round; skipping it also keeps exact-zero
    # orientations (every edge on itself) out of the soup.
    out = flat & (ia == ib)
    todo = np.nonzero(flat & (ia != ib))[0]
    # Slices bound the index temporaries of the ragged expansion.
    load = (count[ia[todo]] + count[ib[todo]]).cumsum()
    start = 0
    while start < len(todo):
        done = int(load[start - 1]) if start else 0
        end = max(start + 1, int(np.searchsorted(load, done + _PAIR_SLICE_ELEMS, "right")))
        ks = todo[start:end]
        out[ks] = _poly_pairs_slice(rings, ia[ks], ib[ks], dist)
        start = end
    out = out.tolist()
    # Every other pair (points, lines, holes, multi-part) takes the scalar
    # predicate the kernel is held to, in the pair's own order.
    for k in np.nonzero(~flat)[0].tolist():
        a, b = as_geometry(geoms_a[k]), as_geometry(geoms_b[k])
        out[k] = within_distance(a, b, dist) if dist else intersects(a, b)
    return out


def _closed_ring(g):
    """The closed vertex array of a hole-free polygon, else None."""
    if type(g) is PackedRing:
        return g.vertices
    if g.geom_type is GeometryType.POLYGON and not g.holes:
        return g.exterior.closed_array()
    return None


def _ragged_arange(counts):
    """``arange(c)`` for every ``c`` of ``counts``, concatenated."""
    starts = counts.cumsum() - counts
    return np.arange(int(counts.sum()), dtype=np.intp) - starts.repeat(counts)


def _poly_pairs_slice(rings, ia, ib, dist: float):
    """One slice of the pair kernel: pair ``k`` is hole-free polygons
    ``ia[k]`` and ``ib[k]`` of ``rings`` (closed vertex arrays), never the
    same one."""
    n = len(ia)
    # Edge soup of the slice's distinct geometries, built once: rows
    # x1, y1, x2, y2 of ``soup``, edge boxes ``lo`` / ``hi`` (x row, y row).
    # The rings' vertices lie back to back, so soup column c is the edge
    # from vertex c to vertex c + 1: ring g's n edges start at its vertex 0,
    # column ``first[g]``, and the column after them, which joins two
    # rings, is never read.
    used = np.zeros(len(rings), dtype=bool)
    used[ia] = used[ib] = True
    slot = used.cumsum() - 1
    ia, ib = slot[ia], slot[ib]
    rings = [rings[g] for g in np.nonzero(used)[0].tolist()]
    size = np.fromiter(map(len, rings), dtype=np.intp, count=len(rings))
    first = size.cumsum() - size
    count = size - 1
    verts = np.concatenate(rings).T
    soup = np.empty((4, verts.shape[1] - 1))
    soup[:2] = verts[:, :-1]
    soup[2:] = verts[:, 1:]
    lo = np.minimum(soup[:2], soup[2:])
    hi = np.maximum(soup[:2], soup[2:])
    # Per-ring bounds: identical floats to each polygon's stored MBR.
    mbr_lo = np.minimum.reduceat(verts, first, axis=1)
    mbr_hi = np.maximum.reduceat(verts, first, axis=1)
    a_lo, a_hi = mbr_lo.take(ia, axis=1), mbr_hi.take(ia, axis=1)
    b_lo, b_hi = mbr_lo.take(ib, axis=1), mbr_hi.take(ib, axis=1)
    meet = ((a_lo <= b_hi) & (b_lo <= a_hi)).all(axis=0)
    if dist:
        near = ((a_lo - dist <= b_hi) & (b_lo <= a_hi + dist)).all(axis=0)
        # An edge pair within ``dist`` has boxes within ``dist`` up to the
        # rounding of the distance expressions; the slack dwarfs that at
        # any coordinate magnitude.
        tol = dist + EPSILON * max(1.0, float(np.abs(verts).max()))
    else:
        near, tol = meet, EPSILON
    found = np.zeros(n, dtype=bool)
    act = np.nonzero(near)[0]
    if act.size:
        # Clip both sides at once: entries 0..P-1 are the pairs' a sides,
        # P..2P-1 their b sides, against the same P windows.
        w_lo = np.maximum(a_lo, b_lo).take(act, axis=1)
        w_hi = np.minimum(a_hi, b_hi).take(act, axis=1)
        side = np.concatenate((ia[act], ib[act]))
        c = count[side]
        pid = np.arange(len(side), dtype=np.intp).repeat(c)
        e = first[side].repeat(c) + _ragged_arange(c)
        pw = pid % act.size
        keep = ~(
            (w_lo.take(pw, axis=1) - hi.take(e, axis=1) > tol)
            | (lo.take(e, axis=1) - w_hi.take(pw, axis=1) > tol)
        ).any(axis=0)
        e = e[keep]
        kept = np.bincount(pid[keep], minlength=len(side))
        ka, kb = kept[: act.size], kept[act.size :]
        n_a = int(ka.sum())
        found[act] = _edge_pairs_any(soup, lo, hi, e[:n_a], ka, e[n_a:], kb, tol, dist)
    # Still undecided: one polygon may contain the other outright — a's
    # first vertex in b, or b's in a (soup column ``first[g]`` starts at
    # vertex 0).
    rings_of = (soup, first, count, mbr_lo, mbr_hi)
    und = np.nonzero(meet & ~found)[0]
    if und.size:
        start = soup[:2]
        found[und] = _soup_rings_contain(rings_of, ib[und], start.take(first[ia[und]], axis=1))
        und = und[~found[und]]
        found[und] = _soup_rings_contain(rings_of, ia[und], start.take(first[ib[und]], axis=1))
    return near & found


def _soup_rings_contain(rings_of, gi, pts):
    """Batch ``Ring.contains_point``: point ``pts[:, k]`` against the ring
    of soup geometry ``gi[k]`` — MBR gate, boundary pre-check, ray cast."""
    soup, first, count, mbr_lo, mbr_hi = rings_of
    res = np.zeros(len(gi), dtype=bool)
    inside = (mbr_lo.take(gi, axis=1) <= pts) & (pts <= mbr_hi.take(gi, axis=1))
    sel = np.nonzero(inside.all(axis=0))[0]
    if sel.size:
        on, odd = _soup_ring_hits(soup, first[gi[sel]], count[gi[sel]], pts.take(sel, axis=1))
        res[sel] = on | odd
    return res


def _soup_ring_hits(soup, first, count, pts):
    """Point ``pts[:, k]`` against the ``count[k]`` soup edges from column
    ``first[k]``: is it on one (``on_segment``), and does the ray cast of
    ``Ring.contains_point`` cross an odd number of them?"""
    pid = np.arange(len(first)).repeat(count)
    sx, sy = pts.take(pid, axis=1)
    # A soup edge runs from the ray cast's predecessor vertex j to vertex i.
    xj, yj, xi, yi = soup.take(first.repeat(count) + _ragged_arange(count), axis=1)
    dqx, dqy = xi - xj, yi - yj
    pos, neg = _orient_signs(dqx, dqy, np.abs(dqx) + np.abs(dqy), sx - xj, sy - yj)
    z = np.nonzero(~(pos | neg))[0]
    on = np.zeros(len(first), dtype=bool)
    on[pid[z[_bounds_arr(sx[z], sy[z], xj[z], yj[z], xi[z], yi[z])]]] = True
    cond = (yi > sy) != (yj > sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = (xj - xi) * (sy - yi) / (yj - yi) + xi
    crossings = np.bincount(pid[cond & (sx < x_cross)], minlength=len(first))
    return on, (crossings & 1).astype(bool)


def _edge_pairs_any(soup, lo, hi, ea, ka, eb, kb, tol, dist: float):
    """Per pair: does any kept a-edge × kept b-edge pair qualify?

    ``ea`` / ``eb`` hold each pair's kept soup edges back to back
    (``ka`` / ``kb`` of them).  The ragged cross product is expanded in
    chunks of at most ``_PAIR_SLICE_ELEMS`` edge pairs.
    """
    found = np.zeros(len(ka), dtype=bool)
    pa = np.arange(len(ka), dtype=np.intp).repeat(ka)
    rep = kb[pa]  # every kept a-edge meets each of its pair's kept b-edges
    ends = rep.cumsum()
    b_first = kb.cumsum() - kb
    start, n_a = 0, len(pa)
    while start < n_a:
        done = int(ends[start] - rep[start])
        end = max(start + 1, int(np.searchsorted(ends, done + _PAIR_SLICE_ELEMS, "right")))
        r = rep[start:end]
        pid = pa[start:end].repeat(r)
        ai = ea[start:end].repeat(r)
        bi = eb[b_first[pid] + _ragged_arange(r)]
        start = end
        # The definition's box reject, at the pair's tolerance.
        near = ~(
            (lo.take(bi, axis=1) - hi.take(ai, axis=1) > tol)
            | (lo.take(ai, axis=1) - hi.take(bi, axis=1) > tol)
        ).any(axis=0)
        pid, ai, bi = pid[near], ai[near], bi[near]
        if not pid.size:
            continue
        ends_ab = (*soup.take(ai, axis=1), *soup.take(bi, axis=1))
        if not dist:
            found[pid[_orient_tests(*ends_ab)[0]]] = True
            continue
        # ``segment_segment_distance_sq <= dist**2``: an endpoint within
        # ``dist`` settles it, and so the pair; only edge pairs of still
        # open pairs whose endpoints are all farther can owe it to a crossing.
        found[pid[_endpoint_distance_sq_cols(*ends_ab) <= dist * dist]] = True
        far = np.nonzero(~found[pid])[0]
        if far.size:
            found[pid[far[_intersect_cols(*(v[far] for v in ends_ab))]]] = True
    return found


def evaluate_predicate_pairs(
    geoms_a: Sequence[Geometry],
    geoms_b: Sequence[Geometry],
    mask: str,
    distance: float = 0.0,
) -> Optional[List[bool]]:
    """Evaluate a join predicate for a whole candidate array at once.

    Pair ``k`` is ``(geoms_a[k], geoms_b[k])``, each a :class:`Geometry` or
    a :class:`~repro.geometry.packed.PackedRing`.  Returns ``None`` when the
    mask is outside the batchable subset (the caller then falls back to
    scalar evaluation).  Supported: the within-distance predicate
    (``distance > 0``) and the intersection masks ``ANYINTERACT`` /
    ``INTERSECT`` (including ``+``-unions of the two).  Results are
    bit-identical to ``JoinPredicate.evaluate``.
    """
    _count("evaluate_predicate_pairs", len(geoms_a))
    return _evaluate_pairs(geoms_a, geoms_b, mask, distance)


def _evaluate_pairs(geoms_a, geoms_b, mask, distance):
    dist = distance if distance and distance > 0.0 else 0.0
    if not dist:
        names = [n.strip() for n in mask.upper().split("+")] if mask else []
        if not names or any(n not in ("ANYINTERACT", "INTERSECT") for n in names):
            return None
    out = _pairs_np(geoms_a, geoms_b, 0.0)
    if dist:
        # ``distance.distance_sq`` is 0 for geometries that intersect, so
        # the intersection verdicts above settle those pairs; the distance
        # pass gets only the rest.
        rest = [k for k, ok in enumerate(out) if not ok]
        far = _pairs_np([geoms_a[k] for k in rest], [geoms_b[k] for k in rest], dist)
        for k, ok in zip(rest, far):
            out[k] = ok
    return out


def evaluate_predicate_batch(
    g1: Geometry,
    geoms: Sequence[Geometry],
    mask: str,
    distance: float = 0.0,
) -> Optional[List[bool]]:
    """``evaluate_predicate_pairs`` for one probe against many candidates
    (window scans, index operators)."""
    _count("evaluate_predicate_batch", len(geoms))
    return _evaluate_pairs([g1] * len(geoms), geoms, mask, distance)
