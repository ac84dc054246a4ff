"""Unit tests for planar segment primitives."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.segments import (
    EPSILON,
    on_segment,
    orientation,
    point_segment_distance_sq,
    segment_segment_distance_sq,
    segments_intersect,
)


class TestOrientation:
    def test_counter_clockwise(self):
        assert orientation((0, 0), (1, 0), (1, 1)) == 1

    def test_clockwise(self):
        assert orientation((0, 0), (1, 1), (1, 0)) == -1

    def test_collinear(self):
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_near_collinear_with_large_coordinates(self):
        # Tolerance scales with magnitude: these should still read collinear.
        assert orientation((1e6, 1e6), (2e6, 2e6), (3e6, 3e6)) == 0


class TestOnSegment:
    def test_midpoint(self):
        assert on_segment((1, 1), (0, 0), (2, 2))

    def test_endpoint(self):
        assert on_segment((0, 0), (0, 0), (2, 2))

    def test_collinear_but_outside(self):
        assert not on_segment((3, 3), (0, 0), (2, 2))

    def test_off_line(self):
        assert not on_segment((1, 0), (0, 0), (2, 2))


class TestSegmentsIntersect:
    def test_proper_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_shared_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_t_junction(self):
        assert segments_intersect((0, 0), (2, 0), (1, -1), (1, 0))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_parallel_non_collinear(self):
        assert not segments_intersect((0, 0), (2, 0), (0, 1), (2, 1))


class TestDistances:
    def test_point_to_segment_perpendicular(self):
        assert point_segment_distance_sq((1, 1), (0, 0), (2, 0)) == 1.0

    def test_point_to_segment_beyond_endpoint(self):
        assert point_segment_distance_sq((4, 0), (0, 0), (2, 0)) == 4.0

    def test_point_to_degenerate_segment(self):
        assert point_segment_distance_sq((3, 4), (0, 0), (0, 0)) == 25.0

    def test_segment_distance_intersecting_is_zero(self):
        assert segment_segment_distance_sq((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0

    def test_segment_distance_parallel(self):
        assert segment_segment_distance_sq((0, 0), (2, 0), (0, 3), (2, 3)) == 9.0

    def test_segment_distance_skew(self):
        d = segment_segment_distance_sq((0, 0), (1, 0), (3, 1), (3, 4))
        assert d == pytest.approx(math.hypot(2, 1) ** 2)


# ----------------------------------------------------------------------
# Bounding-box reject: part of the definition of segments_intersect.
# ----------------------------------------------------------------------
def _tolerance_only_intersect(a, b, c, d):
    """segments_intersect as it was before the box reject joined the
    definition: the tolerance-scaled orientations and nothing else."""
    o1, o2 = orientation(a, b, c), orientation(a, b, d)
    o3, o4 = orientation(c, d, a), orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and on_segment(c, a, b))
        or (o2 == 0 and on_segment(d, a, b))
        or (o3 == 0 and on_segment(a, c, d))
        or (o4 == 0 and on_segment(b, c, d))
    )


def _exact_point_segment_sq(p, a, b):
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    t = Fraction(0)
    if denom:
        t = max(Fraction(0), min(Fraction(1), (apx * abx + apy * aby) / denom))
    dx, dy = apx - t * abx, apy - t * aby
    return dx * dx + dy * dy


def _exact_segment_distance_sq(a, b, c, d):
    """Squared distance of two closed segments in exact rational arithmetic."""
    a, b, c, d = (tuple(Fraction(v) for v in p) for p in (a, b, c, d))

    def side(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    s1, s2, s3, s4 = side(a, b, c), side(a, b, d), side(c, d, a), side(c, d, b)
    if s1 * s2 < 0 and s3 * s4 < 0:
        return Fraction(0)  # proper crossing; touching cases fall to the minimum
    return min(
        _exact_point_segment_sq(a, c, d), _exact_point_segment_sq(b, c, d),
        _exact_point_segment_sq(c, a, b), _exact_point_segment_sq(d, a, b),
    )


# Near-collinear pairs far apart along their common line are what the
# tolerance alone gets wrong; the strategy aims straight at them.
_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64)


@st.composite
def near_collinear_segments(draw):
    ox, oy = draw(_unit) * 100, draw(_unit) * 100
    ux, uy = draw(_unit), draw(_unit)
    starts = [draw(st.floats(min_value=-8, max_value=8, allow_nan=False)) for _ in range(4)]
    if draw(st.booleans()):
        starts.sort()  # ab wholly before cd along the line: disjoint unless they touch
    wobble = [draw(_unit) * draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-8, 1e-6])) for _ in range(4)]
    return tuple(
        (ox + t * ux - w * uy, oy + t * uy + w * ux) for t, w in zip(starts, wobble)
    )


class TestBoundingBoxReject:
    # boxes 0.136 apart, yet every orientation is within tolerance of zero
    REPRODUCER = (
        (0.0, 0.0), (1.0, 1.0),
        (1.1363961044043247, 1.136396101731461),
        (4.671930017761683, 4.671930000239578),
    )

    def test_reproducer(self):
        a, b, c, d = self.REPRODUCER
        assert _tolerance_only_intersect(a, b, c, d)  # the old false positive
        assert not segments_intersect(a, b, c, d)
        assert not segments_intersect(c, d, a, b)
        assert math.sqrt(segment_segment_distance_sq(a, b, c, d)) == pytest.approx(
            math.hypot(c[0] - b[0], c[1] - b[1])
        )

    def test_boxes_exactly_epsilon_apart_are_not_rejected(self):
        assert segments_intersect((-1.0, 0.0), (0.0, 0.0), (EPSILON, 0.0), (1.0, 0.0))
        assert not segments_intersect((-1.0, 0.0), (0.0, 0.0), (2 * EPSILON, 0.0), (1.0, 0.0))

    @settings(max_examples=300, deadline=None)
    @given(near_collinear_segments())
    def test_only_false_positives_change(self, segs):
        a, b, c, d = segs
        old = _tolerance_only_intersect(a, b, c, d)
        new = segments_intersect(a, b, c, d)
        assert new == segments_intersect(c, d, a, b)
        if not old:
            assert not new
        if old != new:
            eps_sq = Fraction(EPSILON) ** 2
            assert _exact_segment_distance_sq(a, b, c, d) > eps_sq
