"""The array-at-a-time pair kernel against its oracle.

``kernels.evaluate_predicate_pairs`` resolves a whole candidate array —
clip each pair's edges to its MBR-intersection window, expand the ragged
edge pairs flat, prune by box, test — and must return exactly what
``JoinPredicate.evaluate`` returns pair by pair.  The
inputs here are the ones a clip or a prune would get wrong: contact on the
window's edge, MBRs that only touch, containment with no crossing,
distances equal to the exact gap.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.secondary_filter import JoinPredicate
from repro.datasets import counties, load_geometries
from repro.geometry import kernels
from repro.geometry.geometry import Geometry

# ----------------------------------------------------------------------
# Shapes on a half-unit grid, so shared borders, vertex-only contact and
# gaps of exactly 0.5 / 1.0 / hypot(0.5, 0.5) happen all the time.
# ----------------------------------------------------------------------
_TEMPLATES = {
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "triangle": [(0, 0), (1, 0), (0, 1)],
    "diamond": [(0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5)],
    "ell": [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)],
    "notch": [(0, 0), (1, 0), (1, 1), (0.5, 0.5), (0, 1)],
    # a repeated vertex is a zero-length edge
    "stutter": [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1)],
}
_grid = st.integers(min_value=-6, max_value=6).map(lambda v: v / 2.0)
_scale = st.sampled_from([0.5, 1.0, 2.0, 4.0])


def _place(template, x, y, k):
    return [(x + k * px, y + k * py) for px, py in template]


@st.composite
def flat_polygons(draw):
    template = _TEMPLATES[draw(st.sampled_from(sorted(_TEMPLATES)))]
    return Geometry.polygon(_place(template, draw(_grid), draw(_grid), draw(_scale)))


@st.composite
def other_geometries(draw):
    """What the flat path must hand to the per-pair fallback."""
    x, y, k = draw(_grid), draw(_grid), draw(_scale)
    kind = draw(st.sampled_from(["point", "line", "holed", "multipoint", "multipolygon"]))
    if kind == "point":
        return Geometry.point(x, y)
    if kind == "line":
        return Geometry.linestring([(x, y), (x + k, y + k), (x + k, y)])
    if kind == "holed":
        outer = _place(_TEMPLATES["square"], x, y, 2 * k)
        hole = _place(_TEMPLATES["square"], x + k / 2, y + k / 2, k)
        return Geometry.polygon(outer, holes=[hole])
    if kind == "multipoint":
        return Geometry.multipoint([(x, y), (x + k, y)])
    return Geometry.multipolygon(
        [(_place(_TEMPLATES["square"], x, y, k), []),
         (_place(_TEMPLATES["triangle"], x + 2 * k, y, k), [])]
    )


@st.composite
def candidate_arrays(draw, geometries):
    """Ordered pairs over a small pool, identity pairs included."""
    pool = draw(st.lists(geometries, min_size=2, max_size=7))
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=24))
    return [pool[i] for i, _ in pairs], [pool[j] for _, j in pairs]


_distances = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, math.hypot(0.5, 0.5)])
_masks = st.sampled_from(["ANYINTERACT", "INTERSECT", "anyinteract + intersect"])


def assert_matches_oracle(geoms_a, geoms_b, mask="ANYINTERACT", dist=0.0):
    want = [JoinPredicate(mask, dist).evaluate(a, b) for a, b in zip(geoms_a, geoms_b)]
    assert kernels.evaluate_predicate_pairs(geoms_a, geoms_b, mask, dist) == want
    return want


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(candidate_arrays(flat_polygons()), _masks, _distances)
    def test_flat_polygon_arrays(self, array, mask, dist):
        assert_matches_oracle(*array, mask, dist)

    @settings(max_examples=100, deadline=None)
    @given(candidate_arrays(st.one_of(flat_polygons(), other_geometries())), _distances)
    def test_mixed_arrays_take_the_fallback(self, array, dist):
        assert_matches_oracle(*array, "ANYINTERACT", dist)

    @settings(max_examples=40, deadline=None)
    @given(candidate_arrays(flat_polygons()), _distances, st.sampled_from([1, 7, 40]))
    def test_slice_and_chunk_boundaries(self, array, dist, cap):
        saved = kernels._PAIR_SLICE_ELEMS
        kernels._PAIR_SLICE_ELEMS = cap  # every slice / chunk split is taken
        try:
            assert_matches_oracle(*array, "ANYINTERACT", dist)
        finally:
            kernels._PAIR_SLICE_ELEMS = saved

    def test_single_probe_entry_point_is_the_pair_kernel(self):
        probe = Geometry.rectangle(0, 0, 2, 2)
        others = [Geometry.rectangle(x / 2, 0.5, x / 2 + 1, 1.5) for x in range(-4, 8)]
        others += [probe, Geometry.point(1, 1), Geometry.point(5, 5)]
        for dist in (0.0, 0.5):
            want = assert_matches_oracle([probe] * len(others), others, "ANYINTERACT", dist)
            assert kernels.evaluate_predicate_batch(probe, others, "ANYINTERACT", dist) == want

    def test_unsupported_mask_declines(self):
        square = Geometry.rectangle(0, 0, 1, 1)
        assert kernels.evaluate_predicate_pairs([square], [square], "TOUCH") is None
        assert kernels.evaluate_predicate_pairs([], [], "ANYINTERACT") == []


class TestAdversarialPairs:
    """One named case per way a window clip or a box prune can go wrong."""

    UNIT = Geometry.rectangle(0, 0, 1, 1)

    def check(self, a, b, expect, dist=0.0):
        both_orders = assert_matches_oracle([a, b], [b, a], "ANYINTERACT", dist)
        assert both_orders == [expect, expect]

    def test_shared_border(self):
        self.check(self.UNIT, Geometry.rectangle(1, 0, 2, 1), True)

    def test_vertex_only_contact(self):
        self.check(self.UNIT, Geometry.rectangle(1, 1, 2, 2), True)

    def test_contact_on_the_clip_window_edge(self):
        # the MBR intersection is the segment x = 1; contact is one point on it
        diamond = Geometry.polygon([(1, 0.5), (1.5, 0), (2, 0.5), (1.5, 1)])
        self.check(self.UNIT, diamond, True)

    def test_mbrs_touch_polygons_do_not(self):
        low = Geometry.polygon([(0, 0), (1, 0), (0, 1)])
        high = Geometry.polygon([(2, 1), (2, 2), (1, 2)])
        self.check(low, high, False)
        gap = math.hypot(1.0, 1.0)  # hypotenuse to hypotenuse
        self.check(low, high, True, dist=gap)
        self.check(low, high, False, dist=math.nextafter(gap, 0.0) - 1e-12)

    def test_containment_without_boundary_crossing(self):
        self.check(Geometry.rectangle(-5, -5, 5, 5), self.UNIT, True)

    def test_overlapping_mbrs_nothing_shared(self):
        ell = Geometry.polygon(_place(_TEMPLATES["ell"], 0, 0, 4))
        self.check(ell, Geometry.rectangle(2.5, 2.5, 3.5, 3.5), False)

    def test_identity_pair(self):
        self.check(self.UNIT, self.UNIT, True)
        self.check(self.UNIT, self.UNIT, True, dist=0.25)

    def test_equal_but_distinct_objects(self):
        self.check(self.UNIT, Geometry.rectangle(0, 0, 1, 1), True)

    def test_zero_length_edges(self):
        stutter = Geometry.polygon(_place(_TEMPLATES["stutter"], 1, 0, 1))
        self.check(self.UNIT, stutter, True)
        self.check(Geometry.rectangle(-2, 0, -1, 1), stutter, False)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_distance_equal_to_the_exact_gap(self, offset):
        a = Geometry.rectangle(offset, 0, offset + 1, 1)
        b = Geometry.rectangle(offset + 1.5, 0, offset + 2.5, 1)
        self.check(a, b, False)
        self.check(a, b, True, dist=0.5)
        self.check(a, b, False, dist=math.nextafter(0.5, 0.0))

    def test_near_collinear_edges_far_apart(self):
        # The segments_intersect reproducer as two slivers: their only
        # "contact" is an edge pair whose boxes are 0.136 apart.
        a = Geometry.polygon([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        b = Geometry.polygon(
            [(1.1363961044043247, 1.136396101731461),
             (4.671930017761683, 4.671930000239578), (4.7, 1.0)]
        )
        self.check(a, b, False)


class TestCountersAndMemory:
    def test_counters_report_the_pair_entry_point(self):
        squares = [Geometry.rectangle(i, 0, i + 1, 1) for i in range(5)]
        kernels.reset_counters()
        kernels.evaluate_predicate_pairs(squares[:-1], squares[1:], "ANYINTERACT")
        kernels.evaluate_predicate_pairs(squares[:2], squares[1:3], "ANYINTERACT", 0.5)
        tally = kernels.counters()
        assert tally["calls"] == {"evaluate_predicate_pairs": 2}
        assert tally["items"] == {"evaluate_predicate_pairs": 6}  # items = pairs

    def test_large_candidate_array_stays_within_budget(self):
        # 4 096 candidates of 2 000-vertex polygons: expanded unsliced, the
        # clip stage alone would index 16 M edge entries (hundreds of MB).
        def ring(cx, cy):
            return Geometry.polygon(
                [(cx + 0.5005 * math.cos(2 * math.pi * k / 2000),
                  cy + 0.5005 * math.sin(2 * math.pi * k / 2000)) for k in range(2000)]
            )

        grid = [[ring(x, y) for x in range(8)] for y in range(8)]
        flat = [g for row in grid for g in row]
        geoms_a, geoms_b = [], []
        while len(geoms_a) < 4096:
            for y in range(8):
                for x in range(7):
                    geoms_a += [grid[y][x], grid[x][y]]
                    geoms_b += [grid[y][x + 1], grid[x + 1][y]]
        del geoms_a[4096:], geoms_b[4096:]
        for g in flat:
            g.exterior.closed_array()  # the per-geometry cache is not the kernel's memory
        tracemalloc.start()
        try:
            got = kernels.evaluate_predicate_pairs(geoms_a, geoms_b, "ANYINTERACT")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == [True] * 4096  # neighbouring discs overlap in a 0.001-wide strip
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_repeated_joins_grow_no_module_level_structure(self):
        db = Database()
        load_geometries(db, "c", counties(60, seed=3, refine=3, extent=(0, 0, 10, 5)))
        db.create_spatial_index("c_idx", "c", "geom", kind="RTREE")

        def module_sizes():
            sizes = {}
            for name, value in vars(kernels).items():
                if isinstance(value, (dict, list, set)):
                    sizes[name] = len(value)
                    if isinstance(value, dict):
                        for key, inner in value.items():
                            if isinstance(inner, (dict, list, set)):
                                sizes[f"{name}.{key}"] = len(inner)
            return sizes

        first = db.spatial_join("c", "geom", "c", "geom")
        before = module_sizes()
        for dist in (0.0, 0.2, 0.0):
            again = db.spatial_join("c", "geom", "c", "geom", distance=dist)
        assert again.pairs == first.pairs
        assert module_sizes() == before
