"""Property-based tests for the quadtree (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.geometry.predicates import contains, intersects
from repro.index.quadtree.codes import TileGrid, morton_decode, morton_encode
from repro.index.quadtree.tessellate import tessellate

GRID = TileGrid(domain=MBR(0, 0, 64, 64), level=4)

coord = st.floats(min_value=0.5, max_value=63.5, allow_nan=False)


@st.composite
def rects(draw):
    x = draw(coord)
    y = draw(coord)
    w = draw(st.floats(min_value=0.1, max_value=20))
    h = draw(st.floats(min_value=0.1, max_value=20))
    return Geometry.rectangle(x, y, min(x + w, 63.9), min(y + h, 63.9))


class TestMortonProperties:
    @given(st.integers(0, 2**14 - 1), st.integers(0, 2**14 - 1))
    def test_encode_decode_inverse(self, ix, iy):
        assert morton_decode(morton_encode(ix, iy)) == (ix, iy)

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_code_uniqueness(self, ix, iy):
        # two distinct cells cannot share a code
        other = (ix + 1, iy)
        assert morton_encode(*other) != morton_encode(ix, iy)

    @given(st.integers(0, 2**12 - 1))
    def test_parent_of_children(self, code):
        from tests.oracles import child_codes, parent_code

        for child in child_codes(code):
            assert parent_code(child) == code


class TestTessellationProperties:
    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_tiles_cover_exactly_the_intersections(self, geom):
        got = {morton_decode(t.code) for t in tessellate(geom, GRID)}
        expected = set()
        for ix in range(GRID.tiles_per_axis):
            for iy in range(GRID.tiles_per_axis):
                tile_geom = Geometry.from_mbr(GRID.tile_mbr(ix, iy))
                if intersects(tile_geom, geom):
                    expected.add((ix, iy))
        assert got == expected

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_interior_tiles_are_sound(self, geom):
        for tile in tessellate(geom, GRID):
            if tile.interior:
                tile_geom = Geometry.from_mbr(GRID.code_mbr(tile.code))
                assert contains(geom, tile_geom)

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_tiles_sorted_unique(self, geom):
        codes = [t.code for t in tessellate(geom, GRID)]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))


class TestQuadtreeWindowProperties:
    @given(st.integers(0, 100_000), rects())
    @settings(max_examples=25, deadline=None)
    def test_window_query_equals_brute_force(self, seed, window):
        from repro import Database
        from repro.datasets import load_geometries
        from repro.index.quadtree.quadtree import QuadtreeIndex

        rng = random.Random(seed)
        geoms = []
        for _ in range(30):
            x, y = rng.uniform(1, 58), rng.uniform(1, 58)
            geoms.append(
                Geometry.rectangle(x, y, x + rng.uniform(0.2, 5), y + rng.uniform(0.2, 5))
            )
        db = Database()
        load_geometries(db, "t", geoms)
        index = QuadtreeIndex(
            "t_q", db.table("t"), "geom", domain=MBR(0, 0, 64, 64), tiling_level=4
        )
        index.create()
        expected = sorted(
            rid for rid, row in db.table("t").scan() if intersects(row[1], window)
        )
        got = sorted(index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
        assert got == expected
