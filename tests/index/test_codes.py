"""Unit tests for Morton tile codes and the tile grid."""

import pytest

from repro.errors import IndexBuildError
from repro.geometry.mbr import MBR
from repro.index.quadtree.codes import (
    TileGrid,
    morton_decode,
    morton_encode,
)
from tests.oracles import child_codes, descendant_range, parent_code


class TestMorton:
    def test_origin(self):
        assert morton_encode(0, 0) == 0

    def test_known_values(self):
        # x bits even positions, y bits odd: (1,0)->1, (0,1)->2, (1,1)->3
        assert morton_encode(1, 0) == 1
        assert morton_encode(0, 1) == 2
        assert morton_encode(1, 1) == 3
        assert morton_encode(2, 0) == 4

    def test_roundtrip(self):
        for ix in (0, 1, 5, 100, 4095):
            for iy in (0, 3, 77, 2048):
                assert morton_decode(morton_encode(ix, iy)) == (ix, iy)

    def test_negative_rejected(self):
        with pytest.raises(IndexBuildError):
            morton_encode(-1, 0)

    def test_parent_child_relationship(self):
        code = morton_encode(5, 9)
        for child in child_codes(code):
            assert parent_code(child) == code

    def test_children_are_contiguous(self):
        code = morton_encode(3, 4)
        kids = child_codes(code)
        assert kids == (kids[0], kids[0] + 1, kids[0] + 2, kids[0] + 3)

    def test_descendant_range_covers_children(self):
        code = 13
        lo, hi = descendant_range(code, 2)
        for child in child_codes(code):
            for grandchild in child_codes(child):
                assert lo <= grandchild <= hi
        assert hi - lo + 1 == 16  # 4^2 descendants

    def test_morton_z_order_locality(self):
        """Quadrant blocks of the grid occupy contiguous code ranges."""
        level = 3  # 8x8 grid
        sw_codes = sorted(
            morton_encode(ix, iy) for ix in range(4) for iy in range(4)
        )
        assert sw_codes == list(range(16))


class TestTileGrid:
    def make(self, level=3):
        return TileGrid(domain=MBR(0, 0, 8, 8), level=level)

    def test_tile_size(self):
        g = self.make()
        assert g.tiles_per_axis == 8
        assert g.tile_size == 1.0

    def test_tile_index_and_mbr(self):
        g = self.make()
        assert g.tile_index(2.5, 3.5) == (2, 3)
        assert g.tile_mbr(2, 3).as_tuple() == (2, 3, 3, 4)

    def test_tile_index_clamped(self):
        g = self.make()
        assert g.tile_index(-5, -5) == (0, 0)
        assert g.tile_index(100, 100) == (7, 7)

    def test_code_mbr_roundtrip(self):
        g = self.make()
        code = g.code(5, 6)
        assert g.code_mbr(code).as_tuple() == (5, 6, 6, 7)

    def test_code_out_of_grid_rejected(self):
        with pytest.raises(IndexBuildError):
            self.make().code(8, 0)

    def test_quadrant_mbr_hierarchy(self):
        g = self.make()
        whole = g.quadrant_mbr(0, 0, 0)
        assert whole.as_tuple() == (0, 0, 8, 8)
        sw = g.quadrant_mbr(1, 0, 0)
        assert sw.as_tuple() == (0, 0, 4, 4)
        assert whole.contains(sw)

    def test_tiles_touching(self):
        g = self.make()
        codes = list(g.tiles_touching(MBR(0.5, 0.5, 2.5, 1.5)))
        assert len(codes) == 3 * 2  # x tiles 0..2, y tiles 0..1

    def test_non_square_domain_uses_bounding_square(self):
        g = TileGrid(domain=MBR(0, 0, 16, 8), level=2)
        assert g.side == 16
        assert g.tile_size == 4.0

    def test_invalid_grid(self):
        with pytest.raises(IndexBuildError):
            TileGrid(domain=MBR(0, 0, 1, 1), level=-1)
        with pytest.raises(IndexBuildError):
            TileGrid(domain=MBR(1, 1, 1, 1), level=3)
