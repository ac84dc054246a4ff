"""Linear quadtree tile codes (Morton / Z-order encoding).

A fixed tiling level L partitions the index domain into a 2^L x 2^L grid.
Each tile gets a Morton code — its x/y indices bit-interleaved — so that
the four children of any quadtree quadrant occupy a contiguous code range.
That contiguity is what makes a B-tree on tile codes behave like a
quadtree: quadrant queries become key-range scans.

``TileGrid`` fixes a domain MBR and a level and converts between tile
indices, codes, and tile MBRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.errors import IndexBuildError
from repro.geometry.mbr import MBR

__all__ = [
    "morton_encode",
    "morton_decode",
    "TileGrid",
]

MAX_LEVEL = 28  # 2^28 per axis: far beyond any tiling level in use


def _spread_bits(v: int) -> int:
    """Interleave zeros between the bits of ``v`` (supports MAX_LEVEL bits)."""
    result = 0
    for i in range(MAX_LEVEL):
        result |= (v & (1 << i)) << i
    return result


def _squash_bits(v: int) -> int:
    """Inverse of :func:`_spread_bits` for even-position bits."""
    result = 0
    for i in range(MAX_LEVEL):
        result |= ((v >> (2 * i)) & 1) << i
    return result


def morton_encode(ix: int, iy: int) -> int:
    """Z-order code of tile (ix, iy): x in even bit positions, y in odd."""
    if ix < 0 or iy < 0:
        raise IndexBuildError(f"negative tile index ({ix}, {iy})")
    return _spread_bits(ix) | (_spread_bits(iy) << 1)


def morton_decode(code: int) -> Tuple[int, int]:
    """Tile indices (ix, iy) for a Z-order code."""
    if code < 0:
        raise IndexBuildError(f"negative tile code {code}")
    return _squash_bits(code), _squash_bits(code >> 1)


@dataclass(frozen=True)
class TileGrid:
    """A fixed-level tiling of a square index domain.

    The domain is the MBR recorded in the index metadata (Oracle's
    dimension bounds).  Non-square domains are handled by tiling the
    bounding square of the domain; tiles outside the domain simply never
    receive data.
    """

    domain: MBR
    level: int

    def __post_init__(self) -> None:
        if self.level < 0 or self.level > MAX_LEVEL:
            raise IndexBuildError(f"tiling level {self.level} outside [0, {MAX_LEVEL}]")
        if self.domain.is_empty or self.domain.area == 0.0:
            raise IndexBuildError("tile grid domain must have positive area")

    @property
    def tiles_per_axis(self) -> int:
        return 1 << self.level

    @property
    def side(self) -> float:
        """Side length of the (square) tiled region."""
        return max(self.domain.width, self.domain.height)

    @property
    def tile_size(self) -> float:
        return self.side / self.tiles_per_axis

    def tile_index(self, x: float, y: float) -> Tuple[int, int]:
        """Tile indices of the tile containing (x, y), clamped to the grid."""
        n = self.tiles_per_axis
        ix = int((x - self.domain.min_x) / self.tile_size)
        iy = int((y - self.domain.min_y) / self.tile_size)
        return min(max(ix, 0), n - 1), min(max(iy, 0), n - 1)

    def tile_mbr(self, ix: int, iy: int) -> MBR:
        size = self.tile_size
        x0 = self.domain.min_x + ix * size
        y0 = self.domain.min_y + iy * size
        return MBR(x0, y0, x0 + size, y0 + size)

    def code(self, ix: int, iy: int) -> int:
        n = self.tiles_per_axis
        if not (0 <= ix < n and 0 <= iy < n):
            raise IndexBuildError(f"tile ({ix}, {iy}) outside {n}x{n} grid")
        return morton_encode(ix, iy)

    def code_mbr(self, code: int) -> MBR:
        ix, iy = morton_decode(code)
        return self.tile_mbr(ix, iy)

    def quadrant_bounds(
        self, level: int, ix: int, iy: int
    ) -> Tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` of a quadrant at an intermediate
        level (0 = the whole tiled square)."""
        size = self.side / (1 << level)
        x0 = self.domain.min_x + ix * size
        y0 = self.domain.min_y + iy * size
        return x0, y0, x0 + size, y0 + size

    def quadrant_mbr(self, level: int, ix: int, iy: int) -> MBR:
        """:meth:`quadrant_bounds` as an :class:`MBR`."""
        return MBR(*self.quadrant_bounds(level, ix, iy))

    def covering_indices(self, mbr: MBR) -> Tuple[int, int, int, int]:
        """Inclusive (ix_lo, iy_lo, ix_hi, iy_hi) tile ranges touching ``mbr``."""
        ix_lo, iy_lo = self.tile_index(mbr.min_x, mbr.min_y)
        ix_hi, iy_hi = self.tile_index(mbr.max_x, mbr.max_y)
        return ix_lo, iy_lo, ix_hi, iy_hi

    def tiles_touching(self, mbr: MBR) -> Iterator[int]:
        """Codes of every fixed-level tile whose MBR intersects ``mbr``."""
        ix_lo, iy_lo, ix_hi, iy_hi = self.covering_indices(mbr)
        for ix in range(ix_lo, ix_hi + 1):
            for iy in range(iy_lo, iy_hi + 1):
                yield morton_encode(ix, iy)
