"""Linear quadtree spatial index: tile codes, tessellation, B-tree index."""

from repro.index.quadtree.codes import (
    TileGrid,
    morton_decode,
    morton_encode,
)
from repro.index.quadtree.join import quadtree_join_candidates, quadtree_tile_join
from repro.index.quadtree.quadtree import DEFAULT_TILING_LEVEL, QuadtreeIndex
from repro.index.quadtree.tessellate import Tile, tessellate

__all__ = [
    "morton_encode",
    "morton_decode",
    "TileGrid",
    "Tile",
    "tessellate",
    "QuadtreeIndex",
    "DEFAULT_TILING_LEVEL",
    "quadtree_tile_join",
    "quadtree_join_candidates",
]
