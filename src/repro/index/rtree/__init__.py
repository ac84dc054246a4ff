"""R-tree spatial index: dynamic tree, STR bulk load, join cursor, kNN."""

from repro.index.rtree.bulkload import merge_subtrees, str_pack
from repro.index.rtree.join import CandidatePair, RTreeJoinCursor
from repro.index.rtree.knn import incremental_nearest
from repro.index.rtree.node import Entry, RTreeNode
from repro.index.rtree.rtree import DEFAULT_FANOUT, RTree
from repro.index.rtree.spatial_index import RTreeIndex

__all__ = [
    "RTree",
    "RTreeNode",
    "Entry",
    "DEFAULT_FANOUT",
    "str_pack",
    "merge_subtrees",
    "RTreeJoinCursor",
    "CandidatePair",
    "incremental_nearest",
    "RTreeIndex",
]
