"""The paper's contribution: spatial_join table function, parallel index
creation, plus the nested-loop baseline it is compared against."""

from repro.core.index_build import (
    BuildReport,
    MbrLoadFunction,
    TessellateFunction,
    create_quadtree_parallel,
    create_rtree_parallel,
)
from repro.core.nested_loop import nested_loop_join
from repro.core.parallel_join import JoinResult, parallel_spatial_join, spatial_join
from repro.core.secondary_filter import FetchOrder, JoinPredicate, SecondaryFilter
from repro.core.spatial_join import (
    DEFAULT_CANDIDATE_ARRAY_SIZE,
    JoinStats,
    SpatialJoinFunction,
)
from repro.core.subtree import (
    SubtreeRootFunction,
    pick_descent_level,
    subtree_pairs,
    subtree_roots,
)
from repro.engine.table import GeometryCache

__all__ = [
    "SpatialJoinFunction",
    "JoinStats",
    "DEFAULT_CANDIDATE_ARRAY_SIZE",
    "JoinPredicate",
    "FetchOrder",
    "GeometryCache",
    "SecondaryFilter",
    "spatial_join",
    "parallel_spatial_join",
    "JoinResult",
    "nested_loop_join",
    "SubtreeRootFunction",
    "subtree_roots",
    "subtree_pairs",
    "pick_descent_level",
    "BuildReport",
    "TessellateFunction",
    "MbrLoadFunction",
    "create_quadtree_parallel",
    "create_rtree_parallel",
]
