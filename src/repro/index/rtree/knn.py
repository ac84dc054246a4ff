"""Best-first k-nearest-neighbour search over an R-tree.

Not part of the paper's experiments, but part of the index's public
contract (Oracle Spatial exposes ``sdo_nn`` through the same indextype);
implemented with the standard Hjaltason–Samet priority-queue traversal.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

from repro.engine.parallel import WorkerContext
from repro.index.rtree.rtree import RTree
from repro.storage.heap import RowId

__all__ = ["incremental_nearest"]


def incremental_nearest(
    tree: RTree,
    x: float,
    y: float,
    ctx: Optional[WorkerContext] = None,
) -> Iterator[Tuple[float, RowId]]:
    """Yield (mbr_distance, rowid) in non-decreasing distance order.

    Distances are to the leaf entry MBRs — the index-level ranking.  An
    exact-geometry refinement belongs to the caller (the operator layer),
    mirroring the primary/secondary filter split used everywhere else.
    """
    if len(tree) == 0:
        return
    counter = itertools.count()  # tie-breaker: heap entries must never compare nodes
    heap: List[Tuple[float, int, object]] = [
        (tree.root.mbr.distance_to_point(x, y), next(counter), tree.root)
    ]
    while heap:
        dist, _tick, item = heapq.heappop(heap)
        if isinstance(item, tuple):
            yield dist, item[1]
            continue
        node = item
        if ctx is not None:
            ctx.charge("rtree_node_visit")
        for entry in node.entries:  # type: ignore[attr-defined]
            if ctx is not None:
                ctx.charge("mbr_test")
            d = entry.mbr.distance_to_point(x, y)
            if entry.child is not None:
                heapq.heappush(heap, (d, next(counter), entry.child))
            else:
                heapq.heappush(heap, (d, next(counter), ("leaf", entry.rowid)))
