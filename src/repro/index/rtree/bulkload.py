"""R-tree bulk loading: STR packing and the subtree merge.

``str_pack`` is Sort-Tile-Recursive (Leutenegger et al.), the clustering
step the paper's parallel R-tree creation uses on each data partition;
``merge_subtrees`` is its final serial step.  The recipe that drives both
(§5: parallel table-function workers load MBRs and cluster a subtree per
partition) is :func:`repro.core.index_build.create_rtree_parallel`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import IndexBuildError
from repro.engine.parallel import WorkerContext
from repro.geometry.mbr import MBR, union_all
from repro.index.rtree.node import Entry, RTreeNode, entry_coords
from repro.index.rtree.rtree import DEFAULT_FANOUT, RTree
from repro.storage.heap import RowId

__all__ = ["str_pack", "merge_subtrees"]

LoadedEntry = Tuple[MBR, RowId]


def str_pack(
    entries: Sequence[LoadedEntry],
    fanout: int = DEFAULT_FANOUT,
    fill: float = 0.7,
    ctx: Optional[WorkerContext] = None,
) -> RTree:
    """Bulk-load an R-tree with Sort-Tile-Recursive packing.

    ``fill`` is the target node occupancy (fraction of ``fanout``).
    Charges ``sort_per_item`` (n log n) and ``cluster_per_entry`` work.
    """
    if not 0.3 <= fill <= 1.0:
        raise IndexBuildError(f"fill factor {fill} outside [0.3, 1.0]")
    tree = RTree(fanout=fanout)
    if not entries:
        return tree
    node_cap = max(2, int(fanout * fill))

    leaf_entries = [Entry(mbr, rowid=rowid) for mbr, rowid in entries]
    level_nodes = _str_level(
        leaf_entries, node_cap, 0, ctx, tree.min_entries, fanout
    )
    level = 0
    while len(level_nodes) > 1:
        level += 1
        parent_entries = [Entry(n.mbr, child=n) for n in level_nodes]
        level_nodes = _str_level(
            parent_entries, node_cap, level, ctx, tree.min_entries, fanout
        )
    tree.root = level_nodes[0]
    tree._size = len(entries)  # noqa: SLF001 - bulk loader is a friend
    return tree


def _str_level(
    entries: List[Entry],
    node_cap: int,
    level: int,
    ctx: Optional[WorkerContext],
    min_entries: int,
    fanout: int,
) -> List[RTreeNode]:
    """Pack one level of nodes from ``entries`` using STR tiling."""
    n = len(entries)
    if ctx is not None:
        ctx.charge("sort_per_item", n * max(1.0, math.log2(max(n, 2))))
        ctx.charge("cluster_per_entry", n)
        # Each packed node is written exactly once (sequential I/O).
        ctx.charge("page_write", max(1.0, n / max(node_cap, 1)))
    if n <= node_cap:
        return [RTreeNode(level=level, entries=list(entries))]

    num_nodes = math.ceil(n / node_cap)
    num_slices = math.ceil(math.sqrt(num_nodes))
    slice_size = math.ceil(n / num_slices) if num_slices else n
    # Round slice size up to a node multiple so slices cut on node edges.
    slice_size = math.ceil(slice_size / node_cap) * node_cap

    # Sort index vectors over the flat-array coordinate layout: the STR
    # center keys (min+max, monotone in the center) come from packed float
    # vectors instead of per-entry MBR.center property calls.
    x0, y0, x1, y1 = entry_coords(entries)
    by_x = sorted(range(n), key=lambda i: x0[i] + x1[i])
    nodes: List[RTreeNode] = []
    for s in range(0, n, slice_size):
        strip = sorted(by_x[s : s + slice_size], key=lambda i: y0[i] + y1[i])
        for t in range(0, len(strip), node_cap):
            nodes.append(
                RTreeNode(
                    level=level,
                    entries=[entries[i] for i in strip[t : t + node_cap]],
                )
            )
    return rebalance_level(nodes, min_entries=min_entries, fanout=fanout)


def rebalance_level(
    nodes: List[RTreeNode], min_entries: int, fanout: int
) -> List[RTreeNode]:
    """Fix underfull nodes in a packed level by borrowing from neighbours.

    STR tiling can leave the last node of a strip (and the last strip)
    arbitrarily small; a merged forest can contribute small subtree roots.
    Each underfull node is combined with its predecessor: merged outright
    when the pair fits in one node, otherwise split evenly (both halves
    then satisfy the minimum because the pair exceeded the fanout).
    """
    if len(nodes) <= 1:
        return nodes
    result: List[RTreeNode] = []
    for node in nodes:
        if result and len(node.entries) < min_entries:
            prev = result[-1]
            combined = prev.entries + node.entries
            if len(combined) <= fanout:
                prev.entries = combined
                prev.invalidate_coords()
            else:
                split = len(combined) // 2
                prev.entries = combined[:split]
                prev.invalidate_coords()
                node.entries = combined[split:]
                node.invalidate_coords()
                result.append(node)
        else:
            result.append(node)
    # A leading underfull node is handled by a final right-to-left pass.
    if len(result) >= 2 and len(result[0].entries) < min_entries:
        first, second = result[0], result[1]
        combined = first.entries + second.entries
        if len(combined) <= fanout:
            second.entries = combined
            second.invalidate_coords()
            result.pop(0)
        else:
            split = len(combined) // 2
            first.entries = combined[:split]
            first.invalidate_coords()
            second.entries = combined[split:]
            second.invalidate_coords()
    return result


def merge_subtrees(
    subtrees: Sequence[RTree],
    fanout: int = DEFAULT_FANOUT,
    fill: float = 0.7,
    ctx: Optional[WorkerContext] = None,
) -> RTree:
    """Merge independently built subtrees into one R-tree (serial tail).

    Taller trees are descended to the height of the shortest so all merged
    roots sit at one level, then upper levels are packed over those roots.
    This is the "merged at the end" step of the paper's parallel R-tree
    creation.
    """
    nonempty = [t for t in subtrees if len(t) > 0]
    if not nonempty:
        return RTree(fanout=fanout)
    if len(nonempty) == 1:
        return nonempty[0]

    min_root_level = min(t.root.level for t in nonempty)
    roots: List[RTreeNode] = []
    for t in nonempty:
        roots.extend(t.root.descend(t.root.level - min_root_level))

    merged_proto = RTree(fanout=fanout)  # for the min-occupancy policy
    node_cap = max(2, int(fanout * fill))
    # Subtree roots were legal as roots but may be underfull as interior
    # nodes; rebalance them among their (same-level) siblings first.
    level_nodes = rebalance_level(roots, merged_proto.min_entries, fanout)
    level = min_root_level
    while len(level_nodes) > 1:
        level += 1
        parent_entries = [Entry(n.mbr, child=n) for n in level_nodes]
        level_nodes = _str_level(
            parent_entries, node_cap, level, ctx, merged_proto.min_entries, fanout
        )

    merged = RTree(fanout=fanout)
    merged.root = level_nodes[0]
    merged._size = sum(len(t) for t in nonempty)  # noqa: SLF001
    return merged
