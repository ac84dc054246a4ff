"""The dynamic R-tree (Guttman insert/delete with quadratic split).

The tree stores ``(MBR, rowid)`` pairs at its leaves.  Every node visit and
every MBR comparison is charged to the :class:`WorkerContext` when one is
supplied, so searches and joins produce simulated-time costs.

Height bookkeeping: a node's ``level`` is its height above the leaves
(leaves are level 0); the tree's ``height`` is ``root.level + 1``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import IndexBuildError
from repro.engine.parallel import WorkerContext
from repro.geometry import kernels
from repro.geometry.mbr import EMPTY_MBR, MBR, union_all
from repro.index.rtree.node import Entry, RTreeNode
from repro.storage.heap import RowId

__all__ = ["RTree"]

DEFAULT_FANOUT = 32


class RTree:
    """Dynamic R-tree over (MBR, rowid) entries."""

    def __init__(self, fanout: int = DEFAULT_FANOUT):
        if fanout < 4:
            raise IndexBuildError(f"fanout must be >= 4, got {fanout}")
        self.fanout = fanout
        self.min_entries = max(2, (fanout * 2) // 5)  # 40% fill floor
        self.root = RTreeNode(level=0)
        self._size = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self.root.level + 1

    @property
    def mbr(self) -> MBR:
        return self.root.mbr

    def node_count(self) -> int:
        def count(node: RTreeNode) -> int:
            return 1 + sum(count(c) for c in node.children())

        return count(self.root)

    def leaf_entries(self) -> Iterator[Tuple[MBR, RowId]]:
        """Yield every (mbr, rowid) stored in the tree."""

        def walk(node: RTreeNode) -> Iterator[Tuple[MBR, RowId]]:
            if node.is_leaf:
                for e in node.entries:
                    assert e.rowid is not None
                    yield e.mbr, e.rowid
            else:
                for child in node.children():
                    yield from walk(child)

        yield from walk(self.root)

    def subtree_roots(self, levels_down: int) -> List[RTreeNode]:
        """Nodes ``levels_down`` below the root (the paper's subtree_root)."""
        return self.root.descend(levels_down)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(
        self, mbr: MBR, rowid: RowId, ctx: Optional[WorkerContext] = None
    ) -> None:
        if mbr.is_empty:
            raise IndexBuildError("cannot index an empty MBR")
        entry = Entry(mbr, rowid=rowid)
        if ctx is not None:
            # A dynamic insert dirties the whole root-to-leaf path (leaf
            # write + ancestor MBR adjustments) — the write amplification
            # that bulk loading avoids.
            ctx.charge("page_write", self.height)
        split = self._insert_at(self.root, entry, level=0, ctx=ctx)
        if split is not None:
            old_root = self.root
            self.root = RTreeNode(
                level=old_root.level + 1,
                entries=[
                    Entry(old_root.mbr, child=old_root),
                    Entry(split.mbr, child=split),
                ],
            )
        self._size += 1

    def _insert_at(
        self,
        node: RTreeNode,
        entry: Entry,
        level: int,
        ctx: Optional[WorkerContext],
    ) -> Optional[RTreeNode]:
        """Insert ``entry`` into the subtree; return a split sibling if any."""
        if ctx is not None:
            ctx.charge("rtree_node_visit")
        if node.level == level:
            node.entries.append(entry)
            node.invalidate_coords()
            if len(node.entries) > self.fanout:
                return self._split(node, ctx)
            return None
        child_entry = self._choose_subtree(node, entry.mbr, ctx)
        split = self._insert_at(child_entry.child, entry, level, ctx)  # type: ignore[arg-type]
        child_entry.mbr = child_entry.child.mbr  # type: ignore[union-attr]
        node.invalidate_coords()  # entry MBR changed in place
        if split is not None:
            node.entries.append(Entry(split.mbr, child=split))
            if len(node.entries) > self.fanout:
                return self._split(node, ctx)
        return None

    def _choose_subtree(
        self, node: RTreeNode, mbr: MBR, ctx: Optional[WorkerContext]
    ) -> Entry:
        """Least-enlargement child (ties: smaller area), on plain floats."""
        entries = node.entries
        if ctx is not None:
            ctx.charge("mbr_test", len(entries))
        x0, y0, x1, y1 = mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y
        best = entries[0]
        best_enlargement = best_area = math.inf
        for entry in entries:
            m = entry.mbr
            ex0, ey0, ex1, ey1 = m.min_x, m.min_y, m.max_x, m.max_y
            area = (ex1 - ex0) * (ey1 - ey0)
            enlargement = _grown_area(ex0, ey0, ex1, ey1, x0, y0, x1, y1) - area
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best_enlargement = enlargement
                best_area = area
                best = entry
        return best

    def _split(
        self, node: RTreeNode, ctx: Optional[WorkerContext] = None
    ) -> RTreeNode:
        """Guttman quadratic split: returns the new sibling node.

        Seeds come from one numpy pass over the node's coordinate vectors;
        PickNext runs on float tuples.  Both keep the scalar definition's
        arithmetic order and strict tie rules, so the groups are the ones
        ``MBR.union``/``MBR.enlargement`` would choose.
        """
        entries = node.entries
        if ctx is not None:
            # Quadratic seed picking compares every entry pair, and the
            # split writes two fresh nodes.
            ctx.charge("mbr_test", len(entries) * len(entries))
            ctx.charge("page_write", 2)
        coords = node.coords()
        seed_a, seed_b = _pick_seeds(coords)
        boxes = list(zip(*coords))
        group_a = [seed_a]
        group_b = [seed_b]
        ax0, ay0, ax1, ay1 = boxes[seed_a]
        bx0, by0, bx1, by1 = boxes[seed_b]
        remaining = [i for i in range(len(entries)) if i not in (seed_a, seed_b)]

        while remaining:
            # Force-assign if one group must absorb the rest to reach min fill.
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.extend(remaining)
                break
            area_a = (ax1 - ax0) * (ay1 - ay0)
            area_b = (bx1 - bx0) * (by1 - by0)
            # PickNext: entry with the largest preference difference.
            best_idx = 0
            best_diff = -1.0
            for n, i in enumerate(remaining):
                x0, y0, x1, y1 = boxes[i]
                diff = abs(
                    _grown_area(ax0, ay0, ax1, ay1, x0, y0, x1, y1) - area_a
                    - (_grown_area(bx0, by0, bx1, by1, x0, y0, x1, y1) - area_b)
                )
                if diff > best_diff:
                    best_diff = diff
                    best_idx = n
            chosen = remaining.pop(best_idx)
            x0, y0, x1, y1 = boxes[chosen]
            d_a = _grown_area(ax0, ay0, ax1, ay1, x0, y0, x1, y1) - area_a
            d_b = _grown_area(bx0, by0, bx1, by1, x0, y0, x1, y1) - area_b
            if (d_a, area_a, len(group_a)) <= (d_b, area_b, len(group_b)):
                group_a.append(chosen)
                ax0, ay0, ax1, ay1 = _union(ax0, ay0, ax1, ay1, x0, y0, x1, y1)
            else:
                group_b.append(chosen)
                bx0, by0, bx1, by1 = _union(bx0, by0, bx1, by1, x0, y0, x1, y1)

        node.entries = [entries[i] for i in group_a]
        node.invalidate_coords()
        return RTreeNode(level=node.level, entries=[entries[i] for i in group_b])

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(
        self, mbr: MBR, rowid: RowId, ctx: Optional[WorkerContext] = None
    ) -> bool:
        """Remove one (mbr, rowid) entry; returns False if not found."""
        orphans: List[Entry] = []
        found = self._delete_from(self.root, mbr, rowid, orphans, ctx)
        if not found:
            return False
        self._size -= 1
        # Shrink the root while it has a single internal child.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child  # type: ignore[assignment]
        # Reinsert entries from dissolved nodes at their original level.
        for orphan in orphans:
            if orphan.is_leaf_entry:
                split = self._insert_at(self.root, orphan, level=0, ctx=ctx)
            else:
                target_level = orphan.child.level + 1  # type: ignore[union-attr]
                if target_level > self.root.level:
                    # Tree shrank below the orphan subtree's height: merge by
                    # reinserting its leaf entries instead.
                    for leaf_mbr, leaf_rowid in _subtree_leaves(orphan.child):  # type: ignore[arg-type]
                        self._size -= 1  # insert() will re-increment
                        self.insert(leaf_mbr, leaf_rowid, ctx)
                    continue
                split = self._insert_at(self.root, orphan, level=target_level, ctx=ctx)
            if split is not None:
                old_root = self.root
                self.root = RTreeNode(
                    level=old_root.level + 1,
                    entries=[
                        Entry(old_root.mbr, child=old_root),
                        Entry(split.mbr, child=split),
                    ],
                )
        return True

    def _delete_from(
        self,
        node: RTreeNode,
        mbr: MBR,
        rowid: RowId,
        orphans: List[Entry],
        ctx: Optional[WorkerContext],
    ) -> bool:
        if ctx is not None:
            ctx.charge("rtree_node_visit")
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if ctx is not None:
                    ctx.charge("mbr_test")
                if entry.rowid == rowid and entry.mbr == mbr:
                    node.entries.pop(i)
                    node.invalidate_coords()
                    return True
            return False
        for i, entry in enumerate(node.entries):
            if ctx is not None:
                ctx.charge("mbr_test")
            if not entry.mbr.contains(mbr):
                continue
            child = entry.child
            assert child is not None
            if self._delete_from(child, mbr, rowid, orphans, ctx):
                if len(child.entries) < self.min_entries and node is not None:
                    # Condense: dissolve the underfull child, queue reinserts.
                    node.entries.pop(i)
                    orphans.extend(child.entries)
                else:
                    entry.mbr = child.mbr
                node.invalidate_coords()
                return True
        return False

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self, query: MBR, ctx: Optional[WorkerContext] = None
    ) -> Iterator[Tuple[MBR, RowId]]:
        """Yield (mbr, rowid) for leaf entries whose MBR intersects ``query``.

        Interaction tests run against each node's flat-array coordinate
        vectors (struct-of-arrays layout) through the batch MBR kernel:
        one window probe tests a whole node's entry list in a single
        vectorized call, instead of chasing per-entry MBR objects.
        """
        if self._size == 0 or query.is_empty:
            return
        window = query.as_tuple()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if ctx is not None:
                ctx.charge("rtree_node_visit")
            entries = node.entries
            if ctx is not None:
                ctx.charge("mbr_test", len(entries))
            is_leaf = node.is_leaf
            for i in kernels.mbr_filter_indices(node.coords(), window):
                entry = entries[i]
                if is_leaf:
                    assert entry.rowid is not None
                    yield entry.mbr, entry.rowid
                else:
                    assert entry.child is not None
                    stack.append(entry.child)

    def search_within(
        self, query: MBR, distance: float, ctx: Optional[WorkerContext] = None
    ) -> Iterator[Tuple[MBR, RowId]]:
        """Leaf entries whose MBR is within ``distance`` of ``query``."""
        yield from self.search(query.expand(distance), ctx)

    # ------------------------------------------------------------------
    # Invariants (for property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        count = self._check_node(self.root, is_root=True)
        if count != self._size:
            raise IndexBuildError(f"size mismatch: counted {count}, stored {self._size}")

    def _check_node(self, node: RTreeNode, is_root: bool = False) -> int:
        if len(node.entries) > self.fanout:
            raise IndexBuildError(f"overfull node: {len(node.entries)} > {self.fanout}")
        if not is_root and len(node.entries) < self.min_entries:
            raise IndexBuildError(
                f"underfull node: {len(node.entries)} < {self.min_entries}"
            )
        if node.is_leaf:
            for e in node.entries:
                if e.rowid is None:
                    raise IndexBuildError("leaf entry without rowid")
            return len(node.entries)
        total = 0
        for e in node.entries:
            if e.child is None:
                raise IndexBuildError("internal entry without child")
            if e.child.level != node.level - 1:
                raise IndexBuildError(
                    f"level skew: node level {node.level} has child level {e.child.level}"
                )
            if not e.mbr.contains(e.child.mbr) and e.mbr != e.child.mbr:
                raise IndexBuildError("entry MBR does not cover child MBR")
            total += self._check_node(e.child)
        return total


def _union(ax0, ay0, ax1, ay1, x0, y0, x1, y1):
    """``MBR.union`` of box a with box b, as floats (same min/max picks)."""
    return (
        x0 if x0 < ax0 else ax0,
        y0 if y0 < ay0 else ay0,
        x1 if x1 > ax1 else ax1,
        y1 if y1 > ay1 else ay1,
    )


def _grown_area(ax0, ay0, ax1, ay1, x0, y0, x1, y1) -> float:
    """Area of box a's union with box b: ``a.union(b).area``."""
    return ((x1 if x1 > ax1 else ax1) - (x0 if x0 < ax0 else ax0)) * (
        (y1 if y1 > ay1 else ay1) - (y0 if y0 < ay0 else ay0)
    )


def _pick_seeds(coords) -> Tuple[int, int]:
    """The pair (i < j) with the largest dead space when combined, first in
    row-major order; ``(0, 1)`` when no waste exceeds -1.0.  Waste is
    ``union area - area_i - area_j`` in that order, as ``MBR`` computes it."""
    x0, y0, x1, y1 = (np.frombuffer(c) for c in coords)
    n = len(x0)
    area = (x1 - x0) * (y1 - y0)
    union = (
        np.maximum(x1[:, None], x1[None, :]) - np.minimum(x0[:, None], x0[None, :])
    ) * (np.maximum(y1[:, None], y1[None, :]) - np.minimum(y0[:, None], y0[None, :]))
    waste = union - area[:, None] - area[None, :]
    # Only pairs i < j compete, and a NaN waste never wins a comparison.
    waste[~(_upper_triangle(n) & (waste == waste))] = -math.inf
    flat = int(np.argmax(waste))
    if waste.flat[flat] > -1.0:
        return divmod(flat, n)
    return 0, 1


@lru_cache(maxsize=16)
def _upper_triangle(n: int) -> np.ndarray:
    """The ``i < j`` mask of an ``n``-entry split (shared, read-only)."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _subtree_leaves(node: RTreeNode) -> Iterator[Tuple[MBR, RowId]]:
    if node.is_leaf:
        for e in node.entries:
            assert e.rowid is not None
            yield e.mbr, e.rowid
    else:
        for child in node.children():
            yield from _subtree_leaves(child)
