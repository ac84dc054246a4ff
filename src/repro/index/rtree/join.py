"""Synchronized R-tree traversal join (the primary filter of spatial join).

:class:`RTreeJoinCursor` performs the index-index join of two R-trees and
is *resumable*: each call to :meth:`next_candidates` returns up to N
candidate rowid pairs and preserves traversal state (a stack of node
pairs), which is exactly what the spatial_join table function's fetch
interface needs (paper §4.2 — "the spatial join processing is resumed
using the contents of the stack").

The interaction test at every level is MBR-vs-MBR, optionally with a
distance slack so the same traversal serves both ``INTERSECT`` and
``WITHIN_DISTANCE`` joins.

Primary-filter strategies
-------------------------

Within each node pair the interacting entry pairs can be found two ways,
selected by :class:`JoinStrategy`:

* ``NESTED`` — the naive O(|A|·|B|) double loop over the entry lists (the
  original policy, kept as the ablation baseline).
* ``SWEEP`` — sort-based plane sweep with *space restriction* (Brinkhoff
  et al.; Tsitsigkos et al., "Parallel In-Memory Evaluation of Spatial
  Joins"): both entry lists are first clipped to the distance-expanded
  intersection of the parent MBRs, then sorted by min-x and swept, testing
  only pairs whose x-ranges interact — O(n log n + k) instead of O(n·m).
  The sweep reads the node's flat-array (struct-of-arrays) coordinate
  vectors (:meth:`RTreeNode.coords`), comparing raw floats instead of
  chasing ``Entry → MBR`` attribute chains.

Both policies emit exactly the same candidate set; only the work done to
find it differs, which the cost counters (``mbr_test``,
``sweep_sort_per_item``, ``sweep_pair_emit``) make visible in simulated
time.  ``GRID`` is not a pairing policy but a decomposition of the whole
join (:func:`repro.core.parallel_join.grid_parallel_join`); the cursor
refuses it.  Its per-tile sweep is :func:`plane_sweep`, the loop SWEEP
runs inside node pairs.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.parallel import WorkerContext
from repro.errors import JoinError
from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.index.rtree.node import RTreeNode
from repro.storage.heap import RowId

__all__ = ["CandidatePair", "JoinStrategy", "RTreeJoinCursor", "plane_sweep"]

# (rowid_a, rowid_b, mbr_a, mbr_b)
CandidatePair = Tuple[RowId, RowId, MBR, MBR]

# (min_x, min_y, max_x, max_y) coordinate vectors of one side of a sweep
Coords = Tuple[Sequence[float], Sequence[float], Sequence[float], Sequence[float]]


class JoinStrategy(enum.Enum):
    """How a spatial join finds its candidate pairs."""

    NESTED = "NESTED"  # O(|A|·|B|) double loop (the naive baseline)
    SWEEP = "SWEEP"  # sort-based plane sweep with space restriction
    GRID = "GRID"  # uniform-grid partitioning + per-tile sweep with
    # two-layer duplicate avoidance (space-oriented, not tree-oriented)

    @classmethod
    def of(cls, value) -> "JoinStrategy":
        """``value`` itself, or the strategy it names in any case."""
        if isinstance(value, cls):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            raise JoinError(
                f"unknown join strategy {value!r}; expected one of "
                f"{', '.join(s.name for s in cls)}"
            ) from None


def plane_sweep(
    a: Coords,
    ia: Sequence[int],
    b: Coords,
    ib: Sequence[int],
    d: float,
    ctx: Optional[WorkerContext],
    counter,
) -> Iterator[Tuple[int, int]]:
    """Min-x plane sweep: every ``(i, j)`` from ``ia`` x ``ib`` whose
    rectangles lie within distance ``d`` of each other.

    ``ia`` / ``ib`` index ``a`` / ``b`` in ascending min-x order.  The list
    with the smaller min-x advances; its rectangle scans the other list's
    x-window and tests y-interaction (and, when ``d > 0``, the exact squared
    rectangle distance).  All comparisons are in gap form (``lo - hi <= d``),
    so the emitted set is bit-identical to the batch MBR kernel's.  Each
    test charges ``mbr_test`` and adds one to ``counter.pairs_tested``.
    """
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    d2 = d * d
    i = j = 0
    la, lb = len(ia), len(ib)
    while i < la and j < lb:
        if ax0[ia[i]] <= bx0[ib[j]]:
            idx = ia[i]
            x_hi, y_lo, y_hi = ax1[idx], ay0[idx], ay1[idx]
            k = j
            while k < lb:
                jdx = ib[k]
                if bx0[jdx] - x_hi > d:
                    break
                k += 1
                counter.pairs_tested += 1
                if ctx is not None:
                    ctx.charge("mbr_test")
                if by0[jdx] - y_hi > d or y_lo - by1[jdx] > d:
                    continue
                if d > 0.0:
                    dx = max(bx0[jdx] - x_hi, ax0[idx] - bx1[jdx], 0.0)
                    dy = max(by0[jdx] - y_hi, y_lo - by1[jdx], 0.0)
                    if dx * dx + dy * dy > d2:
                        continue
                yield idx, jdx
            i += 1
        else:
            jdx = ib[j]
            x_hi, y_lo, y_hi = bx1[jdx], by0[jdx], by1[jdx]
            k = i
            while k < la:
                idx = ia[k]
                if ax0[idx] - x_hi > d:
                    break
                k += 1
                counter.pairs_tested += 1
                if ctx is not None:
                    ctx.charge("mbr_test")
                if ay0[idx] - y_hi > d or y_lo - ay1[idx] > d:
                    continue
                if d > 0.0:
                    dx = max(ax0[idx] - x_hi, bx0[jdx] - ax1[idx], 0.0)
                    dy = max(ay0[idx] - y_hi, y_lo - ay1[idx], 0.0)
                    if dx * dx + dy * dy > d2:
                        continue
                yield idx, jdx
            j += 1


class RTreeJoinCursor:
    """Resumable pairwise traversal of two R-tree subtree forests."""

    def __init__(
        self,
        root_pairs: List[Tuple[RTreeNode, RTreeNode]],
        distance: float = 0.0,
        strategy: JoinStrategy = JoinStrategy.SWEEP,
    ):
        if distance < 0:
            raise ValueError(f"distance must be >= 0, got {distance}")
        if strategy is JoinStrategy.GRID:
            raise JoinError(
                "GRID is a decomposition of the whole join, not a node-pair "
                "policy: run it through grid_parallel_join"
            )
        self.distance = distance
        self.strategy = strategy
        # The stack is seeded with the subtree-root pairs; in the serial
        # join this is [(root1, root2)], in the parallel join each slave
        # gets a partition of the level-k cross product (Figure 1).
        self._stack: List[Tuple[RTreeNode, RTreeNode]] = list(root_pairs)
        # Overflow pairs are drained FIFO so the emission order seen by the
        # caller equals the production order (AS_PRODUCED fetch order).
        self._buffer: Deque[CandidatePair] = deque()
        self.pairs_tested = 0
        self.nodes_visited = 0
        self.pairs_emitted = 0

    @property
    def exhausted(self) -> bool:
        return not self._stack and not self._buffer

    def next_candidates(
        self, max_pairs: int, ctx: Optional[WorkerContext] = None
    ) -> List[CandidatePair]:
        """Produce up to ``max_pairs`` candidate pairs, resuming traversal.

        Returns an empty list exactly when the join is complete.
        """
        out: List[CandidatePair] = []
        # Drain leftovers from a previous call first (FIFO: emission order
        # must match production order across batch boundaries).
        while self._buffer and len(out) < max_pairs:
            out.append(self._buffer.popleft())
        while self._stack and len(out) < max_pairs:
            node_a, node_b = self._stack.pop()
            self.nodes_visited += 2
            if ctx is not None:
                ctx.charge("rtree_node_visit", 2)
            if node_a.is_leaf and node_b.is_leaf:
                self._join_leaves(node_a, node_b, out, max_pairs, ctx)
            elif node_a.level >= node_b.level and not node_a.is_leaf:
                # Descend the taller (or equal-height internal) left node.
                if node_a.level == node_b.level and not node_b.is_leaf:
                    self._join_internal(node_a, node_b, ctx)
                else:
                    self._descend_left(node_a, node_b, ctx)
            else:
                self._descend_right(node_a, node_b, ctx)
        return out

    def drain(
        self, ctx: Optional[WorkerContext] = None, batch: int = 4096
    ) -> List[CandidatePair]:
        """Run the join to completion (convenience for tests/benchmarks)."""
        result: List[CandidatePair] = []
        while True:
            chunk = self.next_candidates(batch, ctx)
            if not chunk:
                return result
            result.extend(chunk)

    # ------------------------------------------------------------------
    # Entry pairing (strategy dispatch)
    # ------------------------------------------------------------------
    def _pair_indices(
        self, node_a: RTreeNode, node_b: RTreeNode, ctx: Optional[WorkerContext]
    ) -> Iterable[Tuple[int, int]]:
        if self.strategy is JoinStrategy.NESTED:
            return self._nested_pairs(node_a, node_b, ctx)
        return self._sweep_pairs(node_a, node_b, ctx)

    def _nested_pairs(
        self, node_a: RTreeNode, node_b: RTreeNode, ctx: Optional[WorkerContext]
    ) -> Iterator[Tuple[int, int]]:
        """O(|A|·|B|) pairing, one batch MBR-kernel row per left entry.

        Same pair set and the same ``mbr_test`` charges as the per-pair
        double loop; only the per-test interpreter dispatch is batched.
        """
        na, nb = len(node_a.entries), len(node_b.entries)
        if na == 0 or nb == 0:
            return
        ax0, ay0, ax1, ay1 = node_a.coords()
        coords_b = node_b.coords()
        d = self.distance
        for i in range(na):
            self.pairs_tested += nb
            if ctx is not None:
                ctx.charge("mbr_test", nb)
            box = (ax0[i], ay0[i], ax1[i], ay1[i])
            for j in kernels.mbr_filter_indices(coords_b, box, d, exact=True):
                yield i, j

    def _sweep_pairs(
        self, node_a: RTreeNode, node_b: RTreeNode, ctx: Optional[WorkerContext]
    ) -> List[Tuple[int, int]]:
        """Plane sweep with space restriction over the two entry lists.

        Each list is first clipped to the entries that can interact with
        the other node's MBR, then both are sorted by min-x and handed to
        :func:`plane_sweep`; the emitted set is bit-identical to the NESTED
        strategy's.
        """
        na, nb = len(node_a.entries), len(node_b.entries)
        if na == 0 or nb == 0:
            return []
        coords_a, coords_b = node_a.coords(), node_b.coords()
        ax0, ay0, ax1, ay1 = coords_a
        bx0, by0, bx1, by1 = coords_b
        d = self.distance

        # --- space restriction: keep only entries that can interact with
        # the other node's MBR (exact min/max of the coordinate vectors).
        a_lo_x, a_hi_x = min(ax0), max(ax1)
        a_lo_y, a_hi_y = min(ay0), max(ay1)
        b_lo_x, b_hi_x = min(bx0), max(bx1)
        b_lo_y, b_hi_y = min(by0), max(by1)
        self.pairs_tested += na + nb
        if ctx is not None:
            ctx.charge("mbr_test", na + nb)
        ia = [
            i
            for i in range(na)
            if b_lo_x - ax1[i] <= d
            and ax0[i] - b_hi_x <= d
            and b_lo_y - ay1[i] <= d
            and ay0[i] - b_hi_y <= d
        ]
        if not ia:
            return []
        ib = [
            j
            for j in range(nb)
            if a_lo_x - bx1[j] <= d
            and bx0[j] - a_hi_x <= d
            and a_lo_y - by1[j] <= d
            and by0[j] - a_hi_y <= d
        ]
        if not ib:
            return []

        # --- sort both clipped lists by min-x, then sweep.
        ia.sort(key=ax0.__getitem__)
        ib.sort(key=bx0.__getitem__)
        if ctx is not None:
            la, lb = len(ia), len(ib)
            ctx.charge(
                "sweep_sort_per_item",
                la * math.log2(max(la, 2)) + lb * math.log2(max(lb, 2)),
            )
        pairs = list(plane_sweep(coords_a, ia, coords_b, ib, d, ctx, self))
        if pairs:
            self.pairs_emitted += len(pairs)
            if ctx is not None:
                ctx.charge("sweep_pair_emit", len(pairs))
        return pairs

    # ------------------------------------------------------------------
    # Node-pair handlers
    # ------------------------------------------------------------------
    def _join_leaves(
        self,
        node_a: RTreeNode,
        node_b: RTreeNode,
        out: List[CandidatePair],
        max_pairs: int,
        ctx: Optional[WorkerContext],
    ) -> None:
        entries_a, entries_b = node_a.entries, node_b.entries
        for i, j in self._pair_indices(node_a, node_b, ctx):
            ea, eb = entries_a[i], entries_b[j]
            assert ea.rowid is not None and eb.rowid is not None
            pair = (ea.rowid, eb.rowid, ea.mbr, eb.mbr)
            if len(out) < max_pairs:
                out.append(pair)
            else:
                self._buffer.append(pair)

    def _join_internal(
        self, node_a: RTreeNode, node_b: RTreeNode, ctx: Optional[WorkerContext]
    ) -> None:
        entries_a, entries_b = node_a.entries, node_b.entries
        for i, j in self._pair_indices(node_a, node_b, ctx):
            ea, eb = entries_a[i], entries_b[j]
            assert ea.child is not None and eb.child is not None
            self._stack.append((ea.child, eb.child))

    def _descend_left(
        self, node_a: RTreeNode, node_b: RTreeNode, ctx: Optional[WorkerContext]
    ) -> None:
        for i in self._one_sided_indices(node_a, node_b.mbr, ctx):
            child = node_a.entries[i].child
            assert child is not None
            self._stack.append((child, node_b))

    def _descend_right(
        self, node_a: RTreeNode, node_b: RTreeNode, ctx: Optional[WorkerContext]
    ) -> None:
        for j in self._one_sided_indices(node_b, node_a.mbr, ctx):
            child = node_b.entries[j].child
            assert child is not None
            self._stack.append((node_a, child))

    def _one_sided_indices(
        self, node: RTreeNode, other: MBR, ctx: Optional[WorkerContext]
    ) -> Iterator[int]:
        """Indices of ``node``'s entries interacting with ``other`` (one
        rectangle vs the node's flat coordinate vectors, resolved by the
        batch MBR kernel in a single call)."""
        if other.is_empty:
            return
        coords = node.coords()
        n = len(coords[0])
        self.pairs_tested += n
        if ctx is not None:
            ctx.charge("mbr_test", n)
        yield from kernels.mbr_filter_indices(
            coords, other.as_tuple(), self.distance, exact=True
        )
