"""The ``spatial_join`` pipelined table function (paper §4).

Usage shape mirrors the paper's SQL rewrite::

    select count(*) from city_table a, river_table b
     where (a.rowid, b.rowid) in
           (select rid1, rid2 from TABLE(spatial_join(
                'city_table', 'city_geom', 'river_table', 'river_geom',
                'intersect')));

Evaluation is the start/fetch/close protocol of §4.2:

* **start** — load both R-tree indexes' metadata and push the subtree-root
  pairs onto a stack (the whole-tree pair ``(R1, S1)`` for the serial
  join; a partition of the level-k cross product for the parallel join).
* **fetch** — resume the synchronized index traversal from the stack,
  filling a *bounded candidate array* (its size models available memory),
  sort the array by first rowid, run the secondary filter, and return as
  many result rowid pairs as the fetch asks for.
* **close** — release the traversal stack, candidate array and caches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.errors import JoinError
from repro.engine.cursor import Cursor
from repro.obs import trace
from repro.engine.parallel import WorkerContext
from repro.engine.table_function import TableFunction
from repro.engine.types import Row
from repro.index.rtree.join import JoinStrategy, RTreeJoinCursor
from repro.index.rtree.node import RTreeNode
from repro.index.rtree.rtree import RTree
from repro.core.secondary_filter import (
    FetchOrder,
    JoinPredicate,
    SecondaryFilter,
)
from repro.engine.table import Table

__all__ = ["SpatialJoinFunction", "DEFAULT_CANDIDATE_ARRAY_SIZE", "JoinStats"]

DEFAULT_CANDIDATE_ARRAY_SIZE = 4096


@dataclass
class JoinStats:
    """Observability for one spatial_join instance."""

    candidate_pairs: int = 0
    result_pairs: int = 0
    mbr_tests: int = 0
    fetch_calls: int = 0
    cache_hit_ratio: float = 0.0


class SpatialJoinFunction(TableFunction):
    """Pipelined spatial join of two R-tree-indexed geometry columns.

    ``subtree_pair_cursor`` — when given — supplies ``(node_a, node_b)``
    rows (the output of crossing two ``subtree_root`` calls, §4.1); when
    omitted the function joins the full trees, the single-input-stream
    form the paper starts from.
    """

    def __init__(
        self,
        table_a: Table,
        column_a: str,
        tree_a: RTree,
        table_b: Table,
        column_b: str,
        tree_b: RTree,
        predicate: JoinPredicate = JoinPredicate(),
        subtree_pair_cursor: Optional[Cursor] = None,
        candidate_array_size: int = DEFAULT_CANDIDATE_ARRAY_SIZE,
        fetch_order: FetchOrder = FetchOrder.SORTED,
        cache_capacity: int = 4096,
        strategy: JoinStrategy = JoinStrategy.SWEEP,
        rng_seed: int = 0,
    ):
        super().__init__()
        if candidate_array_size < 1:
            raise JoinError(
                f"candidate array size must be >= 1, got {candidate_array_size}"
            )
        self.predicate = predicate
        self.candidate_array_size = candidate_array_size
        self.strategy = strategy
        self._tree_a = tree_a
        self._tree_b = tree_b
        self._pair_cursor = subtree_pair_cursor
        self._filter = SecondaryFilter(
            table_a,
            column_a,
            table_b,
            column_b,
            predicate,
            fetch_order=fetch_order,
            cache_capacity=cache_capacity,
            rng_seed=rng_seed,
        )
        self._join: Optional[RTreeJoinCursor] = None
        self._out_buffer: Deque[Tuple] = deque()
        self.stats = JoinStats()

    # ------------------------------------------------------------------
    def _start(self, ctx: WorkerContext) -> None:
        # "In the start method, the metadata of the two R-tree indexes ...
        # is loaded and the subtree roots ... are pushed onto a stack."
        ctx.charge("rtree_node_visit", 2)  # the two metadata/root reads
        with trace.span("join.start", ctx, worker=ctx.worker_id) as sp:
            if self._pair_cursor is not None:
                pairs: List[Tuple[RTreeNode, RTreeNode]] = []
                for row in self._pair_cursor:
                    node_a, node_b = row[0], row[1]
                    if not isinstance(node_a, RTreeNode) or not isinstance(node_b, RTreeNode):
                        raise JoinError(
                            "subtree pair cursor must yield (RTreeNode, RTreeNode) rows"
                        )
                    pairs.append((node_a, node_b))
            else:
                if len(self._tree_a) == 0 or len(self._tree_b) == 0:
                    pairs = []
                else:
                    pairs = [(self._tree_a.root, self._tree_b.root)]
            sp.set_tag("root_pairs", len(pairs))
            self._join = RTreeJoinCursor(
                pairs,
                distance=self.predicate.distance,
                strategy=self.strategy,
            )

    def _fetch(self, ctx: WorkerContext, max_rows: int) -> List[Row]:
        assert self._join is not None
        self.stats.fetch_calls += 1
        with trace.span(
            "join.fetch", ctx, fetch=self.stats.fetch_calls, worker=ctx.worker_id
        ) as fetch_span:
            out: List[Row] = []
            # Serve leftovers from the previous candidate array first (FIFO,
            # preserving the secondary filter's emission order across fetches).
            while self._out_buffer and len(out) < max_rows:
                out.append(self._out_buffer.popleft())
            while len(out) < max_rows:
                # Fill the bounded candidate array by resuming the index join.
                with trace.span("join.primary_filter", ctx) as sweep_span:
                    nodes_before = self._join.nodes_visited
                    tests_before = self._join.pairs_tested
                    candidates = self._join.next_candidates(
                        self.candidate_array_size, ctx
                    )
                    sweep_span.set_tag("candidates", len(candidates))
                    sweep_span.set_tag(
                        "nodes_visited", self._join.nodes_visited - nodes_before
                    )
                    sweep_span.set_tag(
                        "mbr_tests", self._join.pairs_tested - tests_before
                    )
                if not candidates:
                    break
                self.stats.candidate_pairs += len(candidates)
                results = self._filter.process(candidates, ctx)
                self.stats.result_pairs += len(results)
                room = max_rows - len(out)
                out.extend(results[:room])
                self._out_buffer.extend(results[room:])
            self.stats.mbr_tests = self._join.pairs_tested
            self.stats.cache_hit_ratio = self._filter.cache.hit_ratio
            fetch_span.set_tag("rows", len(out))
        return out

    def _close(self, ctx: WorkerContext) -> None:
        # "memory resources are cleaned up in the subsequent close call"
        with trace.span(
            "join.close",
            ctx,
            worker=ctx.worker_id,
            candidate_pairs=self.stats.candidate_pairs,
            result_pairs=self.stats.result_pairs,
        ):
            self._join = None
            self._out_buffer = deque()
            self._filter.clear_caches()
