"""The R-tree domain index (extensible-indexing implementation).

Binds :class:`~repro.index.rtree.rtree.RTree` into the framework: creation
bulk-loads with STR from a base-table scan, DML keeps the tree in sync, and
``fetch`` answers the spatial operators with a window search (primary
filter) followed by exact geometry evaluation (secondary filter).
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IndexTypeError, OperatorError
from repro.engine.indextype import REFINE_ARRAY_ROWS, DomainIndex
from repro.engine.parallel import WorkerContext
from repro.engine.table import Table
from repro.geometry.distance import distance as exact_distance
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.index.rtree.bulkload import str_pack
from repro.index.rtree.knn import incremental_nearest
from repro.index.rtree.rtree import DEFAULT_FANOUT, RTree
from repro.storage.heap import RowId

__all__ = ["RTreeIndex"]


class RTreeIndex(DomainIndex):
    """Spatial indextype backed by an R-tree."""

    kind = "RTREE"

    #: number of index nodes the buffer cache keeps hot; repeated probes of
    #: a tree larger than this pay physical reads for the excess fraction,
    #: which is what makes per-row probing degrade on very large tables.
    NODE_CACHE = 1024

    def __init__(
        self,
        name: str,
        table: Table,
        column: str,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 0.7,
    ):
        super().__init__(name, table, column)
        self.fanout = fanout
        self.fill = fill
        self.tree = RTree(fanout=fanout)
        self._node_count_cache: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, ctx: Optional[WorkerContext] = None) -> None:
        """Sequential index creation: scan, compute MBRs, STR-pack.

        (The parallel path lives in :mod:`repro.core.index_build`, which
        partitions the scan across table-function workers.)
        """
        entries: List[Tuple[Any, RowId]] = []
        rows = self.table.scan_bounds(self._column_index)
        for rowid, mbr, num_vertices, _geometry in rows:
            if mbr is None:
                continue
            if ctx is not None:
                ctx.charge("mbr_load_per_vertex", num_vertices)
            entries.append((mbr, rowid))
        self.tree = str_pack(entries, fanout=self.fanout, fill=self.fill, ctx=ctx)

    def insert(
        self, rowid: RowId, geom: Geometry, ctx: Optional[WorkerContext] = None
    ) -> None:
        self.tree.insert(geom.mbr, rowid, ctx)
        self._node_count_cache = None

    def delete(
        self, rowid: RowId, geom: Geometry, ctx: Optional[WorkerContext] = None
    ) -> None:
        if not self.tree.delete(geom.mbr, rowid, ctx):
            raise IndexTypeError(f"{self.name}: {rowid} not present in index")
        self._node_count_cache = None

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def fetch(
        self,
        operator: str,
        args: Sequence[Any],
        ctx: Optional[WorkerContext] = None,
        exact: bool = True,
        prefilter: Optional[
            Callable[[List[Tuple[MBR, RowId]]], Sequence[bool]]
        ] = None,
    ) -> Iterator[RowId]:
        """Evaluate one spatial operator through the index.

        ``prefilter(candidates)`` — when given — screens candidates right
        after the primary (MBR) filter, *before* the exact geometry test:
        it takes a candidate array (up to ``REFINE_ARRAY_ROWS``
        ``(mbr, rowid)`` pairs, in search order) and returns one keep flag
        per candidate.  Rows it rejects pay no geometry fetch and no
        exact-test cost; shard ownership filters hook in here.
        """
        if operator.upper() == "SDO_NN":
            yield from self.fetch_nn(args, ctx, exact)
            return
        op, form = self._parse_probe(operator, args)
        query: Geometry = args[0]
        distance = form[1] if form is not None else 0.0
        visits_before = 0.0
        if ctx is not None:
            # Fixed cost of one operator invocation through the framework.
            ctx.charge("index_probe")
            visits_before = ctx.meter.counts.get("rtree_node_visit", 0.0)

        # Zone-map pushdown: when the whole table is columnar-resident
        # (empty DML journal) and the query window intersects no chunk's
        # zone map, the result is provably empty — skip the tree search
        # for the price of one zone_skip per chunk directory entry.
        seg = self.table.columnar
        if seg is not None and seg.journal_empty():
            if seg.all_zones_miss(query.mbr.as_tuple(), distance, ctx):
                return

        if op.index_hint == "MBR_DISTANCE":
            candidates = self.tree.search_within(query.mbr, distance, ctx)
        else:
            candidates = self.tree.search(query.mbr, ctx)

        if prefilter is None:
            rowids = (rowid for _mbr, rowid in candidates)
        else:
            rowids = _screened(candidates, prefilter)
        if form is None or not exact:
            yield from rowids
        else:
            yield from self._refine(op, args, form, rowids, ctx)
        self._charge_node_misses(ctx, visits_before)

    def fetch_nn(
        self,
        args: Sequence[Any],
        ctx: Optional[WorkerContext] = None,
        exact: bool = True,
    ) -> Iterator[RowId]:
        """``sdo_nn``: the k nearest rows to a query geometry.

        Best-first MBR-ranked enumeration with exact-distance refinement:
        candidates stream out of the index in MBR-distance order; each is
        refined against the exact geometry; the scan stops once the k-th
        best exact distance is below the next candidate's MBR distance
        (a sound lower bound).  With ``exact=False`` the MBR ranking is
        returned directly.
        """
        if not args:
            raise OperatorError("SDO_NN requires a query geometry argument")
        query: Geometry = args[0]
        k = int(args[1]) if len(args) > 1 else 1
        if k < 1:
            raise OperatorError(f"SDO_NN requires k >= 1, got {k}")
        if ctx is not None:
            ctx.charge("index_probe")
        qx, qy = query.mbr.center
        # Ranking is by distance to the query's centre point; to keep the
        # early-termination bound sound for extended query geometry,
        # candidates within (centre distance - query radius) of the k-th
        # best cannot be pruned.
        query_radius = max(
            math.hypot(cx - qx, cy - qy) for cx, cy in query.mbr.corners()
        )

        if not exact:
            emitted = 0
            for _d, rowid in incremental_nearest(self.tree, qx, qy, ctx):
                yield rowid
                emitted += 1
                if emitted >= k:
                    return
            return

        # (-exact_d, rowid) max-heap of the best k so far.
        best: list = []
        for mbr_d, rowid in incremental_nearest(self.tree, qx, qy, ctx):
            if len(best) == k and mbr_d - query_radius > -best[0][0]:
                break  # no later candidate can improve the k-th best
            geom = self.geometry_of(rowid, ctx)
            if ctx is not None:
                ctx.charge("exact_test_base")
                ctx.charge(
                    "exact_test_per_vertex", geom.num_vertices + query.num_vertices
                )
            d = exact_distance(geom, query)
            if len(best) < k:
                heapq.heappush(best, (-d, rowid))
            elif d < -best[0][0]:
                heapq.heapreplace(best, (-d, rowid))
        for neg_d, rowid in sorted(best, key=lambda item: (-item[0], item[1])):
            yield rowid

    def _charge_node_misses(self, ctx: Optional[WorkerContext], visits_before: float) -> None:
        """Charge physical reads for probe node visits that miss the cache.

        A repeatedly probed index larger than :data:`NODE_CACHE` nodes
        cannot stay resident; the excess fraction of each probe's node
        visits is billed as physical I/O.  (A one-shot synchronized join
        touches each node once, so it never triggers this.)
        """
        if ctx is None:
            return
        node_count = self._node_count_cache
        if node_count is None:
            node_count = self.tree.node_count()
            self._node_count_cache = node_count
        miss_fraction = max(0.0, 1.0 - self.NODE_CACHE / max(node_count, 1))
        if miss_fraction <= 0.0:
            return
        visits = ctx.meter.counts.get("rtree_node_visit", 0.0) - visits_before
        if visits > 0:
            ctx.charge("physical_read", visits * miss_fraction)


def _screened(candidates, prefilter) -> Iterator[RowId]:
    """Rowids of the candidates ``prefilter`` keeps, in candidate order,
    screened one candidate array at a time."""
    candidates = iter(candidates)
    while True:
        chunk = list(islice(candidates, REFINE_ARRAY_ROWS))
        if not chunk:
            return
        keep = prefilter(chunk)
        yield from (rowid for (_mbr, rowid), ok in zip(chunk, keep) if ok)
