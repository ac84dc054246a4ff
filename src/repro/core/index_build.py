"""Parallel spatial index creation via table functions (paper §5).

**Quadtree** (Figure 2): index creation is (1) tessellate every geometry
into tiles, inserting the tiles into the index table, then (2) build a
B-tree on the tile codes.  Tessellation dominates for complex polygons, so
:class:`TessellateFunction` is a *parallel* table function whose input
cursor (the geometry table) is partitioned across slaves; the B-tree is
then built with the parallel B-tree path (sorted runs merged).

**R-tree**: parallel table functions (1) load geometries and compute MBRs
and (2) cluster subtrees on each partition; a serial merge stitches the
subtrees (implemented in :mod:`repro.index.rtree.bulkload`).

Both drivers return a :class:`BuildReport` carrying the simulated makespan
(what Table 3 reports per processor count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine.cursor import Cursor, PartitionMethod, partition_cursor
from repro.engine.parallel import (
    ParallelExecutor,
    ParallelRun,
    SerialExecutor,
    WorkerContext,
)
from repro.engine.table import Table
from repro.engine.table_function import TableFunction, pipeline
from repro.engine.types import Row
from repro.geometry.mbr import MBR
from repro.index.quadtree.quadtree import TESSELLATE_BATCH, QuadtreeIndex
from repro.index.rtree.bulkload import merge_subtrees, str_pack
from repro.index.rtree.rtree import RTree
from repro.index.rtree.spatial_index import RTreeIndex
from repro.obs import trace
from repro.storage.btree import BPlusTree
from repro.storage.heap import RowId

__all__ = [
    "BuildReport",
    "TessellateFunction",
    "MbrLoadFunction",
    "create_quadtree_parallel",
    "create_rtree_parallel",
]


@dataclass
class BuildReport:
    """Execution record of one index creation."""

    kind: str
    degree: int
    run: ParallelRun
    rows_indexed: int = 0
    tiles_created: int = 0
    serial_tail_seconds: float = 0.0  # merge/B-tree stitch after the barrier

    @property
    def makespan_seconds(self) -> float:
        return self.run.makespan_seconds + self.serial_tail_seconds

    @property
    def total_work_seconds(self) -> float:
        return self.run.total_work_seconds + self.serial_tail_seconds


class TessellateFunction(TableFunction):
    """Parallel table function: tessellate geometries from an input cursor.

    Input rows: ``(rowid, geometry)``, as :meth:`Table.scan_rings` reads
    them.  Output rows: ``(tile_code, rowid, interior)`` — the rows inserted
    into the quadtree's index table (Figure 2's "Tesselate" boxes).  Each
    batch of input rows is tessellated in one kernel call.
    """

    def __init__(
        self, input_cursor: Cursor, index: QuadtreeIndex, batch: int = TESSELLATE_BATCH
    ):
        super().__init__()
        self._cursor = input_cursor
        self._index = index
        self._batch = batch
        self._pending: List[Row] = []  # the last batch's tiles ...
        self._next = 0  # ... handed out up to here

    def _fetch(self, ctx: WorkerContext, max_rows: int) -> List[Row]:
        while self._next == len(self._pending):
            rows = self._cursor.fetch(self._batch)
            if not rows:
                return []
            rows = [row for row in rows if row[1] is not None]
            if rows:
                ctx.charge("geom_fetch_base", len(rows))
                ctx.charge("geom_fetch_per_vertex", sum(g.num_vertices for _r, g in rows))
            self._pending, self._next = self._index.tessellate_rows(rows, ctx), 0
        out = self._pending[self._next : self._next + max_rows]
        self._next += len(out)
        return out


class MbrLoadFunction(TableFunction):
    """Parallel table function: load geometries and compute their MBRs.

    Input rows: ``(rowid, mbr, num_vertices)`` as read by
    :meth:`~repro.engine.table.Table.scan_bounds` (``mbr`` None for a NULL
    geometry).  Output rows: ``(mbr, rowid)`` — step (1) of the paper's
    parallel R-tree creation.
    """

    def __init__(self, input_cursor: Cursor, batch: int = 256):
        super().__init__()
        self._cursor = input_cursor
        self._batch = batch

    def _fetch(self, ctx: WorkerContext, max_rows: int) -> List[Row]:
        out: List[Row] = []
        while len(out) < max_rows:
            rows = self._cursor.fetch(min(self._batch, max_rows - len(out)))
            if not rows:
                break
            for rowid, mbr, num_vertices in rows:
                if mbr is None:
                    continue
                # Loading = fetching and decoding the geometry, then the
                # MBR computation itself.
                ctx.charge("geom_fetch_base")
                ctx.charge("geom_fetch_per_vertex", num_vertices)
                ctx.charge("mbr_load_per_vertex", num_vertices)
                out.append((mbr, rowid))
        return out


def create_quadtree_parallel(
    index: QuadtreeIndex,
    executor: ParallelExecutor,
) -> BuildReport:
    """Create a quadtree index with degree-N tessellation (Figure 2).

    The geometry cursor is partitioned ANY across ``executor.degree``
    TessellateFunction instances; each slave produces a sorted run of
    ``((code, rowid), interior)`` items; the runs are merged and the
    B-tree bulk-built (the parallel B-tree build's serial stitch).
    """
    with trace.span(
        "index.build", kind="QUADTREE", degree=executor.degree
    ) as build_span:
        with trace.span("index.load"):
            col = index.table.schema.index_of(index.column)
            rows = list(index.table.scan_rings(col))
        build_span.set_tag("rows", len(rows))
        return _tessellate_and_load(index, executor, rows)


def _tessellate_and_load(
    index: QuadtreeIndex, executor: ParallelExecutor, rows: List[Row]
) -> BuildReport:
    partitions = partition_cursor(
        _ListCursorOf(rows), executor.degree, PartitionMethod.ANY
    )

    def make_task(part: Cursor):
        def task(ctx: WorkerContext) -> List[Tuple[Tuple[int, RowId], bool]]:
            fn = TessellateFunction(part, index)
            items = [
                ((code, rowid), interior)
                for code, rowid, interior in pipeline(fn, ctx)
            ]
            # Each slave sorts its own run (parallelisable work).
            n = len(items)
            if n > 1:
                ctx.charge("sort_per_item", n * math.log2(n))
            items.sort(key=lambda kv: kv[0])
            return items

        return task

    run = executor.run([make_task(p) for p in partitions if len(p) > 0])

    # Serial tail: the coordinator's scan+partition of the base table
    # (Figure 2's single partitioning stage) plus merging the sorted runs
    # and bulk-building the B-tree.
    tail = WorkerContext(0)
    _charge_scan_partition(tail, index.table, len(rows))
    runs = [r for r in run.results if r]
    total_tiles = sum(len(r) for r in runs)
    with trace.span("index.pack"):
        if total_tiles:
            tail.charge("sort_per_item", total_tiles * max(1.0, math.log2(len(runs) + 1)))
            tail.charge("btree_node_visit", total_tiles / max(1, index.btree_order // 2))
        index.btree = BPlusTree.bulk_load_runs(runs, order=index.btree_order)

    return BuildReport(
        kind="QUADTREE",
        degree=executor.degree,
        run=run,
        rows_indexed=len(rows),
        tiles_created=total_tiles,
        serial_tail_seconds=tail.meter.seconds(executor.cost_model),
    )


def create_rtree_parallel(
    index: RTreeIndex,
    executor: ParallelExecutor,
) -> BuildReport:
    """Create an R-tree index with degree-N MBR load + subtree clustering.

    The coordinator's scan reads each row's MBR and vertex count straight
    from the stored ordinates (:meth:`Table.scan_bounds`); no geometry is
    built.  The workers charge the load as the decode it stands for.
    """
    with trace.span(
        "index.build", kind="RTREE", degree=executor.degree
    ) as build_span:
        with trace.span("index.load"):
            col = index.table.schema.index_of(index.column)
            rows = [
                (rowid, mbr, num_vertices)
                for rowid, mbr, num_vertices, _geometry in index.table.scan_bounds(col)
            ]
        build_span.set_tag("rows", len(rows))
        with trace.span("index.pack"):
            return _cluster_and_merge(index, executor, rows)


def _cluster_and_merge(
    index: RTreeIndex, executor: ParallelExecutor, rows: List[Row]
) -> BuildReport:
    partitions = partition_cursor(
        _ListCursorOf(rows), executor.degree, PartitionMethod.RANGE,
        key=_rowid_mbr_x_key,
    )

    def make_task(part: Cursor):
        def task(ctx: WorkerContext) -> RTree:
            loader = MbrLoadFunction(part)
            entries = [(mbr, rowid) for mbr, rowid in pipeline(loader, ctx)]
            return str_pack(entries, fanout=index.fanout, fill=index.fill, ctx=ctx)

        return task

    run = executor.run([make_task(p) for p in partitions if len(p) > 0])

    tail = WorkerContext(0)
    _charge_scan_partition(tail, index.table, len(rows))
    subtrees = [t for t in run.results if t is not None and len(t) > 0]
    tail.charge("cluster_per_entry", len(subtrees) * 2)
    index.tree = merge_subtrees(
        subtrees, fanout=index.fanout, fill=index.fill, ctx=tail
    )

    return BuildReport(
        kind="RTREE",
        degree=executor.degree,
        run=run,
        rows_indexed=len(rows),
        serial_tail_seconds=tail.meter.seconds(executor.cost_model),
    )


def _charge_scan_partition(ctx: WorkerContext, table: Table, nrows: int) -> None:
    """Coordinator-side cost of scanning the base table and routing rows.

    This stage is inherently serial (one scan feeds all slaves), which is
    the Amdahl tail that caps the paper's index-creation speedups (R-tree:
    1.76x on 4 processors despite fully parallel clustering).
    """
    ctx.charge("physical_read", table.heap.page_count)
    ctx.charge("partition_per_row", nrows)


def _rowid_mbr_x_key(row: Row) -> float:
    """RANGE-partition key: x-centre of the geometry's MBR (spatial locality)."""
    mbr: Optional[MBR] = row[1]
    if mbr is None or mbr.is_empty:
        return 0.0
    return mbr.center[0]


def _ListCursorOf(rows) -> Cursor:
    from repro.engine.cursor import ListCursor

    return ListCursor(rows)
