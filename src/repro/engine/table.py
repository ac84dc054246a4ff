"""Tables: schema-aware views over heap files.

A :class:`Table` binds a catalog :class:`~repro.storage.catalog.TableMeta`
to a :class:`~repro.storage.heap.HeapFile` and handles row encoding, type
validation, and maintenance of any domain indexes registered on the table
(inserts/updates/deletes propagate to spatial indexes automatically, as
the extensible-indexing framework requires).

A table may additionally carry a :class:`~repro.storage.columnar.
ColumnarSegment` (``table.columnar``) — a frozen columnar image of the
rows as of the last compaction.  The heap remains the store of record;
DML is journaled against the segment and reads merge the two, so scans
and geometry fetches are transparently served from whichever format
holds the current version of each row.

A :class:`GeometryCache` is the bounded row cache in front of
:meth:`Table.fetch_packed`, shared by the join's secondary filter and the
index operators' (``DomainIndex``).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import EngineError
from repro.engine.cursor import Cursor, GeneratorCursor
from repro.engine.parallel import WorkerContext
from repro.engine.types import Row, RowSchema
from repro.storage.catalog import ColumnMeta, TableMeta
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.geometry.packed import PackedRing
from repro.storage.codec import (
    BOUNDS_BATCH,
    column_bounds,
    decode_column,
    decode_ring_column,
    decode_row,
    encode_row,
)
from repro.storage.columnar import MISSING, ColumnarSegment
from repro.storage.heap import HeapFile, RowId

__all__ = ["Table", "GeometryCache"]

CacheKey = Tuple[str, int, RowId]  # (table name, column index, rowid)


class Table:
    """A heap table with a schema and index-maintenance hooks."""

    def __init__(self, meta: TableMeta, heap: HeapFile):
        self.meta = meta
        self.schema = RowSchema(meta.columns)
        self.heap = heap
        self.columnar: Optional[ColumnarSegment] = None
        # index maintenance callbacks: (op, rowid, old_row, new_row)
        self._maintenance_hooks: List[
            Callable[[str, RowId, Optional[Row], Optional[Row]], None]
        ] = []

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def row_count(self) -> int:
        return self.heap.row_count

    def add_maintenance_hook(
        self, hook: Callable[[str, RowId, Optional[Row], Optional[Row]], None]
    ) -> None:
        """Register a callback fired on insert/update/delete.

        The spatial indextype registers here so DML on the base table keeps
        the domain index synchronised — the automatic index update the
        extensible-indexing framework provides.  A hook that raises must
        leave its own state unchanged.
        """
        self._maintenance_hooks.append(hook)

    def remove_maintenance_hook(
        self, hook: Callable[[str, RowId, Optional[Row], Optional[Row]], None]
    ) -> None:
        """Unregister a callback added by :meth:`add_maintenance_hook`."""
        self._maintenance_hooks.remove(hook)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[Any]) -> RowId:
        row = tuple(values)
        self.schema.validate_row(row)
        rowid = self.heap.insert(encode_row(row))
        try:
            self._fire("INSERT", rowid, None, row)
        except BaseException:
            self.heap.delete(rowid)
            raise
        if self.columnar is not None:
            self.columnar.note_insert(rowid)
        return rowid

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[RowId]:
        return [self.insert(row) for row in rows]

    def fetch(self, rowid: RowId) -> Row:
        return decode_row(self.heap.read(rowid))

    def fetch_packed(self, rowid: RowId, column_index: int, ctx=None):
        """The geometry at ``(rowid, column_index)``, charged per format.

        Columnar-resident rows are served from their chunk (amortised
        ``physical_read`` on chunk load + one ``chunk_row_view``) as a
        :class:`Geometry`; rows the segment cannot serve — journaled, or
        no segment at all — pay the heap fetch (``geom_fetch_base`` +
        per-vertex decode), and a heap row's polygon of one exterior ring
        comes back as a :class:`~repro.geometry.packed.PackedRing` over the
        record bytes (:func:`~repro.storage.codec.decode_ring_column`), no
        :class:`Geometry` built.  The charge difference is the measured
        columnar win; ``as_geometry`` of the value is identical either way.
        """
        seg = self.columnar
        if seg is not None:
            geom = seg.geometry_at(rowid, ctx)
            if geom is not MISSING:
                return geom
        geom = decode_ring_column(self.heap.read(rowid), column_index)
        if ctx is not None:
            ctx.charge("geom_fetch_base")
            if geom is not None:
                ctx.charge("geom_fetch_per_vertex", geom.num_vertices)
        return geom

    def update(self, rowid: RowId, values: Sequence[Any]) -> None:
        new_row = tuple(values)
        self.schema.validate_row(new_row)
        old_row = self.fetch(rowid)
        self.heap.update(rowid, encode_row(new_row))
        try:
            self._fire("UPDATE", rowid, old_row, new_row)
        except BaseException:
            self.heap.update(rowid, encode_row(old_row))
            raise
        if self.columnar is not None:
            self.columnar.note_update(rowid)

    def delete(self, rowid: RowId) -> None:
        old_row = self.fetch(rowid)
        self._fire("DELETE", rowid, old_row, None)
        self.heap.delete(rowid)
        if self.columnar is not None:
            self.columnar.note_delete(rowid)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Tuple[RowId, Row]]:
        """Full scan in rowid (physical) order.

        With a columnar segment attached the scan reads column chunks
        (far fewer pages than the heap) and merges journaled rows back in
        from the heap at their rowid positions — the yielded sequence is
        identical to a pure heap scan.
        """
        seg = self.columnar
        if seg is None:
            for rowid, data in self.heap.scan():
                yield rowid, decode_row(data)
            return
        journal = iter(sorted(seg.stale | seg.fresh))
        pending: Optional[RowId] = next(journal, None)
        for rowid, row in seg.chunk_rows():
            while pending is not None and pending < rowid:
                yield pending, self.fetch(pending)
                pending = next(journal, None)
            yield rowid, row
        while pending is not None:
            yield pending, self.fetch(pending)
            pending = next(journal, None)

    def scan_bounds(
        self, column_index: int
    ) -> Iterator[Tuple[RowId, Optional[MBR], int, Optional[Callable[[], Any]]]]:
        """:meth:`scan` reduced to the bounds of one geometry column, for
        readers that need only a row's MBR: ``(rowid, mbr, num_vertices,
        geometry)`` per row, in scan order, where ``mbr`` and
        ``num_vertices`` equal the decoded geometry's and ``geometry()``
        reads it from the bytes already read (``as_geometry`` of it is the
        decoded geometry; a heap ring record comes back as a
        :class:`~repro.geometry.packed.PackedRing`); a NULL geometry is
        ``(rowid, None, 0, None)``.

        Heap records are bounded a batch at a time by
        :func:`~repro.storage.codec.column_bounds` (no :class:`Geometry`
        built for a ring record).  A compacted table's rows come from
        :meth:`scan`, whose chunk geometries carry the MBR planes' bounds.
        The pages read, and their order, are :meth:`scan`'s.
        """
        if self.columnar is not None:
            for rowid, row in self.scan():
                geom = row[column_index]
                if geom is None:
                    yield rowid, None, 0, None
                else:
                    yield rowid, geom.mbr, geom.num_vertices, lambda geom=geom: geom
            return
        records = self.heap.scan()
        while True:
            batch = list(islice(records, BOUNDS_BATCH))
            if not batch:
                return
            bounds = column_bounds([data for _rowid, data in batch], column_index)
            for (rowid, _data), bound in zip(batch, bounds):
                yield (rowid, *bound)

    def scan_rings(self, column_index: int) -> Iterator[Tuple[RowId, Any]]:
        """:meth:`scan` reduced to one geometry column, for readers that
        take a polygon stored as one exterior ring as a
        :class:`~repro.geometry.packed.PackedRing` (quadtree tessellation):
        ``(rowid, value)`` per row, in scan order, heap records through
        :func:`~repro.storage.codec.decode_ring_column`.  A compacted
        table's rows come from :meth:`scan`."""
        if self.columnar is not None:
            for rowid, row in self.scan():
                yield rowid, row[column_index]
            return
        for rowid, data in self.heap.scan():
            yield rowid, decode_ring_column(data, column_index)

    def scan_cursor(self, with_rowid: bool = False) -> Cursor:
        """Cursor over the table; optionally prefix each row with its rowid."""
        if with_rowid:
            return GeneratorCursor(
                (rowid,) + row for rowid, row in self.scan()
            )
        return GeneratorCursor(row for _rowid, row in self.scan())

    def column_values(self, column: str) -> Iterator[Tuple[RowId, Any]]:
        idx = self.schema.index_of(column)
        for rowid, row in self.scan():
            yield rowid, row[idx]

    def value(self, rowid: RowId, column: str) -> Any:
        """One column of one row; the row's other values stay encoded."""
        return decode_column(self.heap.read(rowid), self.schema.index_of(column))

    # ------------------------------------------------------------------
    def _fire(
        self, op: str, rowid: RowId, old_row: Optional[Row], new_row: Optional[Row]
    ) -> None:
        """Run every hook.  A hook that raises rejects the row: the hooks
        already run are undone and the caller leaves or restores the heap row,
        so a rejected change reaches neither an index nor the next commit."""
        done = []
        try:
            for hook in self._maintenance_hooks:
                hook(op, rowid, old_row, new_row)
                done.append(hook)
        except BaseException:
            undo = {"INSERT": "DELETE", "DELETE": "INSERT"}.get(op, op)
            for hook in reversed(done):
                hook(undo, rowid, new_row, old_row)
            raise


class GeometryCache:
    """Bounded LRU cache of fetched geometries, keyed by (table, column,
    rowid).

    A cache miss charges full fetch cost (``geom_fetch_base`` + per-vertex);
    a hit charges only a buffer-get.  The hit ratio is the mechanism by
    which candidate fetch order shows up in simulated time.

    Entries are what :meth:`Table.fetch_packed` returns: a heap row's
    polygon of one exterior ring is a :class:`PackedRing` (its vertex array
    is all the pair kernel reads), anything else a :class:`Geometry`.
    """

    def __init__(self, capacity: int = 2048):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[CacheKey, Union[Geometry, PackedRing]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def fetch(
        self, table: Table, rowid: RowId, column_index: int, ctx: Optional[WorkerContext]
    ) -> Union[Geometry, PackedRing]:
        key = (table.name, column_index, rowid)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            if ctx is not None:
                ctx.charge("buffer_get_hit")
            return cached
        self.misses += 1
        # Routed through the table so columnar-resident rows are served
        # (and charged) from their chunk; heap rows keep the historical
        # geom_fetch charges.
        geom = table.fetch_packed(rowid, column_index, ctx)
        self._entries[key] = geom
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return geom

    def fetch_sequence(
        self,
        keys: np.ndarray,
        locate: Callable[[int], Tuple[Table, RowId, int]],
        ctx: Optional[WorkerContext],
    ) -> Tuple[np.ndarray, Iterator[Tuple[int, list]]]:
        """Serve accesses ``keys[0], keys[1], …`` as one :meth:`fetch` each would.

        ``keys[i]`` is an int64 identity of access ``i``'s row (equal keys
        for equal cache keys) and ``locate(i)`` the ``(table, rowid,
        column_index)`` that :meth:`fetch` takes for it.

        The sequence is cut into maximal segments of at most ``capacity``
        distinct keys.  Per segment, :meth:`fetch` runs once per distinct
        key in first-access order, every other access is counted as a hit
        with one ``buffer_get_hit`` charge for all of them, and the
        distinct keys then move to the end in last-access order.  Hits,
        misses, evictions, the final LRU order and the charges are those
        of one :meth:`fetch` per access, because a repeat only moves a key
        already touched in the segment to the end.  Touched keys are all
        newer than every untouched key, whichever way they are ordered
        among themselves, so repeats never change which key is least
        recent; a miss evicts the least recent key, and with at most
        ``capacity`` touched keys that is always an untouched one.  So
        every first access meets the cache the per-access run would,
        every repeat finds its key still cached (a hit), and the touched
        keys end in last-access order behind the untouched ones.

        Returns ``(entry, segments)``.  Iterating ``segments`` serves one
        segment per step and yields ``(end, geoms)``: the segment ends
        before access ``end`` and ``geoms`` are its distinct rows in
        first-access order.  Access ``i`` is geometry number ``entry[i]``,
        counting the yielded geometries of all segments in turn.
        """
        first, last, entry = _distinct_accesses(keys)
        ends = [len(keys)]
        if len(first) > self.capacity:
            # Cut greedily, then number each segment's distinct keys apart.
            ends, seen = [], set()
            for i, key in enumerate(entry.tolist()):
                if key not in seen:
                    if len(seen) == self.capacity:
                        ends.append(i)
                        seen = set()
                    seen.add(key)
            ends.append(len(keys))
            segment = np.zeros(len(keys), dtype=np.int64)
            segment[ends[:-1]] = 1
            first, last, entry = _distinct_accesses(
                np.cumsum(segment) * len(first) + entry
            )
        bounds = np.searchsorted(first, ends).tolist()
        by_last = np.argsort(last).tolist()
        return entry, self._serve(ends, bounds, first.tolist(), by_last, locate, ctx)

    def _serve(self, ends, bounds, first, by_last, locate, ctx):
        """The segments of :meth:`fetch_sequence`: segment ``s`` ends
        before access ``ends[s]`` and owns the distinct keys numbered
        ``bounds[s - 1]`` to ``bounds[s] - 1``, first accessed at
        ``first`` and in last-access order in ``by_last``."""
        fetch, move_to_end = self.fetch, self._entries.move_to_end
        start = lo = 0
        for end, hi in zip(ends, bounds):
            geoms, keys = [], []
            for i in first[lo:hi]:
                table, rowid, column_index = locate(i)
                geoms.append(fetch(table, rowid, column_index, ctx))
                keys.append((table.name, column_index, rowid))
            repeats = end - start - (hi - lo)
            if repeats:
                self.hits += repeats
                if ctx is not None:
                    ctx.charge("buffer_get_hit", repeats)
            for k in by_last[lo:hi]:
                move_to_end(keys[k - lo])
            yield end, geoms
            start, lo = end, hi

    def discard(self, table: Table, rowid: RowId, column_index: int) -> None:
        """Forget a row whose stored value changed (a DML hook)."""
        self._entries.pop((table.name, column_index, rowid), None)

    def clear(self) -> None:
        self._entries.clear()


def _distinct_accesses(seq: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of ``seq``, numbered in first-access order:
    their first positions (ascending), their last positions, and the
    number of every access's value."""
    order = np.argsort(seq, kind="stable")
    run = seq[order]
    head = np.ones(len(run), dtype=bool)
    np.not_equal(run[1:], run[:-1], out=head[1:])
    tail = np.ones(len(run), dtype=bool)
    tail[:-1] = head[1:]
    first, last = order[head], order[tail]
    by_first = np.argsort(first)
    number = np.empty(len(first), dtype=np.intp)
    number[by_first] = np.arange(len(first))
    entry = np.empty(len(run), dtype=np.intp)
    entry[order] = number[np.cumsum(head) - 1]
    return first[by_first], last[by_first], entry
