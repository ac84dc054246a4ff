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
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.engine.cursor import Cursor, GeneratorCursor
from repro.engine.types import Row, RowSchema
from repro.storage.catalog import ColumnMeta, TableMeta
from repro.geometry.mbr import MBR
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

__all__ = ["Table"]


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

    def fetch_geometry(self, rowid: RowId, column_index: int, ctx=None):
        """The geometry at ``(rowid, column_index)``, charged per format.

        Columnar-resident rows are served from their chunk (amortised
        ``physical_read`` on chunk load + one ``chunk_row_view``); rows
        the segment cannot serve — journaled, or no segment at all — pay
        the heap fetch (``geom_fetch_base`` + per-vertex decode), exactly
        the charges the geometry caches applied before compaction
        existed.  The charge difference is the measured columnar win; the
        returned geometry is identical either way.
        """
        return self._fetch_geometry(rowid, column_index, ctx, False)

    def fetch_packed(self, rowid: RowId, column_index: int, ctx=None):
        """:meth:`fetch_geometry` for the join's secondary filter: a heap
        row's polygon of one exterior ring comes back as a
        :class:`~repro.geometry.packed.PackedRing` over the record bytes
        (:func:`~repro.storage.codec.decode_ring_column`), no
        :class:`Geometry` built.  Same charges; any other row, and every
        columnar-resident one, is the :class:`Geometry`."""
        return self._fetch_geometry(rowid, column_index, ctx, True)

    def _fetch_geometry(self, rowid: RowId, column_index: int, ctx, packed: bool):
        seg = self.columnar
        if seg is not None:
            geom = seg.geometry_at(rowid, ctx)
            if geom is not MISSING:
                return geom
        data = self.heap.read(rowid)
        if packed:
            geom = decode_ring_column(data, column_index)
        else:
            geom = decode_row(data)[column_index]
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
        returns it, decoded from the bytes already read; a NULL geometry
        is ``(rowid, None, 0, None)``.

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
