"""Columnar geometry storage: chunked coordinate columns with zone maps.

The slotted heap (:mod:`repro.storage.heap`) stays the write/update
format; this module adds a *derived read format* a table can be
compacted into — the same split Oracle's In-Memory column store makes
between the buffer-cache row store and its IMCUs.  A
:class:`ColumnarSegment` holds the table's rows as a sequence of
**column chunks**, each a few hundred rows wide:

* every geometry's vertices laid out as one contiguous little-endian
  float64 ``x,y`` plane (in :meth:`~repro.geometry.geometry.Geometry.
  vertices` order), so a whole chunk's coordinates decode with a single
  buffer read and per-row access is pointer arithmetic — the
  "zero per-row decode" path: :meth:`ColumnarChunk.coords_view` returns
  an ndarray **aliasing** the chunk buffer, and each rebuilt polygon
  ring's ``_coords_array`` cache is pre-seeded with such a view, so the
  ring pair kernel never rebuilds a ring's vertex array;
* ring structure as per-ring role codes + delta/varint-encoded lengths,
  and a dictionary for the (few distinct) SDO gtypes — the lightweight
  compression layer;
* per-row MBR planes (ready for :func:`repro.geometry.kernels.
  mbr_filter_indices`), the row's heap rowid (delta-encoded), and the
  non-geometry remainder of the row as codec bytes;
* a **zone map**: the union MBR of the chunk's rows plus the row count,
  kept in the in-memory chunk directory so the primary filter can skip
  a whole chunk — charging only the ``zone_skip`` cost kind and emitting
  a ``buffer.zone_prune`` trace instant — without touching any of its
  pages.

Chunk blobs live on ordinary buffer-pool pages, so WAL durability
(page-image records, checksums, replay) covers them exactly like heap
pages.  DML after compaction goes to the heap as always and is journaled
against the segment (``stale`` / ``dead`` / ``fresh`` rowid sets) so
reads merge chunk rows with heap truth; results are bit-identical
between formats because rebuilt geometries pass through the same
normalisation the heap codec applies.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import StorageError
from repro.geometry import kernels
from repro.geometry.geometry import Geometry, GeometryType, Ring
from repro.geometry.mbr import MBR
from repro.obs import trace
from repro.storage.codec import (
    decode_f64_array,
    decode_row,
    encode_f64_array,
    encode_row,
    encode_u32_array,
    decode_u32_array,
)
from repro.storage.heap import RowId

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "ChunkMeta",
    "ColumnarChunk",
    "ColumnarSegment",
    "build_segment",
    "segment_snapshot",
    "segment_from_snapshot",
    "MISSING",
]

_MAGIC = 0x31435052  # "RPC1"
_VERSION = 1
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_NULL_CODE = 0xFF

#: default chunk width; small enough that zone maps stay selective on
#: spatially coherent load orders, large enough to amortise decode.
DEFAULT_CHUNK_ROWS = 256

#: sentinel distinguishing "row not resident in the segment" from a
#: resident row whose geometry column is NULL.
MISSING = object()

_GTYPE_OF = {
    GeometryType.POINT: 2001,
    GeometryType.LINESTRING: 2002,
    GeometryType.POLYGON: 2003,
    GeometryType.MULTIPOINT: 2005,
    GeometryType.MULTILINESTRING: 2006,
    GeometryType.MULTIPOLYGON: 2007,
}

# per-ring structure roles
_ROLE_POINT = 0
_ROLE_CHAIN = 1
_ROLE_EXTERIOR = 2
_ROLE_HOLE = 3

_UNSET = object()


# ----------------------------------------------------------------------
# varints (LEB128, unsigned) — the delta layer of the offset compression
# ----------------------------------------------------------------------
def _write_uv(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uv(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


@dataclass
class ChunkMeta:
    """Directory entry for one chunk: everything pruning needs, zero pages.

    ``zone`` is the union MBR of the chunk's non-NULL geometries as a
    ``(min_x, min_y, max_x, max_y)`` tuple, or ``None`` when the chunk
    holds only NULL geometries (nothing to match — always prunable).
    """

    pages: Tuple[int, ...]
    length: int
    row_count: int
    zone: Optional[Tuple[float, float, float, float]]
    min_rowid: RowId
    max_rowid: RowId

    def zone_intersects(self, box: Tuple[float, float, float, float], distance: float) -> bool:
        """Closed-interval gap test, identical to the kernels' MBR filter."""
        if self.zone is None:
            return False
        zx0, zy0, zx1, zy1 = self.zone
        lo_x, lo_y, hi_x, hi_y = box
        d = distance
        return not (
            lo_x - zx1 > d or zx0 - hi_x > d or lo_y - zy1 > d or zy0 - hi_y > d
        )


class ColumnarChunk:
    """One decoded chunk: struct-of-arrays over a few hundred rows."""

    __slots__ = (
        "row_count",
        "geom_col",
        "gtype_dict",
        "codes",
        "ring_off",
        "ring_roles",
        "ring_lens",
        "vert_off",
        "xy",
        "plane_rows",
        "planes",
        "rowids",
        "rest",
        "_geoms",
        "_row_pos",
        "_xy_np",
    )

    def __init__(self) -> None:
        self.row_count = 0
        self.geom_col = 0
        self.gtype_dict: List[int] = []
        self.codes = b""
        self.ring_off: List[int] = [0]
        self.ring_roles = b""
        self.ring_lens: List[int] = []
        self.vert_off: List[int] = [0]
        self.xy = array("d")
        self.plane_rows: List[int] = []
        self.planes: Tuple[array, array, array, array] = (
            array("d"),
            array("d"),
            array("d"),
            array("d"),
        )
        self.rowids: List[RowId] = []
        self.rest: List[bytes] = []
        self._geoms: List[Any] = []
        self._row_pos: Optional[Dict[RowId, int]] = None
        self._xy_np = None

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def position_of(self, rowid: RowId) -> Optional[int]:
        pos = self._row_pos
        if pos is None:
            pos = self._row_pos = {rid: i for i, rid in enumerate(self.rowids)}
        return pos.get(rowid)

    def mbr_planes(self) -> Tuple[array, array, array, array]:
        """Per-row MBR planes (non-NULL rows only; see ``plane_rows``)."""
        return self.planes

    def mbr(self, i: int) -> Optional[MBR]:
        code = self.codes[i]
        if code == _NULL_CODE:
            return None
        k = self._plane_index(i)
        x0s, y0s, x1s, y1s = self.planes
        return MBR(x0s[k], y0s[k], x1s[k], y1s[k])

    def _plane_index(self, i: int) -> int:
        # plane_rows is ascending; binary search the dense-plane slot.
        lo = bisect_right(self.plane_rows, i) - 1
        if lo < 0 or self.plane_rows[lo] != i:
            raise StorageError(f"row {i} has no geometry plane")
        return lo

    def coords_view(self, i: int):
        """``(n, 2)`` float64 ndarray **aliasing** row *i*'s vertex span.

        No copy: the returned array shares memory with the chunk's
        coordinate plane (``view.base`` reaches the chunk buffer), which
        is what lets batch kernels read chunk slices with zero per-row
        decode.
        """
        start, end = self.vert_off[i], self.vert_off[i + 1]
        return self._xy_full()[2 * start : 2 * end].reshape(end - start, 2)

    def _xy_full(self):
        full = self._xy_np
        if full is None:
            full = self._xy_np = np.frombuffer(self.xy, dtype=np.float64)
        return full

    def _view(self, start: int, n: int):
        return self._xy_full()[2 * start : 2 * (start + n)].reshape(n, 2)

    def row(self, i: int) -> Tuple[Any, ...]:
        """The full row tuple (geometry spliced back at ``geom_col``)."""
        others = decode_row(self.rest[i])
        g = self.geom_col
        return others[:g] + (self.geometry(i),) + others[g:]

    def geometry(self, i: int) -> Optional[Geometry]:
        """Row *i*'s geometry (``None`` for NULL), built lazily and cached.

        Rebuilt polygon rings get their ``_coords_array`` caches pre-seeded
        with chunk-aliasing views, and ``_mbr`` is seeded from the MBR
        plane, so the ring pair kernel does no per-row decode at all.
        """
        cached = self._geoms[i]
        if cached is not _UNSET:
            return cached
        geom = self._build_geometry(i)
        self._geoms[i] = geom
        return geom

    # ------------------------------------------------------------------
    def _build_geometry(self, i: int) -> Optional[Geometry]:
        code = self.codes[i]
        if code == _NULL_CODE:
            return None
        gtype = self.gtype_dict[code]
        xy = self.xy
        pos = self.vert_off[i]
        rings: List[Tuple[int, int, int]] = []  # (role, start, length)
        for r in range(self.ring_off[i], self.ring_off[i + 1]):
            ln = self.ring_lens[r]
            rings.append((self.ring_roles[r], pos, ln))
            pos += ln

        def coords(start: int, ln: int) -> List[Tuple[float, float]]:
            return [(xy[2 * k], xy[2 * k + 1]) for k in range(start, start + ln)]

        parts: List[Geometry] = []
        r = 0
        while r < len(rings):
            role, start, ln = rings[r]
            if role == _ROLE_POINT:
                part = Geometry.point(xy[2 * start], xy[2 * start + 1])
                r += 1
            elif role == _ROLE_CHAIN:
                part = Geometry.linestring(coords(start, ln))
                r += 1
            elif role == _ROLE_EXTERIOR:
                outer = Ring(coords(start, ln)).oriented(ccw=True)
                self._seed_ring(outer, start, ln)
                holes: List[Ring] = []
                r += 1
                while r < len(rings) and rings[r][0] == _ROLE_HOLE:
                    _role, hstart, hln = rings[r]
                    hole = Ring(coords(hstart, hln)).oriented(ccw=False)
                    self._seed_ring(hole, hstart, hln)
                    holes.append(hole)
                    r += 1
                part = Geometry(
                    GeometryType.POLYGON, exterior=outer, holes=tuple(holes)
                )
            else:  # pragma: no cover - encoder never emits a dangling hole
                raise StorageError(f"orphan hole ring in chunk row {i}")
            parts.append(part)

        if gtype == 2001 or gtype == 2002 or gtype == 2003:
            geom = parts[0]
        elif gtype == 2005:
            geom = Geometry(GeometryType.MULTIPOINT, parts=tuple(parts))
        elif gtype == 2006:
            geom = Geometry(GeometryType.MULTILINESTRING, parts=tuple(parts))
        elif gtype == 2007:
            geom = Geometry(GeometryType.MULTIPOLYGON, parts=tuple(parts))
        else:
            raise StorageError(f"unknown columnar gtype {gtype}")
        geom._mbr = self.mbr(i)
        geom._nvertices = self.vert_off[i + 1] - self.vert_off[i]
        return geom

    def _seed_ring(self, ring: Ring, start: int, n: int) -> None:
        # A reversed ring (degenerate orientation) no longer matches the
        # stored vertex order — leave its cache lazy rather than alias
        # the wrong direction.
        if len(ring.coords) == n and (
            ring.coords[0] == (self.xy[2 * start], self.xy[2 * start + 1])
        ):
            ring._coords_array = self._view(start, n)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    @classmethod
    def decode(cls, blob: bytes) -> "ColumnarChunk":
        chunk = cls()
        (magic,) = _U32.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise StorageError(f"bad columnar chunk magic 0x{magic:08x}")
        (version,) = _U16.unpack_from(blob, 4)
        if version != _VERSION:
            raise StorageError(f"unsupported columnar chunk version {version}")
        (chunk.geom_col,) = _U16.unpack_from(blob, 6)
        (n,) = _U32.unpack_from(blob, 8)
        chunk.row_count = n
        offset = 12
        n_dict = blob[offset]
        offset += 1
        chunk.gtype_dict, offset = decode_u32_array(blob, offset, n_dict)
        chunk.codes = blob[offset : offset + n]
        offset += n
        total_rings, offset = _read_uv(blob, offset)
        ring_off = [0]
        for _ in range(n):
            count, offset = _read_uv(blob, offset)
            ring_off.append(ring_off[-1] + count)
        chunk.ring_off = ring_off
        if ring_off[-1] != total_rings:
            raise StorageError("columnar chunk ring counts disagree")
        chunk.ring_roles = blob[offset : offset + total_rings]
        offset += total_rings
        lens: List[int] = []
        for _ in range(total_rings):
            ln, offset = _read_uv(blob, offset)
            lens.append(ln)
        chunk.ring_lens = lens
        total_verts, offset = _read_uv(blob, offset)
        vert_off = [0]
        ring_idx = 0
        for i in range(n):
            count = 0
            for r in range(ring_off[i], ring_off[i + 1]):
                count += lens[r]
            vert_off.append(vert_off[-1] + count)
        chunk.vert_off = vert_off
        if vert_off[-1] != total_verts:
            raise StorageError("columnar chunk vertex counts disagree")
        chunk.xy, offset = decode_f64_array(blob, offset, 2 * total_verts)
        chunk.plane_rows = [i for i in range(n) if chunk.codes[i] != _NULL_CODE]
        n_geom = len(chunk.plane_rows)
        planes = []
        for _ in range(4):
            plane, offset = decode_f64_array(blob, offset, n_geom)
            planes.append(plane)
        chunk.planes = tuple(planes)
        rowids: List[RowId] = []
        prev_page = 0
        for _ in range(n):
            dpage, offset = _read_uv(blob, offset)
            slot, offset = _read_uv(blob, offset)
            prev_page += dpage
            rowids.append(RowId(prev_page, slot))
        chunk.rowids = rowids
        rest: List[bytes] = []
        for _ in range(n):
            ln, offset = _read_uv(blob, offset)
            rest.append(blob[offset : offset + ln])
            offset += ln
        chunk.rest = rest
        if offset != len(blob):
            raise StorageError(
                f"trailing bytes after chunk decode: {len(blob) - offset}"
            )
        chunk._geoms = [_UNSET] * n
        return chunk


def encode_chunk(
    rows: Sequence[Tuple[Any, ...]],
    rowids: Sequence[RowId],
    geom_col: int,
) -> Tuple[bytes, Optional[Tuple[float, float, float, float]]]:
    """Encode one chunk's rows; returns ``(blob, zone_map)``."""
    n = len(rows)
    gtype_dict: List[int] = []
    dict_index: Dict[int, int] = {}
    codes = bytearray()
    ring_counts: List[int] = []
    ring_roles = bytearray()
    ring_lens: List[int] = []
    xy = array("d")
    planes = (array("d"), array("d"), array("d"), array("d"))
    rest: List[bytes] = []
    zone: Optional[Tuple[float, float, float, float]] = None

    for row, _rowid in zip(rows, rowids):
        geom = row[geom_col]
        if geom is None:
            codes.append(_NULL_CODE)
            ring_counts.append(0)
        elif isinstance(geom, Geometry):
            gtype = _GTYPE_OF.get(geom.geom_type)
            if gtype is None:
                raise StorageError(
                    f"cannot columnarise geometry type {geom.geom_type.name}"
                )
            code = dict_index.get(gtype)
            if code is None:
                if len(gtype_dict) >= _NULL_CODE:
                    raise StorageError("gtype dictionary overflow")
                code = dict_index[gtype] = len(gtype_dict)
                gtype_dict.append(gtype)
            codes.append(code)
            rings_before = len(ring_lens)
            for part in geom.simple_parts():
                if part.geom_type is GeometryType.POINT:
                    ring_roles.append(_ROLE_POINT)
                    ring_lens.append(1)
                    chains = (part.coords,)
                elif part.geom_type is GeometryType.LINESTRING:
                    ring_roles.append(_ROLE_CHAIN)
                    ring_lens.append(len(part.coords))
                    chains = (part.coords,)
                else:
                    assert part.exterior is not None
                    ring_roles.append(_ROLE_EXTERIOR)
                    ring_lens.append(len(part.exterior.coords))
                    chains = [part.exterior.coords]
                    for hole in part.holes:
                        ring_roles.append(_ROLE_HOLE)
                        ring_lens.append(len(hole.coords))
                        chains.append(hole.coords)
                for chain in chains:
                    for x, y in chain:
                        xy.append(x)
                        xy.append(y)
            ring_counts.append(len(ring_lens) - rings_before)
            box = geom.mbr
            planes[0].append(box.min_x)
            planes[1].append(box.min_y)
            planes[2].append(box.max_x)
            planes[3].append(box.max_y)
            if zone is None:
                zone = (box.min_x, box.min_y, box.max_x, box.max_y)
            else:
                zone = (
                    min(zone[0], box.min_x),
                    min(zone[1], box.min_y),
                    max(zone[2], box.max_x),
                    max(zone[3], box.max_y),
                )
        else:
            raise StorageError(
                f"column {geom_col} holds {type(geom).__name__}, not a geometry"
            )
        rest.append(encode_row(row[:geom_col] + row[geom_col + 1 :]))

    out = bytearray()
    out += _U32.pack(_MAGIC)
    out += _U16.pack(_VERSION)
    out += _U16.pack(geom_col)
    out += _U32.pack(n)
    out.append(len(gtype_dict))
    out += encode_u32_array(gtype_dict)
    out += codes
    _write_uv(out, len(ring_lens))
    for count in ring_counts:
        _write_uv(out, count)
    out += ring_roles
    for ln in ring_lens:
        _write_uv(out, ln)
    _write_uv(out, len(xy) // 2)
    out += encode_f64_array(xy)
    for plane in planes:
        out += encode_f64_array(plane)
    prev_page = 0
    for rowid in rowids:
        _write_uv(out, rowid.page - prev_page)
        _write_uv(out, rowid.slot)
        prev_page = rowid.page
    for blob in rest:
        _write_uv(out, len(blob))
        out += blob
    return bytes(out), zone


class ColumnarSegment:
    """A table's columnar read image: chunk directory + DML journal.

    The heap stays authoritative; this segment is a frozen copy of the
    rows as of the last compaction.  Later DML is journaled:

    * ``stale`` — updated rowids; read them from the heap, skip the chunk copy
    * ``dead`` — deleted rowids; skip entirely
    * ``fresh`` — rowids inserted after compaction; heap-only

    ``journal_empty`` therefore means the segment covers the table
    exactly.  Re-compacting folds the journal back in.
    """

    def __init__(
        self,
        pool,
        geom_col: int,
        chunks: Sequence[ChunkMeta],
        stale: Sequence[RowId] = (),
        dead: Sequence[RowId] = (),
        fresh: Sequence[RowId] = (),
        cache_chunks: int = 1024,
    ):
        self.pool = pool
        self.geom_col = geom_col
        self.chunks: List[ChunkMeta] = list(chunks)
        self.stale: Set[RowId] = set(stale)
        self.dead: Set[RowId] = set(dead)
        self.fresh: Set[RowId] = set(fresh)
        self.zone_prunes = 0
        self.chunk_loads = 0
        self._cache_chunks = cache_chunks
        self._loaded: "OrderedDict[int, ColumnarChunk]" = OrderedDict()
        self._starts: List[RowId] = [m.min_rowid for m in self.chunks]

    # ------------------------------------------------------------------
    # Shape / stats
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return sum(m.row_count for m in self.chunks)

    @property
    def page_count(self) -> int:
        return sum(len(m.pages) for m in self.chunks)

    @property
    def byte_size(self) -> int:
        return sum(m.length for m in self.chunks)

    def journal_empty(self) -> bool:
        return not (self.stale or self.dead or self.fresh)

    def journal_size(self) -> int:
        return len(self.stale) + len(self.dead) + len(self.fresh)

    def stats(self) -> Dict[str, int]:
        return {
            "chunks": len(self.chunks),
            "rows": self.row_count,
            "pages": self.page_count,
            "bytes": self.byte_size,
            "journal": self.journal_size(),
            "zone_prunes": self.zone_prunes,
            "chunk_loads": self.chunk_loads,
        }

    def drop_chunk_cache(self) -> None:
        """Release every decoded chunk (memory pressure / cold-cache runs).

        The next access to any chunk reloads it from the buffer pool and
        charges the usual ``physical_read`` per page.
        """
        self._loaded.clear()

    # ------------------------------------------------------------------
    # Journal maintenance (called from Table DML)
    # ------------------------------------------------------------------
    def note_insert(self, rowid: RowId) -> None:
        self.dead.discard(rowid)
        self.stale.discard(rowid)
        self.fresh.add(rowid)

    def note_update(self, rowid: RowId) -> None:
        if rowid not in self.fresh:
            self.stale.add(rowid)

    def note_delete(self, rowid: RowId) -> None:
        if rowid in self.fresh:
            self.fresh.discard(rowid)
        else:
            self.stale.discard(rowid)
            self.dead.add(rowid)

    def excluded(self) -> Set[RowId]:
        """Chunk rows that must *not* be served from the segment."""
        return self.stale | self.dead | self.fresh

    # ------------------------------------------------------------------
    # Chunk access
    # ------------------------------------------------------------------
    def chunk(self, idx: int, ctx=None) -> ColumnarChunk:
        """The decoded chunk (LRU-cached); a load charges ``physical_read``
        per chunk page and reads pages scan-resistantly with readahead."""
        chunk = self._loaded.get(idx)
        if chunk is not None:
            self._loaded.move_to_end(idx)
            return chunk
        meta = self.chunks[idx]
        self.pool.prefetch(meta.pages)
        buf = bytearray()
        for pid in meta.pages:
            buf += self.pool.get(pid, scan=True)
        chunk = ColumnarChunk.decode(bytes(buf[: meta.length]))
        self.chunk_loads += 1
        if ctx is not None:
            ctx.charge("physical_read", len(meta.pages))
        if trace.ENABLED:
            trace.instant(
                "columnar.chunk_load", chunk=idx, pages=len(meta.pages)
            )
        while len(self._loaded) >= self._cache_chunks:
            self._loaded.popitem(last=False)
        self._loaded[idx] = chunk
        return chunk

    def _chunk_index_of(self, rowid: RowId) -> Optional[int]:
        idx = bisect_right(self._starts, rowid) - 1
        if idx < 0:
            return None
        if rowid > self.chunks[idx].max_rowid:
            return None
        return idx

    def resident_position(self, rowid: RowId, ctx=None) -> Optional[Tuple[ColumnarChunk, int]]:
        """Locate ``rowid``'s chunk slot, or ``None`` if the segment must
        not serve it (journaled, or outside every chunk's rowid range)."""
        if rowid in self.fresh or rowid in self.stale or rowid in self.dead:
            return None
        idx = self._chunk_index_of(rowid)
        if idx is None:
            return None
        chunk = self.chunk(idx, ctx)
        pos = chunk.position_of(rowid)
        if pos is None:
            return None
        return chunk, pos

    def geometry_at(self, rowid: RowId, ctx=None):
        """Row's geometry served from its chunk, charging the columnar way:
        amortised ``physical_read`` on chunk load + one ``chunk_row_view``.
        Returns :data:`MISSING` when the segment cannot serve the row."""
        located = self.resident_position(rowid, ctx)
        if located is None:
            return MISSING
        chunk, pos = located
        if ctx is not None:
            ctx.charge("chunk_row_view")
        return chunk.geometry(pos)

    def row_at(self, rowid: RowId, ctx=None):
        located = self.resident_position(rowid, ctx)
        if located is None:
            return MISSING
        chunk, pos = located
        if ctx is not None:
            ctx.charge("chunk_row_view")
        return chunk.row(pos)

    def coords_view(self, rowid: RowId, ctx=None):
        """Zero-copy ``(n, 2)`` view of the row's vertices (numpy)."""
        located = self.resident_position(rowid, ctx)
        if located is None:
            return None
        chunk, pos = located
        return chunk.coords_view(pos)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def chunk_rows(self, ctx=None) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """All servable chunk rows in rowid order (journal rows excluded)."""
        skip = self.excluded()
        for idx in range(len(self.chunks)):
            chunk = self.chunk(idx, ctx)
            for pos, rowid in enumerate(chunk.rowids):
                if rowid in skip:
                    continue
                yield rowid, chunk.row(pos)

    def window_candidates(
        self,
        box: Tuple[float, float, float, float],
        distance: float = 0.0,
        ctx=None,
    ) -> Iterator[Tuple[RowId, Geometry]]:
        """Primary filter over the segment: consult zone maps, skip whole
        chunks without reading them, batch-MBR-filter the survivors.

        Yields ``(rowid, geometry)`` for chunk-resident rows whose MBR
        passes the window / within-distance test.  Journaled rows are the
        caller's business (they live in the heap).
        """
        skip = self.excluded()
        for idx, meta in enumerate(self.chunks):
            if not meta.zone_intersects(box, distance):
                self.zone_prunes += 1
                if ctx is not None:
                    ctx.charge("zone_skip")
                if trace.ENABLED:
                    trace.instant(
                        "buffer.zone_prune",
                        chunk=idx,
                        rows=meta.row_count,
                        pages=len(meta.pages),
                    )
                continue
            chunk = self.chunk(idx, ctx)
            if ctx is not None:
                ctx.charge("mbr_test", len(chunk.plane_rows))
            keep = kernels.mbr_filter_indices(chunk.mbr_planes(), box, distance)
            for k in keep:
                pos = chunk.plane_rows[k]
                rowid = chunk.rowids[pos]
                if rowid in skip:
                    continue
                if ctx is not None:
                    ctx.charge("chunk_row_view")
                yield rowid, chunk.geometry(pos)

    def all_zones_miss(
        self,
        box: Tuple[float, float, float, float],
        distance: float = 0.0,
        ctx=None,
    ) -> bool:
        """True when no chunk's zone map can intersect the query window.

        Sound as a query short-circuit only when ``journal_empty()`` —
        journaled rows have no zone coverage.  Charges one ``zone_skip``
        per consulted chunk either way.
        """
        hit = False
        for idx, meta in enumerate(self.chunks):
            if ctx is not None:
                ctx.charge("zone_skip")
            if meta.zone_intersects(box, distance):
                hit = True
                break
        if not hit and trace.ENABLED:
            trace.instant("buffer.zone_prune", chunk=-1, rows=self.row_count)
        return not hit

    # ------------------------------------------------------------------
    # Pickling (process-pool workers ship tables; caches stay local)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_loaded"] = OrderedDict()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def build_segment(
    heap,
    pool,
    geom_col: int,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> ColumnarSegment:
    """Compact a heap's current rows into a fresh columnar segment.

    Scans the heap in rowid order, packs ``chunk_rows`` rows per chunk,
    writes each chunk blob across freshly allocated buffer-pool pages
    (write-back through the pool, so WAL page-image durability applies),
    and returns the attached-ready segment with an empty journal.
    """
    if chunk_rows < 1:
        raise StorageError(f"chunk_rows must be >= 1, got {chunk_rows}")
    metas: List[ChunkMeta] = []
    rows: List[Tuple[Any, ...]] = []
    rowids: List[RowId] = []

    def flush() -> None:
        if not rows:
            return
        blob, zone = encode_chunk(rows, rowids, geom_col)
        page_size = pool.page_size
        pages = []
        for off in range(0, len(blob), page_size):
            piece = blob[off : off + page_size]
            if len(piece) < page_size:
                piece = piece + b"\x00" * (page_size - len(piece))
            pid = pool.allocate()
            pool.put(pid, piece)
            pages.append(pid)
        metas.append(
            ChunkMeta(
                pages=tuple(pages),
                length=len(blob),
                row_count=len(rows),
                zone=zone,
                min_rowid=rowids[0],
                max_rowid=rowids[-1],
            )
        )
        rows.clear()
        rowids.clear()

    for rowid, data in heap.scan():
        rows.append(decode_row(data))
        rowids.append(rowid)
        if len(rows) >= chunk_rows:
            flush()
    flush()
    return ColumnarSegment(pool, geom_col, metas)


# ----------------------------------------------------------------------
# Snapshot round-trip (the database meta snapshot persists the directory;
# chunk payloads are ordinary pages and ride WAL/checkpoint as-is)
# ----------------------------------------------------------------------
def _pack_rowids(rowids) -> Tuple[int, ...]:
    flat: List[int] = []
    for rowid in sorted(rowids):
        flat.append(rowid.page)
        flat.append(rowid.slot)
    return tuple(flat)


def _unpack_rowids(flat: Sequence[int]) -> List[RowId]:
    return [RowId(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def segment_snapshot(seg: ColumnarSegment) -> Tuple:
    """A codec-encodable tuple capturing the directory + journal."""
    chunks = tuple(
        (
            m.pages,
            m.length,
            m.row_count,
            m.zone,
            m.min_rowid.page,
            m.min_rowid.slot,
            m.max_rowid.page,
            m.max_rowid.slot,
        )
        for m in seg.chunks
    )
    return (
        seg.geom_col,
        chunks,
        _pack_rowids(seg.stale),
        _pack_rowids(seg.dead),
        _pack_rowids(seg.fresh),
    )


def segment_from_snapshot(pool, snap: Sequence) -> ColumnarSegment:
    geom_col, chunks, stale, dead, fresh = snap
    metas = [
        ChunkMeta(
            pages=tuple(pages),
            length=length,
            row_count=row_count,
            zone=tuple(zone) if zone is not None else None,
            min_rowid=RowId(minp, mins),
            max_rowid=RowId(maxp, maxs),
        )
        for pages, length, row_count, zone, minp, mins, maxp, maxs in chunks
    ]
    return ColumnarSegment(
        pool,
        geom_col,
        metas,
        stale=_unpack_rowids(stale),
        dead=_unpack_rowids(dead),
        fresh=_unpack_rowids(fresh),
    )
