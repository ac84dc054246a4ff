"""Self-describing binary codec for row values.

Heap tables store rows as byte strings; this codec defines the format.  It
is a compact tag-length-value encoding covering every type the engine's
rows can contain, including geometries (stored in their SDO array form, the
same flattening the original system keeps on disk).

The format is deliberately independent of ``pickle`` so that on-disk bytes
are stable across Python versions and safe to read back.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError, StorageError
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.geometry.packed import pack_ring
from repro.geometry.sdo import (
    ETYPE_EXTERIOR,
    GTYPE_POLYGON,
    INTERP_VERTEX_LIST,
    SdoGeometry,
    from_sdo,
    to_sdo,
)
from repro.storage.heap import RowId

__all__ = [
    "encode_row",
    "decode_row",
    "decode_column",
    "decode_ring_column",
    "column_bounds",
    "BOUNDS_BATCH",
    "encode_f64_array",
    "decode_f64_array",
    "encode_u32_array",
    "decode_u32_array",
]

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6
_TAG_TUPLE = 7
_TAG_GEOMETRY = 8
_TAG_MBR = 9
_TAG_ROWID = 10

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


def encode_row(values: Sequence[Any]) -> bytes:
    """Encode a row (sequence of values) to bytes."""
    out = bytearray()
    out += _U32.pack(len(values))
    for value in values:
        _encode_into(out, value)
    return bytes(out)


def decode_row(data: bytes) -> Tuple[Any, ...]:
    """Decode bytes produced by :func:`encode_row`."""
    try:
        (count,) = _U32.unpack_from(data, 0)
        offset = _U32.size
        values: List[Any] = []
        for _ in range(count):
            value, offset = _decode_from(data, offset)
            values.append(value)
    except (struct.error, IndexError, UnicodeDecodeError):
        raise StorageError("row buffer short or corrupt") from None
    if offset != len(data):
        raise StorageError(f"trailing bytes after row decode: {len(data) - offset}")
    return tuple(values)


def decode_column(data: bytes, index: int) -> Any:
    """``decode_row(data)[index]`` without materialising the other values.

    Walks tags and lengths up to column ``index`` and decodes that one;
    columns after it are not read, so corruption there goes unnoticed.
    """
    try:
        (count,) = _U32.unpack_from(data, 0)
        if not 0 <= index < count:
            raise StorageError(f"column {index} out of range for a row of {count}")
        offset = _U32.size
        for _ in range(index):
            offset = _skip_from(data, offset)
        value, offset = _decode_from(data, offset)
    except (struct.error, IndexError, UnicodeDecodeError):
        raise StorageError(f"row buffer short or corrupt at column {index}") from None
    if offset > len(data):
        raise StorageError(f"column {index} overruns buffer")
    return value


def decode_ring_column(data: bytes, index: int) -> Any:
    """``decode_row(data)[index]``, except that a polygon stored as one
    exterior vertex-list ring comes back as a
    :class:`~repro.geometry.packed.PackedRing` viewing the record's bytes
    when :func:`~repro.geometry.packed.pack_ring` vouches for it.

    Every other column is decoded and trailing bytes are refused, as in
    :func:`decode_row`; a short or corrupt row raises ``StorageError``.
    """
    try:
        (count,) = _U32.unpack_from(data, 0)
        if not 0 <= index < count:
            raise StorageError(f"column {index} out of range for a row of {count}")
        offset = _U32.size
        for column in range(count):
            if column == index:
                result, offset = _decode_ring_from(data, offset)
            else:
                _value, offset = _decode_from(data, offset)
    except (struct.error, IndexError, UnicodeDecodeError):
        raise StorageError(f"row buffer short or corrupt at column {index}") from None
    if offset != len(data):
        raise StorageError(f"trailing bytes after row decode: {len(data) - offset}")
    return result


# Tag, gtype, elem_info length and the one triplet of a polygon stored as a
# single exterior vertex-list ring, then the ordinate count.
_RING_HEADER = struct.Struct("<B6I")
_XY = struct.Struct("<2d")
_RING_FORM = [_TAG_GEOMETRY, GTYPE_POLYGON, 3, 1, ETYPE_EXTERIOR, INTERP_VERTEX_LIST]


def _decode_ring_from(data: bytes, offset: int) -> Tuple[Any, int]:
    """:func:`_decode_from`, or a packed ring where one is vouched for."""
    start = offset + _RING_HEADER.size
    if start <= len(data):
        *form, n_ord = _RING_HEADER.unpack_from(data, offset)
        end = start + 8 * n_ord
        if form == _RING_FORM and n_ord % 2 == 0 and end <= len(data):
            ring = pack_ring(np.frombuffer(data, "<f8", n_ord, start).reshape(-1, 2))
            if ring is not None:
                return ring, end
    return _decode_from(data, offset)


# Records bounded per numpy pass: enough to amortise the reductions, few
# enough that a batch's ordinates stay small.
BOUNDS_BATCH = 256

Bounds = Tuple[Optional[MBR], int, Optional[Callable[[], Any]]]
_NULL_BOUNDS: Bounds = (None, 0, None)


def column_bounds(records: Sequence[bytes], index: int) -> List[Bounds]:
    """Per record, ``(geom.mbr, geom.num_vertices, geometry)`` for its
    geometry column ``geom = decode_row(data)[index]``, or ``(None, 0,
    None)`` where that column is NULL; ``as_geometry(geometry())`` is the
    value.

    A ring record — one exterior vertex-list ring (``_RING_FORM``) of at
    least 3 vertices whose closing row repeats row 0 bit for bit and whose
    row before that does not equal row 0, in a row whose other columns
    decode and that has no trailing bytes — is bounded from its
    ordinates, the whole batch in four numpy reductions, and
    ``geometry()`` reads it from the record when called, through
    :func:`decode_ring_column` (a packed ring where ``pack_ring`` vouches
    for it).  ``Ring``
    drops the closing row and may reverse the rest, so the same values are
    bounded; a bound that is not finite falls back (``Ring`` refuses the
    vertex), and so does a bound of ±0.0 (``mbr_of_points`` keeps the first
    of equal values, the reductions may keep either sign).  Every other
    record takes the full :func:`decode_row`, in record order, so a record
    it refuses raises what it raises, and ``geometry()`` returns the
    decoded value.
    """
    out: List[Optional[Bounds]] = [None] * len(records)
    fast: List[int] = []
    spans: List[bytes] = []
    rows: List[int] = []  # stored rows per ring, closing row included
    for i, data in enumerate(records):
        span = _ring_span(data, index)
        if span is not None:
            start, end = span
            fast.append(i)
            spans.append(data[start:end])
            rows.append((end - start) // 16)
    if fast:
        flat = np.frombuffer(b"".join(spans), "<f8")
        xs, ys = flat[0::2], flat[1::2]
        starts = np.cumsum([0] + rows[:-1])
        bounds = np.stack((
            np.minimum.reduceat(xs, starts),
            np.minimum.reduceat(ys, starts),
            np.maximum.reduceat(xs, starts),
            np.maximum.reduceat(ys, starts),
        ), axis=1)
        clean = (np.isfinite(bounds) & (bounds != 0.0)).all(axis=1)
        for i, box, ok, n in zip(fast, bounds.tolist(), clean.tolist(), rows):
            if ok:
                out[i] = (MBR(*box), n - 1, partial(decode_ring_column, records[i], index))
    for i, data in enumerate(records):
        if out[i] is None:
            geom = decode_row(data)[index]
            out[i] = _NULL_BOUNDS if geom is None else (
                geom.mbr, geom.num_vertices, _constant(geom)
            )
    return out


def _ring_span(data: bytes, index: int) -> Optional[Tuple[int, int]]:
    """The ordinate byte span of column ``index`` when ``data`` is a ring
    record (see :func:`column_bounds`), else None."""
    try:
        (count,) = _U32.unpack_from(data, 0)
        if not 0 <= index < count:
            return None
        offset = _U32.size
        span = None
        for column in range(count):
            if column != index:
                _value, offset = _decode_from(data, offset)
                continue
            *form, n_ord = _RING_HEADER.unpack_from(data, offset)
            start = offset + _RING_HEADER.size
            offset = start + 8 * n_ord
            # One exterior vertex-list ring of at least 4 stored rows, the
            # last repeating the first bit for bit and the one before it
            # not equal to the first: ``Ring`` drops the closing row, and
            # reversing a ring whose last row equals its first drops one
            # more, so only then are ``rows - 1`` vertices kept.
            if (
                form != _RING_FORM
                or n_ord % 2
                or n_ord < 8
                or offset > len(data)
                or data[start : start + 16] != data[offset - 16 : offset]
                or _XY.unpack_from(data, start) == _XY.unpack_from(data, offset - 32)
            ):
                return None
            span = start, offset
    # What the other columns raise is the full decode's to report, in
    # record order.
    except (struct.error, IndexError, UnicodeDecodeError, GeometryError, StorageError):
        return None
    return span if offset == len(data) else None


def _constant(value: Any) -> Callable[[], Any]:
    return lambda: value


# ----------------------------------------------------------------------
# Batch array fast paths
#
# The scalar encoder emits float64/uint32 sequences one ``struct.pack``
# call per value (the geometry ordinate/elem_info loops).  These helpers
# produce the *same bytes* in one C-level call — ``array('d')`` for the
# float plane, a single width-parameterised ``struct`` format for the
# uint plane — so the geometry codec and the columnar chunk writer pay
# O(1) Python overhead per array instead of O(n).  Byte-compatibility
# with the scalar loops is pinned by tests/storage/test_codec.py.
# ----------------------------------------------------------------------
def encode_f64_array(values: Sequence[float]) -> bytes:
    """Little-endian float64 concatenation, one call (== ``_F64.pack`` loop)."""
    arr = (
        values
        if isinstance(values, array) and values.typecode == "d"
        else array("d", values)
    )
    if sys.byteorder != "little":
        arr = array("d", arr)
        arr.byteswap()
    return arr.tobytes()


def decode_f64_array(data: bytes, offset: int, count: int) -> Tuple[array, int]:
    """Decode ``count`` little-endian float64s starting at ``offset``.

    Returns an ``array('d')`` (zero-copy-viewable by numpy) and the new
    offset.  Inverse of :func:`encode_f64_array`.
    """
    end = offset + 8 * count
    if end > len(data):
        raise StorageError(
            f"f64 array overruns buffer: need {end}, have {len(data)}"
        )
    arr = array("d")
    arr.frombytes(data[offset:end])
    if sys.byteorder != "little":
        arr.byteswap()
    return arr, end


def encode_u32_array(values: Sequence[int]) -> bytes:
    """Little-endian uint32 concatenation, one call (== ``_U32.pack`` loop)."""
    return struct.pack(f"<{len(values)}I", *values)


def decode_u32_array(data: bytes, offset: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` little-endian uint32s; inverse of :func:`encode_u32_array`."""
    end = offset + 4 * count
    if end > len(data):
        raise StorageError(
            f"u32 array overruns buffer: need {end}, have {len(data)}"
        )
    return list(struct.unpack_from(f"<{count}I", data, offset)), end


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        out += _I64.pack(value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, Geometry):
        sdo = to_sdo(value)
        out.append(_TAG_GEOMETRY)
        out += _U32.pack(sdo.gtype)
        out += _U32.pack(len(sdo.elem_info))
        out += encode_u32_array(sdo.elem_info)
        out += _U32.pack(len(sdo.ordinates))
        out += encode_f64_array(sdo.ordinates)
    elif isinstance(value, MBR):
        out.append(_TAG_MBR)
        out += _F64.pack(value.min_x)
        out += _F64.pack(value.min_y)
        out += _F64.pack(value.max_x)
        out += _F64.pack(value.max_y)
    elif isinstance(value, RowId):
        out.append(_TAG_ROWID)
        out += _U32.pack(value.page)
        out += _U32.pack(value.slot)
    else:
        raise StorageError(f"cannot encode value of type {type(value).__name__}")


# Payload bytes after the tag, for the tags whose size does not depend on
# their content.
_FIXED_SIZE = {
    _TAG_NONE: 0,
    _TAG_FALSE: 0,
    _TAG_TRUE: 0,
    _TAG_INT: _I64.size,
    _TAG_FLOAT: _F64.size,
    _TAG_MBR: 4 * _F64.size,
    _TAG_ROWID: 2 * _U32.size,
}


def _skip_from(data: bytes, offset: int) -> int:
    """Offset just past the value at ``offset``, reading only its lengths."""
    tag = data[offset]
    offset += 1
    size = _FIXED_SIZE.get(tag)
    if size is not None:
        return offset + size
    if tag in (_TAG_STR, _TAG_BYTES):
        (n,) = _U32.unpack_from(data, offset)
        return offset + _U32.size + n
    if tag == _TAG_TUPLE:
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        for _ in range(n):
            offset = _skip_from(data, offset)
        return offset
    if tag == _TAG_GEOMETRY:
        (n_elem,) = _U32.unpack_from(data, offset + _U32.size)
        offset += 2 * _U32.size + 4 * n_elem
        (n_ord,) = _U32.unpack_from(data, offset)
        return offset + _U32.size + 8 * n_ord
    raise StorageError(f"unknown codec tag {tag} at offset {offset - 1}")


def _decode_from(data: bytes, offset: int) -> Tuple[Any, int]:
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT:
        (v,) = _I64.unpack_from(data, offset)
        return v, offset + _I64.size
    if tag == _TAG_FLOAT:
        (f,) = _F64.unpack_from(data, offset)
        return f, offset + _F64.size
    if tag == _TAG_STR:
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return data[offset : offset + n].decode("utf-8"), offset + n
    if tag == _TAG_BYTES:
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return bytes(data[offset : offset + n]), offset + n
    if tag == _TAG_TUPLE:
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        items: List[Any] = []
        for _ in range(n):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return tuple(items), offset
    if tag == _TAG_GEOMETRY:
        (gtype,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        (n_elem,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        elem_info, offset = decode_u32_array(data, offset, n_elem)
        (n_ord,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        ord_arr, offset = decode_f64_array(data, offset, n_ord)
        return from_sdo(SdoGeometry(gtype, elem_info, list(ord_arr))), offset
    if tag == _TAG_MBR:
        vals = []
        for _ in range(4):
            (f,) = _F64.unpack_from(data, offset)
            vals.append(f)
            offset += _F64.size
        return MBR(*vals), offset
    if tag == _TAG_ROWID:
        (page,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        (slot,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return RowId(page, slot), offset
    raise StorageError(f"unknown codec tag {tag} at offset {offset - 1}")
