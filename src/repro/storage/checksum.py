"""CRC32C (Castagnoli) checksums for pages and WAL records.

The durability layer checksums every page image (in the main file's
sidecar table and in every WAL record) so torn writes are *detected*
rather than silently read back as data.  CRC32C is the polynomial real
storage engines use for this job (iSCSI, ext4, Ceph, LevelDB).

The CRC register is linear over GF(2), so the CRC of a message is the XOR
of each byte's contribution — what that byte alone, followed by the bytes
after it, leaves in a zero register — plus the running register's.  A
byte's contribution depends only on its value and its distance from the
end, so one ``(distance, byte value)`` table turns a block into a single
numpy gather and ``XOR``-reduce.  The running register is folded into the
block's first 4 bytes (processing byte ``b`` with register ``r`` equals
processing ``b ^ (r & 0xFF)`` with ``r >> 8``), and inputs longer than
the table run block after block.  The table is built on the first call
of an input of 4 bytes or more, so a process that never checksums holds
none of it; shorter inputs take the classic reflected table-driven loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["crc32c", "mask_crc"]

_POLY = 0x82F63B78  # reflected CRC-32C polynomial

#: bytes per gathered block; the contribution table is _BLOCK x 256 x 4 B
#: (1 MiB), and a 4 KiB page is four gathers
_BLOCK = 1024


def _make_table() -> list:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _make_table()

#: flat (_BLOCK x 256) contributions, row i for a byte _BLOCK-1-i bytes
#: from the end, and each row's offset into it; built on first use
_contributions: Optional[np.ndarray] = None
_row_offsets: Optional[np.ndarray] = None


def _build() -> None:
    global _contributions, _row_offsets
    byte_table = np.array(_TABLE, dtype=np.uint32)
    rows = np.empty((_BLOCK, 256), dtype=np.uint32)
    rows[-1] = byte_table  # the last byte, from a zero register
    for i in range(_BLOCK - 2, -1, -1):  # one more zero byte after it
        after = rows[i + 1]
        rows[i] = byte_table[after & 0xFF] ^ (after >> 8)
    _row_offsets = np.arange(_BLOCK, dtype=np.intp) * 256
    _contributions = rows.ravel()  # last: crc32c tests it, from any thread


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data``, optionally continuing from a prior value."""
    crc ^= 0xFFFFFFFF
    n = len(data)
    if n < 4:
        return _loop(crc, data) ^ 0xFFFFFFFF
    if _contributions is None:
        _build()
    view = np.frombuffer(data, dtype=np.uint8)
    first = n % _BLOCK  # a short first block leaves every later one full
    if first:
        crc = _loop(crc, view[:first]) if first < 4 else _gather(crc, view[:first])
    for begin in range(first, n, _BLOCK):
        crc = _gather(crc, view[begin:begin + _BLOCK])
    return crc ^ 0xFFFFFFFF


def _gather(crc: int, block: np.ndarray) -> int:
    """The register after ``block`` (4 to _BLOCK bytes) from ``crc``."""
    index = block.astype(np.intp)
    for i in range(4):
        index[i] ^= (crc >> (8 * i)) & 0xFF
    index += _row_offsets[_BLOCK - len(index):]
    return int(np.bitwise_xor.reduce(_contributions[index]))


def _loop(crc: int, data) -> int:
    """The register after ``data`` from ``crc``, a byte at a time."""
    table = _TABLE
    for byte in bytes(data):
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


# LevelDB-style masking: a CRC stored alongside the very bytes it covers
# is itself vulnerable to systematic corruption (e.g. a zeroed sector has
# CRC 0 over zeros).  Storing a masked CRC makes "data and checksum both
# wiped the same way" detectable.
_MASK_DELTA = 0xA282EAD8


def mask_crc(crc: int) -> int:
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & 0xFFFFFFFF
