"""Storage substrate: pages, buffer cache, heaps, B+-tree, catalog, WAL."""

from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.catalog import Catalog, ColumnMeta, IndexMeta, TableMeta
from repro.storage.checksum import crc32c, mask_crc
from repro.storage.codec import decode_row, encode_row
from repro.storage.fault import (
    CrashPoint,
    FaultPlan,
    FaultyFile,
    InjectedIOError,
)
from repro.storage.heap import HeapFile, RowId
from repro.storage.pager import (
    PAGE_SIZE,
    FilePager,
    MemoryPager,
    Pager,
    PagerStats,
    fsync_file,
)
from repro.storage.wal import RecoveryInfo, WalPager, WriteAheadLog

__all__ = [
    "PAGE_SIZE",
    "Pager",
    "MemoryPager",
    "FilePager",
    "PagerStats",
    "fsync_file",
    "BufferPool",
    "BufferStats",
    "HeapFile",
    "RowId",
    "BPlusTree",
    "encode_row",
    "decode_row",
    "Catalog",
    "ColumnMeta",
    "TableMeta",
    "IndexMeta",
    "crc32c",
    "mask_crc",
    "WriteAheadLog",
    "WalPager",
    "RecoveryInfo",
    "CrashPoint",
    "InjectedIOError",
    "FaultPlan",
    "FaultyFile",
]
