"""Crash-safe paging: write-ahead log, checksummed pages, recovery.

The paper streams index tiles and R-tree nodes into ordinary tables and
leans on Oracle's storage engine to survive a crashed slave or a killed
server mid-build.  This module supplies that substrate for the
reproduction: :class:`WalPager` wraps any :class:`~repro.storage.pager.Pager`
with

* a **physical write-ahead log** — every page write (and allocation) is
  appended to a side log as a checksummed page-image record before the
  main file is ever touched; a **commit record** followed by an fsync is
  the durability point (fsync-on-commit);
* **no-steal buffering** — the main file is only written at a
  **checkpoint**, *after* the log is durable, so the main file can never
  mix committed and uncommitted state;
* **per-page checksums** — a sidecar table of CRC32C checksums (rewritten
  atomically at each checkpoint) makes a torn main-file page *detectable*
  on read and *repairable* from the log on open;
* **recovery** — opening a ``WalPager`` replays every record up to the
  last durable commit, discards the torn/uncommitted tail, repairs any
  main-file page whose checksum fails, and truncates the log.  The store
  therefore always reopens to exactly the last committed state.

Log format (all integers little-endian)::

    header:  b"REPROWAL2\\n" | page_size u32 | reserved u32
    record:  type u8 | page_id u32 | payload_len u32 | lsn u64 | crc u32
             | payload

``crc`` is the masked CRC32C of the record header (minus the crc field)
plus payload, so a half-written record at the tail is recognised and the
replay stops there.  Records after the last COMMIT are ignored: a crash
mid-batch rolls back to the previous commit, never to a torn page.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ChecksumError, RecoveryError, WalError
from repro.obs import trace
from repro.storage.checksum import crc32c, mask_crc
from repro.storage.pager import Pager, fsync_file

__all__ = ["REC_PAGE", "REC_ALLOC", "REC_COMMIT", "RecoveryInfo", "WriteAheadLog", "WalPager"]

_WAL_MAGIC = b"REPROWAL2\n"
_WAL_HDR = struct.Struct("<II")  # page_size, reserved
_REC = struct.Struct("<BIIQI")  # type, page_id, payload_len, lsn, crc

REC_PAGE = 1
REC_ALLOC = 2
REC_COMMIT = 3
_REC_TYPES = (REC_PAGE, REC_ALLOC, REC_COMMIT)

_CHK_MAGIC = b"REPROCHK1\n"
_CHK_HDR = struct.Struct("<II")  # page_size, num_pages
_U32 = struct.Struct("<I")


def _record_crc(rtype: int, page_id: int, length: int, lsn: int, payload: bytes) -> int:
    head = struct.pack("<BIIQ", rtype, page_id, length, lsn)
    return mask_crc(crc32c(payload, crc32c(head)))


@dataclass
class RecoveryInfo:
    """What recovery found and fixed when the store was opened."""

    replayed_pages: int = 0  #: distinct pages restored from the log
    replayed_records: int = 0  #: committed records applied
    commits: int = 0  #: commit records honoured
    wal_bytes_replayed: int = 0  #: log bytes up to the last durable commit
    discarded_bytes: int = 0  #: torn/uncommitted tail bytes thrown away
    torn_pages_detected: int = 0  #: main-file pages failing their checksum
    torn_pages_repaired: int = 0  #: of those, rewritten from the log

    def as_dict(self) -> Dict[str, int]:
        return {
            "replayed_pages": self.replayed_pages,
            "replayed_records": self.replayed_records,
            "commits": self.commits,
            "wal_bytes_replayed": self.wal_bytes_replayed,
            "discarded_bytes": self.discarded_bytes,
            "torn_pages_detected": self.torn_pages_detected,
            "torn_pages_repaired": self.torn_pages_repaired,
        }


class WriteAheadLog:
    """Append-only page-image log with checksummed records.

    The log knows nothing about pagers; it appends records, fsyncs on
    commit, replays itself up to the last durable commit, and truncates.
    ``opener`` lets the fault harness substitute a faulty file.
    """

    def __init__(
        self,
        path: str,
        page_size: int,
        opener: Optional[Callable[[str, str], object]] = None,
    ):
        self.path = path
        self.page_size = page_size
        open_file = opener if opener is not None else open
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._file = open_file(path, "r+b" if exists else "w+b")
        self.next_lsn = 1
        self.last_commit_lsn = 0
        self.bytes_appended = 0  # cumulative across truncations
        try:
            if exists:
                self._read_header()
            else:
                self._write_header()
        except WalError:  # a refused log is closed, not left to the collector
            self._file.close()
            raise

    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        self._file.seek(0)
        self._file.truncate(0)
        self._file.write(_WAL_MAGIC + _WAL_HDR.pack(self.page_size, 0))
        fsync_file(self._file)

    def _read_header(self) -> None:
        self._file.seek(0)
        head = self._file.read(len(_WAL_MAGIC) + _WAL_HDR.size)
        if len(head) < len(_WAL_MAGIC) + _WAL_HDR.size or not head.startswith(_WAL_MAGIC):
            # A torn write during log *creation*: the header is written and
            # fsynced before the first record can ever be appended, so a
            # malformed header proves no commit survived — safe to restart.
            self._write_header()
            return
        page_size, _reserved = _WAL_HDR.unpack_from(head, len(_WAL_MAGIC))
        if page_size != self.page_size:
            raise WalError(
                f"log {self.path} was written with page size {page_size}, "
                f"store uses {self.page_size}"
            )

    @property
    def header_size(self) -> int:
        return len(_WAL_MAGIC) + _WAL_HDR.size

    def size(self) -> int:
        self._file.seek(0, os.SEEK_END)
        return self._file.tell()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(self, rtype: int, page_id: int, payload: bytes) -> int:
        lsn = self.next_lsn
        self.next_lsn += 1
        crc = _record_crc(rtype, page_id, len(payload), lsn, payload)
        record = _REC.pack(rtype, page_id, len(payload), lsn, crc) + payload
        self._file.seek(0, os.SEEK_END)
        self._file.write(record)
        self.bytes_appended += len(record)
        return lsn

    def append_page(self, page_id: int, data: bytes) -> int:
        if len(data) != self.page_size:
            raise WalError(
                f"page record must be {self.page_size} bytes, got {len(data)}"
            )
        return self._append(REC_PAGE, page_id, data)

    def append_alloc(self, page_id: int) -> int:
        return self._append(REC_ALLOC, page_id, b"")

    def commit(self) -> int:
        """Append a commit record and force the log to stable storage."""
        lsn = self._append(REC_COMMIT, 0, b"")
        fsync_file(self._file)
        self.last_commit_lsn = lsn
        return lsn

    # ------------------------------------------------------------------
    # Replay / truncation
    # ------------------------------------------------------------------
    def replay(self) -> Tuple[Dict[int, Optional[bytes]], RecoveryInfo]:
        """Scan the log, returning the committed page table.

        The returned dict maps page id to its last committed image
        (``None`` for pages that were allocated but never written).  Any
        malformed, truncated or checksum-failing record ends the scan;
        records after the last commit are discarded.
        """
        info = RecoveryInfo()
        pages: Dict[int, Optional[bytes]] = {}
        pending: List[Tuple[int, int, bytes]] = []
        self._file.seek(0, os.SEEK_END)
        total = self._file.tell()
        offset = self.header_size
        committed_offset = offset
        max_lsn = 0
        self._file.seek(offset)
        while offset + _REC.size <= total:
            head = self._file.read(_REC.size)
            if len(head) != _REC.size:
                break
            rtype, page_id, length, lsn, crc = _REC.unpack(head)
            if rtype not in _REC_TYPES or offset + _REC.size + length > total:
                break
            payload = self._file.read(length) if length else b""
            if len(payload) != length:
                break
            if _record_crc(rtype, page_id, length, lsn, payload) != crc:
                break
            offset += _REC.size + length
            max_lsn = max(max_lsn, lsn)
            if rtype == REC_COMMIT:
                for ptype, pid, pdata in pending:
                    if ptype == REC_PAGE:
                        pages[pid] = pdata
                    else:  # allocation: zero page unless later written
                        pages.setdefault(pid, None)
                    info.replayed_records += 1
                pending.clear()
                info.commits += 1
                committed_offset = offset
                self.last_commit_lsn = lsn
            else:
                pending.append((rtype, page_id, payload))
        info.wal_bytes_replayed = committed_offset - self.header_size
        info.discarded_bytes = total - committed_offset
        info.replayed_pages = len(pages)
        self.next_lsn = max_lsn + 1
        return pages, info

    def records_since(
        self, after_lsn: int, max_records: int = 128
    ) -> Tuple[List[Tuple[int, int, int, bytes]], bool]:
        """Committed records with ``lsn > after_lsn``, for follower shipping.

        Returns ``(records, reset)`` where each record is
        ``(lsn, rtype, page_id, payload)`` and only records covered by a
        durable COMMIT are included (a follower must never apply a batch
        the leader could roll back).  Scanning stops at the first torn or
        checksum-failing record, exactly like :meth:`replay`.

        LSNs are strictly sequential within one log generation, so a
        subscriber that has applied ``after_lsn`` expects ``after_lsn + 1``
        next.  If the log's first record is *newer* than that, a
        checkpoint truncated history the subscriber still needs:
        ``reset=True`` tells it to re-bootstrap from a full snapshot
        instead of applying a gapped stream.
        """
        records: List[Tuple[int, int, int, bytes]] = []
        pending: List[Tuple[int, int, int, bytes]] = []
        self._file.seek(0, os.SEEK_END)
        total = self._file.tell()
        offset = self.header_size
        first_lsn: Optional[int] = None
        self._file.seek(offset)
        while offset + _REC.size <= total and len(records) < max_records:
            head = self._file.read(_REC.size)
            if len(head) != _REC.size:
                break
            rtype, page_id, length, lsn, crc = _REC.unpack(head)
            if rtype not in _REC_TYPES or offset + _REC.size + length > total:
                break
            payload = self._file.read(length) if length else b""
            if len(payload) != length:
                break
            if _record_crc(rtype, page_id, length, lsn, payload) != crc:
                break
            offset += _REC.size + length
            if first_lsn is None:
                first_lsn = lsn
            if rtype == REC_COMMIT:
                pending.append((lsn, rtype, page_id, payload))
                records.extend(r for r in pending if r[0] > after_lsn)
                pending.clear()
            else:
                pending.append((lsn, rtype, page_id, payload))
        if first_lsn is not None:
            reset = first_lsn > after_lsn + 1
        else:
            # Empty log: everything lives in the checkpointed main file; a
            # subscriber behind that state cannot catch up from records.
            reset = self.next_lsn - 1 > after_lsn
        return records, reset

    def last_lsn(self) -> int:
        """The highest *committed* LSN (0 when nothing was ever committed).

        Shipped in every ``wal.tail`` response so a follower can compute
        its replication lag in LSNs without a second round trip.  The
        committed watermark — not ``next_lsn - 1`` — is the comparison
        point on purpose: tail shipping stops at commit boundaries, so a
        leader whose log ends in uncommitted records would otherwise show
        every caught-up follower as permanently lagging.
        """
        return self.last_commit_lsn

    def base_lsn(self) -> int:
        """The LSN a snapshot of the *checkpointed* state corresponds to.

        Everything up to (first record's lsn - 1) has been migrated out of
        the log by the last checkpoint; an empty log means the checkpoint
        covers every LSN ever issued (``next_lsn - 1``).
        """
        self._file.seek(0, os.SEEK_END)
        total = self._file.tell()
        if total < self.header_size + _REC.size:
            return self.next_lsn - 1
        self._file.seek(self.header_size)
        head = self._file.read(_REC.size)
        if len(head) != _REC.size:
            return self.next_lsn - 1
        rtype, _page_id, _length, lsn, _crc = _REC.unpack(head)
        if rtype not in _REC_TYPES:
            return self.next_lsn - 1
        return lsn - 1

    def reset(self) -> None:
        """Truncate the log back to an empty header (checkpoint complete)."""
        self._file.seek(0)
        self._file.truncate(0)
        self._file.write(_WAL_MAGIC + _WAL_HDR.pack(self.page_size, 0))
        fsync_file(self._file)

    def close(self) -> None:
        self._file.close()


class WalPager(Pager):
    """Crash-safe pager: WAL + page checksums over an inner pager.

    Writes and allocations are logged and buffered in an in-memory page
    table; the inner pager (the main file) is only touched at
    :meth:`checkpoint`.  The contract:

    * :meth:`commit` makes everything written so far durable (one fsync);
    * :meth:`checkpoint` migrates committed pages into the main file,
      rewrites the checksum sidecar atomically, and truncates the log;
    * opening a ``WalPager`` runs recovery: replay to the last commit,
      verify every main-file page against its checksum, repair torn pages
      from the log, then checkpoint.  A torn page with no log image to
      repair it raises :class:`~repro.errors.RecoveryError`.

    ``fault_plan`` (tests only) receives ``reached(site)`` callbacks at
    the named crash sites so the fault harness can kill the "process" at
    every interesting instant.
    """

    def __init__(
        self,
        inner: Pager,
        wal_path: str,
        checksum_path: Optional[str] = None,
        opener: Optional[Callable[[str, str], object]] = None,
        fault_plan=None,
    ):
        super().__init__(inner.page_size)
        self._inner = inner
        self._opener = opener if opener is not None else open
        self._fault = fault_plan
        self._chk_path = checksum_path or wal_path + ".chk"
        self.wal = WriteAheadLog(wal_path, inner.page_size, opener=opener)
        self._checksums: List[int] = self._load_checksums()
        self._table: Dict[int, Optional[bytes]] = {}
        self._num_pages = inner.num_pages
        self.commits = 0
        self.checkpoints = 0
        self.recovery = self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> RecoveryInfo:
        pages, info = self.wal.replay()
        if pages:
            self._num_pages = max(self._num_pages, max(pages) + 1)
        self._table = pages
        # Verify every main-file page we have a checksum for; a mismatch is
        # a torn checkpoint write and must be repairable from the log.
        unrepairable: List[int] = []
        for page_id in range(self._inner.num_pages):
            if page_id >= len(self._checksums):
                continue  # page beyond the last checkpointed sidecar
            data = self._inner.read(page_id)
            if mask_crc(crc32c(data)) != self._checksums[page_id]:
                info.torn_pages_detected += 1
                if page_id in pages:
                    info.torn_pages_repaired += 1
                else:
                    unrepairable.append(page_id)
        if unrepairable:
            raise RecoveryError(
                f"page(s) {unrepairable} fail their checksum and have no "
                f"log image to repair from; the store is corrupt"
            )
        if pages or info.discarded_bytes:
            # Migrate the committed state into the main file immediately so
            # the log can be truncated and a second crash re-recovers from
            # a clean base.
            self.checkpoint()
        return info

    # ------------------------------------------------------------------
    # Pager interface
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        page_id = self._num_pages
        self._num_pages += 1
        self.stats.allocations += 1
        self.wal.append_alloc(page_id)
        self._table[page_id] = None
        return page_id

    def read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        self.stats.reads += 1
        if page_id in self._table:
            data = self._table[page_id]
            return data if data is not None else bytes(self.page_size)
        data = self._inner.read(page_id)
        if page_id < len(self._checksums) and mask_crc(crc32c(data)) != self._checksums[page_id]:
            raise ChecksumError(
                f"page {page_id} failed its checksum on read (torn page); "
                f"reopen the store to run recovery"
            )
        return data

    def write(self, page_id: int, data: bytes) -> None:
        self._check_id(page_id)
        self._check_data(data)
        self.stats.writes += 1
        image = bytes(data)
        self.wal.append_page(page_id, image)
        self._table[page_id] = image

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def inner(self) -> Pager:
        return self._inner

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise WalError(
                f"page id {page_id} out of range (0..{self._num_pages - 1})"
            )

    # ------------------------------------------------------------------
    # Durability points
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Fsync the log: everything written so far is now durable."""
        with trace.span(
            "wal.commit", dirty_pages=len(self._table), commit=self.commits
        ) as sp:
            self._site("wal.commit.before_fsync")
            lsn = self.wal.commit()
            self._site("wal.commit.after_fsync")
            self.commits += 1
            sp.set_tag("lsn", lsn)
        return lsn

    def checkpoint(self) -> None:
        """Migrate the page table into the main file and truncate the log.

        Must only be called at a commit boundary (everything in the page
        table durable in the log); the write order — main pages, fsync,
        checksum sidecar (atomic rename), *then* log truncation — means a
        crash anywhere in between recovers from the still-intact log.
        """
        with trace.span(
            "wal.checkpoint",
            dirty_pages=len(self._table),
            checkpoint=self.checkpoints,
        ):
            self._checkpoint_inner()

    def _checkpoint_inner(self) -> None:
        self._site("checkpoint.begin")
        while self._inner.num_pages < self._num_pages:
            self._inner.allocate()
        grown = max(len(self._checksums), self._num_pages)
        checksums = self._checksums + [0] * (grown - len(self._checksums))
        # Pages beyond the old sidecar that this checkpoint does not rewrite
        # (the sidecar was absent/unreadable, or the file predates
        # durability="wal") must be sealed with the checksum of their
        # *current* content — a placeholder would make every later read of
        # a perfectly healthy page fail, with no log image to repair from.
        for page_id in range(len(self._checksums), grown):
            if page_id not in self._table:
                checksums[page_id] = mask_crc(crc32c(self._inner.read(page_id)))
        for page_id in sorted(self._table):
            data = self._table[page_id]
            image = data if data is not None else bytes(self.page_size)
            self._inner.write(page_id, image)
            checksums[page_id] = mask_crc(crc32c(image))
            self._site("checkpoint.page_written")
        flush = getattr(self._inner, "flush", None)
        if flush is not None:
            flush()
        self._site("checkpoint.after_writeback")
        self._write_checksums(checksums)
        self._checksums = checksums
        self._site("checkpoint.before_truncate")
        self.wal.reset()
        self._table.clear()
        self.checkpoints += 1
        self._site("checkpoint.end")

    def flush(self) -> None:
        """Alias for durability through the log (pager-compatible)."""
        self.commit()

    def close(self) -> None:
        self.wal.close()
        self._inner.close()

    # ------------------------------------------------------------------
    # Checksum sidecar
    # ------------------------------------------------------------------
    def _load_checksums(self) -> List[int]:
        if not os.path.exists(self._chk_path):
            return []
        try:
            with open(self._chk_path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return []
        head_len = len(_CHK_MAGIC) + _CHK_HDR.size
        if len(blob) < head_len + _U32.size or not blob.startswith(_CHK_MAGIC):
            return []  # unreadable sidecar: treat every page as unverified
        page_size, count = _CHK_HDR.unpack_from(blob, len(_CHK_MAGIC))
        if len(blob) < head_len + count * _U32.size + _U32.size:
            return []  # truncated/bit-flipped count: sidecar is unusable
        body = blob[head_len : head_len + count * _U32.size]
        (stored_crc,) = _U32.unpack_from(blob, head_len + count * _U32.size)
        if (
            page_size != self.page_size
            or len(body) != count * _U32.size
            or mask_crc(crc32c(body)) != stored_crc
        ):
            return []
        return [
            _U32.unpack_from(body, i * _U32.size)[0] for i in range(count)
        ]

    def _write_checksums(self, checksums: List[int]) -> None:
        body = b"".join(_U32.pack(c) for c in checksums)
        blob = (
            _CHK_MAGIC
            + _CHK_HDR.pack(self.page_size, len(checksums))
            + body
            + _U32.pack(mask_crc(crc32c(body)))
        )
        tmp_path = self._chk_path + ".tmp"
        tmp = self._opener(tmp_path, "w+b")
        try:
            tmp.write(blob)
            fsync_file(tmp)
        finally:
            tmp.close()
        os.replace(tmp_path, self._chk_path)

    # ------------------------------------------------------------------
    def _site(self, name: str) -> None:
        if self._fault is not None:
            self._fault.reached(name)

    def storage_stats(self) -> Dict[str, object]:
        """Counters for the service's stats endpoint."""
        return {
            "wal_bytes": self.wal.bytes_appended,
            "wal_size": self.wal.size(),
            "commits": self.commits,
            "checkpoints": self.checkpoints,
            "dirty_pages": len(self._table),
            "recovered_pages": self.recovery.replayed_pages,
            "repaired_pages": self.recovery.torn_pages_repaired,
            "recovery": self.recovery.as_dict(),
        }
