"""Page-oriented storage backends.

Everything persistent in this library (heap tables, columnar segments, the
meta snapshot) sits on fixed-size pages addressed by integer page ids.  Two
backends are provided:

* :class:`MemoryPager` — pages live in a Python list; the default for tests
  and benchmarks (the benchmarks charge *simulated* I/O cost per logical
  page access, so a RAM backend does not distort the reported shapes).
* :class:`FilePager` — pages live in a single file; used by the examples to
  demonstrate durable databases.

Both backends count physical reads/writes so the buffer cache's hit ratio
can be asserted in tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import PageError

__all__ = [
    "PAGE_SIZE",
    "PagerStats",
    "Pager",
    "MemoryPager",
    "FilePager",
    "fsync_file",
]

PAGE_SIZE = 4096


def fsync_file(fh) -> None:
    """Flush Python buffers and force ``fh`` to stable storage.

    File-like wrappers (e.g. the fault-injection harness's
    :class:`~repro.storage.fault.FaultyFile`) expose a ``sync()`` method so
    they can observe/drop the fsync; plain files fall back to ``os.fsync``.
    """
    sync = getattr(fh, "sync", None)
    if sync is not None:
        sync()
        return
    fh.flush()
    os.fsync(fh.fileno())


@dataclass
class PagerStats:
    """Physical I/O counters for one pager."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.allocations = 0


class Pager:
    """Abstract page store: allocate / read / write fixed-size pages."""

    page_size: int

    def __init__(self, page_size: int = PAGE_SIZE):
        if page_size < 64:
            raise PageError(f"page size {page_size} too small")
        self.page_size = page_size
        self.stats = PagerStats()

    # -- interface -----------------------------------------------------
    def allocate(self) -> int:
        """Allocate a zeroed page, returning its page id."""
        raise NotImplementedError

    def read(self, page_id: int) -> bytes:
        raise NotImplementedError

    def write(self, page_id: int, data: bytes) -> None:
        raise NotImplementedError

    @property
    def num_pages(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    # -- shared validation ----------------------------------------------
    def _check_data(self, data: bytes) -> None:
        if len(data) != self.page_size:
            raise PageError(
                f"page payload must be exactly {self.page_size} bytes, "
                f"got {len(data)}"
            )


class MemoryPager(Pager):
    """In-memory page store."""

    def __init__(self, page_size: int = PAGE_SIZE):
        super().__init__(page_size)
        self._pages: List[bytes] = []

    def allocate(self) -> int:
        self._pages.append(bytes(self.page_size))
        self.stats.allocations += 1
        return len(self._pages) - 1

    def read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        self.stats.reads += 1
        return self._pages[page_id]

    def write(self, page_id: int, data: bytes) -> None:
        self._check_id(page_id)
        self._check_data(data)
        self.stats.writes += 1
        self._pages[page_id] = bytes(data)

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise PageError(f"page id {page_id} out of range (0..{len(self._pages) - 1})")


class FilePager(Pager):
    """Single-file page store.

    The file is a dense array of pages; page id N starts at byte
    ``N * page_size``.  On its own the backend offers only best-effort
    durability (``flush`` forces an fsync, and ``close`` flushes first so a
    clean shutdown never leaves dirty OS buffers behind); crash safety —
    write-ahead logging, page checksums, recovery — is layered on top by
    :class:`~repro.storage.wal.WalPager`, which supplies what the paper's
    system got for free from Oracle's recovery subsystem.

    ``opener`` lets the fault-injection harness substitute a faulty file
    (torn writes, dropped fsyncs, injected EIO) for the real one.
    ``strict=False`` tolerates a file whose size is not a page multiple —
    the signature of a torn append — by padding the partial tail page with
    zeros on read; recovery opens files this way so a torn page is
    *detected* by its checksum instead of refusing to open at all.
    """

    def __init__(
        self,
        path: str,
        page_size: int = PAGE_SIZE,
        strict: bool = True,
        opener: Optional[Callable[[str, str], object]] = None,
    ):
        super().__init__(page_size)
        self._path = path
        open_file = opener if opener is not None else open
        exists = os.path.exists(path)
        self._file = open_file(path, "r+b" if exists else "w+b")
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size != 0:
            if strict:
                self._file.close()
                raise PageError(
                    f"file {path} size {size} is not a multiple of page size {page_size}"
                )
            self._num_pages = size // page_size + 1
        else:
            self._num_pages = size // page_size

    @property
    def path(self) -> str:
        return self._path

    def allocate(self) -> int:
        page_id = self._num_pages
        self._file.seek(page_id * self.page_size)
        self._file.write(bytes(self.page_size))
        self._num_pages += 1
        self.stats.allocations += 1
        return page_id

    def read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        self.stats.reads += 1
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            # Only possible for a torn tail page under strict=False.
            data = data + bytes(self.page_size - len(data))
        return data

    def write(self, page_id: int, data: bytes) -> None:
        self._check_id(page_id)
        self._check_data(data)
        self.stats.writes += 1
        self._file.seek(page_id * self.page_size)
        self._file.write(data)

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def flush(self) -> None:
        fsync_file(self._file)

    def close(self) -> None:
        try:
            self.flush()
        finally:
            self._file.close()

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise PageError(f"page id {page_id} out of range (0..{self._num_pages - 1})")
