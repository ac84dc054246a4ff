"""Unit tests for page storage backends."""

import pytest

from repro.errors import PageError
from repro.storage.pager import PAGE_SIZE, FilePager, MemoryPager


class TestMemoryPager:
    def test_allocate_returns_sequential_ids(self):
        p = MemoryPager()
        assert p.allocate() == 0
        assert p.allocate() == 1
        assert p.num_pages == 2

    def test_new_page_is_zeroed(self):
        p = MemoryPager()
        pid = p.allocate()
        assert p.read(pid) == bytes(PAGE_SIZE)

    def test_write_read_roundtrip(self):
        p = MemoryPager(page_size=128)
        pid = p.allocate()
        data = bytes(range(128))
        p.write(pid, data)
        assert p.read(pid) == data

    def test_wrong_size_write_rejected(self):
        p = MemoryPager(page_size=128)
        pid = p.allocate()
        with pytest.raises(PageError):
            p.write(pid, b"short")

    def test_bad_page_id(self):
        p = MemoryPager()
        with pytest.raises(PageError):
            p.read(0)
        p.allocate()
        with pytest.raises(PageError):
            p.read(5)

    def test_stats_count_physical_io(self):
        p = MemoryPager(page_size=64)
        pid = p.allocate()
        p.write(pid, bytes(64))
        p.read(pid)
        p.read(pid)
        assert p.stats.allocations == 1
        assert p.stats.writes == 1
        assert p.stats.reads == 2
        p.stats.reset()
        assert p.stats.reads == 0

    def test_tiny_page_size_rejected(self):
        with pytest.raises(PageError):
            MemoryPager(page_size=16)


class TestFilePager:
    def test_roundtrip_through_file(self, tmp_path):
        path = str(tmp_path / "data.pages")
        p = FilePager(path, page_size=256)
        pid = p.allocate()
        payload = bytes([7] * 256)
        p.write(pid, payload)
        p.flush()
        p.close()

        reopened = FilePager(path, page_size=256)
        assert reopened.num_pages == 1
        assert reopened.read(pid) == payload
        reopened.close()

    def test_multiple_pages_persist(self, tmp_path):
        path = str(tmp_path / "multi.pages")
        p = FilePager(path, page_size=128)
        ids = [p.allocate() for _ in range(5)]
        for i, pid in enumerate(ids):
            p.write(pid, bytes([i] * 128))
        p.flush()
        p.close()

        reopened = FilePager(path, page_size=128)
        for i, pid in enumerate(ids):
            assert reopened.read(pid) == bytes([i] * 128)
        reopened.close()

    def test_misaligned_file_rejected(self, tmp_path):
        path = tmp_path / "bad.pages"
        path.write_bytes(b"x" * 100)
        with pytest.raises(PageError):
            FilePager(str(path), page_size=128)

    def test_misaligned_refusal_closes_the_file(self, tmp_path, opened_files):
        path = tmp_path / "bad.pages"
        path.write_bytes(b"x" * 100)
        with pytest.raises(PageError):
            FilePager(str(path), page_size=128)
        assert len(opened_files) == 1 and opened_files[0].closed

    def test_out_of_range_read(self, tmp_path):
        p = FilePager(str(tmp_path / "r.pages"), page_size=128)
        with pytest.raises(PageError):
            p.read(0)
        p.close()
