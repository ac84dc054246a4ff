"""Write-ahead log and WalPager unit tests (no fault injection here)."""

import os

import pytest

from repro.errors import ChecksumError, WalError
from repro.storage.checksum import crc32c, mask_crc
from repro.storage.pager import FilePager, MemoryPager
from repro.storage.wal import WalPager, WriteAheadLog
from tests.oracles import crc32c_reference, unmask_crc

PAGE = 512


class TestCrc32c:
    def test_known_vector(self):
        # The classic iSCSI check value for "123456789".
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_incremental_equals_whole(self):
        data = bytes(range(256)) * 3
        assert crc32c(data[100:], crc32c(data[:100])) == crc32c(data)

    def test_equals_the_table_driven_reference(self):
        """Random lengths 0-9000 (short inputs, partial and whole gather
        blocks), continued from random registers, masked or not."""
        import random

        rng = random.Random(4021)
        lengths = list(range(0, 12)) + [1023, 1024, 1025, 1027, 1028, 4096]
        lengths += [rng.randrange(0, 9001) for _ in range(60)]
        for n in lengths:
            data = rng.randbytes(n)
            prior = rng.getrandbits(32)
            assert crc32c(data) == crc32c_reference(data), n
            assert crc32c(data, prior) == crc32c_reference(data, prior), n
            assert mask_crc(crc32c(data)) == mask_crc(crc32c_reference(data))
            cut = rng.randrange(0, n + 1)
            assert crc32c(data[cut:], crc32c(data[:cut])) == crc32c_reference(data), n
        zeros = bytes(5000)
        assert crc32c(zeros) == crc32c_reference(zeros)
        assert crc32c(memoryview(zeros)[7:]) == crc32c_reference(zeros[7:])

    def test_mask_roundtrip(self):
        for crc in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
            assert unmask_crc(mask_crc(crc)) == crc

    def test_mask_moves_zero(self):
        # Storing a masked CRC defeats "everything zeroed" corruption.
        assert mask_crc(0) != 0


class TestWriteAheadLog:
    def test_replay_only_committed(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "x.wal"), PAGE)
        wal.append_page(0, b"a" * PAGE)
        wal.commit()
        wal.append_page(1, b"b" * PAGE)  # never committed
        pages, info = wal.replay()
        assert set(pages) == {0}
        assert info.commits == 1
        assert info.discarded_bytes > 0
        wal.close()

    def test_alloc_records_give_zero_pages(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "x.wal"), PAGE)
        wal.append_alloc(3)
        wal.append_page(4, b"d" * PAGE)
        wal.commit()
        pages, _ = wal.replay()
        assert pages[3] is None and pages[4] == b"d" * PAGE
        wal.close()

    def test_torn_tail_record_is_discarded(self, tmp_path):
        path = str(tmp_path / "x.wal")
        wal = WriteAheadLog(path, PAGE)
        wal.append_page(0, b"a" * PAGE)
        wal.commit()
        wal.append_page(1, b"b" * PAGE)
        wal.commit()
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)  # tear the final commit record
        wal = WriteAheadLog(path, PAGE)
        pages, info = wal.replay()
        assert set(pages) == {0}
        assert info.commits == 1
        assert info.discarded_bytes > 0
        wal.close()

    def test_corrupt_record_crc_stops_replay(self, tmp_path):
        path = str(tmp_path / "x.wal")
        wal = WriteAheadLog(path, PAGE)
        wal.append_page(0, b"a" * PAGE)
        wal.commit()
        first_commit = os.path.getsize(path)
        wal.append_page(1, b"b" * PAGE)
        wal.commit()
        wal.close()
        with open(path, "r+b") as fh:
            fh.seek(first_commit + 40)  # inside the second page image
            fh.write(b"\xff\x00\xff")
        wal = WriteAheadLog(path, PAGE)
        pages, info = wal.replay()
        assert set(pages) == {0}  # the corrupt batch is rolled back whole
        assert info.commits == 1
        wal.close()

    def test_torn_header_self_heals(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with open(path, "wb") as fh:
            fh.write(b"REPRO")  # half a magic: crash during creation
        wal = WriteAheadLog(path, PAGE)
        pages, info = wal.replay()
        assert pages == {} and info.commits == 0
        wal.close()

    def test_page_size_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "x.wal")
        WriteAheadLog(path, PAGE).close()
        with pytest.raises(WalError, match="page size"):
            WriteAheadLog(path, PAGE * 2)

    def test_page_size_refusal_closes_the_log(self, tmp_path, opened_files):
        path = str(tmp_path / "x.wal")
        WriteAheadLog(path, PAGE).close()
        with pytest.raises(WalError, match="page size"):
            WriteAheadLog(path, PAGE * 2)
        assert len(opened_files) == 2 and all(f.closed for f in opened_files)

    def test_reset_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "x.wal"), PAGE)
        wal.append_page(0, b"a" * PAGE)
        wal.commit()
        wal.reset()
        pages, info = wal.replay()
        assert pages == {} and info.commits == 0
        assert wal.size() == wal.header_size
        wal.close()

    def test_wrong_payload_size_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "x.wal"), PAGE)
        with pytest.raises(WalError):
            wal.append_page(0, b"short")
        wal.close()


def make_walpager(tmp_path, name="db"):
    inner = FilePager(str(tmp_path / f"{name}.pages"), page_size=PAGE, strict=False)
    return WalPager(inner, str(tmp_path / f"{name}.wal"))


class TestWalPager:
    def test_reads_see_buffered_writes(self, tmp_path):
        pager = make_walpager(tmp_path)
        pid = pager.allocate()
        assert pager.read(pid) == bytes(PAGE)
        pager.write(pid, b"x" * PAGE)
        assert pager.read(pid) == b"x" * PAGE
        pager.close()

    def test_checkpoint_migrates_to_main_file(self, tmp_path):
        pager = make_walpager(tmp_path)
        pid = pager.allocate()
        pager.write(pid, b"x" * PAGE)
        pager.commit()
        pager.checkpoint()
        assert pager.inner.read(pid) == b"x" * PAGE
        assert pager.wal.size() == pager.wal.header_size  # truncated
        pager.close()

    def test_uncommitted_state_lost_on_reopen(self, tmp_path):
        pager = make_walpager(tmp_path)
        pid = pager.allocate()
        pager.write(pid, b"x" * PAGE)
        pager.wal.close()  # simulate dying without commit
        pager.inner.close()
        reopened = make_walpager(tmp_path)
        assert reopened.num_pages == 0
        assert reopened.recovery.commits == 0
        reopened.close()

    def test_committed_state_recovered_on_reopen(self, tmp_path):
        pager = make_walpager(tmp_path)
        pid = pager.allocate()
        pager.write(pid, b"y" * PAGE)
        pager.commit()
        pager.wal.close()  # die after commit but before checkpoint
        pager.inner.close()
        reopened = make_walpager(tmp_path)
        assert reopened.read(pid) == b"y" * PAGE
        assert reopened.recovery.replayed_pages == 1
        reopened.close()

    def test_torn_main_page_detected_on_read(self, tmp_path):
        pager = make_walpager(tmp_path)
        pid = pager.allocate()
        pager.write(pid, b"z" * PAGE)
        pager.commit()
        pager.checkpoint()
        # Corrupt the main file behind the pager's back.
        pager.inner.write(pid, b"!" * PAGE)
        with pytest.raises(ChecksumError, match="checksum"):
            pager.read(pid)
        pager.close()

    def test_torn_main_page_repaired_on_open(self, tmp_path):
        path = tmp_path / "db.pages"
        pager = make_walpager(tmp_path)
        pid = pager.allocate()
        pager.write(pid, b"z" * PAGE)
        pager.commit()
        # Die before checkpoint, then corrupt the (stale) main file copy
        # after a partial manual checkpoint: simulate by writing garbage
        # directly and reopening — the WAL still holds the good image.
        pager.wal.close()
        pager.inner.close()
        with open(path, "r+b") as fh:
            fh.seek(0)
            fh.write(b"garbage")
        reopened = make_walpager(tmp_path)
        assert reopened.read(pid) == b"z" * PAGE
        reopened.close()

    def test_adopted_store_without_sidecar_stays_readable(self, tmp_path):
        # A main file that predates durability="wal" (or whose checksum
        # sidecar was lost) has pages the first checkpoint never rewrites;
        # their checksums must be sealed from the pages' *current* content,
        # not a placeholder that poisons every later read.
        path = str(tmp_path / "db.pages")
        inner = FilePager(path, page_size=PAGE)
        for content in (b"a", b"b", b"c"):
            pid = inner.allocate()
            inner.write(pid, content * PAGE)
        inner.close()

        pager = WalPager(FilePager(path, page_size=PAGE), str(tmp_path / "db.wal"))
        pager.write(1, b"B" * PAGE)  # touch one page only
        pager.commit()
        pager.checkpoint()
        assert pager.read(0) == b"a" * PAGE
        assert pager.read(2) == b"c" * PAGE
        pager.close()

        reopened = WalPager(
            FilePager(path, page_size=PAGE), str(tmp_path / "db.wal")
        )
        assert reopened.recovery.torn_pages_detected == 0
        assert reopened.read(0) == b"a" * PAGE
        assert reopened.read(1) == b"B" * PAGE
        assert reopened.read(2) == b"c" * PAGE
        reopened.close()

    def test_truncated_sidecar_treated_as_unverified(self, tmp_path):
        pager = make_walpager(tmp_path)
        pid = pager.allocate()
        pager.write(pid, b"s" * PAGE)
        pager.commit()
        pager.checkpoint()
        pager.close()
        chk = tmp_path / "db.wal.chk"
        blob = bytearray(chk.read_bytes())
        # Inflate the count field (magic is 10 bytes, page_size u32 next):
        # the sidecar now claims far more entries than the blob holds.
        blob[14:18] = (2**31).to_bytes(4, "little")
        chk.write_bytes(bytes(blob))
        reopened = make_walpager(tmp_path)  # must not raise struct.error
        assert reopened.read(pid) == b"s" * PAGE
        reopened.close()

    def test_memory_pager_inner_works(self, tmp_path):
        inner = MemoryPager(page_size=PAGE)
        pager = WalPager(inner, str(tmp_path / "m.wal"))
        pid = pager.allocate()
        pager.write(pid, b"m" * PAGE)
        pager.commit()
        pager.checkpoint()
        assert inner.read(pid) == b"m" * PAGE
        pager.close()

    def test_storage_stats_keys(self, tmp_path):
        pager = make_walpager(tmp_path)
        pager.allocate()
        pager.commit()
        stats = pager.storage_stats()
        for key in ("wal_bytes", "commits", "checkpoints", "recovered_pages"):
            assert key in stats
        assert stats["commits"] == 1
        pager.close()
