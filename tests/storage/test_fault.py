"""The fault-injection harness itself must be trustworthy: these tests
pin down exactly what each injected fault does to the bytes on disk."""

import os

import pytest

from repro.errors import PageError
from repro.storage.fault import (
    CrashPoint,
    FaultPlan,
    FaultyFile,
    InjectedIOError,
    classify_path,
)
from repro.storage.pager import FilePager


class TestClassify:
    def test_tags(self):
        assert classify_path("/a/db.wal") == "wal"
        assert classify_path("/a/db.wal.chk") == "chk"
        assert classify_path("/a/db.wal.chk.tmp") == "chk"
        assert classify_path("/a/db.pages") == "data"


class TestTornWrite:
    def test_prefix_kept_then_dead(self, tmp_path):
        plan = FaultPlan(torn_write=("data", 1, 3))
        f = FaultyFile(str(tmp_path / "f.pages"), "w+b", plan, "data")
        f.write(b"AAAA")  # call 0: intact
        with pytest.raises(CrashPoint):
            f.write(b"BBBB")  # call 1: keeps 3 bytes, then dies
        assert plan.tripped
        with pytest.raises(CrashPoint):
            f.write(b"CCCC")  # dead file stays dead
        assert (tmp_path / "f.pages").read_bytes() == b"AAAABBB"

    def test_zero_keep_is_clean_kill(self, tmp_path):
        plan = FaultPlan(torn_write=("data", 0, 0))
        f = FaultyFile(str(tmp_path / "f.pages"), "w+b", plan, "data")
        with pytest.raises(CrashPoint):
            f.write(b"AAAA")
        assert (tmp_path / "f.pages").read_bytes() == b""

    def test_other_tags_unaffected(self, tmp_path):
        plan = FaultPlan(torn_write=("wal", 0, 0))
        f = FaultyFile(str(tmp_path / "f.pages"), "w+b", plan, "data")
        f.write(b"AAAA")
        assert (tmp_path / "f.pages").read_bytes() == b"AAAA"


class TestCrashAfterWrites:
    def test_counted_per_tag(self, tmp_path):
        plan = FaultPlan(crash_after_writes=("data", 2))
        f = FaultyFile(str(tmp_path / "f.pages"), "w+b", plan, "data")
        f.write(b"A")
        f.write(b"B")
        with pytest.raises(CrashPoint):
            f.write(b"C")
        assert (tmp_path / "f.pages").read_bytes() == b"AB"


class TestDroppedFsync:
    def test_unsynced_writes_lost_on_crash(self, tmp_path):
        path = str(tmp_path / "f.wal")
        plan = FaultPlan(drop_fsync=("wal",), crash_sites={"boom": 0})
        f = FaultyFile(path, "w+b", plan, "wal")
        f.write(b"DURABLE?")
        f.sync()  # silently dropped: bytes stay in the "OS cache"
        with pytest.raises(CrashPoint):
            plan.reached("boom")
        f.close()  # the plan is tripped: close discards the shadow
        assert os.path.getsize(path) == 0  # the lie is exposed

    def test_clean_close_still_lands(self, tmp_path):
        # No crash: a lazy cache eventually writes back.
        path = str(tmp_path / "f.wal")
        plan = FaultPlan(drop_fsync=("wal",))
        f = FaultyFile(path, "w+b", plan, "wal")
        f.write(b"EVENTUALLY")
        f.close()
        assert open(path, "rb").read() == b"EVENTUALLY"

    def test_working_sync_in_cache_mode(self, tmp_path):
        path = str(tmp_path / "f.wal")
        plan = FaultPlan(cache_tags=("wal",))
        f = FaultyFile(path, "w+b", plan, "wal")
        f.write(b"SYNCED")
        f.sync()
        plan.trip("post-sync crash")
        f.close()
        assert open(path, "rb").read() == b"SYNCED"

    def test_cache_mode_read_sees_own_writes(self, tmp_path):
        plan = FaultPlan(cache_tags=("wal",))
        f = FaultyFile(str(tmp_path / "f.wal"), "w+b", plan, "wal")
        f.write(b"HELLO")
        f.seek(0)
        assert f.read(5) == b"HELLO"


class TestEioAndSites:
    def test_eio_on_chosen_read(self, tmp_path):
        plan = FaultPlan(eio_reads=(("data", 1),))
        f = FaultyFile(str(tmp_path / "f.pages"), "w+b", plan, "data")
        f.write(b"ABCDEF")
        f.seek(0)
        assert f.read(3) == b"ABC"  # read 0 fine
        with pytest.raises(InjectedIOError):
            f.read(3)  # read 1 injected
        assert not plan.tripped  # EIO is survivable
        f.seek(3)
        assert f.read(3) == b"DEF"

    def test_site_countdown(self):
        plan = FaultPlan(crash_sites={"checkpoint.begin": 1})
        plan.reached("checkpoint.begin")  # visit 0: survives
        with pytest.raises(CrashPoint):
            plan.reached("checkpoint.begin")  # visit 1: dies
        with pytest.raises(CrashPoint):
            plan.reached("anything.else")  # plan is dead now

    def test_random_plans_are_deterministic(self):
        a, b = FaultPlan.random(42), FaultPlan.random(42)
        assert (a.torn_write, a.crash_after_writes, a.crash_sites, a.drop_fsync) == (
            b.torn_write,
            b.crash_after_writes,
            b.crash_sites,
            b.drop_fsync,
        )


class TestFaultyPager:
    """A ``FilePager`` over a plan's files: page-level faults as the main
    file under the WAL store meets them.  ``allocate`` writes a zeroed
    page, so it counts as a write call."""

    def test_eio_pages(self, tmp_path):
        plan = FaultPlan(eio_reads=(("data", 1),))
        pager = FilePager(str(tmp_path / "db.pages"), page_size=512, opener=plan.opener())
        p0, p1 = pager.allocate(), pager.allocate()
        pager.write(p0, b"a" * 512)
        assert pager.read(p0) == b"a" * 512  # read 0 fine
        with pytest.raises(InjectedIOError):
            pager.read(p1)  # read 1 injected
        assert not plan.tripped  # EIO is survivable
        assert pager.read(p1) == bytes(512)
        pager.close()

    def test_crash_after_n_writes(self, tmp_path):
        path = tmp_path / "db.pages"
        plan = FaultPlan(crash_after_writes=("data", 6))
        pager = FilePager(str(path), page_size=512, opener=plan.opener())
        pids = [pager.allocate() for _ in range(4)]  # writes 0..3
        pager.write(pids[0], b"a" * 512)
        pager.write(pids[1], b"b" * 512)
        with pytest.raises(CrashPoint):
            pager.write(pids[2], b"c" * 512)
        with pytest.raises(CrashPoint):
            pager.read(pids[0])  # dead pager stays dead
        data = path.read_bytes()
        assert data == b"a" * 512 + b"b" * 512 + bytes(1024)  # page 2 never landed

    def test_wraps_validation(self, tmp_path):
        plan = FaultPlan.counting()
        pager = FilePager(str(tmp_path / "db.pages"), page_size=512, opener=plan.opener())
        pid = pager.allocate()
        with pytest.raises(PageError):
            pager.write(pid, b"short")
        assert plan.write_calls == {"data": 1}  # refused before the file saw it
        pager.close()

    def test_torn_page_padded_on_reopen(self, tmp_path):
        # A torn append leaves a partial tail page: the strict pager refuses
        # the file, the recovery pager reads the tail zero-padded so its
        # checksum, not the open, reports the damage.
        path = str(tmp_path / "db.pages")
        plan = FaultPlan(torn_write=("data", 1, 100))
        pager = FilePager(path, page_size=512, opener=plan.opener())
        pager.allocate()
        with pytest.raises(CrashPoint):
            pager.allocate()
        with pytest.raises(PageError, match="not a multiple"):
            FilePager(path, page_size=512)
        pager = FilePager(path, page_size=512, strict=False)
        assert pager.num_pages == 2
        assert pager.read(1) == bytes(512)
        pager.close()
