"""Crash-recovery matrix: kill the store at every interesting instant.

The durability contract under test: reopening a ``durability="wal"``
database after a crash at *any* point always yields the state of the last
completed checkpoint — never a torn page, never a half-applied batch, and
never a catalog pointing at a half-written index.

The matrix kills the simulated process at every WAL write call (several
cut points per call), at every main-file write during checkpoint
write-back, at every named crash site, and with a lying write-back cache
(fsync dropped).  A seeded random plan (``CHAOS_SEED``) adds one novel
crash per run; the seed is printed so any failure reproduces exactly.
"""

import os

import pytest

from repro.engine.database import Database
from repro.errors import FaultError
from repro.geometry.geometry import Geometry
from repro.storage.fault import FaultPlan

PAGE = 512
ROWS_A = 8  # rows in checkpoint A
ROWS_B = 20  # rows after checkpoint B


def square(i):
    x, y = float(i % 6), float(i // 6)
    return Geometry.polygon([(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)])


def build_phase_a(path, plan=None):
    """Create the store: table + R-tree index, checkpointed (state A)."""
    db = Database.open(
        path, durability="wal", page_size=PAGE, buffer_capacity=64, fault_plan=plan
    )
    t = db.create_table("t", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
    for i in range(ROWS_A):
        t.insert((i, square(i)))
    db.create_spatial_index("t_sidx", "t", "geom", kind="RTREE", fanout=4)
    db.close()


def build_phase_b(path, plan=None):
    """Reopen state A, add rows, checkpoint again (state B)."""
    db = Database.open(
        path, durability="wal", page_size=PAGE, buffer_capacity=64, fault_plan=plan
    )
    t = db.table("t")
    for i in range(ROWS_A, ROWS_B):
        t.insert((i, square(i)))
    db.close()


def check_consistent(path, allowed_row_counts):
    """Reopen with no faults; the state must be exactly one checkpoint."""
    db = Database.open(path, durability="wal", page_size=PAGE)
    try:
        if not db.catalog.has_table("t"):
            assert None in allowed_row_counts, "store lost table t entirely"
            return None
        rows = db.table("t").row_count
        assert rows in allowed_row_counts, (
            f"recovered {rows} rows; a checkpoint boundary allows only "
            f"{allowed_row_counts}"
        )
        # The index must agree with the table: every row findable.
        if db.catalog.has_index("t_sidx"):
            for i in range(rows):
                hits = list(
                    db.select_rowids("t", "geom", "SDO_FILTER", [square(i)])
                )
                assert hits, f"row {i} vanished from the recovered index"
        return rows
    finally:
        db.close()


def count_writes(builder, tmp_path, tag):
    """Probe run: how many write calls the workload makes to ``tag``."""
    probe = FaultPlan.counting()
    builder(str(tmp_path / "probe.pages"), probe)
    return probe.write_calls.get(tag, 0)


def sample_indices(n, limit=24):
    if n <= limit:
        return list(range(n))
    step = max(1, n // limit)
    picks = list(range(0, n, step))
    return picks[:limit] + [n - 1]


class TestKillAtEveryWalOffset:
    """The tentpole acceptance test: tear every WAL write, recover."""

    def test_phase_a_torn_wal_writes(self, tmp_path):
        total = count_writes(build_phase_a, tmp_path, "wal")
        assert total > 0
        for call in sample_indices(total):
            for keep in (0, 7):
                path = str(tmp_path / f"a_{call}_{keep}.pages")
                plan = FaultPlan(torn_write=("wal", call, keep))
                try:
                    build_phase_a(path, plan)
                except FaultError:
                    pass
                # Before the final commit the store rolls back to empty;
                # after it, to the complete state A.
                check_consistent(path, {None, ROWS_A})

    def test_phase_b_torn_wal_writes(self, tmp_path):
        base = str(tmp_path / "base.pages")
        build_phase_a(base)
        import shutil

        total = count_writes(
            lambda p, plan: (shutil.copy(base, p),
                             shutil.copy(base + ".wal", p + ".wal"),
                             shutil.copy(base + ".wal.chk", p + ".wal.chk"),
                             build_phase_b(p, plan))[-1],
            tmp_path,
            "wal",
        )
        assert total > 0
        for call in sample_indices(total, limit=16):
            path = str(tmp_path / f"b_{call}.pages")
            shutil.copy(base, path)
            shutil.copy(base + ".wal", path + ".wal")
            shutil.copy(base + ".wal.chk", path + ".wal.chk")
            plan = FaultPlan(torn_write=("wal", call, 3))
            try:
                build_phase_b(path, plan)
            except FaultError:
                pass
            # Never a torn middle: exactly state A or state B.
            check_consistent(path, {ROWS_A, ROWS_B})

    def test_torn_main_file_writes_repaired(self, tmp_path):
        """Tear checkpoint write-back: the WAL must repair the main file."""
        total = count_writes(build_phase_a, tmp_path, "data")
        assert total > 0
        for call in sample_indices(total, limit=16):
            path = str(tmp_path / f"d_{call}.pages")
            plan = FaultPlan(torn_write=("data", call, 100))
            try:
                build_phase_a(path, plan)
            except FaultError:
                pass
            check_consistent(path, {None, ROWS_A})


class TestCrashSites:
    @pytest.mark.parametrize(
        "site",
        [
            "wal.commit.before_fsync",
            "wal.commit.after_fsync",
            "checkpoint.begin",
            "checkpoint.page_written",
            "checkpoint.after_writeback",
            "checkpoint.before_truncate",
            "checkpoint.end",
        ],
    )
    def test_named_sites_phase_a(self, tmp_path, site):
        path = str(tmp_path / "db.pages")
        plan = FaultPlan(crash_sites={site: 0})
        try:
            build_phase_a(path, plan)
        except FaultError:
            pass
        check_consistent(path, {None, ROWS_A})

    def test_repeated_checkpoint_page_visits(self, tmp_path):
        # Kill at the Nth page write-back, for several N.
        for visit in (0, 3, 9, 30):
            path = str(tmp_path / f"v{visit}.pages")
            plan = FaultPlan(crash_sites={"checkpoint.page_written": visit})
            try:
                build_phase_a(path, plan)
            except FaultError:
                pass
            check_consistent(path, {None, ROWS_A})


class TestDroppedFsync:
    def test_lying_cache_rolls_back_cleanly(self, tmp_path):
        """fsync is dropped and the process dies: the "durable" commit must
        roll back to nothing rather than half-apply."""
        path = str(tmp_path / "db.pages")
        plan = FaultPlan(
            drop_fsync=("wal",), crash_sites={"checkpoint.after_writeback": 0}
        )
        try:
            build_phase_a(path, plan)
        except FaultError:
            pass
        check_consistent(path, {None, ROWS_A})

    def test_working_cache_commits_survive(self, tmp_path):
        # Same write-back cache, but fsync works: commit must survive.
        path = str(tmp_path / "db.pages")
        plan = FaultPlan(cache_tags=("wal",))
        build_phase_a(path, plan)
        assert check_consistent(path, {ROWS_A}) == ROWS_A


class TestMidBuildIndexCrash:
    def test_index_create_crash_none_or_complete(self, tmp_path):
        """Crash during ``create_spatial_index`` and the checkpoint after
        it: reopening must give either no index at all or the complete one
        (rebuilt from the table)."""
        import shutil

        base = str(tmp_path / "base.pages")
        # State A here: table only, checkpointed.
        db = Database.open(base, durability="wal", page_size=PAGE)
        t = db.create_table("t", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
        for i in range(ROWS_A):
            t.insert((i, square(i)))
        db.close()

        def build_index(path, plan):
            for suffix in ("", ".wal", ".wal.chk"):
                shutil.copy(base + suffix, path + suffix)
            db = Database.open(path, durability="wal", page_size=PAGE, fault_plan=plan)
            db.create_spatial_index("t_sidx", "t", "geom", kind="RTREE", fanout=4)
            db.close()

        total = count_writes(build_index, tmp_path, "wal")
        assert total > 0
        for call in sample_indices(total):
            work = str(tmp_path / f"i_{call}.pages")
            with pytest.raises(FaultError):  # every probed write is torn
                build_index(work, FaultPlan(torn_write=("wal", call, 9)))
            rows = check_consistent(work, {ROWS_A})
            assert rows == ROWS_A  # the base table is never collateral damage


class TestChaosSeed:
    def test_random_plan_keeps_invariant(self, tmp_path, capsys):
        seed = int(os.environ.get("CHAOS_SEED", "1009"))
        print(f"CHAOS_SEED={seed}")  # -s shows it; reproduce with the env var
        plan = FaultPlan.random(seed)
        path = str(tmp_path / "db.pages")
        crashed = False
        try:
            build_phase_a(path, plan)
        except FaultError:
            crashed = True
        try:
            build_phase_b(path, plan if not plan.tripped else None)
        except FaultError:
            crashed = True
        assert crashed or not plan.tripped
        check_consistent(path, {None, ROWS_A, ROWS_B})
