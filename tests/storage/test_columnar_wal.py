"""Columnar durability: segments ride the WAL, survive crashes, and
round-trip overflow-chain geometries through compaction.

The compact step writes chunk pages through the buffer pool, so WAL
commit + checkpoint must make the whole segment (directory and pages)
recoverable; after reopen queries must keep answering from the columnar
path, not silently fall back to the heap.
"""

import os

import pytest

from repro.engine.database import Database, encode_row
from repro.errors import FaultError
from repro.geometry.geometry import Geometry
from repro.storage.fault import FaultPlan
from tests.storage.test_durability import ENDINGS, end_session

PAGE = 512
N = 30


def square(i):
    x, y = float(i % 6) * 2.0, float(i // 6) * 2.0
    return Geometry.polygon([(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)])


def big_ring(i, verts=120):
    """A polygon fat enough that its heap record spills into an overflow
    chain on 512-byte pages (~2 KB of ordinates)."""
    import math

    cx, cy = float(i) * 40.0, 0.0
    pts = [
        (
            cx + 10.0 * math.cos(2.0 * math.pi * k / verts),
            cy + 10.0 * math.sin(2.0 * math.pi * k / verts),
        )
        for k in range(verts)
    ]
    return Geometry.polygon(pts)


def populate(db, rows=N):
    t = db.create_table("shapes", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
    t.insert_many([(i, square(i)) for i in range(rows)])
    return t


def probe(db, i):
    return list(db.select_rowids("shapes", "geom", "SDO_FILTER", [square(i)]))


@pytest.mark.parametrize("end", ENDINGS)
class TestSegmentReopen:
    def test_segment_survives_reopen(self, tmp_path, end):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, page_size=PAGE)
        populate(db)
        db.create_spatial_index("s_idx", "shapes", "geom", kind="RTREE", fanout=6)
        db.compact_table("shapes")  # checkpoints the file-backed store
        before = {i: len(probe(db, i)) for i in range(N)}
        stats = db.storage_stats()
        assert stats["columnar_segments"] == 1
        end_session(db, end)

        db = Database.open(path, page_size=PAGE)
        try:
            seg = db.table("shapes").columnar
            assert seg is not None and seg.row_count == N
            assert seg.journal_empty()
            assert db.storage_stats()["columnar_segments"] == 1
            for i in range(N):
                assert len(probe(db, i)) == before[i] > 0
        finally:
            db.close()

    def test_journal_survives_reopen(self, tmp_path, end):
        # DML after compaction journals rows; a checkpointed snapshot must
        # carry the stale/dead/fresh sets so the reopened segment keeps
        # excluding them instead of serving frozen pre-update images.
        path = str(tmp_path / "db.pages")
        db = Database.open(path, page_size=PAGE)
        t = populate(db)
        db.create_spatial_index("s_idx", "shapes", "geom", kind="RTREE", fanout=6)
        db.compact_table("shapes")
        rid0 = next(iter(t.scan()))[0]
        t.update(rid0, (0, square(N + 5)))  # moved away from square(0)
        t.insert((N, square(N)))
        rid1 = [rid for rid, row in t.scan() if row[0] == 1][0]
        t.delete(rid1)
        db.checkpoint()
        expect = {i: len(probe(db, i)) for i in range(N + 6)}
        end_session(db, end)

        db = Database.open(path, page_size=PAGE)
        try:
            seg = db.table("shapes").columnar
            assert seg is not None and seg.journal_size() == 3
            for i in range(N + 6):
                assert len(probe(db, i)) == expect[i]
            # Re-compaction folds the journal back in.
            db.compact_table("shapes")
            seg = db.table("shapes").columnar
            assert seg.journal_empty() and seg.row_count == N
        finally:
            db.close()


class TestWalRecovery:
    def test_segment_recovered_from_wal_replay(self, tmp_path):
        # Commit the snapshot but skip checkpoint write-back: the chunk
        # pages exist only in the WAL and recovery must replay them.
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        populate(db, rows=12)
        db.create_spatial_index("s_idx", "shapes", "geom", kind="RTREE", fanout=6)
        db.compact_table("shapes")
        db._write_meta_chain(encode_row(db._build_snapshot()))
        db.pool.flush()
        db.pager.commit()
        db.pager.wal.close()
        db.pager.inner.close()

        db = Database.open(path, durability="wal", page_size=PAGE)
        try:
            assert db.storage_stats()["recovered_pages"] > 0
            seg = db.table("shapes").columnar
            assert seg is not None and seg.row_count == 12
            # chunk pages themselves must be readable, not just the directory
            assert [rid for rid, _row in seg.chunk_rows()] == [
                rid for rid, _data in db.table("shapes").heap.scan()
            ]
        finally:
            db.close()

    def test_chaos_seed_crash_during_compact(self, tmp_path, capsys):
        # A seeded random fault during/after compaction must never leave a
        # store that fails to reopen or whose segment disagrees with the
        # heap.  Reproduce any failure with the printed CHAOS_SEED.
        seed = int(os.environ.get("CHAOS_SEED", "2027"))
        print(f"CHAOS_SEED={seed}")
        plan = FaultPlan.random(seed)
        path = str(tmp_path / "db.pages")
        try:
            db = Database.open(
                path, durability="wal", page_size=PAGE, fault_plan=plan
            )
            populate(db, rows=12)
            db.create_spatial_index(
                "s_idx", "shapes", "geom", kind="RTREE", fanout=6
            )
            db.compact_table("shapes")
            db.close()
        except FaultError:
            pass

        db = Database.open(path, durability="wal", page_size=PAGE)
        try:
            if not db.catalog.has_table("shapes"):
                return  # crashed before the first checkpoint: empty store is fine
            t = db.table("shapes")
            if t.columnar is not None:
                # merged columnar scan must agree with the heap, rowid for
                # rowid — the heap stays the authority after any crash
                merged = [rid for rid, _row in t.scan()]
                assert merged == [rid for rid, _d in t.heap.scan()]
        finally:
            db.close()


class TestOverflowChains:
    def test_overflow_geometries_survive_compact_round_trip(self, tmp_path):
        # big_ring records exceed a 512-byte page, so the heap stores them
        # in overflow chains; compaction must decode the full chain and the
        # columnar copy must be bit-identical, including after reopen.
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        t = db.create_table(
            "rings", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")]
        )
        rows = [(i, big_ring(i)) for i in range(6)] + [(6, None)]
        t.insert_many(rows)
        heap_before = [row for _rid, row in t.scan()]
        db.compact_table("rings", chunk_rows=4)
        seg = db.table("rings").columnar
        assert seg is not None
        # a single big_ring record is larger than one page: its chunk must
        # span several pages
        assert seg.page_count > len(seg.chunks)
        after = [row for _rid, row in t.scan()]
        assert after == heap_before
        for (_id, g0), (_id2, g1) in zip(heap_before, after):
            if g0 is None:
                assert g1 is None
                continue
            assert list(g0.vertices()) == list(g1.vertices())
        db.checkpoint()
        db.close()

        db = Database.open(path, durability="wal", page_size=PAGE)
        try:
            reread = [row for _rid, row in db.table("rings").scan()]
            assert reread == heap_before
        finally:
            db.close()

    def test_overflow_update_journals_then_refolds(self, tmp_path):
        db = Database.open(
            str(tmp_path / "db.pages"), durability="wal", page_size=PAGE
        )
        t = db.create_table(
            "rings", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")]
        )
        t.insert_many([(i, big_ring(i)) for i in range(4)])
        db.compact_table("rings", chunk_rows=2)
        rid = next(iter(t.scan()))[0]
        t.update(rid, (0, big_ring(9, verts=200)))  # grow the overflow chain
        seg = db.table("rings").columnar
        assert rid in seg.stale
        assert t.fetch_packed(rid, 1).num_vertices == 200
        db.compact_table("rings", chunk_rows=2)
        seg = db.table("rings").columnar
        assert seg.journal_empty()
        assert seg.geometry_at(rid).num_vertices == 200
        db.close()
