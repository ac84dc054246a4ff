"""``Database.open`` round trips: both durability modes, both index kinds."""

import pytest

from repro.engine.database import Database
from repro.errors import EngineError
from repro.geometry.geometry import Geometry

PAGE = 512
N = 24


def square(i):
    x, y = float(i % 6) * 2.0, float(i // 6) * 2.0
    return Geometry.polygon([(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)])


def populate(db, rows=N):
    t = db.create_table("shapes", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
    for i in range(rows):
        t.insert((i, square(i)))
    return t


def probe(db, i):
    return list(db.select_rowids("shapes", "geom", "SDO_FILTER", [square(i)]))


@pytest.mark.parametrize("durability", ["none", "wal"])
class TestRoundTrip:
    def test_rows_and_rtree_survive_reopen(self, tmp_path, durability):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability=durability, page_size=PAGE)
        populate(db)
        db.create_spatial_index("s_idx", "shapes", "geom", kind="RTREE", fanout=6)
        before = {i: len(probe(db, i)) for i in range(N)}
        db.close()

        db = Database.open(path, durability=durability, page_size=PAGE)
        try:
            assert db.table("shapes").row_count == N
            assert db.catalog.has_index("s_idx")
            for i in range(N):
                assert len(probe(db, i)) == before[i] > 0
        finally:
            db.close()

    def test_quadtree_survives_reopen(self, tmp_path, durability):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability=durability, page_size=PAGE)
        populate(db)
        db.create_spatial_index(
            "q_idx", "shapes", "geom", kind="QUADTREE", tiling_level=4
        )
        db.close()

        db = Database.open(path, durability=durability, page_size=PAGE)
        try:
            for i in range(N):
                assert probe(db, i)
        finally:
            db.close()

    def test_dml_after_reopen_maintains_index(self, tmp_path, durability):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability=durability, page_size=PAGE)
        populate(db)
        db.create_spatial_index("s_idx", "shapes", "geom", kind="RTREE", fanout=6)
        db.close()

        db = Database.open(path, durability=durability, page_size=PAGE)
        t = db.table("shapes")
        t.insert((N, square(N)))
        assert probe(db, N)  # maintenance hooks reattached on load
        db.close()

        db = Database.open(path, durability=durability, page_size=PAGE)
        try:
            assert db.table("shapes").row_count == N + 1
            assert probe(db, N)
        finally:
            db.close()

    def test_second_checkpoint_accumulates(self, tmp_path, durability):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability=durability, page_size=PAGE)
        populate(db, rows=5)
        db.checkpoint()
        t = db.table("shapes")
        for i in range(5, 12):
            t.insert((i, square(i)))
        db.close()
        db = Database.open(path, durability=durability, page_size=PAGE)
        try:
            assert db.table("shapes").row_count == 12
        finally:
            db.close()


class TestStorageStats:
    def test_memory_database_defaults(self):
        db = Database()
        stats = db.storage_stats()
        assert stats["durability"] == "memory"
        assert stats["wal_bytes"] == 0
        assert stats["recovered_pages"] == 0

    def test_wal_stats_surface(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        populate(db, rows=6)
        db.checkpoint()
        stats = db.storage_stats()
        assert stats["durability"] == "wal"
        assert stats["commits"] >= 1 and stats["checkpoints"] >= 1
        assert "wal_bytes" in stats and "recovered_pages" in stats
        db.close()

    def test_recovered_pages_counted(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        populate(db, rows=6)
        # Commit the snapshot but skip the checkpoint write-back: recovery
        # must replay these pages on the next open.
        blob_db = db
        from repro.engine.database import encode_row

        blob_db._write_meta_chain(encode_row(blob_db._build_snapshot()))
        blob_db.pool.flush()
        blob_db.pager.commit()
        blob_db.pager.wal.close()
        blob_db.pager.inner.close()

        db = Database.open(path, durability="wal", page_size=PAGE)
        try:
            stats = db.storage_stats()
            assert stats["recovered_pages"] > 0
            assert db.table("shapes").row_count == 6
        finally:
            db.close()


class TestMetaChainCorruption:
    def test_cyclic_meta_chain_raises_instead_of_hanging(self, tmp_path):
        # Corrupt page 0's next-pointer into a self-loop.  The page's magic
        # and chunk checksum stay valid (the CRC covers only the chunk), so
        # without a cycle guard open() would follow the chain forever.
        import struct

        from repro.errors import StorageError

        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="none", page_size=PAGE)
        populate(db, rows=4)
        db.close()

        with open(path, "r+b") as fh:
            head = bytearray(fh.read(16))
            magic, _next, chunk_len, chunk_crc = struct.unpack_from("<IIII", head)
            struct.pack_into("<IIII", head, 0, magic, 0, chunk_len, chunk_crc)
            fh.seek(0)
            fh.write(head)

        with pytest.raises(StorageError, match="cyclic or overlong"):
            Database.open(path, durability="none", page_size=PAGE)


    def test_other_snapshot_version_is_a_storage_error(self, tmp_path, monkeypatch):
        """Only the version this build writes loads; the 4-element SNAP1
        entries nothing ever wrote are no longer accepted."""
        from repro.engine import database
        from repro.errors import StorageError

        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="none", page_size=PAGE)
        populate(db, rows=4)
        with monkeypatch.context() as patched:
            patched.setattr(database, "_SNAP_VERSION", "SNAP1")
            db.close()
        with pytest.raises(StorageError, match="unknown version 'SNAP1'"):
            Database.open(path, durability="none", page_size=PAGE)


class TestOpenValidation:
    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(EngineError, match="durability"):
            Database.open(str(tmp_path / "x.pages"), durability="paranoid")

    def test_checkpoint_requires_file(self):
        with pytest.raises(EngineError, match="file-backed"):
            Database().checkpoint()
