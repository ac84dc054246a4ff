"""``Database.open`` round trips through the WAL store, both index kinds,
after a clean close and after a kill that leaves the last commit in the log."""

import os

import pytest

from repro.datasets import load_geometries
from repro.engine.database import Database
from repro.engine.parallel import WorkerContext
from repro.errors import EngineError, IndexBuildError
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR

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


def end_session(db, end):
    """End a session before a reopen.  ``"close"`` checkpoints the log into
    the main file; ``"kill"`` commits and then stops without a checkpoint,
    so the commit lives in the log only and the reopen must replay it."""
    if end == "close":
        db.close()
    else:
        db.commit()
        db.close(checkpoint=False)
        assert os.path.getsize(db.path + ".wal") > 0  # the reopen replays it


# The clean-close case keeps the id it had when the store had two
# durability modes and this was the "wal" one.
ENDINGS = [pytest.param("close", id="wal"), pytest.param("kill", id="kill")]


@pytest.mark.parametrize("end", ENDINGS)
class TestRoundTrip:
    def test_rows_and_rtree_survive_reopen(self, tmp_path, end):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, page_size=PAGE)
        populate(db)
        db.create_spatial_index("s_idx", "shapes", "geom", kind="RTREE", fanout=6)
        before = {i: len(probe(db, i)) for i in range(N)}
        end_session(db, end)

        db = Database.open(path, page_size=PAGE)
        try:
            assert db.table("shapes").row_count == N
            assert db.catalog.has_index("s_idx")
            for i in range(N):
                assert len(probe(db, i)) == before[i] > 0
        finally:
            db.close()

    def test_quadtree_survives_reopen(self, tmp_path, end):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, page_size=PAGE)
        populate(db)
        db.create_spatial_index(
            "q_idx", "shapes", "geom", kind="QUADTREE", tiling_level=4
        )
        end_session(db, end)

        db = Database.open(path, page_size=PAGE)
        try:
            for i in range(N):
                assert probe(db, i)
        finally:
            db.close()

    def test_dml_after_reopen_maintains_index(self, tmp_path, end):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, page_size=PAGE)
        populate(db)
        db.create_spatial_index("s_idx", "shapes", "geom", kind="RTREE", fanout=6)
        end_session(db, end)

        db = Database.open(path, page_size=PAGE)
        t = db.table("shapes")
        t.insert((N, square(N)))
        assert probe(db, N)  # maintenance hooks reattached on load
        end_session(db, end)

        db = Database.open(path, page_size=PAGE)
        try:
            assert db.table("shapes").row_count == N + 1
            assert probe(db, N)
        finally:
            db.close()

    def test_second_checkpoint_accumulates(self, tmp_path, end):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, page_size=PAGE)
        populate(db, rows=5)
        db.checkpoint()
        t = db.table("shapes")
        for i in range(5, 12):
            t.insert((i, square(i)))
        end_session(db, end)
        db = Database.open(path, page_size=PAGE)
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
        # Corrupt page 0's next-pointer into a self-loop, written through
        # the log so the page's own checksum holds.  The page's magic and
        # chunk checksum stay valid (the CRC covers only the chunk), so
        # without a cycle guard open() would follow the chain forever.
        import struct

        from repro.errors import StorageError

        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        populate(db, rows=4)
        db.commit()
        head = bytearray(db.pager.read(0))
        magic, _next, chunk_len, chunk_crc = struct.unpack_from("<IIII", head)
        struct.pack_into("<IIII", head, 0, magic, 0, chunk_len, chunk_crc)
        db.pager.write(0, bytes(head))
        db.pager.commit()
        db.pager.close()

        with pytest.raises(StorageError, match="cyclic or overlong"):
            Database.open(path, durability="wal", page_size=PAGE)


    def test_other_snapshot_version_is_a_storage_error(self, tmp_path, monkeypatch):
        """Only the version this build writes loads; the 4-element SNAP1
        entries nothing ever wrote are no longer accepted."""
        from repro.engine import database
        from repro.errors import StorageError

        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        populate(db, rows=4)
        with monkeypatch.context() as patched:
            patched.setattr(database, "_SNAP_VERSION", "SNAP1")
            db.close()
        with pytest.raises(StorageError, match="unknown version 'SNAP1'"):
            Database.open(path, durability="wal", page_size=PAGE)

    def test_refused_snapshot_closes_the_store(self, tmp_path, monkeypatch, opened_files):
        from repro.engine import database
        from repro.errors import StorageError

        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        populate(db, rows=2)
        with monkeypatch.context() as patched:
            patched.setattr(database, "_SNAP_VERSION", "SNAP1")
            db.close()
        with pytest.raises(StorageError, match="unknown version 'SNAP1'"):
            Database.open(path, durability="wal", page_size=PAGE)
        assert opened_files and all(f.closed for f in opened_files)


class TestOpenValidation:
    def test_unknown_mode_rejected(self, tmp_path):
        # "wal" is the only mode; "none" (a bare FilePager store) is gone.
        for mode in ("paranoid", "none", None):
            with pytest.raises(EngineError, match="unknown durability mode"):
                Database.open(str(tmp_path / "x.pages"), durability=mode)
        assert not (tmp_path / "x.pages").exists()

    def test_default_is_the_wal_store(self, tmp_path):
        path = str(tmp_path / "x.pages")
        db = Database.open(path)
        try:
            assert db.storage_stats()["durability"] == "wal"
            assert os.path.exists(path + ".wal")
        finally:
            db.close()

    def test_checkpoint_requires_file(self):
        with pytest.raises(EngineError, match="file-backed"):
            Database().checkpoint()


class TestWalOnlyStores:
    """A store is opened only through its log: ``durability="none"``, which
    would bypass it, is refused as an unknown mode before any file is
    touched, and the WAL open that follows sees every committed row."""

    def test_none_refuses_uncheckpointed_wal_store(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        t = populate(db, rows=5)
        db.checkpoint()
        for i in range(5, 9):
            t.insert((i, square(i)))
        db.commit()
        db.pager.wal.close()  # stop without closing: the commit is log-only
        db.pager.inner.close()

        with pytest.raises(EngineError, match="unknown durability mode 'none'"):
            Database.open(path, durability="none", page_size=PAGE)
        db = Database.open(path, durability="wal", page_size=PAGE)
        try:
            assert db.table("shapes").row_count == 9
        finally:
            db.close()

    def test_none_refuses_cleanly_closed_wal_store(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        populate(db, rows=5)
        db.close()

        with pytest.raises(EngineError, match="unknown durability mode 'none'"):
            Database.open(path, durability="none", page_size=PAGE)
        db = Database.open(path, durability="wal", page_size=PAGE)
        try:
            assert db.table("shapes").row_count == 5
        finally:
            db.close()


def grid_square(i, per_row=20):
    x, y = float(i % per_row) * 2.0, float(i // per_row) * 2.0
    return Geometry.polygon([(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)])


def one_row_commits(tmp_path, kind, rows, commits=20):
    """Pages and WAL bytes each of ``commits`` one-row commits adds to an
    indexed WAL store of ``rows`` rows (default page size)."""
    path = str(tmp_path / f"{kind}_{rows}.pages")
    db = Database.open(path, durability="wal")
    t = db.create_table("shapes", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
    for i in range(rows):
        t.insert((i, grid_square(i)))
    db.create_spatial_index("s_idx", "shapes", "geom", kind=kind)
    db.checkpoint()
    pages, wal = [], []
    for i in range(commits):
        pages_before = db.pager.num_pages
        wal_before = db.storage_stats()["wal_bytes"]
        t.insert((rows + i, grid_square(i)))
        db.commit()
        pages.append(db.pager.num_pages - pages_before)
        wal.append(db.storage_stats()["wal_bytes"] - wal_before)
    page_size = db.pager.page_size
    db.close()
    return pages, wal, page_size


@pytest.mark.parametrize("kind", ["RTREE", "QUADTREE"])
class TestCommitCostIndependentOfIndex:
    """A commit writes dirty heap pages and the meta chain; the index is
    rebuilt on open, so nothing a commit writes grows with it."""

    def test_one_row_commits_add_only_row_pages(self, tmp_path, kind):
        pages, wal, page_size = one_row_commits(tmp_path, kind, rows=400)
        # 20 small rows fill at most two fresh heap pages; the meta chain
        # may grow by one.
        assert max(pages) <= 2, pages
        assert sum(pages) <= 3, pages
        # Each commit logs one heap page and the meta page, plus headers.
        assert max(wal) <= 3 * page_size, wal

    def test_wal_bytes_per_commit_do_not_grow_with_table(self, tmp_path, kind):
        _pages, small, _size = one_row_commits(tmp_path, kind, rows=100, commits=5)
        _pages, large, _size = one_row_commits(tmp_path, kind, rows=800, commits=5)
        assert sorted(large)[2] <= sorted(small)[2] + 64, (small, large)


def rtree_shape(node):
    """An R-tree's structure, free of process-local node ids."""
    return (
        node.level,
        tuple(
            (e.mbr, rtree_shape(e.child) if e.child is not None else e.rowid)
            for e in node.entries
        ),
    )


def index_shape(index):
    if index.kind == "RTREE":
        return (index.fanout, index.fill, rtree_shape(index.tree.root))
    return (
        index.grid.domain,
        index.tiling_level,
        index.btree_order,
        list(index.btree.items()),
    )


def self_join(db, kind, degree):
    """A self-join of ``shapes``: the paper's index join over R-trees, the
    per-row index-probe join over quadtrees."""
    if kind == "RTREE":
        return db.spatial_join("shapes", "geom", "shapes", "geom", parallel=degree)
    return db.nested_loop_join("shapes", "geom", "shapes", "geom")


WINDOWS = [
    Geometry.rectangle(10, 10, 40, 40),
    Geometry.rectangle(55, 0, 100, 30),
    Geometry.rectangle(0, 60, 25, 100),
]


def windows(db):
    """Each window's rowids, in answer order, with its WorkMeter counts."""
    out = []
    for window in WINDOWS:
        ctx = WorkerContext(0)
        rowids = list(
            db.select_rowids(
                "shapes", "geom", "SDO_RELATE", (window, "ANYINTERACT"), ctx
            )
        )
        out.append((rowids, ctx.meter.counts))
    return out


INDEX_PARAMS = {
    "RTREE": {"fanout": 5, "fill": 0.5},
    "QUADTREE": {"tiling_level": 5, "btree_order": 8},
}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kind", ["RTREE", "QUADTREE"])
class TestReopenRebuildsIndex:
    def open_indexed(self, tmp_path, random_rects, kind, degree):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal")
        load_geometries(db, "shapes", random_rects(120, seed=31))
        db.create_spatial_index(
            "s_idx", "shapes", "geom", kind=kind, parallel=degree,
            **INDEX_PARAMS[kind],
        )
        return path, db

    def test_no_dml_since_creation_reopens_identical(
        self, tmp_path, random_rects, kind, degree
    ):
        path, db = self.open_indexed(tmp_path, random_rects, kind, degree)
        shape = index_shape(db.spatial_index("s_idx"))
        join = self_join(db, kind, degree)
        answers = windows(db)
        db.close()

        db = Database.open(path, durability="wal")
        try:
            index = db.spatial_index("s_idx")
            assert index_shape(index) == shape
            again = self_join(db, kind, degree)
            assert again.pairs == join.pairs  # pairs and their order
            assert (
                again.run.combined_meter().counts
                == join.run.combined_meter().counts
            )
            assert windows(db) == answers
            meta = db.catalog.index("s_idx")
            assert meta.parallel_degree == degree
            for key, value in INDEX_PARAMS[kind].items():
                assert meta.parameters[key] == value
                assert getattr(index, key) == value
        finally:
            db.close()

    def test_dml_after_creation_keeps_answers(
        self, tmp_path, random_rects, kind, degree
    ):
        path, db = self.open_indexed(tmp_path, random_rects, kind, degree)
        t = db.table("shapes")
        domain = db.spatial_index("s_idx").grid.domain if kind == "QUADTREE" else None
        rowids = [rowid for rowid, _row in t.scan()]
        for rowid in rowids[::7]:
            t.delete(rowid)
        for i in range(30):  # inside the quadtree's domain
            x, y = 20.0 + i, 20.0 + i % 7
            t.insert((1000 + i, Geometry.rectangle(x, y, x + 2, y + 3)))
        db.commit()
        pairs = set(self_join(db, kind, degree).pairs)
        answers = [sorted(rowids) for rowids, _counts in windows(db)]
        db.close()

        db = Database.open(path, durability="wal")
        try:
            assert set(self_join(db, kind, degree).pairs) == pairs
            assert [sorted(r) for r, _counts in windows(db)] == answers
            if kind == "QUADTREE":
                # The recorded domain, not one re-inferred from the rows
                # that survived.
                index = db.spatial_index("s_idx")
                assert index.grid.domain == domain
                assert index.tiling_level == INDEX_PARAMS[kind]["tiling_level"]
        finally:
            db.close()


@pytest.mark.parametrize("kind", ["RTREE", "QUADTREE"])
def test_empty_indexed_table_reopens(tmp_path, kind):
    path = str(tmp_path / "db.pages")
    db = Database.open(path, durability="wal", page_size=PAGE)
    db.create_table("shapes", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
    params = {"domain": MBR(-1.0, -1.0, 20.0, 20.0)} if kind == "QUADTREE" else {}
    db.create_spatial_index("s_idx", "shapes", "geom", kind=kind, **params)
    db.close()

    db = Database.open(path, durability="wal", page_size=PAGE)
    try:
        assert db.spatial_index("s_idx").kind == kind
        assert probe(db, 0) == []
        db.table("shapes").insert((0, square(0)))
        assert len(probe(db, 0)) == 1
    finally:
        db.close()


def index_answers(db, probes):
    """Each index's rowids for each probe window, in answer order."""
    return {
        name: [
            list(db.spatial_index(name).fetch("SDO_RELATE", (w, "ANYINTERACT")))
            for w in probes
        ]
        for name in ("r_idx", "q_idx")
    }


class TestRejectedRowNeverCommitted:
    """A row an index rejects (a quadtree refuses a geometry outside its
    domain) leaves the table, every index and the next commit as they were,
    so the store still opens: opening rebuilds each index from the rows."""

    def test_rejected_insert_and_update_leave_store_openable(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.open(path, durability="wal", page_size=PAGE)
        t = populate(db)
        # The R-tree's hook runs first and accepts the row; the quadtree's
        # then rejects it, and the R-tree must forget the row again.
        db.create_spatial_index("r_idx", "shapes", "geom", kind="RTREE")
        db.create_spatial_index(
            "q_idx", "shapes", "geom", kind="QUADTREE", tiling_level=4
        )
        far = Geometry.rectangle(500, 500, 501, 501)
        probes = [far] + [square(i) for i in range(N)]
        rows = list(t.scan())
        answers = index_answers(db, probes)
        assert all(answers[name][0] == [] for name in answers)

        with pytest.raises(IndexBuildError, match="outside the index domain"):
            t.insert((99, far))
        with pytest.raises(IndexBuildError, match="outside the index domain"):
            t.update(rows[0][0], (0, far))
        assert list(t.scan()) == rows
        assert index_answers(db, probes) == answers
        db.commit()
        db.close()

        db = Database.open(path, durability="wal", page_size=PAGE)
        try:
            assert list(db.table("shapes").scan()) == rows
            assert index_answers(db, probes) == answers
        finally:
            db.close()
