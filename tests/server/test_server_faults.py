"""Server-side fault handling: engine crashes mid-query must not leak
sessions, and the stats endpoint must keep working (including the storage
section) no matter what the engine does."""

import random

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine.database import Database as EngineDatabase
from repro.server import BackgroundServer, QueryClient, QueryService, RemoteError
from repro.server.protocol import ERR_INTERNAL, ERR_UNKNOWN_SESSION


def build_db():
    db = Database()
    rng = random.Random(9)
    rects = []
    for _ in range(40):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        rects.append(Geometry.rectangle(x, y, x + 2, y + 2))
    load_geometries(db, "a_tab", rects)
    db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
    return db


class BlowUpAfter(QueryService):
    """Streams ``good_rows`` rows, then the engine 'crashes'."""

    def __init__(self, db, good_rows=3):
        super().__init__(db)
        self.good_rows = good_rows
        self.cursor_closed = False

    def open(self, kind, params, ctx):
        service = self

        def rows():
            try:
                for i in range(service.good_rows):
                    yield [i]
                raise RuntimeError("engine exploded mid-fetch")
            finally:
                service.cursor_closed = True

        return rows(), {"columns": ["N"]}


class TestMidFetchEngineCrash:
    def test_session_cleaned_up_and_counted(self):
        db = build_db()
        service = BlowUpAfter(db, good_rows=3)
        with BackgroundServer(db, service=service) as handle:
            with QueryClient(port=handle.port) as c:
                session = c.start("sql", {"statement": "irrelevant"}, n=1)
                with pytest.raises(RemoteError) as info:
                    session.fetch(10)  # asks past the crash point
                assert info.value.code == ERR_INTERNAL
                assert "engine exploded" in str(info.value)

                # The session is gone server-side, not leaked...
                with pytest.raises(RemoteError) as info:
                    c.fetch(session.session_id, 1)
                assert info.value.code == ERR_UNKNOWN_SESSION

                stats = c.stats()
                assert stats["sessions"]["active"] == 0
                assert stats["sessions"]["closed"] >= 1
                assert stats["queries"]["sql"]["errors"] >= 1
        # ...and its generator was closed, releasing engine resources.
        assert service.cursor_closed

    def test_crash_in_open_leaves_no_session(self):
        db = build_db()

        class OpenBomb(QueryService):
            def open(self, kind, params, ctx):
                raise RuntimeError("open exploded")

        with BackgroundServer(db, service=OpenBomb(db)) as handle:
            with QueryClient(port=handle.port) as c:
                with pytest.raises(RemoteError) as info:
                    c.start("sql", {"statement": "x"})
                assert info.value.code == ERR_INTERNAL
                stats = c.stats()
                assert stats["sessions"]["active"] == 0
                assert stats["sessions"]["opened"] == 0

    def test_server_survives_repeated_crashes(self):
        db = build_db()
        with BackgroundServer(db, service=BlowUpAfter(db, good_rows=0)) as handle:
            with QueryClient(port=handle.port) as c:
                for _ in range(5):
                    # The crash is the first row: start's own page fails.
                    with pytest.raises(RemoteError):
                        c.start("sql", {"statement": "x"})
                assert c.ping()
                assert c.stats()["sessions"]["active"] == 0


class TestStorageStatsEndpoint:
    def test_memory_db_reports_storage_section(self):
        db = build_db()
        with BackgroundServer(db) as handle:
            with QueryClient(port=handle.port) as c:
                storage = c.stats()["storage"]
        assert storage["durability"] == "memory"
        assert storage["wal_bytes"] == 0
        assert storage["recovered_pages"] == 0

    def test_wal_db_reports_wal_counters(self, tmp_path):
        db = EngineDatabase.open(
            str(tmp_path / "served.pages"), durability="wal", page_size=512
        )
        rects = [Geometry.rectangle(i, i, i + 1, i + 1) for i in range(10)]
        load_geometries(db, "a_tab", rects)
        db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
        db.checkpoint()
        try:
            with BackgroundServer(db) as handle:
                with QueryClient(port=handle.port) as c:
                    storage = c.stats()["storage"]
            assert storage["durability"] == "wal"
            assert storage["checkpoints"] >= 1
            assert "wal_bytes" in storage and "recovered_pages" in storage
        finally:
            db.close()

    def test_broken_storage_stats_never_breaks_serving(self):
        db = build_db()

        def boom():
            raise RuntimeError("stats backend down")

        db.storage_stats = boom  # instance attribute shadows the method
        with BackgroundServer(db) as handle:
            with QueryClient(port=handle.port) as c:
                stats = c.stats()
                # scrapers still see the stable zeroed storage schema
                assert stats["storage"]["durability"] == "none"
                assert stats["storage"]["wal_bytes"] == 0
                assert c.ping()
