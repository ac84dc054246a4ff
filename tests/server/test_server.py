"""End-to-end tests for the concurrent query service.

One `BackgroundServer` per module-scoped fixture; most tests talk to it
over real sockets with `QueryClient`.  The acceptance criteria from the
issue live here: byte-identical paged joins, disconnect/deadline hygiene
(asserted through the ``stats`` endpoint), backpressure, and graceful
shutdown.
"""

import random
import threading
import time

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine.parallel import MAX_DEGREE, ProcessExecutor, WorkerContext, make_executor
from repro.errors import CatalogError, EngineError
from repro.geometry.wkt import to_wkt
from repro.server import BackgroundServer, QueryClient, QueryService, RemoteError
from repro.server.service import MAX_CANDIDATE_ARRAY_SIZE, BadRequest
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_SESSION,
)


def rects(n, seed, extent=100.0, size=4.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(0, extent - size)
        y = rng.uniform(0, extent - size)
        out.append(
            Geometry.rectangle(
                x, y,
                x + rng.uniform(size * 0.2, size),
                y + rng.uniform(size * 0.2, size),
            )
        )
    return out


def build_db() -> Database:
    db = Database()
    load_geometries(db, "a_tab", rects(180, seed=71))
    load_geometries(db, "b_tab", rects(200, seed=72))
    db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
    db.create_spatial_index("b_idx", "b_tab", "geom", kind="RTREE", fanout=6)
    return db


@pytest.fixture(scope="module")
def served():
    """(handle, db) for a background server over the two-table database."""
    db = build_db()
    with BackgroundServer(db) as handle:
        yield handle, db


@pytest.fixture
def client(served):
    handle, _ = served
    with QueryClient(port=handle.port) as c:
        yield c


def wire_pairs_to_tuples(rows):
    return [((a[0], a[1]), (b[0], b[1])) for a, b in rows]


def expected_join_pairs(db):
    result = db.spatial_join("a_tab", "geom", "b_tab", "geom")
    return [
        ((ra.page, ra.slot), (rb.page, rb.slot)) for ra, rb in result.pairs
    ]


JOIN_PARAMS = {
    "table_a": "a_tab",
    "column_a": "geom",
    "table_b": "b_tab",
    "column_b": "geom",
}


class TestQueryKinds:
    def test_ping(self, client):
        assert client.ping()

    def test_paged_join_is_byte_identical_to_in_process(self, served, client):
        """The headline acceptance criterion: same pairs, same order."""
        _, db = served
        session = client.start("spatial_join", JOIN_PARAMS)
        rows = session.all(page=7)  # awkward page size on purpose
        assert wire_pairs_to_tuples(rows) == expected_join_pairs(db)

    def test_join_small_pages_equal_one_big_fetch(self, served, client):
        small = client.start("spatial_join", JOIN_PARAMS).all(page=3)
        big = client.start("spatial_join", JOIN_PARAMS).all(page=65536)
        assert small == big

    def test_window_query_matches_engine(self, served, client):
        _, db = served
        query = Geometry.rectangle(10, 10, 40, 40)
        session = client.start(
            "window",
            {"table": "a_tab", "column": "geom", "wkt": to_wkt(query)},
        )
        got = {tuple(r) for r in session.all()}
        want = {
            (rid.page, rid.slot)
            for rid in db.select_rowids(
                "a_tab", "geom", "SDO_RELATE",
                [query, "ANYINTERACT"], WorkerContext(0),
            )
        }
        assert got == want and got

    def test_knn_query(self, served, client):
        session = client.start(
            "knn",
            {
                "table": "b_tab",
                "column": "geom",
                "wkt": "POINT (50 50)",
                "k": 5,
            },
        )
        rows = session.all()
        assert len(rows) == 5
        assert session.extra["k"] == 5

    def test_sql_session_pages_with_columns(self, served, client):
        session = client.start(
            "sql", {"statement": "select id from a_tab where id <= 10"}
        )
        assert session.columns == ["ID"]
        rows = session.all(page=4)
        assert sorted(r[0] for r in rows) == sorted(
            row[0] for row in served[1].sql(
                "select id from a_tab where id <= 10"
            ).rows
        )
        assert rows

    def test_close_midway_reports_not_exhausted(self, client):
        session = client.start("spatial_join", JOIN_PARAMS, n=1)
        session.fetch(2)
        summary = session.close()
        assert summary["rows"] == 2
        assert summary["exhausted"] is False

    def test_fetch_after_close_is_unknown_session(self, client):
        session = client.start("sql", {"statement": "select id from a_tab"})
        session.close()
        with pytest.raises(RemoteError) as info:
            client.fetch(session.session_id, 1)
        assert info.value.code == ERR_UNKNOWN_SESSION

    def test_bad_requests(self, client):
        with pytest.raises(RemoteError) as info:
            client.start("window", {"table": "a_tab"})
        assert info.value.code == ERR_BAD_REQUEST
        with pytest.raises(RemoteError) as info:
            client.start("nonsense", {})
        assert info.value.code == ERR_BAD_REQUEST
        with pytest.raises(RemoteError) as info:
            client.start("window", {"table": "a_tab", "column": "geom",
                                    "wkt": "POLYGON oops"})
        assert info.value.code == ERR_BAD_REQUEST

    @pytest.mark.parametrize("degree", ["abc", None, [2], 2.7, True, 0, -3])
    def test_join_degree_is_validated(self, served, client, degree):
        """A ``parallel`` that is not an integer >= 1 is BAD_REQUEST naming
        the parameter — not a bare ValueError / TypeError, and not a
        silently serial (0, -3) or truncated (2.7) join."""
        _, db = served
        with pytest.raises(BadRequest, match="parallel"):
            QueryService(db).open(
                "spatial_join", {**JOIN_PARAMS, "parallel": degree}, WorkerContext(0)
            )
        with pytest.raises(RemoteError, match="parallel") as info:
            client.start("spatial_join", {**JOIN_PARAMS, "parallel": degree})
        assert info.value.code == ERR_BAD_REQUEST

    @pytest.mark.parametrize(
        "params, named",
        [
            ({"distance": "abc"}, "distance"),
            ({"distance": None}, "distance"),
            ({"distance": float("nan")}, "distance"),
            ({"distance": float("inf")}, "distance"),
            ({"distance": -1}, "distance"),
            ({"distance": float("nan"), "strategy": "GRID", "parallel": 2}, "distance"),
            ({"mask": "BOGUS"}, "mask"),
            ({"candidate_array_size": "x"}, "candidate_array_size"),
            ({"candidate_array_size": 0}, "candidate_array_size"),
            ({"strategy": "VORONOI"}, "strategy"),
        ],
        ids=lambda v: repr(v) if isinstance(v, dict) else v,
    )
    def test_bad_join_arguments_are_bad_requests(self, served, client, params, named):
        """The raw values reach the engine's validation (OperatorError /
        JoinError, mapped to BadRequest) — not a bare ValueError /
        TypeError, not 0 pairs for NaN, not every pair for inf."""
        _, db = served
        with pytest.raises(BadRequest, match=named):
            QueryService(db).open(
                "spatial_join", {**JOIN_PARAMS, **params}, WorkerContext(0)
            )
        with pytest.raises(RemoteError, match=named) as info:
            client.start("spatial_join", {**JOIN_PARAMS, **params})
        assert info.value.code == ERR_BAD_REQUEST

    def test_process_degree_is_bounded_by_the_hosts_cpus(
        self, served, client, monkeypatch
    ):
        """``use_processes`` forks one slave per degree: a degree above
        ``os.cpu_count()`` is refused before any fork; simulated degrees
        are bounded only by ``MAX_DEGREE``."""
        _, db = served
        too_many = {**JOIN_PARAMS, "parallel": 512, "strategy": "GRID"}
        forks = []
        monkeypatch.setattr(ProcessExecutor, "run", lambda *a: forks.append(a))
        with pytest.raises(BadRequest, match="parallel=512.*CPUs"):
            QueryService(db).open(
                "spatial_join", {**too_many, "use_processes": True}, WorkerContext(0)
            )
        with pytest.raises(RemoteError, match="parallel=512") as info:
            client.start("spatial_join", {**too_many, "use_processes": True})
        assert info.value.code == ERR_BAD_REQUEST
        assert not forks
        monkeypatch.undo()
        rows = client.start("spatial_join", too_many).all(page=4096)
        assert wire_pairs_to_tuples(sorted(rows)) == sorted(expected_join_pairs(db))

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("spatial_join", {**JOIN_PARAMS, "parallel": 100000}),
            ("spatial_join", {**JOIN_PARAMS, "parallel": 100000, "strategy": "GRID"}),
            ("sql", {"statement": "select * from TABLE(spatial_join("
                     "'a_tab','geom','b_tab','geom','intersect', 0, 100000))"}),
            ("sql", {"statement": "create index a_idx2 on a_tab(geom) indextype "
                     "is spatial_index parameters ('kind=RTREE') parallel 100000"}),
        ],
        ids=["join", "grid", "sql-join", "create-index"],
    )
    def test_degree_above_the_bound_is_a_bad_request(self, served, client, kind, params):
        """A degree above ``MAX_DEGREE`` is refused before any work (a
        simulated executor scans every worker's meter per task), as an
        ``EngineError`` the wire answers as BAD_REQUEST; the connection
        stays usable and no index is left behind."""
        _, db = served
        with pytest.raises(EngineError, match=f"<= {MAX_DEGREE}"):
            make_executor(MAX_DEGREE + 1)
        assert make_executor(MAX_DEGREE).degree == MAX_DEGREE
        with pytest.raises(RemoteError, match="parallel degree") as info:
            client.start(kind, params)
        assert info.value.code == ERR_BAD_REQUEST
        rows = client.start("spatial_join", JOIN_PARAMS).all(page=4096)
        assert wire_pairs_to_tuples(rows) == expected_join_pairs(db)
        with pytest.raises(CatalogError):
            db.spatial_index("a_idx2")

    def test_candidate_array_size_is_bounded(self, served, client):
        """One request cannot make the filter hold every candidate of a
        join in one array: above ``MAX_CANDIDATE_ARRAY_SIZE`` is
        BAD_REQUEST; the bound itself runs."""
        _, db = served
        too_big = {**JOIN_PARAMS, "candidate_array_size": MAX_CANDIDATE_ARRAY_SIZE + 1}
        with pytest.raises(BadRequest, match="candidate_array_size must be <= 32768"):
            QueryService(db).open("spatial_join", too_big, WorkerContext(0))
        with pytest.raises(RemoteError, match="candidate_array_size") as info:
            client.start("spatial_join", too_big)
        assert info.value.code == ERR_BAD_REQUEST
        largest = {**JOIN_PARAMS, "candidate_array_size": MAX_CANDIDATE_ARRAY_SIZE}
        rows = client.start("spatial_join", largest).all(page=4096)
        assert wire_pairs_to_tuples(rows) == expected_join_pairs(db)

    def test_use_threads_on_the_wire_is_ignored(self, served, client):
        """No engine entry point runs tasks on threads; the key is an
        unknown parameter like any other."""
        _, db = served
        session = client.start(
            "spatial_join", {**JOIN_PARAMS, "parallel": 2, "use_threads": True}
        )
        rows = session.all(page=4096)
        assert wire_pairs_to_tuples(sorted(rows)) == sorted(expected_join_pairs(db))

    def test_bad_operator_arguments_fail_whatever_the_window_holds(self, client):
        """Validated once per probe, before the primary filter: an empty
        window is no longer a way to get rows=[] out of a bad mask.  The
        probe runs with the first page, so ``start`` answers the error."""
        empty = to_wkt(Geometry.rectangle(900, 900, 901, 901))
        for params, named in (
            ({"operator": "SDO_RELATE", "mask": "BOGUS"}, "mask"),
            ({"operator": "SDO_WITHIN_DISTANCE", "distance": -1.0}, "distance"),
        ):
            with pytest.raises(RemoteError, match=f"OperatorError.*{named}"):
                client.start(
                    "window",
                    {"table": "a_tab", "column": "geom", "wkt": empty, **params},
                )

    def test_malformed_frame_gets_error_not_hangup(self, client):
        client.send_raw(b"this is not json\n")
        response = client.read_response()
        assert response["ok"] is False
        assert response["error"]["code"] == ERR_BAD_REQUEST
        assert client.ping()  # connection still usable


class TestConcurrency:
    def test_concurrent_sessions_interleave_correctly(self, served):
        """Many clients paging joins at once all see the exact result."""
        handle, db = served
        want = expected_join_pairs(db)
        results = {}
        errors = []

        def worker(i):
            try:
                with QueryClient(port=handle.port) as c:
                    session = c.start("spatial_join", JOIN_PARAMS)
                    results[i] = wire_pairs_to_tuples(
                        session.all(page=5 + i)
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(results) == 6
        for pairs in results.values():
            assert pairs == want

    def test_pipelined_requests_answered_in_order(self, served):
        handle, _ = served
        with QueryClient(port=handle.port) as c:
            # Two pings and a stats written before reading anything back.
            c.send_raw(
                b'{"id": 101, "op": "ping"}\n'
                b'{"id": 102, "op": "stats"}\n'
                b'{"id": 103, "op": "ping"}\n'
            )
            ids = [c.read_response()["id"] for _ in range(3)]
        assert ids == [101, 102, 103]


def poll_stats(client, predicate, timeout=5.0):
    """Poll the stats endpoint until ``predicate(stats)`` or timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = client.stats()
        if predicate(stats):
            return stats
        time.sleep(0.02)
    return client.stats()


class TestRobustness:
    def test_disconnect_mid_fetch_leaks_nothing(self, served):
        """A client vanishing mid-join shows up in stats, not as a leak."""
        handle, _ = served
        before = None
        with QueryClient(port=handle.port) as observer:
            before = observer.stats()["sessions"]["closed_disconnect"]
            rogue = QueryClient(port=handle.port)
            session = rogue.start("spatial_join", JOIN_PARAMS, n=1)
            session.fetch(3)  # mid-stream: rows fetched, far from eof
            rogue.close()  # vanish without close

            stats = poll_stats(
                observer,
                lambda s: s["sessions"]["closed_disconnect"] > before
                and s["sessions"]["active"] == 0,
            )
            assert stats["sessions"]["closed_disconnect"] == before + 1
            assert stats["sessions"]["active"] == 0
            # the abandoned session's metered work still reached the stats
            assert stats["meters"]["spatial_join"].get("mbr_test", 0) > 0

    def test_deadline_cancels_and_removes_session(self, served):
        handle, _ = served
        with QueryClient(port=handle.port) as c:
            before = c.stats()["sessions"]["cancelled_deadline"]
            session = c.start("spatial_join", JOIN_PARAMS, deadline_ms=20, n=1)
            time.sleep(0.08)  # let the deadline lapse before fetching
            with pytest.raises(RemoteError) as info:
                session.fetch(10)
            assert info.value.code == ERR_DEADLINE
            # the session is gone server-side, not leaked
            with pytest.raises(RemoteError) as info:
                client_fetch = c.fetch(session.session_id, 1)  # noqa: F841
            assert info.value.code == ERR_UNKNOWN_SESSION
            stats = c.stats()
            assert stats["sessions"]["cancelled_deadline"] == before + 1
            assert stats["sessions"]["active"] == 0

    def test_stats_counts_queries_and_rows(self, served):
        handle, db = served
        with QueryClient(port=handle.port) as c:
            session = c.start("spatial_join", JOIN_PARAMS, n=1)
            n_pairs = len(session.all(page=11))
            stats = poll_stats(
                c, lambda s: s["queries"]["spatial_join"]["rows"] >= n_pairs
            )
        join_stats = stats["queries"]["spatial_join"]
        assert join_stats["rows"] >= n_pairs
        assert join_stats["latency"]["count"] >= 1
        assert join_stats["latency"]["p50_ms"] >= 0
        assert stats["requests"]["fetch"]["count"] >= 1


class TestBackpressure:
    def test_session_cap_rejects_with_overloaded(self):
        db = build_db()
        with BackgroundServer(db, max_sessions=1) as handle:
            with QueryClient(port=handle.port) as c:
                first = c.start("spatial_join", JOIN_PARAMS, n=1)
                with pytest.raises(RemoteError) as info:
                    c.start("spatial_join", JOIN_PARAMS)
                assert info.value.code == ERR_OVERLOADED
                assert (
                    c.stats()["sessions"]["rejected_overload"] >= 1
                )
                first.close()
                # capacity freed: a new start succeeds again
                c.start("sql", {"statement": "select id from a_tab"}).close()

    def test_inflight_cap_rejects_immediately(self):
        """With the bridge saturated, new work is rejected, not queued."""
        db = build_db()
        release = threading.Event()

        class StallingService(QueryService):
            def open(self, kind, params, ctx):
                release.wait(timeout=10)
                return super().open(kind, params, ctx)

        with BackgroundServer(
            db, max_inflight=1, service=StallingService(db)
        ) as handle:
            try:
                slow_error = []

                def slow_start():
                    try:
                        with QueryClient(port=handle.port) as c1:
                            c1.start("sql", {"statement": "select id from a_tab"})
                    except Exception as exc:  # pragma: no cover
                        slow_error.append(exc)

                t = threading.Thread(target=slow_start)
                t.start()
                # wait until the stalled start occupies the inflight slot
                deadline = time.monotonic() + 5
                while handle.server._inflight < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with QueryClient(port=handle.port) as c2:
                    with pytest.raises(RemoteError) as info:
                        c2.start("sql", {"statement": "select id from a_tab"})
                    assert info.value.code == ERR_OVERLOADED
            finally:
                release.set()
                t.join(timeout=10)
            assert not slow_error


class TestGracefulShutdown:
    def test_drain_lets_live_sessions_finish(self):
        db = build_db()
        handle = BackgroundServer(db).start()
        try:
            with QueryClient(port=handle.port) as c:
                session = c.start("spatial_join", JOIN_PARAMS, n=1)
                first_page, _ = session.fetch(4)
                handle.server.request_shutdown()
                deadline = time.monotonic() + 5
                while not handle.server._draining:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # new sessions are refused while draining...
                with pytest.raises(RemoteError) as info:
                    c.start("sql", {"statement": "select id from a_tab"})
                assert info.value.code == ERR_SHUTTING_DOWN
                # ...but the live session pages to completion and closes
                rest = []
                eof = False
                while not eof:
                    rows, eof = session.fetch(64)
                    rest.extend(rows)
                summary = session.close()
                assert summary["exhausted"] is True
                assert len(first_page) + len(rest) == summary["rows"]
        finally:
            handle.stop()
        assert not handle._thread.is_alive()
