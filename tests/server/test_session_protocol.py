"""The paged session protocol on one server: ``start`` returns the first
page, the ``eof`` page closes the session, and a malformed page size or
deadline is answered with an error instead of costing the connection."""

import random

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.geometry.wkt import to_wkt
from repro.server import BackgroundServer, QueryClient, RemoteError
from repro.server.app import DEFAULT_FETCH_ROWS
from repro.server.protocol import ERR_BAD_REQUEST, ERR_UNKNOWN_SESSION


def build_db():
    rng = random.Random(41)
    rects = []
    for _ in range(120):
        x, y = rng.uniform(0, 95), rng.uniform(0, 95)
        rects.append(Geometry.rectangle(x, y, x + 3.0, y + 3.0))
    db = Database()
    load_geometries(db, "a_tab", rects)
    db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
    return db


@pytest.fixture(scope="module")
def served():
    db = build_db()
    with BackgroundServer(db) as handle:
        yield handle, db


WINDOW = {
    "table": "a_tab",
    "column": "geom",
    "wkt": to_wkt(Geometry.rectangle(10, 10, 40, 40)),
}


def session_requests(handle):
    requests = handle.server.metrics.snapshot(0)["requests"]
    return {
        op: requests.get(op, {}).get("count", 0)
        for op in ("start", "fetch", "close")
    }


def window_ids(db):
    return sorted(
        (r.page, r.slot)
        for r in db.select_rowids(
            "a_tab", "geom", "SDO_RELATE",
            [Geometry.rectangle(10, 10, 40, 40), "ANYINTERACT"],
        )
    )


class TestFirstPage:
    def test_served_window_costs_one_request(self, served):
        handle, db = served
        before = session_requests(handle)
        with QueryClient(port=handle.port) as client:
            rows = client.start("window", WINDOW).all(page=64)
            assert handle.server.metrics.snapshot(0)["sessions"]["active"] == 0
        after = session_requests(handle)
        assert sorted(tuple(r) for r in rows) == window_ids(db)
        assert {op: after[op] - before[op] for op in after} == {
            "start": 1, "fetch": 0, "close": 0
        }

    def test_eof_waits_for_buffered_rows(self, served):
        handle, db = served
        want = window_ids(db)
        assert 1 < len(want) < DEFAULT_FETCH_ROWS
        with QueryClient(port=handle.port) as client:
            session = client.start("window", WINDOW)
            got = []
            while len(got) < len(want) - 1:
                assert session.eof is False  # rows are still buffered
                rows, eof = session.fetch(1)
                assert (len(rows), eof) == (1, False)
                got.extend(rows)
            rows, eof = session.fetch(1)
            assert eof is True and session.eof is True
            got.extend(rows)
            summary = session.close()  # no request: the eof page closed it
        assert sorted(tuple(r) for r in got) == want
        assert summary["exhausted"] is True
        assert summary["rows"] == len(want)

    def test_start_n_sizes_the_first_page(self, served):
        handle, db = served
        want = window_ids(db)
        with QueryClient(port=handle.port) as client:
            session = client.start("window", WINDOW, n=2)
            first, eof = session.fetch(2)  # served from the start response
            assert len(first) == 2 and not eof
            rest = session.all(page=3)
        assert sorted(tuple(r) for r in first + rest) == want

    def test_fetch_after_eof_page_is_unknown_session(self, served):
        handle, _db = served
        with QueryClient(port=handle.port) as client:
            session = client.start("window", WINDOW)
            assert session.all()
            with pytest.raises(RemoteError) as info:
                client.fetch(session.session_id, 1)
        assert info.value.code == ERR_UNKNOWN_SESSION


class TestMalformedFields:
    """Each reproducer runs on a fresh connection, then the same
    connection serves a valid request: the error cost nothing else."""

    @pytest.mark.parametrize("n", ["x", None, [1], True], ids=repr)
    def test_fetch_n(self, served, n):
        handle, db = served
        with QueryClient(port=handle.port) as client:
            start = client.request("start", kind="window", params=WINDOW, n=1)
            with pytest.raises(RemoteError, match="n must be an integer") as info:
                client.request("fetch", session=start["session"], n=n)
            assert info.value.code == ERR_BAD_REQUEST
            # The session survived the bad request.
            rows, eof = client.fetch(start["session"], DEFAULT_FETCH_ROWS)
        assert eof
        rows = start.get("rows", []) + rows
        assert sorted(tuple(r) for r in rows) == window_ids(db)

    @pytest.mark.parametrize("n", ["x", None, [1], False], ids=repr)
    def test_start_n(self, served, n):
        handle, db = served
        with QueryClient(port=handle.port) as client:
            with pytest.raises(RemoteError, match="n must be an integer") as info:
                client.request("start", kind="window", params=WINDOW, n=n)
            assert info.value.code == ERR_BAD_REQUEST
            rows = client.start("window", WINDOW).all()
        assert sorted(tuple(r) for r in rows) == window_ids(db)

    @pytest.mark.parametrize("deadline_ms", ["x", [1], True], ids=repr)
    def test_start_deadline_ms(self, served, deadline_ms):
        handle, db = served
        with QueryClient(port=handle.port) as client:
            with pytest.raises(RemoteError, match="deadline_ms must be a number") as info:
                client.request(
                    "start", kind="window", params=WINDOW, deadline_ms=deadline_ms
                )
            assert info.value.code == ERR_BAD_REQUEST
            rows = client.start("window", WINDOW, deadline_ms=5000).all()
        assert sorted(tuple(r) for r in rows) == window_ids(db)
        assert handle.server.metrics.snapshot(0)["sessions"]["active"] == 0

    def test_out_of_range_n_is_clamped(self, served):
        handle, db = served
        with QueryClient(port=handle.port) as client:
            session = client.start("window", WINDOW, n=0)
            first, _ = session.fetch(1)
            assert len(first) == 1
            rows = first + session.all(page=10**9)
        assert sorted(tuple(r) for r in rows) == window_ids(db)
