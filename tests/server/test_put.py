"""The server's ``put`` op: typed ``[id, wkt]`` rows applied all or none.

A put is one request, not a session.  Its rows are parsed before any is
applied; a row the table refuses undoes the rows before it through
``Table.delete`` (so the index forgets them too) and the put answers
``BAD_REQUEST`` naming that row.  Malformed requests are refused the
same way, with nothing applied and the connection still serving.
"""

import socket
import threading

import pytest

from repro import Database, Geometry
from repro.errors import RetriableError
from repro.geometry.wkt import to_wkt
from repro.server import BackgroundServer, QueryClient, RemoteError
from repro.server.protocol import ERR_BAD_REQUEST, ERR_OVERLOADED

BATCH_REGION = "POLYGON ((40 40, 60 40, 60 60, 40 60, 40 40))"


def rect_row(i, x, y):
    return [i, to_wkt(Geometry.rectangle(x, y, x + 1.5, y + 0.5))]


def fresh_db(path=None):
    db = Database() if path is None else Database.open(path, durability="wal")
    db.sql("create table shapes (id number, geom sdo_geometry)")
    db.sql(
        "create index shapes_sidx on shapes(geom) indextype is spatial_index "
        "parameters ('kind=RTREE fanout=4')"
    )
    for i in range(6):
        db.table("shapes").insert((i, Geometry.rectangle(41 + i, 41, 42 + i, 42)))
    return db


def window_ids(client):
    session = client.start(
        "window",
        {"table": "shapes", "column": "geom", "wkt": BATCH_REGION,
         "emit_ids": True},
    )
    return sorted(row[0] for row in session.all())


@pytest.fixture()
def served():
    db = fresh_db()
    with BackgroundServer(db) as handle:
        with QueryClient(port=handle.port, retries=1) as client:
            yield db, client


class TestPut:
    def test_rows_applied_and_indexed(self, served):
        db, client = served
        rows = [rect_row(100 + i, 45 + i, 50) for i in range(9)]
        response = client.request("put", table="shapes", rows=rows)
        assert response["rows"] == 9
        assert response["lsn"] is None
        assert db.table("shapes").row_count == 15
        assert window_ids(client) == list(range(6)) + [100 + i for i in range(9)]
        db.spatial_index_on("shapes", "geom").tree.check_invariants()

    def test_refused_row_undoes_the_batch(self, served):
        """The 5th row's id is not a number: rows 1-4 were inserted (and
        indexed, splitting fanout-4 nodes) before it; all of them go."""
        db, client = served
        before = window_ids(client)
        index = db.spatial_index_on("shapes", "geom")
        rows = [rect_row(200 + i, 44 + i, 47) for i in range(8)]
        rows[4][0] = "two hundred four"
        with pytest.raises(RemoteError) as excinfo:
            client.request("put", table="shapes", rows=rows)
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert "put row 4" in excinfo.value.remote_message
        assert "'two hundred four'" in excinfo.value.remote_message
        assert db.table("shapes").row_count == 6
        assert len(index.tree) == 6
        index.tree.check_invariants()
        assert window_ids(client) == before
        # The connection and the table still take a good batch.
        rows[4][0] = 204
        assert client.request("put", table="shapes", rows=rows)["rows"] == 8
        assert window_ids(client) == before + [200 + i for i in range(8)]

    @pytest.mark.parametrize(
        "fields",
        [
            {"table": "shapes", "rows": "not a list"},
            {"table": "shapes", "rows": {"0": [1, "POINT (1 1)"]}},
            {"table": "shapes", "rows": None},
            {"table": "shapes"},
            {"table": "shapes", "rows": []},
            {"table": "shapes", "rows": [[1]]},
            {"table": "shapes", "rows": [[1, "POINT (45 45)", 7]]},
            {"table": "shapes", "rows": [[1, "POINT (45 45)"], "row"]},
            {"table": "shapes", "rows": [[1, "POINT (45 45)"], [2, "NOT A WKT"]]},
            {"table": "shapes", "rows": [[1, "POINT (45 45)"], [2, 45]]},
            {"table": "shapes", "rows": [[1, "POLYGON ((0 0, 1 0, 0 0))"]]},
            {"table": "no_such_table", "rows": [[1, "POINT (45 45)"]]},
            {"table": "", "rows": [[1, "POINT (45 45)"]]},
            {"table": ["shapes"], "rows": [[1, "POINT (45 45)"]]},
            {"rows": [[1, "POINT (45 45)"]]},
        ],
        ids=[
            "rows-string", "rows-object", "rows-null", "rows-missing",
            "rows-empty", "short-row", "long-row", "row-not-a-list",
            "bad-wkt", "wkt-not-a-string", "degenerate-ring",
            "unknown-table", "empty-table-name", "table-not-a-string",
            "table-missing",
        ],
    )
    def test_hostile_request_refused_with_nothing_applied(self, served, fields):
        db, client = served
        before = window_ids(client)
        with pytest.raises(RemoteError) as excinfo:
            client.request("put", **fields)
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert db.table("shapes").row_count == 6
        assert window_ids(client) == before
        assert client.ping()

    def test_commit_returns_the_lsn(self, tmp_path):
        db = fresh_db(str(tmp_path / "s.db"))
        try:
            with BackgroundServer(db) as handle:
                with QueryClient(port=handle.port) as client:
                    first = client.request(
                        "put", table="shapes", rows=[rect_row(7, 50, 50)],
                        commit=True,
                    )["lsn"]
                    second = client.request(
                        "put", table="shapes", rows=[rect_row(8, 52, 50)],
                        commit=True,
                    )["lsn"]
            assert isinstance(first, int) and second > first
        finally:
            db.close()

    def test_admission_refusal_is_effect_free(self):
        db = fresh_db()
        with BackgroundServer(db, max_sessions=0) as handle:
            with QueryClient(port=handle.port, retries=1) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.request("put", table="shapes", rows=[rect_row(9, 50, 50)])
                assert excinfo.value.code == ERR_OVERLOADED
        assert db.table("shapes").row_count == 6


class _Listener:
    """A TCP peer that accepts connections and, on each, reads
    ``read_lines`` request lines, then closes it without answering."""

    def __init__(self, read_lines):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.read_lines = read_lines
        self.requests = []
        self.closed = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        try:
            while True:
                conn, _addr = self.sock.accept()
                with conn, conn.makefile("rb") as reader:
                    for _ in range(self.read_lines):
                        self.requests.append(reader.readline())
                self.closed.set()
        except OSError:
            pass  # the listener was closed

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        except OSError:
            pass
        self.sock.close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


class TestPutIsNeverResent:
    def test_answer_lost_after_sending_is_ambiguous(self):
        peer = _Listener(read_lines=1)
        try:
            client = QueryClient(port=peer.port, retries=3, backoff=0.0)
            with pytest.raises(RetriableError) as excinfo:
                client.request("put", table="shapes", rows=[rect_row(1, 50, 50)])
            assert excinfo.value.code == "AMBIGUOUS"
            assert len(peer.requests) == 1  # sent once, not re-sent
            client.close()
        finally:
            peer.close()

    def test_sql_start_lost_after_sending_is_ambiguous(self):
        """A ``sql`` start executes its statement on admission: a write."""
        peer = _Listener(read_lines=1)
        try:
            client = QueryClient(port=peer.port, retries=3, backoff=0.0)
            with pytest.raises(RetriableError) as excinfo:
                client.start("sql", {"statement": "insert into shapes values (1, null)"})
            assert excinfo.value.code == "AMBIGUOUS"
            assert len(peer.requests) == 1  # sent once, not re-sent
            client.close()
        finally:
            peer.close()

    def test_refused_sql_start_is_retried(self):
        """Nothing reached a server that refused the connection: the start
        is tried again, up to the client's retries."""
        peer = _Listener(read_lines=0)
        try:
            client = QueryClient(port=peer.port, retries=3, backoff=0.0)
            assert peer.closed.wait(5.0)
            peer.close()
            with pytest.raises(ConnectionRefusedError):
                client.start("sql", {"statement": "insert into shapes values (1, null)"})
            assert client.retry_count == 2
            assert peer.requests == []
        finally:
            peer.close()

    def test_connection_the_server_already_closed_is_replaced(self):
        """Nothing written to a connection the server had closed can have
        been read: the put reconnects instead of calling it ambiguous."""
        peer = _Listener(read_lines=0)
        try:
            client = QueryClient(port=peer.port, retries=1)
            assert peer.closed.wait(5.0)
            peer.close()
            with pytest.raises(ConnectionRefusedError):
                client.request("put", table="shapes", rows=[rect_row(1, 50, 50)])
            assert peer.requests == []
        finally:
            peer.close()
