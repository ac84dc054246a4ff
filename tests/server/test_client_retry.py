"""Client retry policy: OVERLOADED backoff, reconnects, and the typed
mid-stream failure.

Most tests run against a *scripted* socket server so the failure sequence
is deterministic; one integration test exercises the real server's
admission control end to end.
"""

import random
import socket
import threading
import time
from collections import deque

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.errors import RetriableError
from repro.server import BackgroundServer, QueryClient, RemoteError
from repro.server import protocol
from repro.server.protocol import ERR_BAD_REQUEST, ERR_OVERLOADED


class ScriptedServer:
    """A tiny JSON-lines server that answers from a fixed script.

    Script items: ``"overloaded"`` (error reply), ``"drop"`` (close the
    connection without replying — a reset), ``"stall"`` (never reply, hold
    the connection open — a lost response), ``"ok"`` (pong reply), or a
    dict merged into an ok reply.  An exhausted script answers ``ok``.
    """

    def __init__(self, script):
        self.script = deque(script)
        self.seen = []
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.2)
        self.port = self._sock.getsockname()[1]
        self.connections = 0
        self._stop = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            with conn:
                # The makefile handle holds an io-ref on the socket: it must
                # be closed too, or "drop" leaves the fd open and the client
                # hangs until its timeout instead of seeing the EOF.
                fh = conn.makefile("rwb")
                try:
                    self._converse(fh)
                finally:
                    try:
                        fh.close()
                    except OSError:
                        pass

    def _converse(self, fh):
        while not self._stop:
            line = fh.readline()
            if not line:
                return
            request = protocol.decode_line(line)
            self.seen.append(request.get("op"))
            action = self.script.popleft() if self.script else "ok"
            if action == "drop":
                return
            if action == "stall":
                continue  # swallow the request; never answer
            if action == "overloaded":
                response = protocol.error_response(
                    request["id"], ERR_OVERLOADED, "at capacity"
                )
            else:
                response = protocol.ok_response(request["id"], pong=True)
                if isinstance(action, dict):
                    response.update(action)
            fh.write(protocol.encode(response))
            fh.flush()

    def close(self):
        self._stop = True
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


@pytest.fixture
def scripted():
    servers = []

    def make(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


def fast_client(port, retries=3, timeout=30.0):
    # Microscopic seeded backoff: retry tests stay fast and deterministic.
    return QueryClient(
        port=port, retries=retries, timeout=timeout, backoff=0.001,
        jitter=0.25, rng=random.Random(7),
    )


class TestOverloadedRetry:
    def test_retries_then_succeeds(self, scripted):
        server = scripted(["overloaded", "overloaded", "ok"])
        with fast_client(server.port) as c:
            assert c.ping()
            assert c.retry_count == 2
        assert server.seen == ["ping", "ping", "ping"]

    def test_exhausted_attempts_raise_overloaded(self, scripted):
        server = scripted(["overloaded"] * 5)
        with fast_client(server.port, retries=3) as c:
            with pytest.raises(RemoteError) as info:
                c.ping()
            assert info.value.code == ERR_OVERLOADED
            assert c.retry_count == 2  # two retries, third attempt raised

    def test_other_errors_never_retried(self, scripted):
        server = scripted([
            {"ok": False, "error": {"code": ERR_BAD_REQUEST, "message": "no"}},
        ])
        with fast_client(server.port) as c:
            with pytest.raises(RemoteError) as info:
                c.request("start", kind="nonsense", params={})
            assert info.value.code == ERR_BAD_REQUEST
            assert c.retry_count == 0
        assert server.seen == ["start"]

    def test_backoff_grows_and_respects_cap(self, monkeypatch):
        naps = []
        monkeypatch.setattr(time, "sleep", lambda s: naps.append(s))
        server = ScriptedServer(["overloaded"] * 4 + ["ok"])
        try:
            client = QueryClient(
                port=server.port, retries=5, backoff=0.1, backoff_cap=0.25,
                jitter=0.5, rng=random.Random(3),
            )
            assert client.ping()
            client.close()
        finally:
            server.close()
        assert len(naps) == 4
        base = [0.1, 0.2, 0.25, 0.25]  # exponential, then capped
        for nap, expected in zip(naps, base):
            assert expected <= nap <= expected * 1.5  # jitter adds 0..50%


class TestReconnect:
    def test_drop_without_sessions_reconnects(self, scripted):
        server = scripted(["drop", "ok"])
        with fast_client(server.port) as c:
            assert c.ping()  # first attempt dies, reconnect answers
            assert c.retry_count == 1
        assert server.connections == 2

    def test_midstream_drop_raises_retriable(self, scripted):
        server = scripted([{"session": "s1", "columns": []}, "drop"])
        with fast_client(server.port) as c:
            session = c.start("sql", {"statement": "select 1"})
            with pytest.raises(RetriableError) as info:
                session.fetch(10)
            assert info.value.code == "CONNECTION_LOST"
            assert "live session" in str(info.value)
            # The dead session was forgotten: the client object survives
            # and the next request reconnects with a clean slate.
            assert c.ping()
        assert server.connections == 2

    def test_timeout_is_never_silently_retried(self, scripted):
        # A timed-out request may have been *executed* (only the response
        # was slow or lost): re-sending a 'start' would leak a server-side
        # session, so the client must surface the timeout even with
        # attempts to spare and no live sessions.
        server = scripted(["stall", "ok"])
        with fast_client(server.port, retries=5, timeout=0.2) as c:
            with pytest.raises(RetriableError) as info:
                c.ping()
            assert info.value.code == "TIMEOUT"
            assert c.retry_count == 0
            # The client object survives; the next request reconnects.
            assert c.ping()
        assert server.connections == 2

    def test_retriable_error_is_not_swallowed_by_retry(self, scripted):
        # Even with attempts to spare, a mid-stream reset must surface
        # immediately instead of silently re-running the fetch.
        server = scripted([{"session": "s1", "columns": []}, "drop", "ok"])
        with fast_client(server.port, retries=5) as c:
            c.start("sql", {"statement": "select 1"})
            with pytest.raises(RetriableError):
                c.fetch("s1", 10)
            assert c.retry_count == 0


def build_db():
    db = Database()
    rng = random.Random(5)
    rects = []
    for _ in range(30):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        rects.append(Geometry.rectangle(x, y, x + 2, y + 2))
    load_geometries(db, "a_tab", rects)
    db.create_spatial_index("a_idx", "a_tab", "geom", kind="RTREE", fanout=6)
    return db


class TestRealServerIntegration:
    def test_overloaded_start_retries_until_capacity_frees(self):
        db = build_db()
        with BackgroundServer(db, max_sessions=1) as handle:
            with QueryClient(port=handle.port) as holder:
                blocker = holder.start("sql", {"statement": "select id from a_tab"}, n=1)
                releaser = threading.Timer(0.15, blocker.close)
                releaser.start()
                try:
                    with QueryClient(
                        port=handle.port, retries=8, backoff=0.05,
                        rng=random.Random(11),
                    ) as c:
                        session = c.start(
                            "sql", {"statement": "select id from a_tab"}
                        )
                        assert c.retry_count >= 1
                        assert session.all()
                finally:
                    releaser.cancel()
