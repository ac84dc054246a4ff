"""Blocking JSON-lines client for the spatial query service.

Small and dependency-free (plain sockets), used by the shell's ``client``
mode, the server benchmark and the CI smoke test.  A
:class:`RemoteSession` mirrors the table-function protocol client-side::

    with QueryClient(port=port) as client:
        session = client.start("spatial_join", {
            "table_a": "counties", "column_a": "geom",
            "table_b": "counties", "column_b": "geom",
        })
        for pair in session.rows(page=512):   # start (first page) / fetch(n)
            ...

Transient failures are retried with exponential backoff + jitter (see
:meth:`QueryClient.request`): ``OVERLOADED`` rejections always (the
server's admission control explicitly invites a retry, and rejecting a
request changes no server state), connection loss only while the client
holds **no** live sessions — a reconnect after a reset silently destroys
every server-side session the connection owned, so mid-stream resets
surface as a typed :class:`~repro.errors.RetriableError` and the caller
decides whether to restart the query from the top.
"""

from __future__ import annotations

import random
import select
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError, RetriableError, ServerError
from repro.obs import trace
from repro.server import protocol

__all__ = ["RemoteError", "RemoteSession", "QueryClient"]


class RemoteError(ServerError):
    """An error response from the server, carrying its wire code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.remote_message = message


class QueryClient:
    """One connection to a running :class:`SpatialQueryServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        jitter: float = 0.25,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(1, int(retries))
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._next_id = 0
        self._live_sessions: set = set()
        self.retry_count = 0  # observable: how many attempts were retried
        self._connect_with_retry()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def _connect_with_retry(self) -> None:
        """Initial connect with the same backoff policy as :meth:`request`.

        A router (or test) racing a shard's startup sees a refused
        connection for a few milliseconds; that is exactly as transient as
        an ``OVERLOADED`` rejection, so it gets the same exponential
        backoff instead of leaking a raw ``ConnectionRefusedError``.
        Exhausting the retries raises a typed
        :class:`~repro.errors.RetriableError` (``code="CONNECT_FAILED"``)
        the caller can distinguish from a protocol failure.
        """
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries):
            try:
                self._connect()
                return
            except ConnectionRefusedError as exc:
                last_exc = exc
                if attempt == self.retries - 1:
                    break
                self.retry_count += 1
                self._backoff_sleep(attempt)
        raise RetriableError(
            f"cannot connect to {self.host}:{self.port} after "
            f"{self.retries} attempt(s): {last_exc}",
            code="CONNECT_FAILED",
        ) from last_exc

    def _backoff_sleep(self, attempt: int) -> None:
        delay = min(self.backoff * (2.0 ** attempt), self.backoff_cap)
        # Full jitter fraction: desynchronises a herd of rejected clients.
        delay *= 1.0 + self.jitter * self._rng.random()
        time.sleep(delay)

    # ------------------------------------------------------------------
    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and wait for its response (raises RemoteError).

        Retries up to ``retries`` attempts on ``OVERLOADED`` and — only
        with no live sessions — on connection loss (reconnecting first).
        Connection loss while sessions are open raises
        :class:`~repro.errors.RetriableError` instead: the sessions are
        gone server-side and silently retrying a mid-stream fetch would
        skip or duplicate rows.  A *timeout* is never retried
        transparently either, even with no sessions: the server may have
        executed the request and only the response was lost, so re-sending
        a state-creating op such as ``start`` would duplicate it — a
        ``RetriableError(code="TIMEOUT")`` is raised instead.  A write
        (:data:`~repro.server.protocol.WRITE_OPS`, or a ``start`` of one of
        the :data:`~repro.server.protocol.WRITE_KINDS`) is likewise never
        re-sent once it may have reached the server: a connection the
        server had already closed is replaced before sending, and one lost
        after sending raises ``RetriableError(code="AMBIGUOUS")``.
        """
        write = op in protocol.WRITE_OPS or (
            op == "start" and fields.get("kind") in protocol.WRITE_KINDS
        )
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries):
            try:
                if write and self._sock is not None and self._peer_closed():
                    self._disconnect()
                return self._request_once(op, fields)
            except RemoteError as exc:
                if (
                    exc.code != protocol.ERR_OVERLOADED
                    or attempt == self.retries - 1
                ):
                    raise
                last_exc = exc
            except (ProtocolError, OSError) as exc:
                if self._live_sessions:
                    lost = len(self._live_sessions)
                    # The client object stays usable: the dead sessions are
                    # forgotten and the next request reconnects.
                    self._live_sessions.clear()
                    self._disconnect()
                    raise RetriableError(
                        f"connection lost with {lost} live session(s) "
                        f"({exc}); the server has dropped them — restart "
                        "the query to retry",
                        code="CONNECTION_LOST",
                    ) from exc
                if isinstance(exc, socket.timeout):
                    # A timeout is not a rejection: the server may have
                    # executed the request (a 'start' would have created a
                    # session) and only the response was slow or lost.
                    # Re-sending would silently duplicate the work, so
                    # surface it and let the caller decide.
                    self._disconnect()
                    raise RetriableError(
                        f"request '{op}' timed out awaiting a response; the "
                        "server may have executed it — not retried "
                        "automatically",
                        code="TIMEOUT",
                    ) from exc
                if write and not isinstance(exc, ConnectionRefusedError):
                    self._disconnect()
                    raise RetriableError(
                        f"connection lost after '{op}' was sent ({exc}); the "
                        "outcome is ambiguous: the server may have applied "
                        "it — not re-sent",
                        code="AMBIGUOUS",
                    ) from exc
                # Drop the dead connection in every case — a long-lived
                # caller (the WAL follower's tail loop, a health prober)
                # retries at its own pace and must get a fresh socket on
                # its next request, not this corpse.
                self._disconnect()
                if attempt == self.retries - 1:
                    raise
                last_exc = exc
            self.retry_count += 1
            self._backoff_sleep(attempt)
        raise last_exc if last_exc is not None else ProtocolError(
            "request retries exhausted"
        )

    def _peer_closed(self) -> bool:
        """True when the server has already closed this connection, so a
        request written to it could not be read."""
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
            return bool(readable) and not self._sock.recv(1, socket.MSG_PEEK)
        except OSError:
            return True

    def _disconnect(self) -> None:
        try:
            self.close()
        except OSError:
            pass
        self._sock = None
        self._file = None

    def _request_once(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        if self._sock is None:
            self._connect()
        self._next_id += 1
        message = {"id": self._next_id, "op": op}
        message.update(fields)
        self._file.write(protocol.encode(message))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        response = protocol.decode_line(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RemoteError(
                error.get("code", protocol.ERR_INTERNAL),
                error.get("message", "unknown server error"),
            )
        return response

    def send_raw(self, payload: bytes) -> None:
        """Write raw bytes (protocol tests exercise malformed frames)."""
        self._file.write(payload)
        self._file.flush()

    def read_response(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        return protocol.decode_line(line)

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def stats(self, raw: bool = False) -> Dict[str, Any]:
        return self.request("stats", raw=raw)["stats"]

    def metrics(self) -> str:
        """Prometheus text exposition of the server's runtime metrics."""
        return self.request("metrics")["text"]

    def start(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        deadline_ms: Optional[int] = None,
        trace_ctx: Optional[Dict[str, Any]] = None,
        n: Optional[int] = None,
    ) -> "RemoteSession":
        """Start a query; the response carries its first page of up to
        ``n`` rows (the server's default page when ``None``)."""
        fields: Dict[str, Any] = {"kind": kind, "params": params or {}}
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        if n is not None:
            fields["n"] = n
        # Propagate the caller's trace context: explicit wins, else the
        # innermost open span on this thread (None when tracing is off).
        if trace_ctx is None:
            trace_ctx = trace.wire_ctx()
        if trace_ctx is not None:
            fields["trace_ctx"] = trace_ctx
        response = self.request("start", **fields)
        if not response.get("eof"):
            self._live_sessions.add(response["session"])
        return RemoteSession(self, response)

    def fetch(self, session_id: str, n: int) -> Tuple[List[Any], bool]:
        response = self._fetch(session_id, n)
        return response["rows"], bool(response["eof"])

    def _fetch(self, session_id: str, n: int) -> Dict[str, Any]:
        response = self.request("fetch", session=session_id, n=n)
        if response["eof"]:
            # The eof page closed the session server-side.
            self._live_sessions.discard(session_id)
        return response

    def close_session(self, session_id: str) -> Dict[str, Any]:
        try:
            return self.request("close", session=session_id).get("summary", {})
        finally:
            self._live_sessions.discard(session_id)

    def trace(self, session_id: str) -> Dict[str, Any]:
        """The stitched distributed trace of a session this client ran.

        Returns ``{"trace": <wire id>, "spans": [...], "tree": [...]}``
        where ``spans`` are wire-form span dicts (router + every
        participating shard + executor workers, stitched server-side)
        and ``tree`` is their nested
        :func:`repro.obs.trace.build_tree` form.  Works after the
        session closed — the server keeps a bounded registry.  Raises
        :class:`RemoteError` (``UNKNOWN_SESSION``) when tracing was off.
        """
        response = self.request("trace.get", session=session_id)
        spans = response.get("spans", [])
        return {
            "trace": response.get("trace"),
            "spans": spans,
            "tree": trace.build_tree(spans),
        }

    def interrupt(self) -> None:
        """Unblock a wire call stuck on this connection, from another thread.

        Shutting down both socket directions makes a blocked ``recv``
        return immediately (surfacing as connection loss to the caller)
        without racing ``close`` on the file object the blocked thread
        still holds.  Used by the router's graceful drain to cancel
        in-flight scatter-gather fan-outs promptly instead of letting
        them sit out the socket timeout.
        """
        sock = getattr(self, "_sock", None)
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteSession:
    """Client half of one paged query session.

    Holds the first page the ``start`` response carried; ``fetch`` serves
    from it before asking the server for more.  ``eof`` turns true once
    the server has sent its last page *and* the caller has read every
    buffered row.  The server closes a session with its ``eof`` page, so
    ``close`` then only returns the summary that page carried.
    """

    def __init__(self, client: QueryClient, response: Dict[str, Any]):
        self._client = client
        self.session_id = response["session"]
        self.extra = {
            k: v
            for k, v in response.items()
            if k not in ("id", "ok", "session", "rows", "eof", "summary")
        }
        self._buffer: List[Any] = list(response.get("rows", ()))
        self._ended = bool(response.get("eof"))  # the server closed it
        self._summary: Dict[str, Any] = response.get("summary", {})
        self.eof = self._ended and not self._buffer
        self.closed = False

    @property
    def columns(self) -> List[str]:
        return self.extra.get("columns", [])

    @property
    def trace_id(self) -> Optional[str]:
        """Wire trace id of this query (None when tracing is off)."""
        return self.extra.get("trace")

    def trace(self) -> Dict[str, Any]:
        """Fetch this session's stitched trace (see QueryClient.trace)."""
        return self._client.trace(self.session_id)

    def fetch(self, n: int = 1024) -> Tuple[List[Any], bool]:
        """Up to ``n`` rows — buffered ones first — and the eof flag."""
        rows = self._buffer[:n]
        del self._buffer[:n]
        if len(rows) < n and not self._ended:
            try:
                response = self._client._fetch(self.session_id, n - len(rows))
            except BaseException:
                self._buffer[:0] = rows  # nothing is lost to a failed fetch
                raise
            rows.extend(response["rows"])
            self._ended = bool(response["eof"])
            self._summary = response.get("summary", {})
        self.eof = self._ended and not self._buffer
        return rows, self.eof

    def rows(self, page: int = 1024) -> Iterator[Any]:
        """Page through the whole result, closing the session at the end."""
        try:
            while not self.eof:
                rows, _ = self.fetch(page)
                yield from rows
        finally:
            self.close()

    def all(self, page: int = 1024) -> List[Any]:
        return list(self.rows(page))

    def close(self) -> Dict[str, Any]:
        if self.closed:
            return {}
        self.closed = True
        if self._ended:
            return self._summary
        return self._client.close_session(self.session_id)
