"""The asyncio query server: admission control, deadlines, drain, stats.

:class:`SpatialQueryServer` listens on a TCP port, speaks the JSON-lines
protocol of :mod:`repro.server.protocol`, and serves each connection as
one asyncio task.  The wire is *pipelined*: a client may send many
requests without waiting; the server answers them in order.  Actual
engine work runs on a small thread pool (the executor bridge) so the
event loop never blocks on a page of join results.  A ``start`` runs
the open and the first page in one bridge call, and a page that reaches
the end closes its session in the same call, so a result that fits one
page costs one request.

Robustness layers:

* **Admission control** — at most ``max_inflight`` requests may be
  executing/queued on the bridge at once and at most ``max_sessions``
  sessions may be live; excess work is *rejected immediately* with an
  ``OVERLOADED`` error rather than queued without bound (backpressure the
  client can see and retry).
* **Deadlines** — a session started with ``deadline_ms`` (or the server
  default) is cooperatively cancelled at its next fetch once expired; the
  underlying cursor/table function is closed and the session is removed.
* **Disconnect hygiene** — when a connection drops, every session it
  owned is closed and its meters are still folded into the stats, so a
  client vanishing mid-fetch leaks nothing.
* **Graceful shutdown** — ``shutdown()`` stops accepting connections,
  rejects new ``start`` requests with ``SHUTTING_DOWN``, lets live
  sessions drain for ``drain_timeout`` seconds, then cancels stragglers.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Set

from repro.errors import ReproError, ServerError
from repro.engine.database import Database
from repro.engine.parallel import WorkerContext
from repro.obs import trace
from repro.server import protocol
from repro.server.metrics import ServerMetrics
from repro.server.service import BadRequest, QueryService, put_request
from repro.server.session import ServerSession, SessionCancelled

__all__ = ["SpatialQueryServer", "BackgroundServer", "serve"]

DEFAULT_FETCH_ROWS = 1024
MAX_FETCH_ROWS = 65536


class SpatialQueryServer:
    """One serving instance over one database."""

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 32,
        max_sessions: int = 64,
        default_deadline_ms: Optional[int] = None,
        drain_timeout: float = 10.0,
        fetch_workers: int = 4,
        service: Optional[QueryService] = None,
        shard_id: Optional[int] = None,
        plane: Optional[Any] = None,
    ):
        self.service = service if service is not None else QueryService(db)
        self.db = db
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.max_inflight = max_inflight
        self.max_sessions = max_sessions
        self.default_deadline_ms = default_deadline_ms
        self.drain_timeout = drain_timeout
        self.shard_id = shard_id
        self.metrics = ServerMetrics(
            shard_id=shard_id,
            active_sessions=lambda: len(self._sessions),
            storage=self._storage_stats,
        )
        self.replica_acked_lsn = 0  # highest LSN a follower has acked
        self.replica_lag_lsn = 0  # the follower's self-reported lag
        #: optional ObservabilityPlane served over the ``obs.plane`` op;
        #: its SLO state rides /metrics as the ``repro_slo_*`` families
        self.plane = plane
        if plane is not None:
            plane.engine.declare(self.metrics)
        # session id -> wire trace id / local trace id, kept after close
        # (bounded) so ``trace.get`` works for a query that just finished.
        self._session_traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._extra_ops: Dict[str, Any] = {}
        self._register_extra_ops()
        self._sessions: Dict[str, ServerSession] = {}
        self._session_ids = itertools.count(1)
        self._inflight = 0
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed_event = asyncio.Event()
        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(
            max_workers=fetch_workers, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        await self._closed_event.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work, drain live sessions, then close."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + self.drain_timeout
            while self._sessions and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            # Sessions that outlived the drain window get a *typed* cancel
            # first: their next (or in-flight — the router's gather stream
            # unblocks its shard sockets) fetch answers SHUTTING_DOWN
            # instead of the client discovering the shutdown via a socket
            # timeout.
            for session in list(self._sessions.values()):
                session.cancel(
                    protocol.ERR_SHUTTING_DOWN,
                    f"session {session.session_id} cancelled: "
                    "server shutting down",
                )
            grace = time.monotonic() + min(2.0, self.drain_timeout)
            while self._sessions and time.monotonic() < grace:
                await asyncio.sleep(0.02)
        for session_id in list(self._sessions):
            session = self._sessions.pop(session_id, None)
            if session is not None:
                await self._run_blocking(session.close)
                self._end_session(session, "cancelled_shutdown")
        self._pool.shutdown(wait=False)
        self._closed_event.set()

    def request_shutdown(self) -> None:
        """Thread/signal-safe shutdown trigger."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.shutdown())
        )

    def install_signal_handlers(self) -> None:
        """Make SIGINT/SIGTERM drain the server instead of killing it."""
        import signal

        assert self._loop is not None
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or non-POSIX loop

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_sessions: Set[str] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # oversized line
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                None,
                                protocol.ERR_BAD_REQUEST,
                                "message too large",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # client closed its end
                if not line.strip():
                    continue
                try:
                    message = protocol.decode_line(line)
                except ReproError as exc:
                    response = protocol.error_response(
                        None, protocol.ERR_BAD_REQUEST, str(exc)
                    )
                else:
                    response = await self._dispatch(message, conn_sessions)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            # A vanished client must not leak its sessions.
            for session_id in conn_sessions:
                session = self._sessions.pop(session_id, None)
                if session is not None:
                    await self._run_blocking(session.close)
                    self._end_session(session, "closed_disconnect")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _run_blocking(self, fn, *args):
        assert self._loop is not None
        return await self._loop.run_in_executor(self._pool, fn, *args)

    def _storage_stats(self) -> Dict[str, Any]:
        """The engine's storage counters (WAL bytes, recovery work), if any."""
        stats = getattr(self.db, "storage_stats", None)
        if stats is None:
            out: Dict[str, Any] = {}
        else:
            try:
                out = stats()
            except Exception:  # pragma: no cover - must never break serving
                out = {}
        if self._wal_pager() is not None:
            out["replica_acked_lsn"] = self.replica_acked_lsn
            out["replica_lag_lsn"] = self.replica_lag_lsn
        return out

    def _stats_payload(self, raw: bool = False) -> Dict[str, Any]:
        """The ``stats`` response body (overridable: the router aggregates).

        ``raw=True`` (requested by a router) ships latency bucket counts
        alongside the percentile estimates so the rollup merges exactly.
        """
        return self.metrics.snapshot(raw=raw)

    def _metrics_text(self) -> str:
        """The Prometheus exposition (overridable: the router rolls up)."""
        from repro.obs.exporters import prometheus_text

        return prometheus_text(self.metrics)

    # ------------------------------------------------------------------
    # Extra (cluster/replication) ops
    # ------------------------------------------------------------------
    def _wal_pager(self):
        from repro.storage.wal import WalPager

        pager = getattr(self.db, "pager", None)
        return pager if isinstance(pager, WalPager) else None

    def _register_extra_ops(self) -> None:
        """Ops beyond :data:`protocol.OPS` this server answers.

        The base server registers ``put`` (the one write verb: a batch of
        ``[id, wkt]`` rows for one table, applied all or none), the
        leader half of WAL replication
        (durable commit, log tailing, LSN acks, snapshot bootstrap) when
        the database is WAL-backed, plus ``trace.drain`` so a router can
        stitch shard spans into its own trace and ``trace.get`` so a
        client can fetch the stitched tree of a query it just ran.  The
        ``obs.plane`` snapshot op appears only when an observability
        plane is attached.  Subclasses (the cluster router) extend the
        table rather than the ``OPS`` tuple, so an op unknown to *this*
        server is still rejected with ``UNKNOWN_OP``.
        """
        self._extra_ops["put"] = self._op_put
        self._extra_ops["trace.drain"] = self._op_trace_drain
        self._extra_ops["trace.get"] = self._op_trace_get
        if self.plane is not None:
            self._extra_ops["obs.plane"] = self._op_obs_plane
        if self._wal_pager() is not None:
            self._extra_ops["commit"] = self._op_commit
            self._extra_ops["wal.tail"] = self._op_wal_tail
            self._extra_ops["wal.ack"] = self._op_wal_ack
            self._extra_ops["wal.snapshot"] = self._op_wal_snapshot

    async def _op_put(self, request_id, message) -> Dict[str, Any]:
        """Apply ``rows`` to ``table`` (optionally ``commit``) under the
        admission control of a session start, so a refusal is effect-free
        and retriable."""
        if self._inflight >= self.max_inflight:
            return self._at_capacity(request_id)
        refused = self._refusal(request_id)
        if refused is not None:
            return refused
        table, rows = put_request(message)
        started = time.perf_counter()
        self._inflight += 1
        result = None
        try:
            result = await self._run_blocking(
                self.service.put, table, rows, bool(message.get("commit", False))
            )
        finally:
            self._inflight -= 1
            self.metrics.record_query(
                "put",
                time.perf_counter() - started,
                len(rows) if result is not None else 0,
                ok=result is not None,
            )
        return protocol.ok_response(request_id, **result)

    async def _op_commit(self, request_id, message) -> Dict[str, Any]:
        """Durable commit of everything written so far; returns its LSN."""
        def commit_locked():
            lock = getattr(self.service, "lock", None)
            if lock is not None:
                with lock:
                    return self.db.commit()
            return self.db.commit()

        lsn = await self._run_blocking(commit_locked)
        return protocol.ok_response(request_id, lsn=lsn)

    async def _op_wal_tail(self, request_id, message) -> Dict[str, Any]:
        """Ship committed WAL records after an LSN (follower tailing)."""
        import base64

        pager = self._wal_pager()
        after = int(message.get("after_lsn", 0))
        # ~5.5KB of base64 per 4KB page image; cap the batch so one
        # response line stays far below protocol.MAX_LINE_BYTES.
        max_records = max(1, min(int(message.get("max_records", 64)), 128))

        def tail_locked():
            lock = getattr(self.service, "lock", None)
            if lock is not None:
                with lock:
                    return (
                        pager.wal.records_since(after, max_records),
                        pager.wal.last_lsn(),
                    )
            return (
                pager.wal.records_since(after, max_records),
                pager.wal.last_lsn(),
            )

        (records, reset), last_lsn = await self._run_blocking(tail_locked)
        wire = [
            [lsn, rtype, page_id, base64.b64encode(payload).decode("ascii")]
            for lsn, rtype, page_id, payload in records
        ]
        return protocol.ok_response(
            request_id, records=wire, reset=reset, last_lsn=last_lsn
        )

    async def _op_wal_ack(self, request_id, message) -> Dict[str, Any]:
        """A follower reports the highest LSN it has durably applied.

        The optional ``lag_lsn`` field exports the follower's own view of
        its lag to the leader-side metrics, so the replication-lag gauge
        is observable from either end of the link.
        """
        lsn = int(message.get("lsn", 0))
        self.replica_acked_lsn = max(self.replica_acked_lsn, lsn)
        self.replica_lag_lsn = int(message.get("lag_lsn", 0))
        return protocol.ok_response(request_id, acked=self.replica_acked_lsn)

    async def _op_wal_snapshot(self, request_id, message) -> Dict[str, Any]:
        """Page images of the checkpointed main file (follower bootstrap).

        Paged via ``start_page``/``max_pages``; ``base_lsn`` is the LSN the
        checkpointed state corresponds to, so the follower tails from
        there.  Only the *inner* pager is read — committed-but-not-yet-
        checkpointed state rides in via the tail, never the snapshot.
        """
        import base64

        pager = self._wal_pager()
        start = max(0, int(message.get("start_page", 0)))
        max_pages = max(1, min(int(message.get("max_pages", 64)), 128))

        def snapshot_locked():
            lock = getattr(self.service, "lock", None)
            if lock is not None:
                lock.acquire()
            try:
                inner = pager.inner
                base_lsn = pager.wal.base_lsn()
                end = min(inner.num_pages, start + max_pages)
                pages = [
                    [pid, base64.b64encode(inner.read(pid)).decode("ascii")]
                    for pid in range(start, end)
                ]
                return base_lsn, pages, inner.num_pages
            finally:
                if lock is not None:
                    lock.release()

        base_lsn, pages, num_pages = await self._run_blocking(snapshot_locked)
        return protocol.ok_response(
            request_id,
            base_lsn=base_lsn,
            pages=pages,
            num_pages=num_pages,
            page_size=self.db.pager.page_size,
            eof=start + len(pages) >= num_pages,
        )

    async def _op_trace_drain(self, request_id, message) -> Dict[str, Any]:
        """Ship finished spans to the caller (router-side trace stitching)."""
        tracer = trace.get_tracer()
        spans = tracer.drain_serialized() if tracer is not None else []
        return protocol.ok_response(request_id, spans=spans)

    async def _op_trace_get(self, request_id, message) -> Dict[str, Any]:
        """The stitched span tree of one (possibly closed) session.

        A router first pulls any straggler shard spans (``trace.drain``
        against every shard) so the tree is as complete as possible, then
        returns every finished span of the session's trace.  Spans are in
        wire form; :func:`repro.obs.trace.build_tree` assembles them.
        """
        session_id = message.get("session")
        entry = self._session_traces.get(session_id)
        if entry is None:
            return protocol.error_response(
                request_id,
                protocol.ERR_UNKNOWN_SESSION,
                f"no trace recorded for session {session_id!r} "
                "(tracing off, or the session was evicted)",
            )
        stitch = getattr(self.service, "stitch_traces", None)
        if stitch is not None:
            await self._run_blocking(stitch)
        tracer = trace.get_tracer()
        spans = []
        if tracer is not None:
            spans = [
                s.to_dict() for s in tracer.spans_for_trace(entry["trace_id"])
            ]
        return protocol.ok_response(
            request_id, trace=entry["wire"], spans=spans
        )

    async def _op_obs_plane(self, request_id, message) -> Dict[str, Any]:
        """Wire-safe observability-plane snapshot (series, alerts, SLOs)."""
        points = max(1, min(int(message.get("points", 120)), 1024))
        snapshot = await self._run_blocking(self.plane.snapshot, points)
        return protocol.ok_response(request_id, plane=snapshot)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, message: Dict[str, Any], conn_sessions: Set[str]
    ) -> Dict[str, Any]:
        request_id = message.get("id")
        op = message.get("op")
        if op in self._extra_ops:
            response = await self._answer(
                self._extra_ops[op], request_id, message
            )
            self.metrics.record_request(op, ok=bool(response.get("ok")))
            return response
        if op not in protocol.OPS:
            self.metrics.record_request(str(op), ok=False)
            return protocol.error_response(
                request_id, protocol.ERR_UNKNOWN_OP, f"unknown op {op!r}"
            )
        if op == "ping":
            self.metrics.record_request(op, ok=True)
            return protocol.ok_response(request_id, pong=True)
        if op == "stats":
            self.metrics.record_request(op, ok=True)
            return protocol.ok_response(
                request_id,
                stats=await self._run_blocking(
                    self._stats_payload, bool(message.get("raw", False))
                ),
            )
        if op == "metrics":
            # Prometheus text exposition of the same registry
            # (scrape-friendly sibling of "stats").
            self.metrics.record_request(op, ok=True)
            return protocol.ok_response(
                request_id, text=await self._run_blocking(self._metrics_text)
            )

        # Admission control: bound the work queued behind the bridge.
        if op in ("start", "fetch") and self._inflight >= self.max_inflight:
            self.metrics.record_request(op, ok=False)
            return self._at_capacity(request_id)
        handler = {
            "start": self._op_start,
            "fetch": self._op_fetch,
            "close": self._op_close,
        }[op]
        self._inflight += 1
        try:
            response = await self._answer(
                handler, request_id, message, conn_sessions
            )
        finally:
            self._inflight -= 1
        self.metrics.record_request(op, ok=bool(response.get("ok")))
        return response

    @staticmethod
    async def _answer(handler, request_id, message, *args) -> Dict[str, Any]:
        """Run one op handler; an error it raises becomes a typed error
        response, so a bad request never costs the connection."""
        try:
            return await handler(request_id, message, *args)
        except ReproError as exc:
            code = getattr(exc, "wire_code", protocol.ERR_BAD_REQUEST)
            return protocol.error_response(request_id, code, str(exc))
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            return protocol.error_response(
                request_id,
                protocol.ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )

    async def _op_start(
        self,
        request_id: Any,
        message: Dict[str, Any],
        conn_sessions: Set[str],
    ) -> Dict[str, Any]:
        """Open a session and answer with its first page (one engine hop).

        A first page that is also the last closes the session in the same
        hop and carries its close ``summary``.
        """
        refused = self._refusal(request_id)
        if refused is not None:
            return refused
        kind = message.get("kind")
        if kind not in protocol.KINDS:
            return protocol.error_response(
                request_id,
                protocol.ERR_BAD_REQUEST,
                f"unknown query kind {kind!r}; valid: {protocol.KINDS}",
            )
        params = message.get("params") or {}
        if not isinstance(params, dict):
            return protocol.error_response(
                request_id, protocol.ERR_BAD_REQUEST, "params must be an object"
            )
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        else:
            _wire_number("deadline_ms", deadline_ms, (int, float))
        n = _page_size(message)
        deadline = (
            time.monotonic() + float(deadline_ms) / 1000.0
            if deadline_ms is not None
            else None
        )
        ctx = WorkerContext(0)
        # Deadline propagation: the service (notably the cluster router's
        # retry layer) sees the session's absolute deadline, so retries
        # and backoff sleeps can never outlive the session.
        ctx.deadline = deadline
        # Distributed tracing: a ``trace_ctx`` shipped by the client (or
        # an upstream router) roots this session's span under the
        # caller's trace; without one — tracing on, direct client — the
        # session span starts a fresh trace.  Opened stack-free: this
        # runs on the event-loop thread but the span belongs to the
        # session object, not to any thread's lexical scope.
        trace_ctx = message.get("trace_ctx")
        if not isinstance(trace_ctx, dict):
            trace_ctx = None
        session_span = trace.span(
            "server.session",
            ctx,
            remote=trace_ctx,
            kind=kind,
            shard=self.shard_id,
        ).open()
        ctx.parent_span = (
            session_span if isinstance(session_span, trace.Span) else None
        )
        ctx.trace_ctx = trace_ctx
        started = time.perf_counter()
        try:
            session, extra, page = await self._run_blocking(
                self._open_session, kind, params, ctx, deadline, session_span, n
            )
        except Exception as exc:  # answered by _answer
            session_span.finish(exc)
            self.metrics.record_query(kind, time.perf_counter() - started, 0, ok=False)
            raise
        self.metrics.bump_session("opened")
        conn_sessions.add(session.session_id)
        fields = dict(extra, session=session.session_id)
        wire_trace = self._register_session_trace(session.session_id, session_span)
        if wire_trace is not None:
            fields["trace"] = wire_trace
        return self._page_response(
            request_id, session, page, started, conn_sessions, fields
        )

    def _refusal(self, request_id: Any) -> Optional[Dict[str, Any]]:
        """The answer refusing a new session or write before it has any
        effect (``SHUTTING_DOWN`` / ``OVERLOADED``), or ``None`` to admit."""
        if self._draining:
            self.metrics.bump_session("rejected_shutdown")
            return protocol.error_response(
                request_id,
                protocol.ERR_SHUTTING_DOWN,
                "server is shutting down; no new sessions",
            )
        if len(self._sessions) >= self.max_sessions:
            self.metrics.bump_session("rejected_overload")
            return protocol.error_response(
                request_id,
                protocol.ERR_OVERLOADED,
                f"session limit reached ({self.max_sessions}); retry later",
            )
        return None

    def _at_capacity(self, request_id: Any) -> Dict[str, Any]:
        """The ``OVERLOADED`` answer of a request past ``max_inflight``."""
        self.metrics.bump_session("rejected_overload")
        return protocol.error_response(
            request_id,
            protocol.ERR_OVERLOADED,
            f"server at capacity ({self.max_inflight} requests in "
            "flight); retry later",
        )

    def _open_session(self, kind, params, ctx, deadline, session_span, n):
        """Blocking half of ``start``: open, register, first page."""
        rows, extra = self.service.open(kind, params, ctx)
        session_id = f"s{next(self._session_ids)}"
        session = ServerSession(
            session_id,
            kind,
            rows,
            ctx,
            lock=getattr(self.service, "lock", None),
            deadline=deadline,
            trace_span=session_span,
        )
        # Registered before its first page, so a shutdown can cancel it.
        self._sessions[session_id] = session
        # Tagged before the page that may finish the span.
        session_span.set_tag("session", session_id)
        return session, extra, self._page(session, n, first=True)

    @staticmethod
    def _page(session: ServerSession, n: int, first: bool = False):
        """Blocking: one page as ``(rows, eof, error)``.  A page that ends
        the results, or fails, closes the session in the same hop."""
        try:
            rows, eof = session.fetch(n, first)
        except Exception as exc:  # noqa: BLE001 - answered by _page_response
            session.close()
            return [], False, exc
        if eof:
            session.close()
        return rows, eof, None

    def _page_response(
        self,
        request_id: Any,
        session: ServerSession,
        page,
        started: float,
        conn_sessions: Set[str],
        fields: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The ``start``/``fetch`` answer for one page from :meth:`_page`;
        ``fields`` are the extra response fields of a ``start``."""
        fields = {} if fields is None else fields
        rows, eof, error = page
        elapsed = time.perf_counter() - started
        if error is None:
            self.metrics.record_query(session.kind, elapsed, len(rows))
            if eof:
                fields["summary"] = self._end_session(
                    session, "exhausted", conn_sessions
                )
            return protocol.ok_response(request_id, rows=rows, eof=eof, **fields)
        self.metrics.record_query(session.kind, elapsed, 0, ok=False)
        if isinstance(error, SessionCancelled):
            self._end_session(
                session,
                "cancelled_shutdown"
                if error.code == protocol.ERR_SHUTTING_DOWN
                else "cancelled_deadline",
                conn_sessions,
            )
            return protocol.error_response(request_id, error.code, str(error))
        self._end_session(session, "closed", conn_sessions)
        code = getattr(error, "wire_code", protocol.ERR_INTERNAL)
        return protocol.error_response(
            request_id, code, f"{type(error).__name__}: {error}"
        )

    def _end_session(
        self,
        session: ServerSession,
        outcome: str,
        conn_sessions: Optional[Set[str]] = None,
    ) -> Dict[str, Any]:
        """Forget a closed session: count its outcome, merge its meter
        once, and return its close summary."""
        self._sessions.pop(session.session_id, None)
        if conn_sessions is not None:
            conn_sessions.discard(session.session_id)
        self.metrics.bump_session(outcome)
        self.metrics.merge_meter(session.kind, session.meter_counts())
        summary = {
            "rows": session.rows_served,
            "kind": session.kind,
            "exhausted": session.exhausted,
        }
        summary.update(session.close_info())
        return summary

    def _register_session_trace(self, session_id, session_span) -> Optional[str]:
        """Remember a session's trace ids for later ``trace.get`` calls."""
        if not isinstance(session_span, trace.Span):
            return None
        tracer = trace.get_tracer()
        if tracer is None:  # pragma: no cover - enable/disable race
            return None
        wire = tracer.wire_id_of(session_span.trace_id)
        self._session_traces[session_id] = {
            "wire": wire,
            "trace_id": session_span.trace_id,
        }
        while len(self._session_traces) > 256:
            self._session_traces.popitem(last=False)
        return wire

    async def _op_fetch(
        self,
        request_id: Any,
        message: Dict[str, Any],
        conn_sessions: Set[str],
    ) -> Dict[str, Any]:
        session_id = message.get("session")
        session = self._sessions.get(session_id)
        if session is None:
            return protocol.error_response(
                request_id,
                protocol.ERR_UNKNOWN_SESSION,
                f"no session {session_id!r}",
            )
        n = _page_size(message)
        started = time.perf_counter()
        page = await self._run_blocking(self._page, session, n)
        return self._page_response(
            request_id, session, page, started, conn_sessions
        )

    async def _op_close(
        self,
        request_id: Any,
        message: Dict[str, Any],
        conn_sessions: Set[str],
    ) -> Dict[str, Any]:
        """Drop a session before its ``eof`` page (which closes it)."""
        session_id = message.get("session")
        session = self._sessions.pop(session_id, None)
        conn_sessions.discard(session_id)
        if session is None:
            return protocol.error_response(
                request_id,
                protocol.ERR_UNKNOWN_SESSION,
                f"no session {session_id!r}",
            )
        await self._run_blocking(session.close)
        summary = self._end_session(
            session, "exhausted" if session.exhausted else "closed"
        )
        return protocol.ok_response(request_id, summary=summary)


def _wire_number(name: str, value: Any, kind) -> Any:
    """A request's numeric field, or ``BadRequest`` naming it.

    ``kind`` is ``int`` or ``(int, float)``; booleans are refused either
    way, and so are non-finite floats.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        what = "an integer" if kind is int else "a number"
        raise BadRequest(f"{name} must be {what}, got {value!r}")
    return value


def _page_size(message: Dict[str, Any]) -> int:
    """The ``n`` of a ``start`` or ``fetch``, clamped to [1, MAX_FETCH_ROWS]."""
    n = _wire_number("n", message.get("n", DEFAULT_FETCH_ROWS), int)
    return max(1, min(n, MAX_FETCH_ROWS))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def serve(
    db: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
    install_signals: bool = True,
    **kwargs: Any,
) -> SpatialQueryServer:
    """Run a server until it is shut down (Ctrl-C / SIGTERM drain it)."""
    server = SpatialQueryServer(db, host, port, **kwargs)
    await server.start()
    if install_signals:
        server.install_signal_handlers()
    if ready is not None:
        ready(server)
    await server.wait_closed()
    return server


class BackgroundServer:
    """A server on its own thread + event loop (tests, benchmarks, CI).

    Usage::

        with BackgroundServer(db) as handle:
            client = QueryClient(port=handle.port)
    """

    def __init__(self, db: Database, server_factory=None, **kwargs: Any):
        self._db = db
        self._kwargs = kwargs
        #: constructs the server (the cluster substitutes a RouterServer)
        self._factory = (
            server_factory if server_factory is not None else SpatialQueryServer
        )
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[SpatialQueryServer] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServerError("server failed to start within 10s")
        if self.error is not None:
            raise ServerError(f"server failed to start: {self.error!r}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self.error = exc
            self._ready.set()

    async def _main(self) -> None:
        server = self._factory(self._db, **self._kwargs)
        await server.start()
        self.server = server
        self._loop = asyncio.get_running_loop()
        self.port = server.port
        self._ready.set()
        await server.wait_closed()

    def stop(self, timeout: float = 15.0) -> None:
        if self.server is not None and self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop
            )
            try:
                future.result(timeout=timeout)
            except Exception:
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
