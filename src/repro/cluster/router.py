"""The shard router: one server face over N shard processes.

:class:`RouterService` is a drop-in replacement for
:class:`~repro.server.service.QueryService` — same ``open(kind, params,
ctx)`` contract, so the ordinary :class:`~repro.server.app
.SpatialQueryServer` machinery (sessions, paging, deadlines, admission
control, metrics) serves cluster queries unchanged.  Instead of running
the engine, ``open`` **scatters**: it starts one sub-session per shard
(each shard is an ordinary single-node server reached through a
:class:`~repro.server.client.QueryClient`) and returns a stream that
**gathers** the shard rows.  Each shard ``start`` returns that shard's
first page (``gather_page`` rows), and a shard that reaches ``eof`` has
closed its sub-session, so a query whose shard slices fit one page costs
one request per shard; the router's own first page stops where the next
row would need another shard request (:data:`~repro.server.session.HOP`):

* ``window`` — every shard filters locally with ``primary_only`` (a row
  streams only from the shard owning its primary tile), so concatenating
  the shard streams is exact with no router-side dedup.
* ``spatial_join`` — every shard runs its owned-tiles slice of the
  global grid join; the canonical-tile rule makes the concatenation an
  exact partition of the single-node result (zero duplicates, exact
  multiplicity).
* ``knn`` — shards return their local top-k *with exact distances*; the
  router k-way merges the sorted streams and dedups halo replicas by id.
* ``sql`` — broadcast (DDL/admin); rowcounts sum, rows come from the
  leader shard only.

**Resilience.**  Every sub-session start and fetch is wrapped in a
retry layer governed by a :class:`RetryPolicy`:

* *per-shard retry with exponential backoff* — transient failures
  (connection loss, ``OVERLOADED``, a shard draining) re-start the
  shard's sub-session; a **global retry budget** per router session
  bounds the total, and the session's ``deadline_ms`` (propagated from
  the server via ``ctx.deadline``) bounds retry scheduling so a retried
  query can never outlive its deadline.
* *mid-stream re-scatter* — a shard lost **between fetch pages** is
  resumed exactly: the replacement sub-session re-runs the shard's slice
  and drops one replayed row per row already delivered, matched by
  value.  Tile ownership guarantees the rows of the failed shard come
  only from that shard, so no row is lost or repeated.  A shard that
  stayed up replays in its original order, so the dropped rows are the
  delivered prefix and the result is bit-identical to the fault-free
  run; a restarted shard rebuilt its indexes when its store opened, so
  the rows after the resume may arrive in another order.
* *hedged reads* — for ``window``/``knn`` (idempotent, order-stable),
  when a sub-session start (which carries the first page) or a fetch
  page exceeds the ``hedge_ms`` latency SLO the slow sub-session is
  abandoned and re-scattered on a **fresh connection** (the wedged wire
  call may hold the shard handle's lock), again with skip-resume.  Tail
  latency is cut without ever double-counting rows.  Only a session
  with an SLO runs its wire calls on a worker thread.
* *circuit breakers* — consulted before every sub-session start; a
  shard that keeps failing trips its breaker OPEN and later scatters
  fail fast instead of burning the retry budget (see
  :mod:`repro.cluster.health`).

**Partial failure** stays typed: a shard that fails beyond the retry
layer raises ``SHARD_FAILED`` to the client mid-stream, unless the
session opted in with ``partial: true`` — then the stream skips the
shard and reports it in the close summary's ``failed_shards``.

Writes go through the ``put`` op, which every server answers: the
router's places each row on its primary shard and halo replicas (see
:mod:`repro.cluster.partition`) and sends every target shard its rows in
one shard ``put``; when the leader is replicated it waits for the
follower to ack the commit LSN before acknowledging the client
(semi-synchronous replication, the contract the kill-the-leader failover
test holds it to).  Writes retry only on failures that provably precede
any server-side effect (refused connection, admission rejection):
re-sending rows after an ambiguous mid-flight loss could apply them
twice.

``RouterService.lock`` is ``None`` deliberately: the single-node service
serialises engine work behind one lock, but the router's whole point is
that shards work concurrently — each shard connection has its own lock
instead, and router sessions interleave freely on the fetch pool.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from array import array
from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ProtocolError, ReproError, RetriableError, ServerError
from repro.geometry.wkt import from_wkt
from repro.obs import trace
from repro.server import protocol
from repro.server.app import SpatialQueryServer
from repro.server.client import QueryClient, RemoteError
from repro.server.service import BadRequest, put_request, put_rows
from repro.server.session import HOP, SessionCancelled
from repro.cluster.health import OPEN, CircuitBreaker
from repro.cluster.partition import ClusterError, GridPartitioner

__all__ = [
    "ShardFailed",
    "ShardHandle",
    "RetryPolicy",
    "RouterService",
    "RouterServer",
]

#: sub-session page size the gather streams fetch with
GATHER_PAGE = 1024

#: remote error codes that are safe to retry with a fresh sub-session —
#: the old session is gone (or was never admitted), so re-running the
#: shard's slice and dropping the rows already delivered is exact
_RETRIABLE_REMOTE = frozenset(
    {
        protocol.ERR_OVERLOADED,
        protocol.ERR_SHUTTING_DOWN,
        protocol.ERR_UNKNOWN_SESSION,  # conn reset killed the session server-side
    }
)

#: codes that provably precede any server-side effect — the only ones a
#: *write* may retry on
_RETRIABLE_WRITE = frozenset(
    {protocol.ERR_OVERLOADED, protocol.ERR_SHUTTING_DOWN}
)


def _retriable(exc: BaseException) -> bool:
    if isinstance(exc, RemoteError):
        return exc.code in _RETRIABLE_REMOTE
    # ProtocolError is "the connection died mid-exchange" (e.g. a proxy or
    # peer closed on us): any session on that wire is already gone
    # server-side, so re-scattering the read is exact.  Writes must NOT
    # treat it as retriable — see ``_retriable_write``.
    return isinstance(exc, (RetriableError, ProtocolError, OSError))


def _retriable_write(exc: BaseException) -> bool:
    if isinstance(exc, RemoteError):
        return exc.code in _RETRIABLE_WRITE
    if isinstance(exc, RetriableError):
        return exc.code == "CONNECT_FAILED"  # refused: nothing reached the shard
    return isinstance(exc, ConnectionRefusedError)


class ShardFailed(ServerError):
    """A shard died (or answered with an error) mid-scatter."""

    wire_code = protocol.ERR_SHARD_FAILED

    def __init__(self, shard: int, cause: str):
        super().__init__(f"shard {shard} failed: {cause}")
        self.shard = shard
        self.cause = cause


class RetryPolicy:
    """Knobs for the router's retry/hedging layer.

    ``max_attempts`` bounds attempts per sub-session start; ``budget``
    bounds retries across one whole router session (a scatter touching N
    shards shares it); ``hedge_ms`` — when set — is the per-fetch latency
    SLO beyond which window/knn reads are hedged on a fresh connection.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        budget: int = 8,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        jitter: float = 0.25,
        hedge_ms: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        if max_attempts < 1:
            raise ClusterError("retry max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.budget = budget
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.hedge_ms = hedge_ms
        self.rng = rng if rng is not None else random.Random()

    def describe(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "budget": self.budget,
            "backoff": self.backoff,
            "backoff_cap": self.backoff_cap,
            "hedge_ms": self.hedge_ms,
        }


class _RetryState:
    """Per-router-session retry accounting: budget + deadline."""

    __slots__ = ("policy", "deadline", "budget_left", "retries", "hedges", "_lock")

    def __init__(self, policy: RetryPolicy, deadline: Optional[float]):
        self.policy = policy
        self.deadline = deadline  # absolute time.monotonic() bound, or None
        self.budget_left = policy.budget
        self.retries = 0
        self.hedges = 0
        self._lock = threading.Lock()

    def remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def sub_deadline_ms(self, base_ms: Optional[int]) -> Optional[int]:
        """Deadline to hand a sub-session: min(per-shard, session remaining)."""
        remaining = self.remaining()
        if remaining is None:
            return base_ms
        remaining_ms = max(1, int(remaining * 1000))
        if base_ms is None:
            return remaining_ms
        return min(int(base_ms), remaining_ms)

    def consume(self) -> bool:
        """Spend one unit of the session's retry budget."""
        with self._lock:
            if self.budget_left <= 0:
                return False
            self.budget_left -= 1
            self.retries += 1
            return True

    def sleep_within_deadline(self, attempt: int) -> bool:
        """Back off before a retry; False if the deadline would pass first."""
        policy = self.policy
        delay = min(policy.backoff * (2.0 ** attempt), policy.backoff_cap)
        delay *= 1.0 + policy.jitter * policy.rng.random()
        remaining = self.remaining()
        if remaining is not None and delay >= remaining:
            return False
        time.sleep(delay)
        return True


class ShardHandle:
    """One shard connection plus the lock that serialises requests on it.

    Router sessions run on a thread pool; the JSON-lines client is one
    socket with strictly ordered request/response, so every wire call
    goes through :meth:`request`'s lock.  :meth:`replace` swaps in a new
    client after failover without disturbing concurrent callers.
    """

    def __init__(self, shard: int, client: QueryClient):
        self.shard = shard
        self.client = client
        self.lock = threading.Lock()

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        with self.lock:
            return self.client.request(op, **fields)

    def start(
        self,
        kind: str,
        params: Dict[str, Any],
        deadline_ms: Optional[int] = None,
        trace_ctx: Optional[Dict[str, Any]] = None,
        n: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Start a shard session; the response carries its first page of
        up to ``n`` rows and, when that page is the last, the ``eof`` flag
        and close summary (the shard has then closed the session)."""
        fields: Dict[str, Any] = {"kind": kind, "params": params}
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        if trace_ctx is not None:
            fields["trace_ctx"] = trace_ctx
        if n is not None:
            fields["n"] = n
        return self.request("start", **fields)

    def fetch(self, session_id: str, n: int) -> Tuple[List[Any], bool]:
        response = self.request("fetch", session=session_id, n=n)
        return response["rows"], bool(response["eof"])

    def close_session(self, session_id: str) -> None:
        try:
            self.request("close", session=session_id)
        except (ReproError, OSError):
            pass  # a dead shard has no sessions left to leak

    def address(self) -> Tuple[str, int, float]:
        """Current ``(host, port, timeout)`` — read lock-free on purpose:
        a hedge needs the address while the wedged call holds the lock."""
        client = self.client
        return client.host, client.port, client.timeout

    def replace(self, client: QueryClient) -> None:
        with self.lock:
            try:
                self.client.close()
            except OSError:
                pass
            self.client = client

    def interrupt(self) -> None:
        """Unblock any wire call stuck on this handle (shutdown path)."""
        self.client.interrupt()


class _SubSession:
    """Router-side record of one started shard sub-session."""

    __slots__ = ("handle", "session_id", "extra", "private", "done", "page", "eof")

    def __init__(
        self,
        handle: ShardHandle,
        session_id: Optional[str],
        extra: Dict[str, Any],
        private: bool = False,
        page: List[Any] = (),
        eof: bool = False,
    ):
        self.handle = handle
        self.session_id = session_id
        self.extra = extra
        #: True when ``handle`` is a dedicated (hedge) connection the
        #: stream owns and must close, not the shared fleet handle
        self.private = private
        self.done = False
        #: the first page, from the start response, not yet drained
        self.page = page
        #: the shard has sent its last page and closed the session
        self.eof = eof

    @classmethod
    def started(
        cls, handle: ShardHandle, response: Dict[str, Any], private: bool
    ) -> "_SubSession":
        """The sub-session a shard's ``start`` response describes."""
        return cls(
            handle,
            response["session"],
            {
                k: v
                for k, v in response.items()
                if k not in ("id", "ok", "session", "rows", "eof", "summary")
            },
            private,
            response.get("rows", []),
            bool(response.get("eof")),
        )

    def release(self) -> None:
        """Close the shard session unless the shard already ended it, and
        a private wire.  Best-effort: the shard may have died (or dropped
        the session on a connection reset) after delivering its rows."""
        if self.session_id is not None and not self.eof:
            self.handle.close_session(self.session_id)
        if self.private:
            try:
                self.handle.client.close()
            except OSError:
                pass



class _Resume(Exception):
    """Internal: this sub-session must be re-scattered with skip-resume."""

    def __init__(
        self,
        cause: BaseException,
        hedge: bool = False,
        abandoned_thread: Optional[threading.Thread] = None,
        late: Optional[List[Tuple[str, Any]]] = None,
    ):
        super().__init__(str(cause))
        self.cause = cause
        self.hedge = hedge
        self.abandoned_thread = abandoned_thread
        #: where the abandoned call's outcome lands once it finishes
        self.late = late


#: what the per-kind gather generators catch around ``drain``
_FETCH_ERRORS = (RemoteError, RetriableError, ProtocolError, OSError, ShardFailed)

#: what the sub-session start/fetch/scatter paths catch as shard trouble
_WIRE_ERRORS = (RemoteError, RetriableError, ProtocolError, OSError)


class _GatherStream:
    """Iterator over scattered sub-sessions with failure bookkeeping.

    Exposes the ``info`` dict :meth:`ServerSession.close_info` ships in
    the close summary (per-shard row counts, shards skipped under
    partial-results mode, retry/hedge counts).  ``rows_fn`` decides the
    gather order — concatenation for window/join/sql, k-way merge for
    knn.  The stream also carries everything a mid-query re-scatter
    needs to rebuild one shard's slice: the kind, the per-shard params
    function, and the retry state.
    """

    def __init__(
        self,
        service: "RouterService",
        rows_fn,
        kind: str,
        shard_params: Callable[[int], Dict[str, Any]],
        deadline_ms: Optional[int],
        state: _RetryState,
        allow_partial: bool,
        hedgeable: bool = False,
    ):
        self._service = service
        self._subs: List[_SubSession] = []
        self.kind = kind
        self.shard_params = shard_params
        self.deadline_ms = deadline_ms
        self.state = state
        self.allow_partial = allow_partial
        self.hedgeable = hedgeable
        # Captured while the router.scatter span is open on this thread:
        # the wire trace context every shard start (including later
        # re-scatters, which run on fetch threads with an empty span
        # stack) props under, and the span partial stitches are tagged on.
        self.trace_ctx = trace.wire_ctx()
        self.trace_root = trace.current_span()
        self.info: Dict[str, Any] = {
            "shards": len(service.handles),
            "rows_per_shard": {},
            "failed_shards": [],
        }
        self._gen = rows_fn(self)
        self._closed = False
        self._cancelled = False

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._gen)

    # -- helpers the gather generators use -----------------------------
    def drain(
        self, sub: _SubSession, page: Optional[int] = None, hops: bool = False
    ):
        """Yield one sub-session's rows: its first page, then fetched
        pages until eof.  With ``hops``, :data:`~repro.server.session.HOP`
        precedes each fetch, so a session's start page stops there.

        Transient failures between pages re-scatter the shard's slice
        and resume it; fetches past the hedge SLO do the same on a fresh
        connection.  The replay drops one row per row already yielded,
        matched by value, so every row is yielded once whatever order the
        replay takes; a replay that never repeats a yielded row is a
        ``ShardFailed``.  Rows are JSON values, so ``hash(repr(row))``
        keys them; the stream keeps that 8-byte key per yielded row, not
        the rows.
        """
        if page is None:
            page = self._service.gather_page
        delivered = array("q")
        # keys of delivered rows a resumed replay has yet to repeat
        pending: Counter = Counter()
        owed = 0
        rows, sub.page = sub.page, ()
        try:
            while True:
                for row in rows:
                    key = hash(repr(row))
                    if owed and pending[key]:
                        pending[key] -= 1
                        owed -= 1
                        continue
                    delivered.append(key)
                    yield row
                if sub.eof:
                    break
                if hops:
                    yield HOP
                self._check_cancelled()
                try:
                    rows, sub.eof = self._service._fetch_page(self, sub, page)
                except _Resume as sig:
                    sub = self._service._rescatter(self, sub, len(delivered), sig)
                    pending = Counter(delivered)
                    owed = len(delivered)
                    rows, sub.page = sub.page, ()
            if owed:
                raise ShardFailed(
                    sub.handle.shard,
                    f"resume underrun: the replay lacked {owed} of "
                    f"{len(delivered)} already-delivered rows",
                )
        finally:
            self.info["rows_per_shard"][str(sub.handle.shard)] = len(delivered)
            if sub.eof:
                self._retire(sub)

    def shard_failed(self, sub: _SubSession, exc: BaseException) -> None:
        """Record a failure; re-raise typed unless partial mode allows it."""
        self._service.note_failure(sub.handle)
        self.info["failed_shards"].append(
            {"shard": sub.handle.shard, "error": str(exc)}
        )
        sub.done = True  # its session is unreachable; don't close it again
        if not self.allow_partial:
            if isinstance(exc, ShardFailed):
                raise exc
            raise ShardFailed(sub.handle.shard, str(exc)) from exc

    def _check_cancelled(self) -> None:
        if self._cancelled:
            raise SessionCancelled(
                protocol.ERR_SHUTTING_DOWN,
                "scatter-gather cancelled: router shutting down",
            )

    def _retire(self, sub: _SubSession) -> None:
        """Release a finished sub-session once (see ``_SubSession.release``):
        one the shard ended with its eof page costs no request."""
        if sub.done:
            return
        sub.done = True
        sub.release()

    def _replace_sub(self, old: _SubSession, new: _SubSession) -> None:
        for i, sub in enumerate(self._subs):
            if sub is old:
                self._subs[i] = new
                return
        self._subs.append(new)

    def _abandon(self, sub: _SubSession, sig: _Resume) -> None:
        """Detach a hedged-away sub-session; clean it up off the hot path.

        The wedged call may hold the handle lock for seconds — closing
        inline would forfeit the hedge's latency win, so a daemon thread
        waits it out and then releases the session best-effort.  For an
        abandoned start (``sub.session_id`` is None) the session is the
        one the late response names, unless that response ended it.
        """
        sub.done = True  # stream-level close must not touch it again

        def _cleanup() -> None:
            sig.abandoned_thread.join(timeout=60.0)
            status, late = sig.late[0] if sig.late else ("err", None)
            if status == "ok" and sub.session_id is None:  # a start
                sub.session_id = late["session"]
                sub.eof = bool(late.get("eof"))
            elif status == "ok":  # a fetch: (rows, eof)
                sub.eof = late[1]
            sub.release()

        threading.Thread(
            target=_cleanup, name="router-hedge-cleanup", daemon=True
        ).start()

    def cancel(self) -> None:
        """Cancel cooperatively *and* unblock in-flight wire calls.

        Called by the server's graceful drain: the next ``drain`` step
        raises a typed ``SHUTTING_DOWN`` cancellation, and interrupting
        the shard sockets makes "next step" arrive now rather than at
        socket timeout.
        """
        self._cancelled = True
        for sub in list(self._subs):
            if not sub.done:
                try:
                    sub.handle.interrupt()
                except Exception:
                    pass

    def close(self) -> None:
        """Close surviving sub-sessions; stitch shard spans if tracing."""
        if self._closed:
            return
        self._closed = True
        try:
            self._gen.close()
        except ValueError:
            # A force-close (drain timeout) can land while a fetch worker
            # is still inside the generator; flag cancellation so it
            # exits at its next checkpoint instead of crashing the close.
            self._cancelled = True
        for sub in self._subs:
            self._retire(sub)
        self._service.stitch_traces(root=self.trace_root)


class RouterService:
    """Scatter-gather session factory over the shard fleet."""

    #: no global engine lock — concurrency across shards is the point
    lock = None

    def __init__(
        self,
        handles: List[ShardHandle],
        partitioner: GridPartitioner,
        leader: int = 0,
        follower=None,
        replicated: bool = False,
        allow_partial: bool = False,
        shard_deadline_ms: Optional[int] = None,
        commit_timeout: float = 5.0,
        id_column: str = "id",
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        health=None,
        gather_page: int = GATHER_PAGE,
        commit_shards: Optional[Iterable[int]] = None,
    ):
        if not handles:
            raise ClusterError("a router needs at least one shard")
        if partitioner.nshards != len(handles):
            raise ClusterError(
                f"partitioner built for {partitioner.nshards} shard(s) but "
                f"{len(handles)} handle(s) given"
            )
        self.handles = handles
        self.partitioner = partitioner
        self.leader = leader
        self.follower = follower
        self.replicated = replicated
        self.allow_partial = allow_partial
        self.shard_deadline_ms = shard_deadline_ms
        self.commit_timeout = commit_timeout
        self.id_column = id_column
        self.retry = retry if retry is not None else RetryPolicy()
        self.breakers: Dict[int, CircuitBreaker] = {
            handle.shard: CircuitBreaker(breaker_threshold, breaker_cooldown)
            for handle in handles
        }
        self.health = health  # optional HealthMonitor, surfaced in status
        self.gather_page = int(gather_page)
        #: shards whose ``put`` batches commit durably (restartable from
        #: WAL); ``None`` keeps the legacy rule — commit only the
        #: replicated leader
        self.commit_shards = (
            frozenset(commit_shards) if commit_shards is not None else None
        )
        self.metrics = None  # set by RouterServer; counters work without it
        self.failures: Dict[int, int] = {}
        self.resilience: Dict[str, int] = {}
        self.deadline_misses: Dict[int, int] = {}  # per-shard DEADLINE_EXCEEDED
        self.last_fanout = 0  # shards touched by the most recent scatter
        self._resilience_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Resilience bookkeeping
    # ------------------------------------------------------------------
    def _bump(self, event: str, n: int = 1) -> None:
        with self._resilience_lock:
            self.resilience[event] = self.resilience.get(event, 0) + n
        metrics = self.metrics
        if metrics is not None:
            metrics.bump_resilience(event, n)

    def _note_deadline_miss(self, shard: int, exc: BaseException) -> None:
        """Count shard responses that died on the per-shard deadline."""
        if getattr(exc, "code", None) == protocol.ERR_DEADLINE:
            self._bump("deadline_misses")
            with self._resilience_lock:
                self.deadline_misses[shard] = (
                    self.deadline_misses.get(shard, 0) + 1
                )

    def _breaker_failure(self, shard: int) -> None:
        breaker = self.breakers.get(shard)
        if breaker is None:
            return
        before = breaker.state
        breaker.record_failure()
        if breaker.state == OPEN and before != OPEN:
            self._bump("breaker_open")
            trace.instant("router.breaker_open", shard=shard)

    def _breaker_success(self, shard: int) -> None:
        breaker = self.breakers.get(shard)
        if breaker is not None:
            breaker.record_success()

    def reset_breaker(self, shard: int) -> None:
        """Forget a shard's failure history — called after failover or a
        restart replaced the endpoint; the old breaker state described a
        process that no longer exists."""
        self._breaker_success(shard)

    def resilience_status(self) -> Dict[str, Any]:
        """Breaker states, counters, retry knobs, optional health view."""
        out: Dict[str, Any] = {
            "retry": self.retry.describe(),
            "breakers": {
                str(shard): breaker.status()
                for shard, breaker in self.breakers.items()
            },
            "counters": dict(self.resilience),
            "failures": dict(self.failures),
            "deadline_misses": dict(self.deadline_misses),
            "last_fanout": self.last_fanout,
        }
        if self.health is not None:
            out["health"] = self.health.status()
        return out

    # ------------------------------------------------------------------
    # QueryService contract
    # ------------------------------------------------------------------
    def open(self, kind: str, params: Dict[str, Any], ctx) -> Tuple[Any, Dict[str, Any]]:
        opener = getattr(self, f"_open_{kind}", None)
        if opener is None:
            raise BadRequest(f"unknown query kind {kind!r}")
        with trace.span(
            "router.scatter",
            ctx,
            parent=getattr(ctx, "parent_span", None),
            kind=kind,
            shards=len(self.handles),
        ):
            return opener(dict(params), ctx)

    # -- sub-session lifecycle ------------------------------------------
    def _fresh_handle(self, shard: int) -> ShardHandle:
        """A dedicated connection to ``shard`` for a hedge replacement."""
        host, port, timeout = self.handles[shard].address()
        return ShardHandle(
            shard, QueryClient(host=host, port=port, timeout=timeout, retries=2)
        )

    def _start_sub(
        self,
        stream: _GatherStream,
        handle: ShardHandle,
        fresh: bool = False,
    ) -> _SubSession:
        """Start (or resume) one shard sub-session, retrying transients.

        The start response carries the sub-session's first page
        (``gather_page`` rows); for hedgeable kinds a first page slower
        than the hedge SLO is abandoned and asked again on a fresh
        connection, like a slow fetch.  The breaker is consulted before
        every attempt; retries and hedges spend the session's budget and
        respect its deadline.  ``fresh`` builds a dedicated connection
        (hedge path).  Non-retriable errors — a shard-side
        ``BAD_REQUEST``, an exhausted budget — propagate.  Write kinds
        only retry failures that provably precede any shard-side effect
        (see ``protocol.WRITE_KINDS``).
        """
        shard = handle.shard
        state = stream.state
        breaker = self.breakers.get(shard)
        retriable = _retriable_write if stream.kind in protocol.WRITE_KINDS else _retriable
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
                raise ShardFailed(shard, "circuit breaker open")
            wire = self._fresh_handle(shard) if fresh else handle
            call = partial(
                wire.start,
                stream.kind,
                stream.shard_params(shard),
                state.sub_deadline_ms(stream.deadline_ms),
                trace_ctx=stream.trace_ctx,
                n=self.gather_page,
            )
            try:
                response = self._hedged(stream, shard, "first page", call)
            except _Resume as sig:
                stream._abandon(_SubSession(wire, None, {}, private=fresh), sig)
                self._bump("hedges")
                state.hedges += 1
                if not state.consume():
                    raise ShardFailed(
                        shard, f"retry budget exhausted after: {sig.cause}"
                    ) from sig.cause
                trace.instant("router.hedge", shard=shard, stage="start")
                fresh = True
                continue
            except _WIRE_ERRORS as exc:
                if fresh and wire is not handle:
                    try:
                        wire.client.close()
                    except OSError:
                        pass
                self.note_failure(handle)
                self._note_deadline_miss(shard, exc)
                self._breaker_failure(shard)
                attempt += 1
                if (
                    not retriable(exc)
                    or attempt >= self.retry.max_attempts
                    or not state.consume()
                ):
                    raise
                self._bump("retries")
                trace.instant(
                    "router.retry",
                    shard=shard,
                    attempt=attempt,
                    cause=type(exc).__name__,
                )
                if not state.sleep_within_deadline(attempt):
                    raise
                continue
            self._breaker_success(shard)
            return _SubSession.started(wire, response, private=fresh)

    def _hedged(self, stream: _GatherStream, shard: int, what: str, call):
        """Run one sub-session wire call under the stream's hedge SLO.

        Without an SLO (the default, and every kind but window/knn) the
        call runs inline on the caller's thread.  With one it runs on a
        worker thread so a slow shard can be abandoned: a call still
        running at the SLO raises ``_Resume(hedge=True)`` carrying that
        thread and the list its outcome will land in.
        """
        policy = self.retry
        if not (stream.hedgeable and policy.hedge_ms):
            return call()
        outcome: List[Tuple[str, Any]] = []

        def _work() -> None:
            try:
                outcome.append(("ok", call()))
            except BaseException as exc:  # delivered to the caller below
                outcome.append(("err", exc))

        worker = threading.Thread(target=_work, name="router-hedged", daemon=True)
        worker.start()
        worker.join(policy.hedge_ms / 1000.0)
        if not outcome:
            raise _Resume(
                TimeoutError(
                    f"shard {shard} {what} exceeded the "
                    f"{policy.hedge_ms}ms hedge SLO"
                ),
                hedge=True,
                abandoned_thread=worker,
                late=outcome,
            )
        status, payload = outcome[0]
        if status == "ok":
            return payload
        raise payload

    def _fetch_page(
        self, stream: _GatherStream, sub: _SubSession, page: int
    ) -> Tuple[List[Any], bool]:
        """Fetch one page; signal ``_Resume`` for retriable/SLO failures."""
        call = partial(sub.handle.fetch, sub.session_id, page)
        try:
            return self._hedged(stream, sub.handle.shard, "fetch", call)
        except _WIRE_ERRORS as exc:
            self._note_deadline_miss(sub.handle.shard, exc)
            # A write kind's statement already executed at start —
            # resuming would re-run it on a fresh sub-session.
            if stream.kind in protocol.WRITE_KINDS or not _retriable(exc):
                raise
            raise _Resume(exc) from exc

    def _rescatter(
        self, stream: _GatherStream, sub: _SubSession, count: int, sig: _Resume
    ) -> _SubSession:
        """Replace one failed/slow sub-session that had delivered ``count``
        rows (:meth:`_GatherStream.drain` drops their replay).

        Only the failed shard's slice is re-run — tile ownership means no
        other shard can produce its rows, so the gather stays exact.
        """
        shard = sub.handle.shard
        state = stream.state
        if sig.hedge:
            self._bump("hedges")
            state.hedges += 1
            stream._abandon(sub, sig)
        else:
            self._bump("rescatters")
            self.note_failure(sub.handle)
            self._breaker_failure(shard)
            sub.done = True
            if sub.private:
                try:
                    sub.handle.client.close()
                except OSError:
                    pass
            elif (
                isinstance(sig.cause, RemoteError)
                and sig.cause.code != protocol.ERR_UNKNOWN_SESSION
            ):
                # The shard is alive (it answered); free the old session.
                # Best-effort: a reset between the answer and this close
                # must not escalate a handled failure into a stream error.
                try:
                    sub.handle.close_session(sub.session_id)
                except _WIRE_ERRORS:
                    pass
        if not state.consume():
            raise ShardFailed(
                shard, f"retry budget exhausted after: {sig.cause}"
            ) from sig.cause
        trace.instant(
            "router.rescatter", shard=shard, skip=count, hedge=sig.hedge
        )
        new = self._start_sub(stream, self.handles[shard], fresh=sig.hedge)
        stream._replace_sub(sub, new)
        return new

    # -- scatter/gather -------------------------------------------------
    def _scatter(
        self,
        stream: _GatherStream,
        handles: Optional[List[ShardHandle]] = None,
    ) -> List[Tuple[ShardHandle, BaseException]]:
        """Start one sub-session per shard into ``stream``; collect failures.

        ``handles`` restricts the fan-out (window pruning); the default
        is every shard.
        """
        failed: List[Tuple[ShardHandle, BaseException]] = []
        targets = list(self.handles if handles is None else handles)
        for handle in targets:
            try:
                sub = self._start_sub(stream, handle)
            except _WIRE_ERRORS + (ShardFailed,) as exc:
                failed.append((handle, exc))
                continue
            stream._subs.append(sub)
        # Fan-out gauges: how wide this scatter went (pruned window
        # queries touch fewer shards than the fleet holds).
        self._bump("scatters")
        self._bump("scatter_width_total", len(targets))
        self.last_fanout = len(targets)
        return failed

    def _gather(
        self,
        kind,
        shard_params,
        params,
        rows_fn,
        handles=None,
        ctx=None,
        hedgeable=False,
    ):
        """Scatter, then wrap the surviving sub-sessions in a stream."""
        deadline_ms = params.get("shard_deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.shard_deadline_ms
        state = _RetryState(self.retry, getattr(ctx, "deadline", None))
        allow_partial = bool(params.get("partial", self.allow_partial))
        stream = _GatherStream(
            self,
            rows_fn,
            kind,
            shard_params,
            deadline_ms,
            state,
            allow_partial,
            hedgeable=hedgeable,
        )
        failed = self._scatter(stream, handles)
        for handle, exc in failed:
            self.note_failure(handle)
            stream.info["failed_shards"].append(
                {"shard": handle.shard, "error": str(exc)}
            )
            if not allow_partial:
                stream.close()
                if isinstance(exc, ShardFailed):
                    raise exc
                raise ShardFailed(handle.shard, str(exc)) from exc
        return stream

    # -- kinds ----------------------------------------------------------
    def _open_window(self, params, ctx):
        part = self.partitioner
        # Scatter pruning: the shard-side window_owner rule guarantees a
        # row's emitter owns a tile overlapping the search region, so
        # shards whose tiles miss the (distance-expanded) window would
        # stream nothing — skip them entirely.
        handles = self.handles
        wkt = params.get("wkt")
        if wkt is not None:
            try:
                window = from_wkt(str(wkt)).mbr
            except Exception:
                window = None  # shard-side validation raises the typed error
            if window is not None:
                expand = 0.0
                operator = str(params.get("operator", "SDO_RELATE")).upper()
                if operator == "SDO_WITHIN_DISTANCE":
                    expand = float(params.get("distance", 0.0))
                targets = part.shards_for_mbr(window, expand=expand)
                handles = [h for h in self.handles if h.shard in targets]

        def shard_params(shard: int) -> Dict[str, Any]:
            p = dict(params)
            p.pop("partial", None)
            p.pop("shard_deadline_ms", None)
            p.update(
                cluster=part.for_shard(shard).to_wire(),
                primary_only=True,
                emit_ids=True,
                id_column=params.get("id_column", self.id_column),
            )
            return p

        def rows(stream: _GatherStream):
            for sub in stream._subs:
                try:
                    yield from stream.drain(sub, hops=True)
                except _FETCH_ERRORS as exc:
                    stream.shard_failed(sub, exc)

        return (
            self._gather(
                "window", shard_params, params, rows, handles, ctx, hedgeable=True
            ),
            {},
        )

    def _open_spatial_join(self, params, ctx):
        part = self.partitioner
        distance = float(params.get("distance", 0.0))
        if distance > part.halo:
            raise BadRequest(
                f"within-distance {distance} exceeds the cluster halo "
                f"{part.halo}; reload with a wider halo"
            )

        def shard_params(shard: int) -> Dict[str, Any]:
            p = dict(params)
            p.pop("partial", None)
            p.pop("shard_deadline_ms", None)
            p.update(
                cluster=part.for_shard(shard).to_wire(),
                id_column=params.get("id_column", self.id_column),
            )
            return p

        def rows(stream: _GatherStream):
            for sub in stream._subs:
                try:
                    yield from stream.drain(sub, hops=True)
                except _FETCH_ERRORS as exc:
                    stream.shard_failed(sub, exc)

        extra = {"strategy": "GRID", "shards": len(self.handles)}
        return self._gather("spatial_join", shard_params, params, rows, None, ctx), extra

    def _open_knn(self, params, ctx):
        k = int(params.get("k", 1))

        def shard_params(shard: int) -> Dict[str, Any]:
            p = dict(params)
            p.pop("partial", None)
            p.pop("shard_deadline_ms", None)
            p.update(
                with_distance=True,
                id_column=params.get("id_column", self.id_column),
            )
            return p

        def rows(stream: _GatherStream):
            # Streaming k-way merge: each shard stream arrives sorted by
            # (distance, id); halo replicas of one row carry identical
            # keys on every shard, so an id-set dedup suffices.
            iterators = []
            for sub in stream._subs:
                try:
                    iterators.append(list(stream.drain(sub)))
                except _FETCH_ERRORS as exc:
                    stream.shard_failed(sub, exc)
            merged = heapq.merge(*iterators, key=lambda r: (r[1], r[0]))
            seen = set()
            emitted = 0
            for row in merged:
                if emitted >= k:
                    break
                rid = row[0]
                if rid in seen:
                    continue
                seen.add(rid)
                emitted += 1
                yield row

        return (
            self._gather("knn", shard_params, params, rows, None, ctx, hedgeable=True),
            {"k": k},
        )

    def _open_sql(self, params, ctx):
        def shard_params(shard: int) -> Dict[str, Any]:
            p = dict(params)
            p.pop("partial", None)
            p.pop("shard_deadline_ms", None)
            return p

        def rows(stream: _GatherStream):
            rowcount = 0
            for sub in stream._subs:
                try:
                    drained = list(stream.drain(sub))
                except _FETCH_ERRORS as exc:
                    stream.shard_failed(sub, exc)
                    continue
                rowcount += int(sub.extra.get("rowcount", 0))
                if sub.handle.shard == self.leader:
                    yield from drained
            stream.info["rowcount"] = rowcount

        stream = self._gather("sql", shard_params, params, rows, None, ctx)
        extra: Dict[str, Any] = {"broadcast": len(stream._subs)}
        if stream._subs:
            extra["columns"] = stream._subs[0].extra.get("columns", [])
            extra["message"] = stream._subs[0].extra.get("message")
        return stream, extra

    # ------------------------------------------------------------------
    # Writes (router-only op)
    # ------------------------------------------------------------------
    def put(self, table: str, rows: Any) -> Dict[str, Any]:
        """Place ``[id, wkt]`` rows: primary + halo replicas, semi-sync.

        Every row is parsed once here, for its MBR, before any shard sees
        the batch; each target shard then gets its rows, as sent, in one
        ``put`` (applied all or none there).  The leader's batch commits
        durably and — when replicated — the router blocks until the
        follower has acked the commit LSN, so acknowledged rows survive a
        leader kill -9 by construction.  Retries are limited to refusals
        that provably precede any effect (refused connection, admission
        rejection): after an ambiguous mid-flight loss the rows may have
        landed, so re-sending could apply them twice.
        """
        geoms = put_rows(rows)
        shard_rows: Dict[int, List[Any]] = {}
        replicas = 0
        # One binning call places the whole batch.
        for row, targets in zip(
            rows, self.partitioner.shards_for_mbrs([g.mbr for _id, g in geoms])
        ):
            for shard in sorted(targets):
                shard_rows.setdefault(shard, []).append(row)
            replicas += len(targets) - 1
        lsn: Optional[int] = None
        for shard in sorted(shard_rows):
            if self.commit_shards is not None:
                commit = shard in self.commit_shards
            else:
                commit = self.replicated and shard == self.leader
            lsn_here = self._put_shard(
                self.handles[shard], table, shard_rows[shard], commit
            )
            if commit and shard == self.leader:
                lsn = lsn_here
        if lsn is not None and self.follower is not None:
            self.follower.wait_for(lsn, timeout=self.commit_timeout)
        return {
            "placed": len(geoms),
            "replicas": replicas,
            "shards": sorted(shard_rows),
            "lsn": lsn,
        }

    def _put_shard(
        self, handle: ShardHandle, table: str, rows: List[Any], commit: bool
    ) -> Optional[int]:
        """Send one shard its rows, with effect-free-only retries.  A
        shard's ``BAD_REQUEST`` (it applied none of them) is the client's."""
        shard = handle.shard
        breaker = self.breakers.get(shard)
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
                raise ShardFailed(shard, "circuit breaker open")
            try:
                response = handle.request(
                    "put", table=table, rows=rows, commit=commit
                )
                self._breaker_success(shard)
                return response.get("lsn") if commit else None
            except _WIRE_ERRORS as exc:
                if (
                    isinstance(exc, RemoteError)
                    and exc.code == protocol.ERR_BAD_REQUEST
                ):
                    self._breaker_success(shard)
                    raise BadRequest(f"shard {shard}: {exc.remote_message}") from None
                self.note_failure(handle)
                self._breaker_failure(shard)
                attempt += 1
                if not _retriable_write(exc) or attempt >= self.retry.max_attempts:
                    raise ShardFailed(shard, str(exc)) from exc
                self._bump("write_retries")
                time.sleep(
                    min(
                        self.retry.backoff * (2.0 ** attempt),
                        self.retry.backoff_cap,
                    )
                )

    # ------------------------------------------------------------------
    # Topology / failover
    # ------------------------------------------------------------------
    def topology(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "shards": len(self.handles),
            "leader": self.leader,
            "replicated": self.replicated,
            "partitioner": self.partitioner.to_wire(),
            "failures": dict(self.failures),
            "breakers": {
                str(shard): breaker.state
                for shard, breaker in self.breakers.items()
            },
        }
        if self.follower is not None:
            out["follower"] = self.follower.status()
        return out

    def note_failure(self, handle: ShardHandle) -> None:
        self.failures[handle.shard] = self.failures.get(handle.shard, 0) + 1

    def shard_stats(self, rollup) -> Dict[str, Dict[str, Any]]:
        """Sum every shard's stats into the ``rollup`` registry; return the
        per-shard sections by shard id.  A shard that does not answer, or
        whose snapshot the rollup refuses, counts through note_failure."""
        shards = {}
        for handle in self.handles:
            try:
                snap = handle.request("stats", raw=True)["stats"]
                rollup.merge_snapshot(snap)
            except (ReproError, OSError, ValueError):
                self.note_failure(handle)
                continue
            shards[str(snap.get("shard_id", handle.shard))] = _shard_sections(snap)
        return shards

    def stitch_traces(self, root=None) -> int:
        """Adopt shards' finished spans into the router's tracer.

        Returns the number of shards whose drain failed.  Failures are
        never silent: they count into the ``trace_drain_failed``
        resilience metric, and when ``root`` (the scatter span) is given
        it gains a ``dropped_shards`` tag — so a partially-stitched
        trace is distinguishable from a complete one.
        """
        tracer = trace.get_tracer()
        if tracer is None:
            return 0
        dropped: List[int] = []
        for handle in self.handles:
            try:
                spans = handle.request("trace.drain")["spans"]
            except (ReproError, OSError):
                dropped.append(handle.shard)
                continue
            if spans:
                tracer.adopt(spans, parent=root, shard=handle.shard)
        if dropped:
            self._bump("trace_drain_failed", len(dropped))
            if root is not None:
                previous = root.tags.get("dropped_shards") or []
                root.set_tag(
                    "dropped_shards", sorted(set(previous) | set(dropped))
                )
        return len(dropped)


class RouterServer(SpatialQueryServer):
    """A :class:`SpatialQueryServer` whose service is a router.

    ``db`` is ``None`` — the router holds no engine, only shard clients —
    and the extra-ops table gains the router verbs (``put``,
    ``topology``, ``health``).  Stats and metrics roll the shard fleet
    up: every stats family of the shards' and the router's registries
    sums into one (latency histograms bucket-exact through
    ``latency_raw``), live families are read on the router, and
    per-shard storage/session/meter sections stay visible under
    ``shards``.
    """

    def __init__(self, db=None, *args: Any, router: RouterService, **kwargs: Any):
        super().__init__(db, *args, service=router, **kwargs)
        router.metrics = self.metrics  # resilience counters ride /metrics

    @property
    def router(self) -> RouterService:
        return self.service

    def _register_extra_ops(self) -> None:
        super()._register_extra_ops()
        self._extra_ops["put"] = self._op_put
        self._extra_ops["topology"] = self._op_topology
        self._extra_ops["health"] = self._op_health

    async def _op_put(self, request_id, message) -> Dict[str, Any]:
        table, rows = put_request(message)
        started = time.perf_counter()
        result = await self._run_blocking(self.router.put, table, rows)
        self.metrics.record_query(
            "put", time.perf_counter() - started, len(rows)
        )
        return protocol.ok_response(request_id, **result)

    async def _op_topology(self, request_id, message) -> Dict[str, Any]:
        return protocol.ok_response(
            request_id, **await self._run_blocking(self.router.topology)
        )

    async def _op_health(self, request_id, message) -> Dict[str, Any]:
        return protocol.ok_response(
            request_id, **await self._run_blocking(self.router.resilience_status)
        )

    def _rollup(self):
        """The fleet's registry and the per-shard sections (the router's
        own under ``"router"``)."""
        rollup = self.metrics.twin()
        shards = self.router.shard_stats(rollup)
        own = self.metrics.snapshot(raw=True)
        rollup.merge_snapshot(own)
        shards["router"] = _shard_sections(own)
        return rollup, shards

    def _stats_payload(self, raw: bool = False) -> Dict[str, Any]:
        rollup, shards = self._rollup()
        return dict(
            rollup.snapshot(), shards=shards, topology=self.router.topology()
        )

    def _metrics_text(self) -> str:
        from repro.obs.exporters import prometheus_text

        return prometheus_text(self._rollup()[0])


def _shard_sections(snap: Dict[str, Any]) -> Dict[str, Any]:
    # Per-shard meters stay visible so a bench can compute the cluster
    # makespan (max over shards of simulated seconds); page counts from
    # different files are not additive, so storage stays per shard too.
    return {key: snap.get(key, {}) for key in ("storage", "sessions", "meters")}
