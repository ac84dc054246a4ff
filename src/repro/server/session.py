"""Server-side query sessions: ODCITable state, held across wire calls.

A :class:`ServerSession` is the server's half of one started query: the
row stream (usually a live generator draining a pipelined table function),
the :class:`~repro.engine.parallel.WorkerContext` whose meter bills the
session's work, the optional deadline, and the close/cancel bookkeeping.

Cancellation is *cooperative*: ``fetch`` checks the deadline and the
cancel flag between rows, and closing the session closes the underlying
generator — which raises ``GeneratorExit`` at the suspended ``yield``
inside :func:`~repro.engine.table_function.pipeline`, running its
``finally`` clause and therefore the table function's ``close``.  Nothing
keeps producing rows for a client that stopped listening.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ServerError
from repro.engine.parallel import WorkerContext
from repro.obs import trace
from repro.server.protocol import ERR_DEADLINE

__all__ = ["HOP", "SessionCancelled", "ServerSession"]

#: a row stream may yield ``HOP`` between rows to mark that its next row
#: costs another wire round trip (the router's gather stream does, before
#: each shard fetch): the first page, sent in the ``start`` response,
#: ends there; later fetches step over it
HOP = object()


class SessionCancelled(ServerError):
    """Raised by ``fetch`` when the session was cancelled or timed out."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ServerSession:
    """One started query, paging rows until exhausted, closed or cancelled."""

    def __init__(
        self,
        session_id: str,
        kind: str,
        rows: Iterator[Any],
        ctx: WorkerContext,
        lock: Optional[threading.Lock] = None,
        deadline: Optional[float] = None,
        trace_span: Any = None,
    ):
        self.session_id = session_id
        self.kind = kind
        self.ctx = ctx
        self.deadline = deadline  # absolute time.monotonic() bound
        self.rows_served = 0
        self.exhausted = False
        self.closed = False
        self.created = time.monotonic()
        #: the long-lived ``server.session`` span (opened stack-free by
        #: the server); fetch spans parent under it, close() finishes it
        self.trace_span = trace_span
        self._rows = rows
        self._lock = lock
        self._cancelled: Optional[Tuple[str, str]] = None  # (code, message)

    # ------------------------------------------------------------------
    def cancel(self, code: str, message: Optional[str] = None) -> None:
        """Mark the session cancelled with a typed code (e.g. shutdown).

        Cooperative like the deadline: the *next* fetch raises the typed
        :class:`SessionCancelled` instead of rows.  If the row stream
        knows how to interrupt in-flight work (the router's gather
        stream unblocks its shard sockets), that hook is invoked too, so
        a fetch blocked on the wire fails over to the typed error now
        rather than at socket timeout.
        """
        self._cancelled = (
            code,
            message or f"session {self.session_id} cancelled ({code})",
        )
        canceller = getattr(self._rows, "cancel", None)
        if canceller is not None:
            try:
                canceller()
            except Exception:
                pass  # cancellation is best-effort; close() still reclaims

    def _check_cancelled(self) -> None:
        if self._cancelled is not None:
            code, message = self._cancelled
            self.close()
            raise SessionCancelled(code, message)

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.close()
            raise SessionCancelled(
                ERR_DEADLINE,
                f"session {self.session_id} exceeded its deadline",
            )

    def fetch(self, n: int, first: bool = False) -> Tuple[List[Any], bool]:
        """Return up to ``n`` rows and an end-of-results flag.

        Mirrors ``TableFunction.fetch``: an exhausted session keeps
        returning ``([], True)``.  The deadline is rechecked between rows
        so a long page cannot overshoot it by more than one row's work.
        The ``first`` page stops early, not exhausted, where the row
        stream yields :data:`HOP`.
        """
        if self.closed:
            if self._cancelled is not None:
                raise SessionCancelled(*self._cancelled)
            raise SessionCancelled(
                ERR_DEADLINE if self.deadline is not None else "CLOSED",
                f"session {self.session_id} is closed",
            )
        self._check_cancelled()
        self._check_deadline()
        if self.exhausted:
            return [], True
        out: List[Any] = []
        lock = self._lock
        parent = (
            self.trace_span
            if isinstance(self.trace_span, trace.Span)
            else None
        )
        with trace.span(
            "server.fetch",
            self.ctx,
            parent=parent,
            session=self.session_id,
            kind=self.kind,
        ) as sp:
            try:
                if lock is not None:
                    lock.acquire()
                try:
                    while len(out) < n:
                        try:
                            row = next(self._rows)
                        except StopIteration:
                            self.exhausted = True
                            break
                        if row is not HOP:
                            out.append(row)
                        elif first:
                            break
                        if self._cancelled is not None:
                            raise SessionCancelled(*self._cancelled)
                        if self.deadline is not None and (
                            time.monotonic() > self.deadline
                        ):
                            raise SessionCancelled(
                                ERR_DEADLINE,
                                f"session {self.session_id} exceeded its "
                                "deadline mid-fetch",
                            )
                finally:
                    if lock is not None:
                        lock.release()
            except SessionCancelled:
                self.close()
                raise
            sp.set_tag("rows", len(out))
        self.rows_served += len(out)
        return out, self.exhausted

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the underlying cursor/table function (idempotent)."""
        if self.closed:
            return
        self.closed = True
        closer = getattr(self._rows, "close", None)
        if closer is not None:
            lock = self._lock
            if lock is not None:
                with lock:
                    closer()
            else:
                closer()
        sp = self.trace_span
        if sp is not None:
            self.trace_span = None
            sp.set_tag("rows", self.rows_served)
            sp.set_tag("exhausted", self.exhausted)
            sp.finish()

    def close_info(self):
        """Extra close-summary fields the row stream wants to report.

        A plain generator contributes nothing; the router's scatter
        streams expose an ``info`` dict (per-shard row counts, shards
        skipped by partial-failure degradation) that rides home in the
        close response.
        """
        info = getattr(self._rows, "info", None)
        return dict(info) if isinstance(info, dict) else {}

    def meter_counts(self):
        return self.ctx.meter
