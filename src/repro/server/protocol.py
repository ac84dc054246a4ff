"""Wire protocol of the spatial query service: JSON lines, paged sessions.

The protocol is a wire-level mirror of the paper's ODCITable interface
(§2): a client *starts* a query, *fetches* result pages of an explicit
size, and the session ends — so a result set larger than memory (or
than the client wants to hold) streams over the socket exactly the way a
pipelined table function streams rows to the SQL engine.

One request per hop: ``start`` opens the session *and* returns its first
page of up to ``n`` rows (ODCITableStart plus the first ODCITableFetch,
in one engine hop), and any page with ``"eof": true`` — from ``start``
or ``fetch`` — has already run ODCITableClose server-side and carries
the close ``summary``.  Nobody sends ``close`` after ``eof``; ``close``
drops a session early.  A result that fits one page costs one request.
``n`` defaults to the server's page size and is clamped to
``[1, MAX_FETCH_ROWS]`` (both in :mod:`repro.server.app`); a non-integer (or boolean) ``n``, or a
non-numeric ``deadline_ms``, is a ``BAD_REQUEST`` naming the field.

Framing: one UTF-8 JSON object per ``\\n``-terminated line, both ways.

Requests::

    {"id": 1, "op": "start", "kind": "spatial_join", "params": {...},
     "n": 256,                            -- optional first-page size
     "deadline_ms": 2000}                 -- optional per-session deadline
    {"id": 2, "op": "fetch", "session": "s1", "n": 256}
    {"id": 3, "op": "close", "session": "s1"}
    {"id": 4, "op": "stats"}
    {"id": 5, "op": "metrics"}            -- Prometheus text exposition
    {"id": 6, "op": "ping"}

Responses echo the request ``id``::

    {"id": 1, "ok": true, "session": "s1", "rows": [...], "eof": false}
    {"id": 2, "ok": true, "rows": [...], "eof": true,
     "summary": {"rows": 300, "kind": "spatial_join", "exhausted": true}}
    {"id": 3, "ok": false, "error": {"code": "UNKNOWN_SESSION",
                                     "message": "..."}}

Query kinds (``start``): ``window`` and ``knn`` run operator queries
through the spatial index, ``sql`` executes one SQL statement, and
``spatial_join`` streams rowid pairs straight out of the join table
function without ever materialising the full result server-side.

Trace context (observability): a ``start`` request may carry::

    "trace_ctx": {"trace": "<pid:x>-<trace:x>", "span": 17,
                  "pid": 4321, "sampled": true}

``trace`` is the globally-unique wire id of the caller's trace,
``span``/``pid`` name the parent span so the server's session span nests
under it, and ``sampled`` propagates the caller's sampling decision.
When tracing is enabled the start response includes ``"trace"`` (the
session's wire trace id) and ``trace.get`` returns the finished spans of
that session — on a router, stitched across every participating shard
(each shard ships its spans home via ``trace.drain``).  ``obs.plane``
returns the metrics/SLO plane snapshot when one is attached.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "OBS_OPS",
    "WAL_OPS",
    "WRITE_OPS",
    "WRITE_KINDS",
    "ROUTER_OPS",
    "KINDS",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_OP",
    "ERR_UNKNOWN_SESSION",
    "ERR_OVERLOADED",
    "ERR_DEADLINE",
    "ERR_SHUTTING_DOWN",
    "ERR_INTERNAL",
    "ERR_SHARD_FAILED",
    "ERR_REPLICATION",
    "encode",
    "decode_line",
    "ok_response",
    "error_response",
    "jsonify_value",
    "jsonify_row",
    "rowid_to_wire",
]

#: one wire message must fit in this many bytes (also the asyncio limit)
MAX_LINE_BYTES = 1 << 20

OPS = ("start", "fetch", "close", "stats", "metrics", "ping")
KINDS = ("window", "knn", "sql", "spatial_join")

#: observability ops: every server answers ``trace.get`` (the stitched
#: spans of one session, by session id); ``obs.plane`` is registered only
#: when a metrics/SLO plane is attached to the server
OBS_OPS = ("trace.get", "obs.plane")

#: extra ops a WAL-backed shard server registers (leader-side replication:
#: durable commit, log tailing and LSN acks, snapshot bootstrap) plus span
#: shipping for router-side trace stitching
WAL_OPS = ("commit", "wal.tail", "wal.ack", "wal.snapshot", "trace.drain")
#: the one write verb, answered by every server: a shard applies a batch
#: of ``[id, wkt]`` rows to one table, all or none; the router places each
#: row on its shards first and sends every shard its rows through it
WRITE_OPS = ("put",)
#: session kinds whose ``start`` has side effects (a ``sql`` start executes
#: its statement on admission): like a write op, such a start is never
#: re-sent once it may have been delivered, or a CREATE or INSERT that did
#: land is applied twice
WRITE_KINDS = frozenset({"sql"})
#: extra ops only the cluster router answers (topology, resilience status:
#: breaker states, retry counters, shard health)
ROUTER_OPS = ("topology", "health")

ERR_BAD_REQUEST = "BAD_REQUEST"
ERR_UNKNOWN_OP = "UNKNOWN_OP"
ERR_UNKNOWN_SESSION = "UNKNOWN_SESSION"
ERR_OVERLOADED = "OVERLOADED"
ERR_DEADLINE = "DEADLINE_EXCEEDED"
ERR_SHUTTING_DOWN = "SHUTTING_DOWN"
ERR_INTERNAL = "INTERNAL"
ERR_SHARD_FAILED = "SHARD_FAILED"
ERR_REPLICATION = "REPLICATION_LAG"


def encode(message: Dict[str, Any]) -> bytes:
    """Render one message as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    response = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(request_id: Any, code: str, message: str) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# ----------------------------------------------------------------------
# Row serialisation
# ----------------------------------------------------------------------
def rowid_to_wire(rowid) -> List[int]:
    """A rowid travels as ``[page, slot]``."""
    return [rowid.page, rowid.slot]


def jsonify_value(value: Any) -> Any:
    """Map one result cell to a JSON-safe value (geometries become WKT)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # RowId and Geometry are the two structured cell types; detect by
    # duck-typing to keep this module import-light.
    if hasattr(value, "page") and hasattr(value, "slot"):
        return rowid_to_wire(value)
    if hasattr(value, "to_wkt"):
        return value.to_wkt()
    if hasattr(value, "num_vertices"):  # Geometry without a to_wkt method
        from repro.geometry.wkt import to_wkt

        return to_wkt(value)
    return str(value)


def jsonify_row(row) -> List[Any]:
    return [jsonify_value(v) for v in row]
