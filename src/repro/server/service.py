"""Query service: maps wire ``start`` requests onto engine row streams.

One :class:`QueryService` wraps one :class:`~repro.engine.database.Database`.
Each supported kind builds a *lazy* row iterator (JSON-safe rows) plus an
``extra`` dict returned with the start response:

* ``window`` — operator query through the spatial index
  (``sdo_relate`` / ``sdo_filter`` / ``sdo_within_distance``); streams
  rowids straight out of the index fetch generator.
* ``knn`` — ``sdo_nn`` through the same path.
* ``sql`` — one SQL statement; the result is materialised by the SQL
  engine but still *paged* to the client.
* ``spatial_join`` — drives :class:`~repro.core.spatial_join.SpatialJoinFunction`
  through :func:`~repro.engine.table_function.pipeline`, so the join's
  rowid pairs stream to the wire without the server ever holding the full
  result (the paper's pipelining argument, applied to the network hop).
  ``parallel > 1`` or strategy GRID runs the join through
  :meth:`~repro.engine.database.Database.spatial_join` (optionally on real
  processes) and pages the combined result.

Writes are not sessions: :meth:`QueryService.put` applies a batch of
``[id, wkt]`` rows to one table, all or none (the server's ``put`` op).

Engine objects are not thread-safe, and sessions execute on a thread
pool; the service's ``lock`` serialises engine work page by page, which
interleaves concurrent sessions fairly (concurrency comes from paging,
intra-query parallelism from the process pool underneath one query).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import JoinError, OperatorError, ReproError, ServerError
from repro.engine.database import Database
from repro.engine.parallel import WorkerContext
from repro.engine.table_function import pipeline
from repro.geometry.geometry import Geometry
from repro.geometry.wkt import from_wkt
from repro.obs import trace
from repro.server.protocol import jsonify_row, rowid_to_wire

__all__ = [
    "BadRequest",
    "MAX_CANDIDATE_ARRAY_SIZE",
    "QueryService",
    "put_request",
    "put_rows",
]


class BadRequest(ServerError):
    """The start request's kind/params cannot be executed."""


def _require(params: Dict[str, Any], *names: str) -> Tuple[Any, ...]:
    missing = [n for n in names if n not in params]
    if missing:
        raise BadRequest(f"missing required param(s): {', '.join(missing)}")
    return tuple(params[n] for n in names)


def put_request(message: Dict[str, Any]) -> Tuple[str, Any]:
    """The ``table`` (checked) and ``rows`` (see :func:`put_rows`) of a
    wire ``put``."""
    table = message.get("table")
    if not isinstance(table, str) or not table:
        raise BadRequest("put needs a table name")
    return table, message.get("rows")


def put_rows(rows: Any) -> List[Tuple[Any, Geometry]]:
    """Validate the ``rows`` of a ``put``: a non-empty list of ``[id, wkt]``
    pairs, returned as ``(id, geometry)``; anything else is a
    ``BAD_REQUEST`` naming the first offending row."""
    if not isinstance(rows, list) or not rows:
        raise BadRequest("put rows must be a non-empty list of [id, wkt] pairs")
    parsed = []
    for n, row in enumerate(rows):
        if (
            not isinstance(row, (list, tuple))
            or len(row) != 2
            or not isinstance(row[1], str)
        ):
            raise BadRequest(f"put row {n} must be an [id, wkt] pair, got {row!r:.80}")
        try:
            parsed.append((row[0], from_wkt(row[1])))
        except ReproError as exc:
            raise BadRequest(f"bad geometry in put row {n} (id {row[0]!r}): {exc}") from None
    return parsed


#: The largest candidate array a wire join may ask for (Ablation B's
#: largest): the secondary filter holds and orders a whole array at once.
MAX_CANDIDATE_ARRAY_SIZE = 32768


def _positive_int(
    params: Dict[str, Any], name: str, default: int, most: Optional[int] = None
) -> int:
    value = params.get(name, default)
    if type(value) is not int or value < 1:
        raise BadRequest(f"{name} must be an integer >= 1, got {value!r}")
    if most is not None and value > most:
        raise BadRequest(f"{name} must be <= {most}, got {value!r}")
    return value


def _wire_rowids(iterator) -> Iterator[Any]:
    """Adapt a rowid generator to wire rows, closing it deterministically."""
    try:
        for rowid in iterator:
            yield rowid_to_wire(rowid)
    finally:
        closer = getattr(iterator, "close", None)
        if closer is not None:
            closer()


def _wire_pairs(iterator) -> Iterator[Any]:
    """Adapt a (rowid, rowid) stream to wire rows, closing it on exit."""
    try:
        for rid_a, rid_b in iterator:
            yield [rowid_to_wire(rid_a), rowid_to_wire(rid_b)]
    finally:
        closer = getattr(iterator, "close", None)
        if closer is not None:
            closer()


class QueryService:
    """Database-backed session factory shared by all connections."""

    def __init__(self, db: Database):
        self.db = db
        #: serialises engine work; sessions hold it per fetched page
        self.lock = threading.Lock()

    # ------------------------------------------------------------------
    def open(
        self, kind: str, params: Dict[str, Any], ctx: WorkerContext
    ) -> Tuple[Iterator[Any], Dict[str, Any]]:
        """Build the row stream for one ``start`` request."""
        opener = getattr(self, f"_open_{kind}", None)
        if opener is None:
            raise BadRequest(f"unknown query kind {kind!r}")
        with self.lock:
            # Parent under the session span the server opened stack-free
            # (this runs on a pool thread with an empty span stack).
            with trace.span(
                "server.start",
                ctx,
                parent=getattr(ctx, "parent_span", None),
                kind=kind,
            ):
                try:
                    return opener(params, ctx)
                except (JoinError, OperatorError) as exc:
                    raise BadRequest(str(exc)) from None

    # ------------------------------------------------------------------
    def put(self, table_name: str, rows: Any, commit: bool = False) -> Dict[str, Any]:
        """Insert ``[id, wkt]`` rows into one table, all of them or none.

        Rows are parsed before any is applied, then inserted one by one
        through :meth:`Table.insert` (so the index hooks fire).  A row the
        table refuses undoes the rows before it, newest first, through
        :meth:`Table.delete`, and the put answers ``BAD_REQUEST`` naming
        that row.  With ``commit`` the rows are made durable and the
        commit's LSN is returned (what a router waits for a follower to
        ack before acknowledging its own client).
        """
        parsed = put_rows(rows)
        with self.lock:
            try:
                table = self.db.table(table_name)
            except ReproError as exc:
                raise BadRequest(str(exc)) from None
            inserted = []
            for n, values in enumerate(parsed):
                try:
                    inserted.append(table.insert(values))
                except BaseException as exc:
                    for rowid in reversed(inserted):
                        table.delete(rowid)
                    if isinstance(exc, ReproError):
                        raise BadRequest(
                            f"put row {n} (id {values[0]!r}) refused, "
                            f"no row applied: {exc}"
                        ) from None
                    raise
            lsn = self.db.commit() if commit else None
        return {"rows": len(inserted), "lsn": lsn}

    # ------------------------------------------------------------------
    def _parse_geometry(self, params: Dict[str, Any]):
        (wkt,) = _require(params, "wkt")
        try:
            return from_wkt(wkt)
        except Exception as exc:
            raise BadRequest(f"bad query geometry: {exc}") from None

    # -- cluster helpers ------------------------------------------------
    def _cluster_part(self, params):
        """Decode the ``cluster`` param into a GridPartitioner, if present.

        A shard session started by the router carries the *global* grid
        spec and this shard's id, so shard-local filtering bins every MBR
        exactly the way the router's own placement did.
        """
        cluster = params.get("cluster")
        if not cluster:
            return None
        from repro.cluster.partition import GridPartitioner

        try:
            return GridPartitioner.from_wire(cluster)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"bad cluster param: {exc}") from None

    def _ids_of(self, table_name: str, id_column: str):
        """rowid → id-column value mapper (global ids for cluster rows)."""
        table = self.db.table(table_name)
        return lambda rowid: table.value(rowid, id_column)

    def _open_window(self, params, ctx):
        table, column = _require(params, "table", "column")
        query = self._parse_geometry(params)
        operator = str(params.get("operator", "SDO_RELATE")).upper()
        if operator == "SDO_WITHIN_DISTANCE":
            args = [query, float(params.get("distance", 0.0))]
        elif operator == "SDO_RELATE":
            args = [query, str(params.get("mask", "ANYINTERACT")).upper()]
        else:
            args = [query]
        part = self._cluster_part(params)
        if part is not None and bool(params.get("primary_only", False)):
            # Drop halo replicas *before* the exact geometry test: a row
            # streams from the one shard owning the tile of its low
            # corner clamped into the search region (window_owners), so
            # the router's simple concatenation is duplicate-free — and
            # rejected replicas never pay a geometry fetch or exact test.
            # One ownership test per candidate array.
            expand = args[1] if operator == "SDO_WITHIN_DISTANCE" else 0.0
            window = query.mbr

            def owned(candidates):
                mbrs = [mbr for mbr, _rid in candidates]
                return part.window_owners(mbrs, window, expand) == part.shard

            index = self.db.spatial_index_on(table, column)
            rowids = index.fetch(operator, args, ctx, prefilter=owned)
        else:
            rowids = self.db.select_rowids(table, column, operator, args, ctx)
        if bool(params.get("emit_ids", False)):
            ids = self._ids_of(table, str(params.get("id_column", "id")))
            return (([ids(rid)] for rid in rowids), {})
        return _wire_rowids(rowids), {}

    def _open_knn(self, params, ctx):
        table, column = _require(params, "table", "column")
        query = self._parse_geometry(params)
        k = int(params.get("k", 1))
        rowids = self.db.select_rowids(
            table, column, "SDO_NN", [query, k], ctx
        )
        if bool(params.get("with_distance", False)):
            # Cluster mode: ship ``[id, exact_distance]`` so the router can
            # k-way merge shard-local top-k streams by true distance (halo
            # replicas dedup router-side by id).  fetch_nn already yields
            # in exact-distance order, so the stream arrives sorted.
            from repro.geometry.distance import distance as exact_distance

            index = self.db.spatial_index_on(table, column)
            ids = self._ids_of(table, str(params.get("id_column", "id")))
            rows = (
                [ids(rid), exact_distance(query, index.geometry_of(rid, ctx))]
                for rid in rowids
            )
            return rows, {"k": k}
        return _wire_rowids(rowids), {"k": k}

    def _open_sql(self, params, ctx):
        (statement,) = _require(params, "statement")
        result = self.db.sql(statement)
        extra = {
            "columns": list(result.columns),
            "rowcount": result.rowcount,
            "message": result.message,
        }
        rows = iter([jsonify_row(row) for row in result.rows])
        return rows, extra

    def _open_spatial_join(self, params, ctx):
        from repro.core.parallel_join import SpatialJoinFactory
        from repro.core.secondary_filter import JoinPredicate
        from repro.core.spatial_join import DEFAULT_CANDIDATE_ARRAY_SIZE
        from repro.index.rtree.join import JoinStrategy

        table_a, column_a, table_b, column_b = _require(
            params, "table_a", "column_a", "table_b", "column_b"
        )
        predicate = JoinPredicate(
            mask=str(params.get("mask", "ANYINTERACT")).upper(),
            distance=params.get("distance", 0.0),
        )
        strategy = JoinStrategy.of(params.get("strategy", "SWEEP"))
        part = self._cluster_part(params)
        if part is not None:
            return self._open_cluster_join(
                params, ctx, part, predicate, strategy
            )
        parallel = _positive_int(params, "parallel", 1)
        candidate_array_size = _positive_int(
            params,
            "candidate_array_size",
            DEFAULT_CANDIDATE_ARRAY_SIZE,
            MAX_CANDIDATE_ARRAY_SIZE,
        )
        use_processes = bool(params.get("use_processes", False))
        cpus = os.cpu_count() or 1
        if use_processes and parallel > cpus:
            # one forked slave per degree
            raise BadRequest(
                f"parallel={parallel} with use_processes exceeds this "
                f"host's {cpus} CPUs"
            )
        extra = {"parallel": parallel, "strategy": strategy.name}
        if parallel > 1 or strategy is JoinStrategy.GRID:
            # Decompositions run to completion (subtree pairs or grid
            # tiles; multiple cores with use_processes), then page.
            result = self.db.spatial_join(
                table_a,
                column_a,
                table_b,
                column_b,
                mask=predicate.mask,
                distance=predicate.distance,
                parallel=parallel,
                use_processes=use_processes,
                strategy=strategy,
                candidate_array_size=candidate_array_size,
            )
            ctx.meter.merge(result.run.combined_meter())
            return _wire_pairs(iter(result.pairs)), extra

        factory = SpatialJoinFactory(
            self.db.table(table_a),
            column_a,
            self.db.rtree_of(table_a, column_a),
            self.db.table(table_b),
            column_b,
            self.db.rtree_of(table_b, column_b),
            predicate=predicate,
            candidate_array_size=candidate_array_size,
            strategy=strategy,
        )
        # The wire session *is* the pipelined table function: rows stream
        # through start/fetch/close at both layers, never materialised.
        stream = pipeline(factory(None), ctx)
        return _wire_pairs(stream), extra

    def _open_cluster_join(self, params, ctx, part, predicate, strategy):
        """This shard's slice of a global grid join.

        Every shard bins its local rows (primaries + halo replicas)
        against the router's *global* :class:`GridSpec` and sweeps only
        its owned tiles; the canonical-tile rule makes the shard outputs
        an exact partition of the single-node result, so the router
        concatenates them with no dedup.  Pairs go to the wire as
        ``[id_a, id_b]`` because rowids are shard-local names.
        """
        from repro.core.parallel_join import grid_parallel_join
        from repro.engine.parallel import SerialExecutor

        table_a, column_a, table_b, column_b = _require(
            params, "table_a", "column_a", "table_b", "column_b"
        )
        if predicate.distance > part.halo:
            raise BadRequest(
                f"within-distance {predicate.distance} exceeds the cluster "
                f"halo {part.halo}; reload with a wider halo to run this "
                "join distributed"
            )
        result = grid_parallel_join(
            self.db.table(table_a),
            column_a,
            self.db.rtree_of(table_a, column_a),
            self.db.table(table_b),
            column_b,
            self.db.rtree_of(table_b, column_b),
            SerialExecutor(),
            predicate=predicate,
            spec=part.spec,
            owned=part.owned_tiles(),
        )
        ctx.meter.merge(result.run.combined_meter())
        ids_a = self._ids_of(table_a, str(params.get("id_column", "id")))
        ids_b = self._ids_of(table_b, str(params.get("id_column", "id")))
        rows = ([ids_a(ra), ids_b(rb)] for ra, rb in result.pairs)
        return rows, {
            "strategy": strategy.name,
            "shard": part.shard,
            "tiles_owned": len(part.owned_tiles()),
            "pairs": len(result.pairs),
        }
