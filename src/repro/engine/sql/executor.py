"""SQL planning and execution.

The planner recognises the paper's query shapes and lowers them onto the
library's native drivers:

* ``TABLE(spatial_join(...))`` in FROM → the pipelined spatial-join table
  function over a ``CURSOR(...)`` of subtree-root pairs, or
  ``Database.spatial_join`` for the plain form (trailing degree and
  strategy arguments pick the driver there).
* ``(a.rowid, b.rowid) IN (SELECT rid1, rid2 FROM TABLE(spatial_join(...)))``
  → table-function join followed by a rowid semi-join (the paper's §4
  rewrite).
* two-table ``WHERE sdo_relate(a.g, b.g, 'mask') = 'TRUE'`` → the
  nested-loop plan through the extensible-indexing framework (the only plan
  the pre-table-function optimizer had).
* single-table spatial predicates → domain-index scan.

Everything else falls back to a generic scan / cartesian-product evaluator,
which keeps small queries and tests honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SqlPlanError
from repro.engine.cursor import ListCursor
from repro.engine.indextype import OPERATORS
from repro.engine.parallel import WorkerContext
from repro.engine.sql.ast import (
    AnalyzeTable,
    AndExpr,
    ColumnRef,
    CompactTable,
    Comparison,
    CreateIndex,
    CreateTable,
    CursorArg,
    DropIndex,
    DropTable,
    Explain,
    Expr,
    FunctionCall,
    InSubquery,
    Insert,
    Literal,
    Select,
    Statement,
    TableFunctionRef,
    TableRef,
    TupleExpr,
)
from repro.engine.sql.parser import parse
from repro.geometry.geometry import Geometry
from repro.geometry.wkt import from_wkt
from repro.obs import trace
from repro.storage.heap import RowId

__all__ = ["SqlResult", "execute_sql"]

_SPATIAL_OPERATORS = {"SDO_RELATE", "SDO_WITHIN_DISTANCE", "SDO_FILTER"}


@dataclass
class SqlResult:
    """Result of one SQL statement."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    rowcount: int = 0
    message: str = ""

    def scalar(self) -> Any:
        if not self.rows or not self.rows[0]:
            raise SqlPlanError("result has no scalar value")
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class _Relation:
    """An evaluated FROM item: named columns plus optional hidden rowids."""

    alias: str
    columns: List[str]
    rows: List[Tuple[Any, ...]]
    rowids: Optional[List[RowId]] = None
    alias_table: str = ""  # underlying base-table name ("" for functions)


def execute_sql(db, statement_text: str) -> SqlResult:
    """Parse and execute one statement against ``db`` (a Database)."""
    with trace.span("sql.statement", text=statement_text.strip()[:200]):
        with trace.span("sql.parse"):
            statement = parse(statement_text)
        with trace.span("sql.execute", statement=type(statement).__name__):
            return _Executor(db).execute(statement)


class _Executor:
    def __init__(self, db):
        self.db = db
        # EXPLAIN ANALYZE state: a per-operator actuals scratchpad and a
        # WorkerContext threaded into index probes so their charges are
        # attributed (both None during normal execution).
        self._profile: Optional[Dict[str, Any]] = None
        self._probe_ctx: Optional[WorkerContext] = None

    # ------------------------------------------------------------------
    def execute(self, stmt: Statement) -> SqlResult:
        if isinstance(stmt, Select):
            return self._select(stmt)
        if isinstance(stmt, Explain):
            if stmt.analyze:
                lines = self._explain_analyze(stmt.query)
            else:
                lines = self._explain(stmt.query)
            return SqlResult(["PLAN"], [(line,) for line in lines], rowcount=len(lines))
        if isinstance(stmt, AnalyzeTable):
            stats = self.db.analyze(stmt.name)
            return SqlResult(
                [],
                [],
                message=(
                    f"table {stmt.name} analyzed: {stats.row_count} rows, "
                    f"{len(stats.geometry_columns)} geometry column(s)"
                ),
            )
        if isinstance(stmt, CompactTable):
            table = self.db.compact_table(
                stmt.name, column=stmt.column, chunk_rows=stmt.chunk_rows
            )
            seg = table.columnar
            assert seg is not None
            return SqlResult(
                [],
                [],
                message=(
                    f"table {stmt.name} compacted: {seg.row_count} rows in "
                    f"{len(seg.chunks)} chunks ({seg.page_count} pages)"
                ),
            )
        if isinstance(stmt, CreateTable):
            self.db.create_table(stmt.name, list(stmt.columns))
            return SqlResult([], [], message=f"table {stmt.name} created")
        if isinstance(stmt, CreateIndex):
            params = _parse_parameters(stmt.parameters)
            kind = params.pop("kind", "RTREE").upper()
            _index, report = self.db.create_spatial_index(
                stmt.name,
                stmt.table,
                stmt.column,
                kind=kind,
                parallel=stmt.parallel,
                **params,
            )
            return SqlResult(
                [],
                [],
                message=(
                    f"index {stmt.name} created ({kind}, parallel {stmt.parallel}, "
                    f"{report.makespan_seconds:.3f}s simulated)"
                ),
            )
        if isinstance(stmt, Insert):
            table = self.db.table(stmt.table)
            values = tuple(_eval_literal_expr(v) for v in stmt.values)
            table.insert(values)
            return SqlResult([], [], rowcount=1, message="1 row inserted")
        if isinstance(stmt, DropTable):
            self.db.drop_table(stmt.name)
            return SqlResult([], [], message=f"table {stmt.name} dropped")
        if isinstance(stmt, DropIndex):
            self.db.drop_index(stmt.name)
            return SqlResult([], [], message=f"index {stmt.name} dropped")
        raise SqlPlanError(f"unsupported statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _select(self, stmt: Select) -> SqlResult:
        relations = [self._eval_from_item(item, i) for i, item in enumerate(stmt.from_items)]
        conjuncts = _flatten_predicate(stmt.where)

        # Recognise the rowid-pair IN (SELECT ... FROM TABLE(spatial_join))
        # rewrite and execute it as a semi-join instead of a cross filter.
        rows, env_columns, consumed = self._join_relations(relations, conjuncts)

        # Apply remaining predicates generically.
        remaining = [c for c in conjuncts if id(c) not in consumed]
        out_rows = []
        for row_env in rows:
            if all(self._eval_predicate(c, row_env, env_columns) for c in remaining):
                out_rows.append(row_env)

        return self._project(stmt, out_rows, env_columns)

    # -- EXPLAIN -------------------------------------------------------------
    def _explain(self, stmt: Select) -> List[str]:
        """Describe the plan the executor would choose, without running it.

        Mirrors the plan-shape recognition of :meth:`_select`.
        """
        lines: List[str] = ["SELECT STATEMENT"]
        conjuncts = _flatten_predicate(stmt.where)
        table_refs = [f for f in stmt.from_items if isinstance(f, TableRef)]
        tf_refs = [f for f in stmt.from_items if isinstance(f, TableFunctionRef)]

        semi = None
        for conjunct in conjuncts:
            if isinstance(conjunct, InSubquery) and isinstance(
                conjunct.left, TupleExpr
            ):
                refs = conjunct.left.items
                if len(refs) == 2 and all(
                    isinstance(r, ColumnRef) and r.column.upper() == "ROWID"
                    for r in refs
                ):
                    semi = conjunct
                    break

        if semi is not None:
            lines.append("  ROWID SEMI-JOIN of base tables")
            for ref in table_refs:
                lines.append(f"    TABLE ACCESS BY ROWID {ref.name.upper()}")
            lines.extend(
                "    " + line for line in self._explain_from_tf(semi.subquery)
            )
            return lines

        if tf_refs:
            for ref in tf_refs:
                lines.extend("  " + line for line in self._explain_tf(ref))
            for ref in table_refs:
                lines.append(f"  TABLE ACCESS FULL {ref.name.upper()}")
            return lines

        spatial_conjuncts = [
            c
            for c in conjuncts
            if isinstance(c, Comparison)
            and isinstance(c.left, FunctionCall)
            and c.left.name.upper() in _SPATIAL_OPERATORS
        ]
        if len(table_refs) == 1 and spatial_conjuncts:
            ref = table_refs[0]
            op = spatial_conjuncts[0].left.name.upper()  # type: ignore[union-attr]
            meta = self.db.catalog.spatial_index_on(
                ref.name, _first_geometry_column(spatial_conjuncts[0])
            )
            if meta is not None:
                lines.append(
                    f"  DOMAIN INDEX {meta.name.upper()} ({meta.index_kind}) "
                    f"operator {op}"
                )
                lines.append(f"    TABLE ACCESS BY ROWID {ref.name.upper()}")
            else:
                lines.append(f"  TABLE ACCESS FULL {ref.name.upper()} filter {op}")
            estimate = self._estimate_window(ref.name, spatial_conjuncts[0])
            if estimate is not None:
                lines.append(f"  estimated rows: {estimate:.0f}")
            return lines

        if len(table_refs) == 2 and spatial_conjuncts:
            outer, inner = table_refs
            lines.append("  NESTED LOOPS (pre-9i spatial join plan)")
            lines.append(f"    TABLE ACCESS FULL {outer.name.upper()}")
            meta = self.db.catalog.spatial_index_on(inner.name, "GEOM")
            if meta is not None:
                lines.append(
                    f"    DOMAIN INDEX PROBE {meta.name.upper()} "
                    f"({meta.index_kind}) per outer row"
                )
            else:
                lines.append(f"    TABLE ACCESS FULL {inner.name.upper()} per outer row")
            estimate = self._estimate_join(outer.name, inner.name)
            if estimate is not None:
                lines.append(f"  estimated candidate pairs: {estimate:.0f}")
            return lines

        for ref in table_refs:
            lines.append(f"  TABLE ACCESS FULL {ref.name.upper()}")
        if len(table_refs) > 1:
            lines.insert(1, "  CARTESIAN PRODUCT + FILTER")
        return lines

    # -- EXPLAIN ANALYZE -----------------------------------------------------
    def _explain_analyze(self, stmt: Select) -> List[str]:
        """Execute ``stmt`` under a private tracer and decorate the plan.

        Each plan-shape line gains ``(actual ...=N, simulated=Xs)``
        annotations next to the optimizer's estimates; operator meter
        counts, buffer hit/miss deltas and the statement total follow as
        indented detail lines.
        """
        from repro.obs.exporters import aggregate_spans

        model = self.db.cost_model
        skeleton = self._explain(stmt)
        self._profile = profile = {}
        self._probe_ctx = probe_ctx = WorkerContext(0)
        pool = getattr(self.db, "pool", None)
        buf_before = (
            (pool.stats.gets, pool.stats.hits, pool.stats.misses)
            if pool is not None
            else None
        )
        try:
            with trace.tracing() as tracer:
                with trace.span("sql.execute", statement="ExplainAnalyze"):
                    result = self._select(stmt)
        finally:
            self._profile = None
            self._probe_ctx = None
        rollup = aggregate_spans(tracer.spans, model)

        tf = profile.get("tf")
        primary = rollup.get("join.primary_filter")
        secondary = rollup.get("join.secondary_filter")
        fetches = rollup.get("join.fetch", {}).get("count", 0)
        index_scan = profile.get("index_scan")
        nested = profile.get("nested_loop")
        probe_seconds = probe_ctx.meter.seconds(model)
        total_seconds = probe_seconds + (tf["seconds"] if tf else 0.0)

        lines: List[str] = []
        for line in skeleton:
            indent = line[: len(line) - len(line.lstrip())]
            stripped = line.strip()
            if stripped == "SELECT STATEMENT":
                lines.append(
                    f"{line} (actual rows={result.rowcount}, "
                    f"simulated={total_seconds:.6f}s)"
                )
            elif stripped.startswith("ROWID SEMI-JOIN"):
                lines.append(
                    f"{line} (actual rows={profile.get('semi_rows', 0)})"
                )
            elif stripped.startswith("TABLE FUNCTION SPATIAL_JOIN") and tf:
                est = self._estimate_join(*tf["tables"])
                est_text = f"{est:.0f}" if est is not None else "n/a"
                lines.append(
                    f"{line} (actual pairs={tf['pairs']}, est pairs={est_text}, "
                    f"fetches={fetches}, simulated={tf['seconds']:.6f}s)"
                )
                lines.append(
                    f"{indent}  meter: {_format_meter(tf['meter'])}"
                )
            elif stripped.startswith("SYNCHRONIZED R-TREE TRAVERSAL") and primary:
                candidates = sum(
                    s.tags.get("candidates", 0)
                    for s in tracer.find("join.primary_filter")
                )
                lines.append(
                    f"{line} (actual candidates={candidates}, "
                    f"sweeps={primary['count']}, "
                    f"simulated={primary['simulated_seconds']:.6f}s)"
                )
                lines.append(
                    f"{indent}  meter: {_format_meter(primary['meter'])}"
                )
            elif stripped.startswith("SECONDARY FILTER") and secondary:
                results_out = sum(
                    s.tags.get("results", 0)
                    for s in tracer.find("join.secondary_filter")
                )
                lines.append(
                    f"{line} (actual rows={results_out}, "
                    f"drains={secondary['count']}, "
                    f"simulated={secondary['simulated_seconds']:.6f}s)"
                )
                lines.append(
                    f"{indent}  meter: {_format_meter(secondary['meter'])}"
                )
            elif stripped.startswith("DOMAIN INDEX") and index_scan:
                lines.append(
                    f"{line} (actual rows={index_scan['rows']}, "
                    f"simulated={probe_seconds:.6f}s)"
                )
                lines.append(
                    f"{indent}  meter: {_format_meter(probe_ctx.meter.counts)}"
                )
            elif stripped.startswith("NESTED LOOPS") and nested:
                lines.append(
                    f"{line} (actual rows={nested['rows']}, "
                    f"probes={nested['probes']}, "
                    f"simulated={probe_seconds:.6f}s)"
                )
                lines.append(
                    f"{indent}  meter: {_format_meter(probe_ctx.meter.counts)}"
                )
            elif stripped.startswith("estimated rows:"):
                lines.append(f"{line} (actual rows={result.rowcount})")
            elif stripped.startswith("estimated candidate pairs:") and nested:
                lines.append(f"{line} (actual rows={nested['rows']})")
            else:
                lines.append(line)

        if buf_before is not None:
            gets = pool.stats.gets - buf_before[0]
            hits = pool.stats.hits - buf_before[1]
            misses = pool.stats.misses - buf_before[2]
            ratio = hits / gets if gets else 0.0
            lines.append(
                f"  buffer: gets={gets} hits={hits} misses={misses} "
                f"hit_ratio={ratio:.3f}"
            )
        combined: Dict[str, float] = dict(probe_ctx.meter.counts)
        if tf:
            for kind, n in tf["meter"].items():
                combined[kind] = combined.get(kind, 0.0) + n
        if combined:
            lines.append(f"  statement meter: {_format_meter(combined)}")
        lines.append(f"  statement simulated seconds: {total_seconds:.6f}")
        return lines

    def _estimate_window(self, table_name: str, conjunct) -> Optional[float]:
        """Window-query cardinality estimate when stats + literal window."""
        from repro.engine.stats import estimate_window_rows

        stats = self.db.table_stats(table_name)
        if stats is None:
            return None
        fn = conjunct.left
        if len(fn.args) < 2:
            return None
        try:
            window = _eval_literal_expr(fn.args[1])
        except SqlPlanError:
            return None
        if not isinstance(window, Geometry):
            return None
        column = _first_geometry_column(conjunct)
        try:
            col_stats = stats.column(column)
        except Exception:  # noqa: BLE001 - estimate is best-effort
            return None
        return estimate_window_rows(col_stats, window.mbr)

    def _estimate_join(self, outer_name: str, inner_name: str) -> Optional[float]:
        from repro.engine.stats import estimate_join_pairs

        outer_stats = self.db.table_stats(outer_name)
        inner_stats = self.db.table_stats(inner_name)
        if outer_stats is None or inner_stats is None:
            return None
        try:
            col_a = outer_stats.column("GEOM")
            col_b = inner_stats.column("GEOM")
        except Exception:  # noqa: BLE001 - estimate is best-effort
            return None
        return estimate_join_pairs(col_a, col_b)

    def _explain_from_tf(self, sub: Select) -> List[str]:
        tf_refs = [f for f in sub.from_items if isinstance(f, TableFunctionRef)]
        lines: List[str] = []
        for ref in tf_refs:
            lines.extend(self._explain_tf(ref))
        return lines or ["SUBQUERY"]

    def _explain_tf(self, ref: TableFunctionRef) -> List[str]:
        fname = ref.function.upper()
        if fname == "SPATIAL_JOIN":
            args = list(ref.args)
            parallel = 1
            has_cursor = bool(args) and isinstance(args[0], CursorArg)
            plain = [a for a in args if not isinstance(a, CursorArg)]
            if len(plain) > 6:
                try:
                    parallel = int(_eval_literal_expr(plain[6]))
                except Exception:  # noqa: BLE001 - display only
                    parallel = 1
            strategy = ""
            if len(plain) > 7:
                try:
                    strategy = str(_eval_literal_expr(plain[7])).upper()
                except Exception:  # noqa: BLE001 - display only
                    strategy = ""
            # A grid join runs its tiles to completion before the first row.
            grid = strategy == "GRID"
            lines = [
                "TABLE FUNCTION SPATIAL_JOIN ("
                + ("grid partitioned" if grid else "pipelined")
                + (f", parallel {parallel}" if parallel > 1 else "")
                + ")"
            ]
            if grid:
                lines.append("  GRID PARTITION (uniform tiles over joint MBR)")
                lines.append(
                    "  PER-TILE PLANE SWEEP (two-layer duplicate avoidance)"
                )
            else:
                lines.append("  SYNCHRONIZED R-TREE TRAVERSAL (primary filter)")
            lines.append("  SECONDARY FILTER sorted by first rowid")
            if has_cursor:
                lines.insert(1, "  SUBTREE-PAIR CURSOR (partitioned across slaves)")
            return lines
        if fname == "SUBTREE_ROOT":
            return ["TABLE FUNCTION SUBTREE_ROOT (index descent)"]
        return [f"TABLE FUNCTION {fname}"]

    # -- FROM evaluation -----------------------------------------------------
    def _eval_from_item(self, item, position: int) -> _Relation:
        if isinstance(item, TableRef):
            table = self.db.table(item.name)
            alias = item.alias or item.name
            rows: List[Tuple[Any, ...]] = []
            rowids: List[RowId] = []
            for rowid, row in table.scan():
                rows.append(row)
                rowids.append(rowid)
            return _Relation(
                alias, table.schema.names(), rows, rowids, alias_table=item.name
            )
        if isinstance(item, TableFunctionRef):
            return self._eval_table_function(item, position)
        raise SqlPlanError(f"unsupported FROM item {item!r}")

    def _eval_table_function(self, ref: TableFunctionRef, position: int) -> _Relation:
        fname = ref.function.upper()
        alias = ref.alias or f"tf{position}"
        if fname == "SPATIAL_JOIN":
            pairs = self._run_spatial_join(ref.args)
            return _Relation(alias, ["RID1", "RID2"], [(a, b) for a, b in pairs])
        if fname == "SUBTREE_ROOT":
            args = [_eval_literal_expr(a) for a in ref.args]  # type: ignore[arg-type]
            if len(args) != 2:
                raise SqlPlanError("subtree_root(index_name, level) takes 2 args")
            index = self.db.spatial_index(str(args[0]))
            from repro.core.subtree import subtree_roots

            nodes = subtree_roots(index.tree, int(args[1]))
            return _Relation(alias, ["NODE"], [(n,) for n in nodes])
        raise SqlPlanError(f"unknown table function {ref.function!r}")

    def _run_spatial_join(self, args) -> List[Tuple[RowId, RowId]]:
        """Lower a spatial_join(...) call onto the join drivers.

        Signatures::

            spatial_join(t1, c1, t2, c2, mask [, distance [, degree [, strategy]]])
            spatial_join(CURSOR(pairs), t1, c1, t2, c2, mask [, distance])

        ``strategy`` is a string literal (``'NESTED'``, ``'SWEEP'``,
        ``'GRID'``); the plain form goes through
        :meth:`~repro.engine.database.Database.spatial_join`, which picks
        the driver for the strategy and degree.
        """
        from repro.core.secondary_filter import JoinPredicate
        from repro.core.spatial_join import SpatialJoinFunction
        from repro.engine.table_function import collect

        cursor_rows: Optional[List[Tuple[Any, ...]]] = None
        rest = list(args)
        if rest and isinstance(rest[0], CursorArg):
            sub_result = self._select(rest[0].query)
            cursor_rows = sub_result.rows
            rest = rest[1:]
        values = [_eval_literal_expr(a) for a in rest]
        if len(values) < 5:
            raise SqlPlanError(
                "spatial_join requires (table1, col1, table2, col2, mask)"
            )
        t1, c1, t2, c2, mask = (str(v) for v in values[:5])
        distance = values[5] if len(values) > 5 else 0.0
        mask_norm = "ANYINTERACT" if mask.upper() == "INTERSECT" else mask.upper()

        if cursor_rows is not None:
            predicate = JoinPredicate(mask=mask_norm, distance=distance)
            ctx = WorkerContext(0)
            fn = SpatialJoinFunction(
                self.db.table(t1), c1, self.db.rtree_of(t1, c1),
                self.db.table(t2), c2, self.db.rtree_of(t2, c2),
                predicate=predicate,
                subtree_pair_cursor=ListCursor(cursor_rows),
            )
            rows = [tuple(r) for r in collect(fn, ctx)]
            if self._profile is not None:
                self._profile["tf"] = {
                    "pairs": len(rows),
                    "tables": (t1, t2),
                    "degree": 1,
                    "meter": dict(ctx.meter.counts),
                    "seconds": ctx.meter.seconds(self.db.cost_model),
                }
            return rows  # type: ignore[return-value]
        degree = int(values[6]) if len(values) > 6 else 1
        result = self.db.spatial_join(
            t1, c1, t2, c2, mask=mask_norm, distance=distance, parallel=degree,
            strategy=values[7] if len(values) > 7 else "SWEEP",
        )
        if self._profile is not None:
            self._profile["tf"] = {
                "pairs": len(result.pairs),
                "tables": (t1, t2),
                "degree": degree,
                "meter": dict(result.run.combined_meter().counts),
                "seconds": result.makespan_seconds,
            }
        return result.pairs

    # -- join planning ---------------------------------------------------
    def _join_relations(
        self, relations: List[_Relation], conjuncts: List
    ) -> Tuple[List[Dict[str, Any]], Dict[str, List[str]], set]:
        """Produce joined row environments.

        A row environment maps ``alias.column`` (and ``alias.ROWID``) to a
        value.  Returns the environments, the visible columns per alias,
        and the ids of conjuncts consumed by a recognised join plan.
        """
        env_columns = {r.alias.upper(): [c.upper() for c in r.columns] for r in relations}

        # single-table spatial operator => domain index scan
        single = self._try_index_scan_plan(relations, conjuncts)
        if single is not None:
            rows, consumed = single
            return rows, env_columns, consumed

        # two-table spatial operator => indexed nested loop (the pre-9i
        # plan, same one EXPLAIN reports)
        nested = self._try_nested_loop_plan(relations, conjuncts)
        if nested is not None:
            rows, consumed = nested
            return rows, env_columns, consumed

        # rowid-pair semi-join recognition
        semi = _find_rowid_semijoin(conjuncts, relations)
        if semi is not None:
            conjunct, (alias_a, alias_b) = semi
            pair_rows = self._pairs_of_subquery(conjunct.subquery)
            rel_a = _by_alias(relations, alias_a)
            rel_b = _by_alias(relations, alias_b)
            index_a = _rowid_index(rel_a)
            index_b = _rowid_index(rel_b)
            out = []
            for rid_a, rid_b in pair_rows:
                pos_a = index_a.get(rid_a)
                pos_b = index_b.get(rid_b)
                if pos_a is None or pos_b is None:
                    continue
                env = {}
                _bind(env, rel_a, pos_a)
                _bind(env, rel_b, pos_b)
                for other in relations:
                    if other.alias not in (rel_a.alias, rel_b.alias):
                        raise SqlPlanError(
                            "rowid semi-join only supports the two joined tables"
                        )
                out.append(env)
            if self._profile is not None:
                self._profile["semi_rows"] = len(out)
            return out, env_columns, {id(conjunct)}

        # generic cartesian product (small inputs / test queries)
        out = [dict()]  # type: ignore[var-annotated]
        for rel in relations:
            new_out = []
            for env in out:
                for pos in range(len(rel.rows)):
                    env2 = dict(env)
                    _bind(env2, rel, pos)
                    new_out.append(env2)
            out = new_out
        return out, env_columns, set()

    def _try_index_scan_plan(self, relations: List[_Relation], conjuncts: List):
        """Recognise a single-table spatial predicate against a constant
        query geometry and answer it through the domain index.

        Shapes: ``sdo_op(col, <literal geometry>, ...) = 'TRUE'`` and
        ``sdo_nn(col, <literal geometry>, k) = 'TRUE'``.
        """
        if len(relations) != 1:
            return None
        rel = relations[0]
        if rel.rowids is None or not rel.alias_table:
            return None
        for conjunct in conjuncts:
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            fn = conjunct.left
            if not isinstance(fn, FunctionCall):
                continue
            op_name = fn.name.upper()
            if op_name not in _SPATIAL_OPERATORS and op_name != "SDO_NN":
                continue
            if not (
                isinstance(conjunct.right, Literal)
                and conjunct.right.value == "TRUE"
            ):
                continue
            if len(fn.args) < 2 or not isinstance(fn.args[0], ColumnRef):
                continue
            column = fn.args[0].column
            try:
                args = [_eval_literal_expr(a) for a in fn.args[1:]]
            except SqlPlanError:
                continue  # second operand is not constant => not this plan
            if not isinstance(args[0], Geometry):
                continue
            meta = self.db.catalog.spatial_index_on(rel.alias_table, column)
            if meta is None:
                if op_name == "SDO_NN":
                    raise SqlPlanError(
                        f"SDO_NN requires a spatial index on "
                        f"{rel.alias_table}.{column}"
                    )
                return None  # fall back to the full-scan filter
            index = self.db.spatial_index(meta.name)
            positions = _rowid_index(rel)
            out: List[Dict[str, Any]] = []
            for rowid in index.fetch(op_name, tuple(args), self._probe_ctx):
                pos = positions.get(rowid)
                if pos is None:
                    continue
                env: Dict[str, Any] = {}
                _bind(env, rel, pos)
                out.append(env)
            if self._profile is not None:
                self._profile["index_scan"] = {
                    "rows": len(out),
                    "index": meta.name,
                    "op": op_name,
                }
            return out, {id(conjunct)}
        return None

    def _try_nested_loop_plan(self, relations: List[_Relation], conjuncts: List):
        """Recognise ``WHERE sdo_op(a.g, b.g, ...) = 'TRUE'`` over two base
        tables and evaluate it as per-outer-row domain-index probes.

        Returns ``(row_environments, consumed_conjunct_ids)`` or None when
        the shape doesn't match (missing index, wrong arity, etc.).
        """
        if len(relations) != 2:
            return None
        probe = _find_spatial_join_conjunct(conjuncts, relations)
        if probe is None:
            return None
        conjunct, outer_rel, outer_col, inner_rel, inner_col, extra_args = probe
        meta = self.db.catalog.spatial_index_on(inner_rel.alias_table, inner_col)
        if meta is None:
            return None
        index = self.db.spatial_index(meta.name)
        op_name = conjunct.left.name.upper()

        inner_pos = _rowid_index(inner_rel)
        outer_geom_idx = [c.upper() for c in outer_rel.columns].index(outer_col.upper())
        out: List[Dict[str, Any]] = []
        probes = 0
        assert outer_rel.rowids is not None
        for pos, row in enumerate(outer_rel.rows):
            geom = row[outer_geom_idx]
            if geom is None:
                continue
            probes += 1
            for inner_rowid in index.fetch(
                op_name, (geom, *extra_args), self._probe_ctx
            ):
                inner_position = inner_pos.get(inner_rowid)
                if inner_position is None:
                    continue
                env: Dict[str, Any] = {}
                _bind(env, outer_rel, pos)
                _bind(env, inner_rel, inner_position)
                out.append(env)
        if self._profile is not None:
            self._profile["nested_loop"] = {
                "rows": len(out),
                "probes": probes,
                "outer_rows": len(outer_rel.rows),
                "index": meta.name,
            }
        return out, {id(conjunct)}

    def _pairs_of_subquery(self, sub: Select) -> List[Tuple[RowId, RowId]]:
        result = self._select(sub)
        if len(result.columns) != 2:
            raise SqlPlanError(
                "rowid semi-join subquery must project exactly two columns"
            )
        return [(r[0], r[1]) for r in result.rows]

    # -- predicate / expression evaluation ----------------------------------
    def _eval_predicate(self, pred, env: Dict[str, Any], env_columns) -> bool:
        if isinstance(pred, Comparison):
            left = self._eval_expr(pred.left, env)
            right = self._eval_expr(pred.right, env)
            return _compare(left, pred.op, right)
        if isinstance(pred, InSubquery):
            sub = self._select(pred.subquery)
            values = {r[0] if len(r) == 1 else tuple(r) for r in sub.rows}
            left = self._eval_expr(pred.left, env)
            return left in values
        raise SqlPlanError(f"unsupported predicate {pred!r}")

    def _eval_expr(self, expr: Expr, env: Dict[str, Any]) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return _lookup(env, expr)
        if isinstance(expr, TupleExpr):
            return tuple(self._eval_expr(e, env) for e in expr.items)
        if isinstance(expr, FunctionCall):
            fname = expr.name.upper()
            if fname == "SDO_GEOMETRY":
                arg = self._eval_expr(expr.args[0], env)
                return from_wkt(str(arg))
            if fname in _SPATIAL_OPERATORS:
                args = [self._eval_expr(a, env) for a in expr.args]
                geom = args[0]
                if not isinstance(geom, Geometry):
                    raise SqlPlanError(f"{fname} first argument must be a geometry")
                op = OPERATORS[fname]
                return "TRUE" if op.evaluate(geom, *args[1:]) else "FALSE"
            raise SqlPlanError(f"unknown function {expr.name!r}")
        raise SqlPlanError(f"unsupported expression {expr!r}")

    # -- projection ---------------------------------------------------------
    def _project(
        self, stmt: Select, rows: List[Dict[str, Any]], env_columns
    ) -> SqlResult:
        if any(item.is_count_star for item in stmt.items):
            return SqlResult(["COUNT(*)"], [(len(rows),)], rowcount=1)
        columns: List[str] = []
        extractors = []
        for item in stmt.items:
            if item.expr is None:  # '*'
                for alias, cols in env_columns.items():
                    for col in cols:
                        columns.append(col)
                        extractors.append(
                            (lambda a, c: lambda env: env.get(f"{a}.{c}"))(alias, col)
                        )
                continue
            expr = item.expr
            label = item.alias or _expr_label(expr)
            columns.append(label.upper())
            extractors.append((lambda e: lambda env: self._eval_expr(e, env))(expr))
        out_rows = [tuple(fn(env) for fn in extractors) for env in rows]
        return SqlResult(columns, out_rows, rowcount=len(out_rows))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _format_meter(counts: Dict[str, float]) -> str:
    """Render meter counts as ``kind=count`` pairs, sorted by kind."""
    if not counts:
        return "(none)"
    parts = []
    for kind in sorted(counts):
        n = counts[kind]
        parts.append(f"{kind}={n:g}")
    return " ".join(parts)


def _parse_parameters(raw: str) -> Dict[str, Any]:
    """Parse an Oracle-style PARAMETERS string: 'key=value key=value'."""
    params: Dict[str, Any] = {}
    for piece in raw.replace(",", " ").split():
        if "=" not in piece:
            raise SqlPlanError(f"bad PARAMETERS entry {piece!r} (expected key=value)")
        key, value = piece.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _eval_literal_expr(expr) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, FunctionCall) and expr.name.upper() == "SDO_GEOMETRY":
        inner = expr.args[0]
        if isinstance(inner, Literal):
            return from_wkt(str(inner.value))
    if isinstance(expr, ColumnRef) and expr.table is None:
        # bare identifiers in function args read as name strings
        return expr.column
    raise SqlPlanError(f"expected a literal argument, got {expr!r}")


def _flatten_predicate(pred) -> List:
    if pred is None:
        return []
    if isinstance(pred, AndExpr):
        out = []
        for term in pred.terms:
            out.extend(_flatten_predicate(term))
        return out
    return [pred]


_TRANSPOSED_MASKS = {
    "CONTAINS": "INSIDE",
    "INSIDE": "CONTAINS",
    "COVERS": "COVEREDBY",
    "COVEREDBY": "COVERS",
}


def _transpose_mask(mask: str) -> str:
    """Swap argument-order-sensitive masks (probing flips the operands)."""
    return "+".join(
        _TRANSPOSED_MASKS.get(part.strip().upper(), part.strip().upper())
        for part in mask.split("+")
    )


def _find_spatial_join_conjunct(conjuncts, relations: List[_Relation]):
    """Match ``sdo_op(a.col, b.col, ...) = 'TRUE'`` across two relations.

    Returns (conjunct, outer_rel, outer_col, inner_rel, inner_col,
    probe_args) or None.  ``probe_args`` are the operator's trailing
    arguments adjusted for the probe direction (mask transposition).
    """
    by_alias = {r.alias.upper(): r for r in relations}
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        fn = conjunct.left
        if not isinstance(fn, FunctionCall) or fn.name.upper() not in _SPATIAL_OPERATORS:
            continue
        if not (isinstance(conjunct.right, Literal) and conjunct.right.value == "TRUE"):
            continue
        if len(fn.args) < 2:
            continue
        first, second = fn.args[0], fn.args[1]
        if not (isinstance(first, ColumnRef) and isinstance(second, ColumnRef)):
            continue
        if first.table is None or second.table is None:
            continue
        outer_rel = by_alias.get(first.table.upper())
        inner_rel = by_alias.get(second.table.upper())
        if outer_rel is None or inner_rel is None or outer_rel is inner_rel:
            continue
        try:
            extra = [_eval_literal_expr(a) for a in fn.args[2:]]
        except SqlPlanError:
            continue
        if fn.name.upper() == "SDO_RELATE":
            mask = str(extra[0]) if extra else "ANYINTERACT"
            extra = [_transpose_mask(mask)] + extra[1:]
        return conjunct, outer_rel, first.column, inner_rel, second.column, tuple(extra)
    return None


def _find_rowid_semijoin(conjuncts, relations):
    for conjunct in conjuncts:
        if not isinstance(conjunct, InSubquery):
            continue
        left = conjunct.left
        if not isinstance(left, TupleExpr) or len(left.items) != 2:
            continue
        refs = left.items
        if all(
            isinstance(r, ColumnRef) and r.column.upper() == "ROWID" for r in refs
        ):
            alias_a = refs[0].table or relations[0].alias  # type: ignore[union-attr]
            alias_b = refs[1].table or relations[-1].alias  # type: ignore[union-attr]
            return conjunct, (alias_a, alias_b)
    return None


def _by_alias(relations: List[_Relation], alias: str) -> _Relation:
    for rel in relations:
        if rel.alias.upper() == alias.upper():
            return rel
    raise SqlPlanError(f"unknown alias {alias!r}")


def _rowid_index(rel: _Relation) -> Dict[RowId, int]:
    if rel.rowids is None:
        raise SqlPlanError(f"FROM item {rel.alias!r} has no rowids (not a base table)")
    return {rid: i for i, rid in enumerate(rel.rowids)}


def _bind(env: Dict[str, Any], rel: _Relation, pos: int) -> None:
    alias = rel.alias.upper()
    for col, value in zip(rel.columns, rel.rows[pos]):
        env[f"{alias}.{col.upper()}"] = value
        env.setdefault(col.upper(), value)
    if rel.rowids is not None:
        env[f"{alias}.ROWID"] = rel.rowids[pos]


def _lookup(env: Dict[str, Any], ref: ColumnRef) -> Any:
    key = (
        f"{ref.table.upper()}.{ref.column.upper()}"
        if ref.table
        else ref.column.upper()
    )
    if key not in env:
        raise SqlPlanError(f"unknown column reference {key}")
    return env[key]


def _compare(left: Any, op: str, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SqlPlanError(f"unknown comparison operator {op!r}")


def _first_geometry_column(comparison: Comparison) -> str:
    """Column name of the first operator argument (for index lookup)."""
    fn = comparison.left
    if isinstance(fn, FunctionCall) and fn.args:
        arg = fn.args[0]
        if isinstance(arg, ColumnRef):
            return arg.column
    return "GEOM"


def _expr_label(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    if isinstance(expr, FunctionCall):
        return expr.name
    if isinstance(expr, Literal):
        return str(expr.value)
    return "EXPR"
