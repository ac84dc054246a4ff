"""The extensible-indexing framework (ODCIIndex analogue).

Oracle's extensible indexing lets a *domain index* supply its own create /
DML-maintenance / query routines, and surfaces domain predicates as SQL
*operators* (``sdo_relate``, ``sdo_within_distance``, ``sdo_filter``,
``sdo_nn``) that the optimizer routes to the index.

The framework's key restriction — the one the whole paper hinges on — is
reproduced faithfully here: :meth:`DomainIndex.fetch` yields rowids of a
*single* table.  A join therefore cannot be answered inside the framework;
it has to be a nested loop of per-row probes, unless it is rewritten
through a table function (which is exactly the paper's contribution).
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import IndexTypeError, OperatorError
from repro.engine.parallel import WorkerContext
from repro.engine.table import GeometryCache, Table
from repro.geometry import kernels
from repro.geometry.distance import within_distance
from repro.geometry.geometry import Geometry
from repro.geometry.packed import PackedRing, as_geometry
from repro.geometry.predicates import INTERACTION_MASKS, relate
from repro.obs import trace
from repro.storage.heap import RowId

__all__ = [
    "SpatialOperator",
    "OPERATORS",
    "REFINE_ARRAY_ROWS",
    "KERNEL_MIN_VERTICES",
    "exact_verdicts",
    "DomainIndex",
    "IndexTypeRegistry",
]

#: Candidates ``DomainIndex.fetch`` drains from the primary filter per
#: pair-kernel call (``kernels.GROUP_VERTICES`` may close an array sooner).
#: A probe abandoned after its first row has paid for at most this many.
REFINE_ARRAY_ROWS = 1024

#: Candidate vertices below which an array goes to the scalar evaluator: a
#: kernel call costs ~0.25 ms before its first pair, the scalar test ~4 µs
#: per candidate vertex (EXPERIMENTS.md, row W-wall: the crossover is 70–90).
KERNEL_MIN_VERTICES = 64


class SpatialOperator:
    """A SQL-visible spatial predicate with an exact evaluator.

    ``evaluate`` gives the exact (secondary-filter) truth value.  Whether an
    index can pre-filter for the operator — and with what window expansion —
    is described by ``index_hint``; the domain indexes consult it.
    ``pair_form(args)`` validates a probe's arguments, whatever the data
    (:class:`OperatorError`), and states the exact test as the pair
    kernel's ``(mask, distance)``; ``None``: the primary filter is the answer.
    """

    def __init__(
        self,
        name: str,
        evaluate: Callable[..., bool],
        index_hint: str,
        pair_form: Callable[[Sequence[Any]], Optional[Tuple[str, float]]],
    ):
        self.name = name.upper()
        self.evaluate = evaluate
        self.index_hint = index_hint  # 'MBR', 'MBR_DISTANCE', or 'NONE'
        self.pair_form = pair_form

    def __repr__(self) -> str:
        return f"SpatialOperator({self.name})"


def _eval_relate(geom: Geometry, query: Geometry, mask: str = "ANYINTERACT") -> bool:
    return relate(geom, query, mask)


def _eval_within_distance(geom: Geometry, query: Geometry, dist: float) -> bool:
    return within_distance(geom, query, float(dist))


def _eval_filter(geom: Geometry, query: Geometry) -> bool:
    # sdo_filter is the primary-filter-only operator: MBR interaction.
    return geom.mbr.intersects(query.mbr)


def _relate_form(args: Sequence[Any]) -> Tuple[str, float]:
    mask = str(args[1]) if len(args) > 1 else "ANYINTERACT"
    for name in map(str.strip, mask.upper().split("+")):
        if name not in INTERACTION_MASKS:
            raise OperatorError(f"SDO_RELATE mask: unknown interaction mask: {name!r}")
    return mask, 0.0


def _within_distance_form(args: Sequence[Any]) -> Tuple[str, float]:
    try:
        distance = float(args[1])
    except (IndexError, TypeError, ValueError):
        distance = math.nan
    if not 0.0 <= distance < math.inf:
        given = repr(args[1]) if len(args) > 1 else "none"
        raise OperatorError(
            f"SDO_WITHIN_DISTANCE requires a finite distance >= 0, got {given}"
        )
    return "ANYINTERACT", distance  # distance 0 is the intersection test


OPERATORS: Dict[str, SpatialOperator] = {
    op.name: op
    for op in (
        SpatialOperator("SDO_RELATE", _eval_relate, "MBR", _relate_form),
        SpatialOperator(
            "SDO_WITHIN_DISTANCE",
            _eval_within_distance,
            "MBR_DISTANCE",
            _within_distance_form,
        ),
        SpatialOperator("SDO_FILTER", _eval_filter, "MBR", lambda args: None),
    )
}


def exact_verdicts(
    op: SpatialOperator,
    args: Sequence[Any],
    form: Tuple[str, float],
    geoms: Sequence[Union[Geometry, PackedRing]],
    ctx: Optional[WorkerContext] = None,
) -> Tuple[List[bool], bool]:
    """``op(geom, *args)`` for a whole candidate array: the charges of one
    exact test per candidate, then one pair-kernel call — or, for arrays
    under ``KERNEL_MIN_VERTICES`` and the masks the kernel declines, the
    scalar evaluator (second result ``False``), which builds the
    :class:`Geometry` of a packed ring it tests."""
    query: Geometry = args[0]
    nv = sum(g.num_vertices for g in geoms)
    if ctx is not None and geoms:
        ctx.charge("exact_test_base", len(geoms))
        ctx.charge("exact_test_per_vertex", nv + len(geoms) * query.num_vertices)
    if nv >= KERNEL_MIN_VERTICES:
        verdicts = kernels.evaluate_predicate_batch(query, geoms, *form)
        if verdicts is not None:
            return verdicts, True
    return [op.evaluate(as_geometry(g), *args) for g in geoms], False


class DomainIndex:
    """Interface every spatial index kind implements (ODCIIndex analogue).

    Lifecycle: ``create`` bulk-builds from the indexed table; ``insert`` /
    ``delete`` / ``update`` keep it synchronised with base-table DML (the
    framework wires these to :class:`~repro.engine.table.Table` maintenance
    hooks); ``fetch`` answers one operator predicate with candidate rowids
    of the indexed table *only*.
    """

    kind: str = "ABSTRACT"

    #: rows kept hot by the row cache (the join's :class:`GeometryCache`)
    #: behind the secondary filter and :meth:`geometry_of`; fetches that
    #: miss pay full fetch cost, mirroring a buffer cache that holds a
    #: bounded number of base-table blocks.  Access patterns matter for cost
    #: exactly as they do for a real buffer cache: repeated probes of a
    #: small table stay hot, random probes of a table larger than the cache
    #: mostly miss — which is what makes the nested-loop join degrade with
    #: table size.
    GEOMETRY_CACHE_ROWS = 4096

    def __init__(self, name: str, table: Table, column: str):
        self.name = name
        self.table = table
        self.column = column
        self._column_index = table.schema.index_of(column)
        self._geom_cache = GeometryCache(self.GEOMETRY_CACHE_ROWS)
        self._hook = None  # the table's maintenance hook, while attached

    # -- lifecycle ---------------------------------------------------------
    def create(self, ctx: Optional[WorkerContext] = None) -> None:
        raise NotImplementedError

    def insert(self, rowid: RowId, geom: Geometry, ctx: Optional[WorkerContext] = None) -> None:
        raise NotImplementedError

    def delete(self, rowid: RowId, geom: Geometry, ctx: Optional[WorkerContext] = None) -> None:
        raise NotImplementedError

    def update(
        self,
        rowid: RowId,
        old_geom: Geometry,
        new_geom: Geometry,
        ctx: Optional[WorkerContext] = None,
    ) -> None:
        self.delete(rowid, old_geom, ctx)
        try:
            self.insert(rowid, new_geom, ctx)
        except BaseException:
            self.insert(rowid, old_geom, ctx)
            raise

    # -- query -------------------------------------------------------------
    def fetch(
        self,
        operator: str,
        args: Sequence[Any],
        ctx: Optional[WorkerContext] = None,
        exact: bool = True,
    ) -> Iterator[RowId]:
        """Yield rowids satisfying ``operator(geom_column, *args)``.

        With ``exact=False`` only the primary (index) filter is applied and
        the result may contain false positives — that is ``sdo_filter``
        semantics.  NOTE: yields rowids of this index's table only; the
        framework offers no way to return pairs of rowids from two tables,
        which is why spatial joins predate-table-functions were nested
        loops (paper §1, §4).
        """
        raise NotImplementedError

    @staticmethod
    def _parse_probe(operator: str, args: Sequence[Any]):
        """``(operator, pair form)`` of one probe, validated before any
        index work: a bad argument raises whether or not a candidate would
        have reached the exact test."""
        op = OPERATORS.get(operator.upper())
        if op is None:
            raise OperatorError(f"unknown operator {operator!r}")
        if not args or not isinstance(args[0], Geometry):
            raise OperatorError(f"{operator} requires a query geometry argument")
        return op, op.pair_form(args)

    def _refine(self, op, args, form, rowids, ctx, certain=None):
        """Secondary filter of one probe, a candidate array at a time.

        Geometries are fetched in candidate order, so the row cache's LRU
        state, hit/miss sequence and fetch charges are those of testing one
        candidate at a time; only the exact tests wait, for
        ``REFINE_ARRAY_ROWS`` candidates or ``kernels.GROUP_VERTICES``
        fetched vertices.  Rows flagged in the ``certain`` dict, when one
        is given, pass unfetched and keep their place.  A probe abandoned
        mid-array has been charged for the whole array.  No span stays open
        across a ``yield``.
        """
        fetch, table, column = self._geom_cache.fetch, self.table, self._column_index
        rowids = iter(rowids)
        pending: List[RowId] = []
        while True:
            pending.extend(islice(rowids, REFINE_ARRAY_ROWS - len(pending)))
            if not pending:
                return
            with trace.span("index.refine", ctx, operator=op.name) as sp:
                sure = repeat(False)
                if certain is not None:
                    sure = [certain.get(rowid, False) for rowid in pending]
                geoms: List[Union[Geometry, PackedRing]] = []
                nv = used = 0
                for rowid, ok in zip(pending, sure):
                    used += 1
                    if not ok:
                        geoms.append(fetch(table, rowid, column, ctx))
                        nv += geoms[-1].num_vertices
                        if nv >= kernels.GROUP_VERTICES:
                            break
                verdicts, batched = exact_verdicts(op, args, form, geoms, ctx)
                # In order: a certain row passes, any other takes its verdict.
                verdict = iter(verdicts)
                survivors = [
                    r for r, ok in zip(pending[:used], sure) if ok or next(verdict)
                ]
                if trace.ENABLED:
                    sp.set_tag("candidates", used)
                    sp.set_tag("results", len(survivors))
                    sp.set_tag("batched", batched)
            del pending[:used]
            yield from survivors

    # -- framework plumbing --------------------------------------------------
    def attach_maintenance(self) -> None:
        """Subscribe to base-table DML so the index stays in sync."""

        def hook(op: str, rowid: RowId, old_row, new_row) -> None:
            self._geom_cache.discard(self.table, rowid, self._column_index)
            old_geom = old_row[self._column_index] if old_row is not None else None
            new_geom = new_row[self._column_index] if new_row is not None else None
            if op == "INSERT" and new_geom is not None:
                self.insert(rowid, new_geom)
            elif op == "DELETE" and old_geom is not None:
                self.delete(rowid, old_geom)
            elif op == "UPDATE":
                if old_geom is not None and new_geom is not None:
                    self.update(rowid, old_geom, new_geom)
                elif old_geom is not None:
                    self.delete(rowid, old_geom)
                elif new_geom is not None:
                    self.insert(rowid, new_geom)

        self.table.add_maintenance_hook(hook)
        self._hook = hook

    def detach_maintenance(self) -> None:
        """Stop following base-table DML (a dropped index)."""
        if self._hook is not None:
            self.table.remove_maintenance_hook(self._hook)
            self._hook = None

    def geometry_of(self, rowid: RowId, ctx: Optional[WorkerContext] = None) -> Geometry:
        """The indexed geometry of a rowid, through the row cache."""
        return as_geometry(
            self._geom_cache.fetch(self.table, rowid, self._column_index, ctx)
        )


class IndexTypeRegistry:
    """Maps index-kind names ('RTREE', 'QUADTREE') to index factories."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., DomainIndex]] = {}

    def register(self, kind: str, factory: Callable[..., DomainIndex]) -> None:
        key = kind.upper()
        if key in self._factories:
            raise IndexTypeError(f"index kind {kind!r} already registered")
        self._factories[key] = factory

    def create(
        self, kind: str, name: str, table: Table, column: str, **parameters: Any
    ) -> DomainIndex:
        try:
            factory = self._factories[kind.upper()]
        except KeyError:
            raise IndexTypeError(f"unknown index kind {kind!r}") from None
        return factory(name=name, table=table, column=column, **parameters)

    def kinds(self) -> List[str]:
        return sorted(self._factories)
