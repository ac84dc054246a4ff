"""The secondary (exact-geometry) filter of the spatial join.

The primary filter produces candidate rowid pairs whose MBRs interact;
each candidate is resolved by fetching both geometries from their base
tables and evaluating the exact predicate (paper §4.2).

Fetch order matters: Shekhar et al. showed the optimal order is
NP-complete, and the paper adopts "sort the candidate pairs by the first
rowid", expected within ~20% of the best approximations.  Sorted order
makes first-table fetches sweep the heap near-sequentially and maximises
geometry-cache hits — which the :class:`GeometryCache` here makes
measurable (the fetch-order ablation bench compares SORTED vs RANDOM
through exactly this code path).
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.engine.indextype import _relate_form, _within_distance_form
from repro.engine.parallel import WorkerContext
from repro.engine.table import Table
from repro.obs import trace
from repro.geometry import kernels
from repro.geometry.distance import within_distance
from repro.geometry.geometry import Geometry
from repro.geometry.interior import interior_rectangle
from repro.geometry.packed import PackedRing, as_geometry
from repro.geometry.predicates import relate
from repro.index.rtree.join import CandidatePair
from repro.storage.heap import RowId

__all__ = ["FetchOrder", "GeometryCache", "SecondaryFilter", "JoinPredicate"]


class FetchOrder(enum.Enum):
    """Candidate processing order for the secondary filter."""

    SORTED = "SORTED"  # sort by first rowid (the paper's choice)
    RANDOM = "RANDOM"  # arbitrary order (the strawman the paper rejects)
    AS_PRODUCED = "AS_PRODUCED"  # whatever order the index join emitted


class GeometryCache:
    """Bounded LRU cache of fetched geometries, keyed by (table, rowid).

    A cache miss charges full fetch cost (``geom_fetch_base`` + per-vertex);
    a hit charges only a buffer-get.  The hit ratio is the mechanism by
    which candidate fetch order shows up in simulated time.

    Entries are what :meth:`Table.fetch_packed` returns: a heap row's
    polygon of one exterior ring is a :class:`PackedRing` (its vertex array
    is all the pair kernel reads), anything else a :class:`Geometry`.
    """

    def __init__(self, capacity: int = 2048):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[Tuple[str, RowId], Union[Geometry, PackedRing]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def fetch(
        self, table: Table, rowid: RowId, column_index: int, ctx: Optional[WorkerContext]
    ) -> Union[Geometry, PackedRing]:
        key = (table.name, rowid)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            if ctx is not None:
                ctx.charge("buffer_get_hit")
            return cached
        self.misses += 1
        # Routed through the table so columnar-resident rows are served
        # (and charged) from their chunk; heap rows keep the historical
        # geom_fetch charges.
        geom = table.fetch_packed(rowid, column_index, ctx)
        self._entries[key] = geom
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return geom

    def clear(self) -> None:
        self._entries.clear()


@dataclass(frozen=True)
class JoinPredicate:
    """The exact predicate a spatial join evaluates per candidate pair.

    ``mask`` follows ``sdo_relate`` semantics; ``distance > 0`` switches to
    within-distance semantics (distance 0 + ANYINTERACT is Table 1's
    "intersect" row).  Both are validated on construction, as the index
    operators validate theirs: an unknown mask name or a distance that is
    not a finite number >= 0 is an ``OperatorError`` naming it.
    """

    mask: str = "ANYINTERACT"
    distance: float = 0.0

    def __post_init__(self) -> None:
        _relate_form((None, self.mask))
        _mask, distance = _within_distance_form((None, self.distance))
        object.__setattr__(self, "distance", distance)

    def evaluate(
        self, g1: Union[Geometry, PackedRing], g2: Union[Geometry, PackedRing]
    ) -> bool:
        g1, g2 = as_geometry(g1), as_geometry(g2)
        if self.distance > 0.0:
            return within_distance(g1, g2, self.distance)
        return relate(g1, g2, self.mask)


class SecondaryFilter:
    """Resolves candidate pairs to exact join results."""

    def __init__(
        self,
        table_a: Table,
        column_a: str,
        table_b: Table,
        column_b: str,
        predicate: JoinPredicate,
        fetch_order: FetchOrder = FetchOrder.SORTED,
        cache_capacity: int = 4096,
        rng_seed: int = 0,
        use_interior: bool = False,
        interior_cache_capacity: Optional[int] = None,
    ):
        self.table_a = table_a
        self.table_b = table_b
        self._col_a = table_a.schema.index_of(column_a)
        self._col_b = table_b.schema.index_of(column_b)
        self.predicate = predicate
        self.fetch_order = fetch_order
        self.cache = GeometryCache(cache_capacity)
        # The shuffle RNG is built lazily and only for RANDOM order, from an
        # explicit seed, so the fetch-order ablation is reproducible and the
        # common SORTED path pays nothing for it.
        self.rng_seed = rng_seed
        self._rng = None
        # Each candidate array is resolved by the vectorized pair kernel.
        # Charges, statistics, result order and results are identical to
        # per-candidate evaluation (the oracle,
        # ``tests/oracles.py::secondary_filter_reference``).
        self.batched_candidates = 0
        self.candidates_seen = 0
        self.results_produced = 0
        # Interior-approximation fast-accept (SSTD'01, the paper's ref [21]):
        # only sound for plain intersection semantics.
        self.use_interior = use_interior and self._is_intersect_predicate()
        self.fast_accepts = 0
        # Interior rectangles get the same LRU discipline and capacity knob
        # as the geometry cache (defaulting to the same capacity) so one
        # long join cannot grow the cache without bound.
        self._interior_capacity = max(
            1,
            cache_capacity
            if interior_cache_capacity is None
            else interior_cache_capacity,
        )
        self._interior: "OrderedDict[Tuple[str, RowId], object]" = OrderedDict()

    def _is_intersect_predicate(self) -> bool:
        return self.predicate.distance == 0.0 and self.predicate.mask.upper() in (
            "ANYINTERACT",
            "INTERSECT",
        )

    def _interior_of(self, table: Table, rowid: RowId, column_index: int, ctx):
        """Interior rectangle for a row (cached; the real system stores
        these in the spatial index at creation time)."""
        key = (table.name, rowid)
        rect = self._interior.get(key)
        if rect is None:
            geom = self.cache.fetch(table, rowid, column_index, ctx)
            rect = interior_rectangle(as_geometry(geom))
            self._interior[key] = rect
            while len(self._interior) > self._interior_capacity:
                self._interior.popitem(last=False)
        else:
            self._interior.move_to_end(key)
        return rect

    def clear_caches(self) -> None:
        """Release both the geometry and interior-rectangle caches."""
        self.cache.clear()
        self._interior.clear()

    def order_candidates(self, candidates: List[CandidatePair]) -> List[CandidatePair]:
        if self.fetch_order is FetchOrder.SORTED:
            # Flat int key: same (page, slot) lexicographic order as
            # comparing the RowIds, without per-comparison dataclass calls.
            return sorted(
                candidates,
                key=lambda c: (c[0].page, c[0].slot, c[1].page, c[1].slot),
            )
        if self.fetch_order is FetchOrder.RANDOM:
            if self._rng is None:
                import random

                self._rng = random.Random(self.rng_seed)
            shuffled = list(candidates)
            self._rng.shuffle(shuffled)
            return shuffled
        return list(candidates)

    def process(
        self,
        candidates: List[CandidatePair],
        ctx: Optional[WorkerContext] = None,
    ) -> List[Tuple[RowId, RowId]]:
        """Evaluate one candidate array, returning the qualifying pairs."""
        with trace.span(
            "join.secondary_filter", ctx, candidates=len(candidates)
        ) as sp:
            results: List[Tuple[RowId, RowId]] = []
            if ctx is not None:
                # Ordering the array is itself work (paper §4.2 sorts it).
                n = len(candidates)
                if n > 1 and self.fetch_order is FetchOrder.SORTED:
                    ctx.charge("sort_per_item", n * math.log2(n))
            ordered = self.order_candidates(candidates)
            self._process_array(ordered, results, ctx)
            self.results_produced += len(results)
            sp.set_tag("results", len(results))
            sp.set_tag("cache_hit_ratio", self.cache.hit_ratio)
        return results

    def _process_array(
        self,
        ordered: List[CandidatePair],
        results: List[Tuple[RowId, RowId]],
        ctx: Optional[WorkerContext],
    ) -> None:
        """Resolve an ordered candidate array with the pair kernel.

        Fast-accepts and fetches run candidate by candidate, so cache state,
        hit/miss counters and every charge match a per-candidate loop; only
        the exact tests are deferred, to the end of the array or of a group
        of `kernels.GROUP_VERTICES`, whichever comes first.
        """
        self.candidates_seen += len(ordered)
        fetch = self.cache.fetch
        verdicts = [False] * len(ordered)
        pending: List[int] = []
        geoms_a: List[Union[Geometry, PackedRing]] = []
        geoms_b: List[Union[Geometry, PackedRing]] = []
        nv = 0
        for k, (rid_a, rid_b, mbr_a, mbr_b) in enumerate(ordered):
            if self.use_interior and self._fast_accept(rid_a, rid_b, mbr_a, mbr_b, ctx):
                self.fast_accepts += 1
                verdicts[k] = True
                continue
            g1 = fetch(self.table_a, rid_a, self._col_a, ctx)
            g2 = fetch(self.table_b, rid_b, self._col_b, ctx)
            nv += g1.num_vertices + g2.num_vertices
            pending.append(k)
            geoms_a.append(g1)
            geoms_b.append(g2)
            if nv >= kernels.GROUP_VERTICES:
                self._resolve_group(pending, geoms_a, geoms_b, nv, verdicts, ctx)
                pending, geoms_a, geoms_b, nv = [], [], [], 0
        if pending:
            self._resolve_group(pending, geoms_a, geoms_b, nv, verdicts, ctx)
        before = len(results)
        results.extend((c[0], c[1]) for c, ok in zip(ordered, verdicts) if ok)
        if ctx is not None and len(results) > before:
            ctx.charge("result_row", len(results) - before)

    def _resolve_group(self, pending, geoms_a, geoms_b, nv, verdicts, ctx) -> None:
        """Exact tests of candidates ``pending`` in one pair-kernel call."""
        if ctx is not None:
            ctx.charge("exact_test_base", len(pending))
            ctx.charge("exact_test_per_vertex", nv)
        resolved = kernels.evaluate_predicate_pairs(
            geoms_a, geoms_b, self.predicate.mask, self.predicate.distance
        )
        if resolved is not None:
            self.batched_candidates += len(pending)
        else:  # unsupported mask: scalar per candidate
            resolved = [self.predicate.evaluate(a, b) for a, b in zip(geoms_a, geoms_b)]
        for k, ok in zip(pending, resolved):
            verdicts[k] = ok

    def _fast_accept(self, rid_a, rid_b, mbr_a, mbr_b, ctx) -> bool:
        """Sound intersection certificates from interior approximations.

        * interior(a) intersects interior(b)  => geometries intersect;
        * interior(a) contains MBR(b)         => b lies inside a;
        * interior(b) contains MBR(a)         => a lies inside b.
        """
        int_a = self._interior_of(self.table_a, rid_a, self._col_a, ctx)
        int_b = self._interior_of(self.table_b, rid_b, self._col_b, ctx)
        if ctx is not None:
            ctx.charge("mbr_test", 3)
        if int_a.intersects(int_b):
            return True
        if int_a.contains(mbr_b):
            return True
        return int_b.contains(mbr_a)
