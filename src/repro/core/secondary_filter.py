"""The secondary (exact-geometry) filter of the spatial join.

The primary filter produces candidate rowid pairs whose MBRs interact;
each candidate is resolved by fetching both geometries from their base
tables and evaluating the exact predicate (paper §4.2).

Fetch order matters: Shekhar et al. showed the optimal order is
NP-complete, and the paper adopts "sort the candidate pairs by the first
rowid", expected within ~20% of the best approximations.  Sorted order
makes first-table fetches sweep the heap near-sequentially and maximises
geometry-cache hits — which the join's
:class:`~repro.engine.table.GeometryCache` makes measurable (the fetch-order ablation bench compares SORTED vs RANDOM
through exactly this code path).

A candidate array is resolved as arrays: its rowids are packed into int64
keys once, one ``np.lexsort`` orders it, :meth:`GeometryCache.fetch_sequence`
touches the cache once per distinct row of each segment of the access
sequence and charges the repeat hits in bulk, and the pair kernel decides
the array a group of ``kernels.GROUP_VERTICES`` at a time.  Results,
cache state and every charge are those of resolving the ordered array
one candidate at a time (``tests/oracles.py::secondary_filter_reference``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.indextype import _relate_form, _within_distance_form
from repro.engine.parallel import WorkerContext
from repro.engine.table import GeometryCache, Table
from repro.obs import trace
from repro.geometry import kernels
from repro.geometry.distance import within_distance
from repro.geometry.geometry import Geometry
from repro.geometry.packed import PackedRing, as_geometry
from repro.geometry.predicates import relate
from repro.index.rtree.join import CandidatePair
from repro.storage.heap import RowId

__all__ = ["FetchOrder", "SecondaryFilter", "JoinPredicate"]

# A rowid packs into one int64 key as ``page << 16 | slot``: a heap page
# (``pager.PAGE_SIZE`` bytes) holds far fewer than 2**16 slots, so keys
# order as (page, slot) do.  The b side of a join of two tables (or two
# columns) is tagged with a high bit, as the cache keys rows apart.
_SLOT_BITS = 16
_B_SIDE = 1 << 62


class FetchOrder(enum.Enum):
    """Candidate processing order for the secondary filter."""

    SORTED = "SORTED"  # sort by first rowid (the paper's choice)
    RANDOM = "RANDOM"  # arbitrary order (the strawman the paper rejects)
    AS_PRODUCED = "AS_PRODUCED"  # whatever order the index join emitted


def _row_keys(candidates: Sequence[CandidatePair], side: int) -> np.ndarray:
    """The packed (page, slot) keys of one side's rowids."""
    return np.fromiter(
        [c[side].page << _SLOT_BITS | c[side].slot for c in candidates],
        dtype=np.int64,
        count=len(candidates),
    )


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
        # Charges, result order and results are identical to per-candidate
        # evaluation (the oracle,
        # ``tests/oracles.py::secondary_filter_reference``).

    def clear_caches(self) -> None:
        """Release the geometry cache."""
        self.cache.clear()

    def _permutation(self, keys_a: np.ndarray, keys_b: np.ndarray) -> np.ndarray:
        """Processing order of an array, as candidate positions."""
        if self.fetch_order is FetchOrder.SORTED:
            # Stable, so ties keep their produced order, as ``sorted`` did.
            return np.lexsort((keys_b, keys_a))
        if self.fetch_order is FetchOrder.RANDOM:
            if self._rng is None:
                import random

                self._rng = random.Random(self.rng_seed)
            # The shuffle depends only on the length: the same permutation
            # as shuffling the candidates themselves.
            order = list(range(len(keys_a)))
            self._rng.shuffle(order)
            return np.array(order, dtype=np.intp)
        return np.arange(len(keys_a))

    def order_candidates(self, candidates: List[CandidatePair]) -> List[CandidatePair]:
        order = self._permutation(_row_keys(candidates, 0), _row_keys(candidates, 1))
        return [candidates[i] for i in order.tolist()]

    def process(
        self,
        candidates: List[CandidatePair],
        ctx: Optional[WorkerContext] = None,
    ) -> List[Tuple[RowId, RowId]]:
        """Evaluate one candidate array, returning the qualifying pairs."""
        with trace.span(
            "join.secondary_filter", ctx, candidates=len(candidates)
        ) as sp:
            n = len(candidates)
            if ctx is not None and n > 1 and self.fetch_order is FetchOrder.SORTED:
                # Ordering the array is itself work (paper §4.2 sorts it).
                ctx.charge("sort_per_item", n * math.log2(n))
            keys_a, keys_b = _row_keys(candidates, 0), _row_keys(candidates, 1)
            order = self._permutation(keys_a, keys_b)
            verdicts = self._resolve_array(
                candidates, order, keys_a[order], keys_b[order], ctx
            )
            chosen = order[verdicts].tolist()
            results = [(candidates[i][0], candidates[i][1]) for i in chosen]
            if ctx is not None and results:
                ctx.charge("result_row", len(results))
            sp.set_tag("results", len(results))
            sp.set_tag("cache_hit_ratio", self.cache.hit_ratio)
        return results

    def _resolve_array(self, candidates, order, keys_a, keys_b, ctx) -> np.ndarray:
        """Verdicts of the ordered array ``candidates[order]``.

        The access sequence a₀ b₀ a₁ b₁ … goes to the cache a segment at a
        time, and kernel groups are cut where the running vertex count of
        the candidates reaches ``kernels.GROUP_VERTICES``.  Geometry is
        held from the open group's first access on, so at most the cache's
        capacity plus one group of decoded rows is alive at a time.
        """
        n = len(order)
        keys = np.empty(2 * n, dtype=np.int64)
        keys[0::2] = keys_a
        same_rows = (self.table_a.name, self._col_a) == (self.table_b.name, self._col_b)
        keys[1::2] = keys_b if same_rows else keys_b | _B_SIDE
        sides = ((self.table_a, self._col_a), (self.table_b, self._col_b))
        positions = order.tolist()

        def locate(i: int):
            table, column_index = sides[i & 1]
            return table, candidates[positions[i >> 1]][i & 1], column_index

        verdicts = np.zeros(n, dtype=bool)
        if not n:
            return verdicts
        entry, segments = self.cache.fetch_sequence(keys, locate, ctx)
        uses = np.bincount(entry).tolist()
        pool: list = []  # geometries number base, base + 1, … of ``entry``
        base = lo = 0  # lo: the open group's first candidate
        load = 0  # vertices fetched since access 2 * lo
        for end, geoms in segments:
            fresh = base + len(pool)
            pool.extend(geoms)
            load += sum(
                g.num_vertices * u for g, u in zip(geoms, uses[fresh : fresh + len(geoms)])
            )
            last = end == 2 * n
            if load < kernels.GROUP_VERTICES and not last:
                continue  # no group can be complete yet
            pooled = np.fromiter(pool, dtype=object, count=len(pool))
            vertices = np.fromiter(
                (g.num_vertices for g in pool), dtype=np.int64, count=len(pool)
            )[entry[2 * lo : end] - base]
            # Running vertex count of the candidates complete so far.
            ready = (end >> 1) - lo
            running = np.cumsum(
                vertices[0 : 2 * ready : 2] + vertices[1 : 2 * ready : 2]
            )
            done = 0
            while done < ready:
                floor = int(running[done - 1]) if done else 0
                cut = int(np.searchsorted(running, floor + kernels.GROUP_VERTICES)) + 1
                if cut > ready:
                    if not last:
                        break
                    cut = ready
                group = pooled[entry[2 * (lo + done) : 2 * (lo + cut)] - base].tolist()
                verdicts[lo + done : lo + cut] = self._exact_tests(
                    group[0::2], group[1::2], int(running[cut - 1]) - floor, ctx
                )
                done = cut
            lo += done
            load = int(vertices[2 * done :].sum())
            # Release the geometry of resolved groups.
            keep = int(entry[2 * lo : end].min()) if 2 * lo < end else base + len(pool)
            del pool[: keep - base]
            base = keep
        return verdicts

    def _exact_tests(self, geoms_a, geoms_b, nv, ctx) -> List[bool]:
        """Exact tests of one group of candidates in one pair-kernel call."""
        if ctx is not None:
            ctx.charge("exact_test_base", len(geoms_a))
            ctx.charge("exact_test_per_vertex", nv)
        resolved = kernels.evaluate_predicate_pairs(
            geoms_a, geoms_b, self.predicate.mask, self.predicate.distance
        )
        if resolved is not None:
            return resolved
        # unsupported mask: scalar per candidate
        return [self.predicate.evaluate(a, b) for a, b in zip(geoms_a, geoms_b)]
