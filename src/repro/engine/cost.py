"""The simulated cost model.

The paper's experiments ran on a 4-CPU Sun E450; this reproduction runs on
whatever it runs on — often a single core — so reported times come from a
deterministic cost model instead of the wall clock.  Operations record
*work units* (page reads, MBR tests, exact predicate evaluations per vertex,
tiles tessellated, ...) into a :class:`WorkMeter`; simulated time is the dot
product of those counts with the per-unit costs in :class:`CostModel`.

The default constants are calibrated so that the sequential counties
self-join (Table 1) lands in the paper's order of magnitude (~100 s) and
tessellation dominates quadtree creation the way the paper reports.  The
*shape* of every result (who wins, crossover points, speedup factors) is
insensitive to an overall rescaling of these constants; only the ratios
matter, and the ratios encode real machine facts (a physical read costs
~100x a buffer hit; an exact polygon test costs ~vertices x a constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Tuple

from repro.errors import EngineError

__all__ = [
    "CostModel",
    "WorkMeter",
    "DEFAULT_COST_MODEL",
    "pick_grid_shape",
]


@dataclass(frozen=True)
class CostModel:
    """Per-unit costs in simulated seconds."""

    # storage
    buffer_get_hit: float = 2e-6  # logical page get satisfied by the cache
    physical_read: float = 2e-4  # page read that misses the cache
    page_write: float = 2e-4  # page write-back
    # index traversal
    btree_node_visit: float = 4e-6
    rtree_node_visit: float = 6e-6
    # filters
    mbr_test: float = 4e-7  # one rectangle-rectangle comparison
    sweep_sort_per_item: float = 2.5e-7  # one comparison in the plane
    # sweep's min-x sort — cheaper than mbr_test because it orders packed
    # floats from the flat-array node layout, not full rectangle pairs
    sweep_pair_emit: float = 2e-7  # emitting one interacting pair found
    # by the sweep (bookkeeping that the nested loop folds into its test)
    geom_fetch_per_vertex: float = 1.5e-6  # decode a fetched geometry
    geom_fetch_base: float = 2e-4  # cache-missing geometry fetch (page read)
    chunk_row_view: float = 4e-7  # aliasing one row's coordinates out of a
    # resident column chunk (pointer math, no per-row decode; the chunk
    # load itself is charged as physical_read per chunk page)
    zone_skip: float = 1e-7  # consulting one chunk's zone map and skipping
    # the whole chunk without reading any of its pages (a float compare
    # against the in-memory chunk directory)
    exact_test_per_vertex: float = 3e-6  # secondary filter, per vertex visited
    exact_test_base: float = 3e-5
    index_probe: float = 2.5e-3  # one operator invocation through the
    # extensible-indexing framework (SQL recursion + ODCIIndexStart/Fetch/
    # Close per probed row) — the fixed cost the nested-loop join pays per
    # outer row and the table-function join pays once
    statement_overhead: float = 0.5  # parse/plan/execute fixed cost of one
    # SQL statement; dominates both join strategies at tiny inputs, which
    # is why Table 2's 25-polygon row shows nested == index
    # index creation
    tessellate_per_tile: float = 1.6e-4  # clip/cover one quadtree tile
    tessellate_per_vertex: float = 2.0e-5
    mbr_load_per_vertex: float = 1.0e-6  # compute an MBR while loading
    cluster_per_entry: float = 3.0e-5  # R-tree packing, per entry per level
    sort_per_item: float = 6e-7  # one comparison-ish unit of sorting
    tile_insert: float = 1.0e-5  # insert one tile row into the index table
    # parallel machinery
    worker_startup: float = 0.02  # spawning one parallel worker (slave)
    partition_per_row: float = 2e-7  # routing one row to a partition
    grid_assign_per_entry: float = 3e-7  # binning one MBR into grid-tile
    # index ranges (one float-floor per side; cheaper than an mbr_test)
    grid_pair_skip: float = 1e-7  # discarding a geometrically interacting
    # pair whose two-layer class combination makes another tile canonical
    # (an integer comparison; also the duplicate-avoidance observability
    # counter — no dedup structure exists to count against)
    result_row: float = 1e-6  # materialising one output row

    def unit_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(self))

    def cost_of(self, kind: str) -> float:
        try:
            return getattr(self, kind)
        except AttributeError:
            raise EngineError(f"unknown work-unit kind {kind!r}") from None

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly rescaled model (shape-preserving; used in tests)."""
        return CostModel(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )


DEFAULT_COST_MODEL = CostModel()

# Grid-join tile-count heuristic knobs (see :func:`pick_grid_shape`).
GRID_TILES_PER_WORKER = 8  # steal granularity: tiles per parallel slave
GRID_TARGET_ENTRIES_PER_TILE = 32  # aim for sweeps near this size: on
# clustered data (stars) coarser grids leave one hot tile bounding the
# makespan — 32 entries/tile costs a few percent extra replication and
# buys near-linear balance at degree 16 (measured in bench_ablation_grid)
GRID_MAX_TILES = 16384  # assignment cost ceiling (and task-count ceiling)


def pick_grid_shape(
    n_a: int,
    n_b: int,
    degree: int = 1,
    tiles_per_worker: int = GRID_TILES_PER_WORKER,
    target_entries_per_tile: int = GRID_TARGET_ENTRIES_PER_TILE,
    max_tiles: int = GRID_MAX_TILES,
) -> Tuple[int, int]:
    """Choose a uniform grid shape ``(nx, ny)`` for a grid-partitioned join.

    Two pressures trade off: enough tiles that demand-driven stealing can
    balance skew (``degree * tiles_per_worker`` floor) and tiles small
    enough that a per-tile plane sweep stays in its efficient range
    (``(n_a + n_b) / target_entries_per_tile``), but not so many that
    per-entry assignment and per-tile bookkeeping dominate (``max_tiles``
    ceiling, and never more tiles than entries).  The shape is as close
    to square as the total allows — tiles inherit the data's aspect
    ratio from the joint MBR, which a square split distorts least.
    """
    if degree < 1:
        raise EngineError(f"degree must be >= 1, got {degree}")
    n_entries = max(0, n_a) + max(0, n_b)
    want = max(
        1,
        degree * max(1, tiles_per_worker),
        n_entries // max(1, target_entries_per_tile),
    )
    total = max(1, min(want, max_tiles, max(1, n_entries)))
    nx = max(1, int(math.isqrt(total)))
    ny = max(1, (total + nx - 1) // nx)
    return nx, ny


class WorkMeter:
    """Accumulates work-unit counts; converts to simulated seconds on demand."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}

    def add(self, kind: str, n: float = 1.0) -> None:
        """Record ``n`` units of work of the given kind."""
        self.counts[kind] = self.counts.get(kind, 0.0) + n

    def merge(self, other: "WorkMeter") -> None:
        for kind, n in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0.0) + n

    def copy(self) -> "WorkMeter":
        meter = WorkMeter()
        meter.counts = dict(self.counts)
        return meter

    def seconds(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Simulated time for all recorded work under ``model``.

        Kinds are summed in sorted order so the float total is independent
        of the order charges first arrived in (two meters with equal counts
        always report bit-equal seconds).
        """
        total = 0.0
        for kind in sorted(self.counts):
            total += model.cost_of(kind) * self.counts[kind]
        return total

    def breakdown(
        self, model: CostModel = DEFAULT_COST_MODEL
    ) -> Iterator[Tuple[str, float, float]]:
        """Yield (kind, count, seconds) sorted by descending cost share."""
        rows = [
            (kind, n, model.cost_of(kind) * n) for kind, n in self.counts.items()
        ]
        rows.sort(key=lambda r: -r[2])
        yield from rows

    def __repr__(self) -> str:
        total = self.seconds()
        return f"WorkMeter({len(self.counts)} kinds, {total:.3f}s simulated)"
