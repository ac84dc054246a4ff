"""Grid-partitioned spatial join: space-oriented parallel decomposition.

The paper parallelises its join by crossing subtree roots of the two
R-trees (Figure 1, ``repro.core.subtree``).  That decomposition inherits
the *trees'* shapes: when the two indexes partition space differently, a
few subtree pairs carry most of the overlap work and the slaves serialise
behind them.  This module provides the alternative that "Parallel
In-Memory Evaluation of Spatial Joins" (Tsitsigkos et al.) shows winning
at high core counts — partition *space*, not the indexes:

1. **Tile** the joint MBR of both inputs into a uniform ``nx x ny`` grid
   (:class:`GridSpec`; shape chosen by
   :func:`repro.engine.cost.pick_grid_shape`).
2. **Assign** every geometry (its leaf-entry MBR, expanded by the join
   distance on one side) to each tile its MBR overlaps — the
   :func:`repro.geometry.kernels.tile_ranges_batch` kernel bins whole
   coordinate arrays at once.
3. **Sweep** each tile independently (:func:`tile_sweep`, the
   :func:`~repro.index.rtree.join.plane_sweep` the SWEEP strategy runs
   inside node pairs), so
   tiles become the demand-driven unit of parallel distribution
   (:class:`GridTileTask`).

Two-layer duplicate avoidance
-----------------------------
A geometry overlapping several tiles is *replicated* into each, so a
result pair whose MBRs overlap k tiles would be found k times.  Instead
of deduplicating after the fact, each replica carries a two-layer class
label ("Two-layer Space-oriented Partitioning for Non-point Data",
Tsitsigkos et al.): per axis, whether this tile is the **first** tile the
MBR overlaps (``xfirst`` / ``yfirst``).  In the classic A/B/C/D naming,

* **A** = xfirst and yfirst (the tile holds the MBR's low corner),
* **B** = xfirst only (the MBR enters this tile column from below),
* **C** = yfirst only (enters this tile row from the left),
* **D** = neither (passes through).

A pair found in a tile is emitted only when::

    (a.xfirst or b.xfirst) and (a.yfirst or b.yfirst)

i.e. for the class combinations A×{A,B,C,D}, {B,C,D}×A, B×C and C×B.
This holds in exactly one tile — the one containing the low corner of the
two MBRs' overlap region — so every result pair is produced exactly once
with **no dedup set**.  The proof is integer-exact: replica ranges are
the inclusive tile-index intervals ``[ix0..ix1] x [iy0..iy1]`` from
:func:`~repro.geometry.kernels.tile_ranges_batch`, the canonical tile is
``(max(a.ix0, b.ix0), max(a.iy0, b.iy0))`` (floor is monotone, so the
max of the two binned low corners *is* the bin of the max), and
``xfirst`` in tile ``ix`` is just ``ix == ix0`` — no floating-point
boundary case can split a pair across tiles.

Distance joins expand only the **b**-side MBRs by the join distance
during assignment (step 2): a pair within rectangle-distance ``d`` then
shares every tile that the a-MBR/expanded-b-MBR overlap covers, and the
canonical-tile argument applies to the expanded ranges.  The sweep still
tests the *original* coordinates, so the emitted candidate set is exactly
the SWEEP strategy's.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.parallel import WorkerContext
from repro.errors import JoinError
from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.index.rtree.join import CandidatePair, plane_sweep
from repro.obs import trace
from repro.storage.heap import RowId

__all__ = [
    "GridSpec",
    "TileEntries",
    "GridSweepStats",
    "GridStats",
    "build_grid_spec",
    "build_tiles",
    "tile_sweep",
    "GridJoinContext",
    "GridTileTask",
    "make_tile_tasks",
    "tile_range_of",
    "tile_ranges_of",
]

@dataclass(frozen=True)
class GridSpec:
    """A uniform ``nx x ny`` tiling of a bounding rectangle."""

    min_x: float
    min_y: float
    tile_w: float
    tile_h: float
    nx: int
    ny: int

    @property
    def tiles(self) -> int:
        return self.nx * self.ny

    def tile_id(self, ix: int, iy: int) -> int:
        return iy * self.nx + ix


def build_grid_spec(box: MBR, nx: int, ny: int) -> GridSpec:
    """Tile ``box`` (the joint MBR of both join inputs) ``nx x ny`` ways.

    Degenerate extents (a point dataset, a vertical line) get unit-size
    tiles on the flat axis so every coordinate still bins to tile 0.
    """
    if nx < 1 or ny < 1:
        raise JoinError(f"grid shape must be >= 1x1, got {nx}x{ny}")
    if box.is_empty:
        return GridSpec(0.0, 0.0, 1.0, 1.0, 1, 1)
    width = box.max_x - box.min_x
    height = box.max_y - box.min_y
    tile_w = width / nx if width > 0.0 else 1.0
    tile_h = height / ny if height > 0.0 else 1.0
    return GridSpec(box.min_x, box.min_y, tile_w, tile_h, nx, ny)


def tile_ranges_of(
    spec: GridSpec,
    coords: Tuple[Sequence[float], Sequence[float], Sequence[float], Sequence[float]],
    expand: float = 0.0,
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """The inclusive tile-index ranges ``(ix0s, ix1s, iy0s, iy1s)`` of a
    batch of MBRs given as ``(min_xs, min_ys, max_xs, max_ys)``.

    One :func:`~repro.geometry.kernels.tile_ranges_batch` call, the kernel
    :func:`build_tiles` bins with, so routing decisions (which shard owns a
    row, which shards a window touches, which shard emits a row for a
    window) bin **bit-identically** to the join's own replica assignment —
    the cluster layer's correctness leans on this equality.
    """
    return kernels.tile_ranges_batch(
        coords,
        (spec.min_x, spec.min_y),
        (spec.tile_w, spec.tile_h),
        (spec.nx, spec.ny),
        expand,
    )


def tile_range_of(
    spec: GridSpec, mbr: MBR, expand: float = 0.0
) -> Tuple[int, int, int, int]:
    """The inclusive tile-index range ``(ix0, ix1, iy0, iy1)`` of one MBR:
    :func:`tile_ranges_of` on a one-element batch."""
    ix0, ix1, iy0, iy1 = tile_ranges_of(
        spec,
        (
            array("d", [mbr.min_x]),
            array("d", [mbr.min_y]),
            array("d", [mbr.max_x]),
            array("d", [mbr.max_y]),
        ),
        expand,
    )
    return ix0[0], ix1[0], iy0[0], iy1[0]


class TileEntries:
    """The replicas of one join input assigned to one tile (struct of
    arrays, mirroring the R-tree node layout the sweep already reads)."""

    __slots__ = ("rowids", "mbrs", "x0", "y0", "x1", "y1", "xfirst", "yfirst")

    def __init__(self) -> None:
        self.rowids: List[RowId] = []
        self.mbrs: List[MBR] = []
        self.x0 = array("d")
        self.y0 = array("d")
        self.x1 = array("d")
        self.y1 = array("d")
        self.xfirst: List[bool] = []
        self.yfirst: List[bool] = []

    def add(self, rowid: RowId, mbr: MBR, xfirst: bool, yfirst: bool) -> None:
        self.rowids.append(rowid)
        self.mbrs.append(mbr)
        self.x0.append(mbr.min_x)
        self.y0.append(mbr.min_y)
        self.x1.append(mbr.max_x)
        self.y1.append(mbr.max_y)
        self.xfirst.append(xfirst)
        self.yfirst.append(yfirst)

    def __len__(self) -> int:
        return len(self.rowids)


def build_tiles(
    entries: Sequence[Tuple[MBR, RowId]],
    spec: GridSpec,
    expand: float = 0.0,
    ctx: Optional[WorkerContext] = None,
) -> Dict[int, TileEntries]:
    """Assign ``(mbr, rowid)`` entries to every tile their MBR overlaps.

    ``expand`` widens each MBR on all sides during *assignment only* (the
    within-distance slack applied to the b side of a distance join); the
    stored coordinates stay exact.  Returns only non-empty tiles.
    """
    n = len(entries)
    if ctx is not None:
        ctx.charge("grid_assign_per_entry", n)
    if n == 0:
        return {}
    x0s = array("d")
    y0s = array("d")
    x1s = array("d")
    y1s = array("d")
    for mbr, _rowid in entries:
        x0s.append(mbr.min_x)
        y0s.append(mbr.min_y)
        x1s.append(mbr.max_x)
        y1s.append(mbr.max_y)
    ix0, ix1, iy0, iy1 = tile_ranges_of(spec, (x0s, y0s, x1s, y1s), expand)
    tiles: Dict[int, TileEntries] = {}
    replicas = 0
    for i, (mbr, rowid) in enumerate(entries):
        a, b, c, d = ix0[i], ix1[i], iy0[i], iy1[i]
        for iy in range(c, d + 1):
            base = iy * spec.nx
            yf = iy == c
            for ix in range(a, b + 1):
                tile = tiles.get(base + ix)
                if tile is None:
                    tile = tiles[base + ix] = TileEntries()
                tile.add(rowid, mbr, ix == a, yf)
                replicas += 1
    if ctx is not None and replicas > n:
        # Routing each extra replica into its tile is partitioning work.
        ctx.charge("partition_per_row", replicas - n)
    return tiles


@dataclass
class GridSweepStats:
    """Counters one tile sweep (or a whole grid join) accumulates."""

    pairs_tested: int = 0
    pairs_emitted: int = 0
    duplicates_avoided: int = 0  # interacting pairs skipped as non-canonical


def tile_sweep(
    ta: TileEntries,
    tb: TileEntries,
    distance: float = 0.0,
    ctx: Optional[WorkerContext] = None,
    stats: Optional[GridSweepStats] = None,
) -> Iterator[CandidatePair]:
    """Plane-sweep one tile's replicas, emitting only canonical pairs.

    The SWEEP strategy's sweep (:func:`~repro.index.rtree.join.plane_sweep`
    over both replica lists sorted by min-x) with the two-layer class gate
    before emission.  Non-canonical interacting pairs charge
    ``grid_pair_skip`` — the integer comparison that replaces a dedup-set
    lookup.
    """
    na, nb = len(ta), len(tb)
    if na == 0 or nb == 0:
        return
    if stats is None:
        stats = GridSweepStats()
    ia = sorted(range(na), key=ta.x0.__getitem__)
    ib = sorted(range(nb), key=tb.x0.__getitem__)
    if ctx is not None:
        ctx.charge(
            "sweep_sort_per_item",
            na * math.log2(max(na, 2)) + nb * math.log2(max(nb, 2)),
        )
    a_xf, a_yf = ta.xfirst, ta.yfirst
    b_xf, b_yf = tb.xfirst, tb.yfirst
    for i, j in plane_sweep(
        (ta.x0, ta.y0, ta.x1, ta.y1), ia, (tb.x0, tb.y0, tb.x1, tb.y1), ib,
        distance, ctx, stats,
    ):
        if (a_xf[i] or b_xf[j]) and (a_yf[i] or b_yf[j]):
            stats.pairs_emitted += 1
            if ctx is not None:
                ctx.charge("sweep_pair_emit")
            yield (ta.rowids[i], tb.rowids[j], ta.mbrs[i], tb.mbrs[j])
        else:
            stats.duplicates_avoided += 1
            if ctx is not None:
                ctx.charge("grid_pair_skip")


@dataclass
class GridStats:
    """Partitioning-time shape of one grid join (parent-side; per-tile
    sweep detail flows back through worker meters and trace spans)."""

    shape: Tuple[int, int] = (1, 1)
    tiles_nonempty: int = 0  # tiles holding replicas of *both* inputs
    tasks: int = 0
    entries_a: int = 0
    entries_b: int = 0
    replicas_a: int = 0
    replicas_b: int = 0
    max_tile_entries: int = 0
    mean_tile_entries: float = 0.0

    @property
    def tile_imbalance(self) -> float:
        """max/mean replica count over joinable tiles (a-priori skew)."""
        if self.mean_tile_entries <= 0.0:
            return 1.0
        return self.max_tile_entries / self.mean_tile_entries

    def as_dict(self) -> Dict[str, object]:
        return {
            "shape": list(self.shape),
            "tiles_nonempty": self.tiles_nonempty,
            "tasks": self.tasks,
            "entries_a": self.entries_a,
            "entries_b": self.entries_b,
            "replicas_a": self.replicas_a,
            "replicas_b": self.replicas_b,
            "max_tile_entries": self.max_tile_entries,
            "mean_tile_entries": round(self.mean_tile_entries, 2),
            "tile_imbalance": round(self.tile_imbalance, 3),
        }


class GridJoinContext:
    """Shared, picklable state for every tile task of one grid join.

    Holds the partitioned tiles plus everything a slave needs to run the
    secondary filter.  Filters are created lazily **per worker** (keyed by
    ``worker_id``) so a worker keeps its geometry cache warm across the
    many tiles it steals, exactly as a subtree-pair slave keeps one filter
    for its whole partition; the registry itself is dropped on pickle.
    """

    __slots__ = (
        "table_a",
        "column_a",
        "table_b",
        "column_b",
        "predicate",
        "tiles_a",
        "tiles_b",
        "candidate_array_size",
        "fetch_order",
        "rng_seed",
        "_filters",
    )

    def __init__(
        self,
        table_a,
        column_a: str,
        table_b,
        column_b: str,
        predicate,
        tiles_a: Dict[int, TileEntries],
        tiles_b: Dict[int, TileEntries],
        candidate_array_size: int,
        fetch_order,
        rng_seed: int,
    ):
        self.table_a = table_a
        self.column_a = column_a
        self.table_b = table_b
        self.column_b = column_b
        self.predicate = predicate
        self.tiles_a = tiles_a
        self.tiles_b = tiles_b
        self.candidate_array_size = candidate_array_size
        self.fetch_order = fetch_order
        self.rng_seed = rng_seed
        self._filters: Dict[int, object] = {}

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_filters"
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._filters = {}

    def filter_for(self, worker_id: int):
        """This worker's secondary filter (created on first use)."""
        filt = self._filters.get(worker_id)
        if filt is None:
            from repro.core.secondary_filter import SecondaryFilter

            filt = SecondaryFilter(
                self.table_a,
                self.column_a,
                self.table_b,
                self.column_b,
                self.predicate,
                fetch_order=self.fetch_order,
                rng_seed=self.rng_seed,
            )
            self._filters[worker_id] = filt
        return filt


class GridTileTask:
    """One slave work unit: sweep + refine a run of tiles.

    A module-level class over picklable state (not a closure), like
    :class:`~repro.engine.table_function.PartitionTask`.  Tasks are
    deliberately fine-grained — usually a single tile — so the
    executors' demand-driven queues steal around skewed tiles instead of
    serialising behind a static partition.
    """

    __slots__ = ("shared", "tile_ids")

    def __init__(self, shared: GridJoinContext, tile_ids: Sequence[int]):
        self.shared = shared
        self.tile_ids = list(tile_ids)

    def __call__(self, ctx: WorkerContext) -> List[Tuple[RowId, RowId]]:
        shared = self.shared
        filt = shared.filter_for(ctx.worker_id)
        distance = shared.predicate.distance
        cap = shared.candidate_array_size
        results: List[Tuple[RowId, RowId]] = []
        for tile_id in self.tile_ids:
            ta = shared.tiles_a.get(tile_id)
            tb = shared.tiles_b.get(tile_id)
            if ta is None or tb is None:
                continue
            stats = GridSweepStats()
            with trace.span(
                "grid.tile_sweep",
                ctx,
                tile=tile_id,
                entries_a=len(ta),
                entries_b=len(tb),
                worker=ctx.worker_id,
            ) as sp:
                candidates = list(tile_sweep(ta, tb, distance, ctx, stats))
                sp.set_tag("candidates", len(candidates))
                sp.set_tag("duplicates_avoided", stats.duplicates_avoided)
            # Respect the bounded candidate array (§4.2's memory model):
            # refine in slices, like the table function's fetch loop.
            for lo in range(0, len(candidates), cap):
                results.extend(filt.process(candidates[lo : lo + cap], ctx))
        return results


def make_tile_tasks(
    shared: GridJoinContext,
    stats: Optional[GridStats] = None,
    owned=None,
) -> List[GridTileTask]:
    """One task per joinable tile (present on both sides), in tile order.

    Task-list order is the result order — deterministic for any executor,
    since every executor returns results in submission order.  ``owned``
    (a set of tile ids) restricts the join to those tiles: a cluster
    shard sweeps only the tiles it owns, and because the canonical-tile
    rule makes each result pair's emitting tile unique, a partition of
    the tile space across shards partitions the result set exactly.
    """
    joinable = sorted(shared.tiles_a.keys() & shared.tiles_b.keys())
    if owned is not None:
        joinable = [t for t in joinable if t in owned]
    tasks = [GridTileTask(shared, [tile_id]) for tile_id in joinable]
    if stats is not None:
        stats.tasks = len(tasks)
        stats.tiles_nonempty = len(joinable)
        sizes = [
            len(shared.tiles_a[t]) + len(shared.tiles_b[t]) for t in joinable
        ]
        if sizes:
            stats.max_tile_entries = max(sizes)
            stats.mean_tile_entries = sum(sizes) / len(sizes)
    return tasks
