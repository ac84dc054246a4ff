"""Parallel spatial join (paper §4.1).

The serial rewrite has a single input stream, so it cannot use
table-function parallelism.  The parallel form descends both R-trees to a
level that yields enough subtree-root pairs, feeds the cross product of
those roots through a cursor, and lets the engine partition that cursor
across N instances of the spatial_join function::

    select ... from TABLE(spatial_join(
        CURSOR(select * from table(subtree_root('city_idx', k)),
                        table(subtree_root('river_idx', k))),
        'city_table', 'city_geom', 'river_table', 'river_geom',
        'intersect'));

``parallel_spatial_join`` is the library-level driver for that plan; the
SQL front-end lowers the statement above onto it.

``grid_parallel_join`` partitions *space* instead of the trees
(:mod:`repro.core.grid_partition`): both inputs' leaf entries are binned
into a uniform grid over their joint MBR and each tile becomes one
demand-driven task, so skewed tiles are stolen around rather than
serialising a slave — the scale-out alternative to Figure 1's subtree
pairs.  On a :class:`~repro.engine.parallel.SerialExecutor` it is the
serial GRID join.  :meth:`repro.engine.database.Database.spatial_join`
picks the driver for a (strategy, degree) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.cost import WorkMeter, pick_grid_shape
from repro.engine.cursor import Cursor, ListCursor, PartitionMethod
from repro.engine.parallel import (
    ParallelExecutor,
    ParallelRun,
    SerialExecutor,
    WorkerContext,
)
from repro.engine.table import Table
from repro.engine.table_function import flatten_run, run_parallel
from repro.index.rtree.join import JoinStrategy
from repro.index.rtree.rtree import RTree
from repro.core.grid_partition import (
    GridJoinContext,
    GridStats,
    build_grid_spec,
    build_tiles,
    make_tile_tasks,
)
from repro.core.secondary_filter import FetchOrder, JoinPredicate
from repro.core.spatial_join import (
    DEFAULT_CANDIDATE_ARRAY_SIZE,
    SpatialJoinFunction,
)
from repro.core.subtree import pick_descent_level, subtree_pairs
from repro.obs import trace
from repro.storage.heap import RowId

__all__ = [
    "JoinResult",
    "SpatialJoinFactory",
    "spatial_join",
    "parallel_spatial_join",
    "grid_parallel_join",
]


@dataclass
class SpatialJoinFactory:
    """Picklable factory for :class:`SpatialJoinFunction` instances.

    ``run_parallel`` wraps each cursor partition in a
    :class:`~repro.engine.table_function.PartitionTask` holding this
    factory; keeping it a module-level class (instead of a closure) keeps
    those tasks pickling-safe for process-pool execution.  With
    ``use_pair_cursor=True`` each instance consumes its partition of the
    subtree-pair cursor (§4.1); otherwise instances join the full trees.
    """

    table_a: Table
    column_a: str
    tree_a: RTree
    table_b: Table
    column_b: str
    tree_b: RTree
    predicate: JoinPredicate
    candidate_array_size: int = DEFAULT_CANDIDATE_ARRAY_SIZE
    fetch_order: FetchOrder = FetchOrder.SORTED
    strategy: JoinStrategy = JoinStrategy.SWEEP
    use_pair_cursor: bool = False
    rng_seed: int = 0

    def __call__(self, cursor: Cursor) -> SpatialJoinFunction:
        return SpatialJoinFunction(
            self.table_a,
            self.column_a,
            self.tree_a,
            self.table_b,
            self.column_b,
            self.tree_b,
            predicate=self.predicate,
            subtree_pair_cursor=cursor if self.use_pair_cursor else None,
            candidate_array_size=self.candidate_array_size,
            fetch_order=self.fetch_order,
            strategy=self.strategy,
            rng_seed=self.rng_seed,
        )


@dataclass
class JoinResult:
    """Rowid pairs plus the execution record of the join that produced them."""

    pairs: List[Tuple[RowId, RowId]]
    run: ParallelRun
    descent_levels: Tuple[int, int] = (0, 0)
    subtree_pair_count: int = 1
    #: fixed per-statement cost (parse/plan/execute), paid once regardless
    #: of strategy or degree
    statement_overhead_seconds: float = 0.0
    #: serial partitioning work done before the slaves start (the grid
    #: driver's assignment pass; zero for the subtree decomposition, whose
    #: descent cost the slaves themselves charge)
    partition_seconds: float = 0.0
    #: grid-partitioning shape/replication/skew record (GRID runs only)
    grid: Optional[GridStats] = None

    @property
    def makespan_seconds(self) -> float:
        return (
            self.run.makespan_seconds
            + self.statement_overhead_seconds
            + self.partition_seconds
        )

    @property
    def total_work_seconds(self) -> float:
        return (
            self.run.total_work_seconds
            + self.statement_overhead_seconds
            + self.partition_seconds
        )


def spatial_join(
    table_a: Table,
    column_a: str,
    tree_a: RTree,
    table_b: Table,
    column_b: str,
    tree_b: RTree,
    predicate: JoinPredicate = JoinPredicate(),
    candidate_array_size: int = DEFAULT_CANDIDATE_ARRAY_SIZE,
    fetch_order: FetchOrder = FetchOrder.SORTED,
    executor: Optional[ParallelExecutor] = None,
    strategy: JoinStrategy = JoinStrategy.SWEEP,
    rng_seed: int = 0,
) -> JoinResult:
    """Serial (single input stream) index-based spatial join.

    ``strategy`` selects the primary-filter pairing policy (plane sweep by
    default; ``JoinStrategy.NESTED`` restores the naive double loop).
    ``rng_seed`` seeds the RANDOM fetch-order shuffle.
    """
    executor = executor or SerialExecutor()

    factory = SpatialJoinFactory(
        table_a,
        column_a,
        tree_a,
        table_b,
        column_b,
        tree_b,
        predicate=predicate,
        candidate_array_size=candidate_array_size,
        fetch_order=fetch_order,
        strategy=strategy,
        use_pair_cursor=False,
        rng_seed=rng_seed,
    )

    run = run_parallel(factory, ListCursor([()]), SerialExecutor(executor.cost_model))
    return JoinResult(
        pairs=flatten_run(run),
        run=run,
        statement_overhead_seconds=executor.cost_model.statement_overhead,
    )


def grid_parallel_join(
    table_a: Table,
    column_a: str,
    tree_a: RTree,
    table_b: Table,
    column_b: str,
    tree_b: RTree,
    executor: ParallelExecutor,
    predicate: JoinPredicate = JoinPredicate(),
    candidate_array_size: int = DEFAULT_CANDIDATE_ARRAY_SIZE,
    fetch_order: FetchOrder = FetchOrder.SORTED,
    rng_seed: int = 0,
    grid_shape: Optional[Tuple[int, int]] = None,
    spec=None,
    owned=None,
) -> JoinResult:
    """Space-oriented parallel join: grid partition + per-tile sweeps.

    The master bins both inputs' leaf entries into a uniform grid over
    their joint MBR (``grid_shape`` overrides the
    :func:`~repro.engine.cost.pick_grid_shape` heuristic), then hands one
    :class:`~repro.core.grid_partition.GridTileTask` per joinable tile to
    the executor's demand-driven queue.  Two-layer duplicate avoidance
    makes the union of tile outputs exactly the SWEEP/NESTED result set
    with no dedup pass.  The serial assignment cost is reported as
    ``partition_seconds`` (it precedes the slaves, so it adds to makespan).

    ``spec`` (a :class:`~repro.core.grid_partition.GridSpec`) overrides
    the locally derived grid entirely, and ``owned`` (a set of tile ids)
    restricts the join to those tiles — together they let a cluster shard
    run its slice of a *global* grid join: every shard bins against the
    same spec, sweeps only its owned tiles, and the canonical-tile rule
    guarantees the shards' outputs partition the full result set.
    """
    stats = GridStats()
    pmeter = WorkMeter()
    pctx = WorkerContext(0, pmeter)
    with trace.span("grid.partition", pctx, degree=executor.degree) as sp:
        # Workers resolve their tiles' candidates through the tables'
        # geometry caches, so compacted inputs are served from column
        # chunks (zero per-row decode) transparently; tag the span so a
        # trace shows which storage format fed the join.
        sp.set_tag(
            "columnar_a", table_a.columnar is not None
        )
        sp.set_tag(
            "columnar_b", table_b.columnar is not None
        )
        entries_a = list(tree_a.leaf_entries())
        entries_b = (
            entries_a if tree_b is tree_a else list(tree_b.leaf_entries())
        )
        if not entries_a or not entries_b:
            return JoinResult(
                pairs=[],
                run=executor.run([]),
                subtree_pair_count=0,
                statement_overhead_seconds=(
                    executor.cost_model.statement_overhead
                ),
                grid=stats,
            )
        if spec is None:
            box = tree_a.root.mbr.union(tree_b.root.mbr)
            nx, ny = grid_shape or pick_grid_shape(
                len(entries_a), len(entries_b), executor.degree
            )
            spec = build_grid_spec(box, nx, ny)
        tiles_a = build_tiles(entries_a, spec, 0.0, pctx)
        if entries_b is entries_a and predicate.distance == 0.0:
            tiles_b = tiles_a  # self-join: one assignment pass suffices
        else:
            tiles_b = build_tiles(entries_b, spec, predicate.distance, pctx)
        shared = GridJoinContext(
            table_a,
            column_a,
            table_b,
            column_b,
            predicate,
            tiles_a,
            tiles_b,
            candidate_array_size,
            fetch_order,
            rng_seed,
        )
        tasks = make_tile_tasks(shared, stats, owned=owned)
        stats.shape = (spec.nx, spec.ny)
        stats.entries_a = len(entries_a)
        stats.entries_b = len(entries_b)
        stats.replicas_a = sum(len(t) for t in tiles_a.values())
        stats.replicas_b = sum(len(t) for t in tiles_b.values())
        sp.set_tag("shape", f"{spec.nx}x{spec.ny}")
        sp.set_tag("tasks", stats.tasks)
        sp.set_tag("replicas", stats.replicas_a + stats.replicas_b)
        sp.set_tag("tile_imbalance", round(stats.tile_imbalance, 3))

    run = executor.run(tasks)
    return JoinResult(
        pairs=[pair for chunk in run.results if chunk for pair in chunk],
        run=run,
        subtree_pair_count=stats.tasks,
        statement_overhead_seconds=executor.cost_model.statement_overhead,
        partition_seconds=pmeter.seconds(executor.cost_model),
        grid=stats,
    )


def parallel_spatial_join(
    table_a: Table,
    column_a: str,
    tree_a: RTree,
    table_b: Table,
    column_b: str,
    tree_b: RTree,
    executor: ParallelExecutor,
    predicate: JoinPredicate = JoinPredicate(),
    candidate_array_size: int = DEFAULT_CANDIDATE_ARRAY_SIZE,
    fetch_order: FetchOrder = FetchOrder.SORTED,
    descent_levels: Optional[Tuple[int, int]] = None,
    min_pairs_per_slave: int = 2,
    strategy: JoinStrategy = JoinStrategy.SWEEP,
    rng_seed: int = 0,
) -> JoinResult:
    """Parallel spatial join over subtree-pair decomposition.

    ``descent_levels`` forces how deep each tree is descended; by default
    :func:`~repro.core.subtree.pick_descent_level` chooses levels that give
    at least ``min_pairs_per_slave`` subtree pairs per parallel slave.
    ``strategy`` is the slaves' node-pair policy (SWEEP or NESTED).
    """
    if len(tree_a) == 0 or len(tree_b) == 0:
        return JoinResult(
            pairs=[],
            run=executor.run([]),
            subtree_pair_count=0,
            statement_overhead_seconds=executor.cost_model.statement_overhead,
        )

    if descent_levels is None:
        descent_levels = pick_descent_level(
            tree_a, tree_b, executor.degree, min_pairs_per_slave
        )
    level_a, level_b = descent_levels
    pairs = subtree_pairs(tree_a, tree_b, level_a, level_b)
    pair_rows = [(a, b) for a, b in pairs]

    factory = SpatialJoinFactory(
        table_a,
        column_a,
        tree_a,
        table_b,
        column_b,
        tree_b,
        predicate=predicate,
        candidate_array_size=candidate_array_size,
        fetch_order=fetch_order,
        strategy=strategy,
        use_pair_cursor=True,
        rng_seed=rng_seed,
    )

    run = run_parallel(
        factory, ListCursor(pair_rows), executor, method=PartitionMethod.ANY
    )
    return JoinResult(
        pairs=flatten_run(run),
        run=run,
        descent_levels=descent_levels,
        subtree_pair_count=len(pair_rows),
        statement_overhead_seconds=executor.cost_model.statement_overhead,
    )
