"""Query-engine substrate: tables, cursors, table functions, parallelism,
the extensible-indexing framework, cost model, and the SQL front-end."""

from repro.engine.cost import CostModel, DEFAULT_COST_MODEL, WorkMeter
from repro.engine.cursor import (
    Cursor,
    GeneratorCursor,
    ListCursor,
    PartitionMethod,
    partition_cursor,
)
from repro.engine.database import Database
from repro.engine.stats import (
    TableStats,
    analyze_table,
    estimate_join_pairs,
    estimate_window_rows,
)
from repro.engine.indextype import (
    OPERATORS,
    DomainIndex,
    IndexTypeRegistry,
    SpatialOperator,
)
from repro.engine.parallel import (
    ParallelExecutor,
    ParallelRun,
    SerialExecutor,
    SimulatedExecutor,
    WorkerContext,
    make_executor,
)
from repro.engine.table import Table
from repro.engine.table_function import (
    DEFAULT_FETCH_SIZE,
    TableFunction,
    collect,
    flatten_run,
    pipeline,
    run_parallel,
)
from repro.engine.types import Row, RowSchema

__all__ = [
    "Database",
    "TableStats",
    "analyze_table",
    "estimate_window_rows",
    "estimate_join_pairs",
    "Table",
    "Row",
    "RowSchema",
    "Cursor",
    "ListCursor",
    "GeneratorCursor",
    "PartitionMethod",
    "partition_cursor",
    "TableFunction",
    "pipeline",
    "collect",
    "run_parallel",
    "flatten_run",
    "DEFAULT_FETCH_SIZE",
    "ParallelExecutor",
    "SerialExecutor",
    "SimulatedExecutor",
    "ParallelRun",
    "WorkerContext",
    "make_executor",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "WorkMeter",
    "DomainIndex",
    "IndexTypeRegistry",
    "SpatialOperator",
    "OPERATORS",
]
