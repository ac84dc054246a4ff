"""Pipelined and parallel table functions.

This is the Oracle 9i mechanism the paper is built on.  A *table function*
produces a set of rows usable in the FROM clause of a query; a *pipelined*
table function returns them iteratively through a start/fetch/close
interface so result sets larger than memory can stream; a *parallel* table
function additionally accepts an input cursor that the engine partitions
across N slave instances of the function.

* :class:`TableFunction` — the start/fetch/close contract (the "C/Java
  ODCITable interface" of the paper's §2), with state checking.
* :func:`pipeline` — drive one instance to completion as a row iterator.
* :func:`run_parallel` — partition an input cursor, instantiate one
  function per partition, and drain all instances on a
  :class:`~repro.engine.parallel.ParallelExecutor`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro.errors import TableFunctionError
from repro.engine.cursor import Cursor, ListCursor, PartitionMethod, partition_cursor
from repro.engine.parallel import ParallelExecutor, ParallelRun, WorkerContext
from repro.engine.types import Row

__all__ = [
    "TableFunction",
    "DEFAULT_FETCH_SIZE",
    "pipeline",
    "collect",
    "PartitionTask",
    "run_parallel",
]

DEFAULT_FETCH_SIZE = 1024


class TableFunction:
    """Base class for pipelined table functions.

    Subclasses implement ``_start``, ``_fetch`` and ``_close``; the public
    methods enforce the protocol state machine (start exactly once, no
    fetch after close, fetch after exhaustion keeps returning empty).
    ``_fetch`` returns at most ``max_rows`` rows; an empty list signals
    end of results.
    """

    def __init__(self) -> None:
        self._started = False
        self._closed = False
        self._exhausted = False

    # -- subclass hooks --------------------------------------------------
    def _start(self, ctx: WorkerContext) -> None:
        """Acquire state: load metadata, seed traversal stacks, etc."""

    def _fetch(self, ctx: WorkerContext, max_rows: int) -> List[Row]:
        raise NotImplementedError

    def _close(self, ctx: WorkerContext) -> None:
        """Release memory/resources."""

    # -- protocol-enforcing public interface ------------------------------
    def start(self, ctx: WorkerContext) -> None:
        if self._started:
            raise TableFunctionError("start called twice")
        if self._closed:
            raise TableFunctionError("start after close")
        self._started = True
        self._start(ctx)

    def fetch(self, ctx: WorkerContext, max_rows: int = DEFAULT_FETCH_SIZE) -> List[Row]:
        if not self._started:
            raise TableFunctionError("fetch before start")
        if self._closed:
            raise TableFunctionError("fetch after close")
        if max_rows < 1:
            raise TableFunctionError(f"fetch size must be >= 1, got {max_rows}")
        if self._exhausted:
            return []
        rows = self._fetch(ctx, max_rows)
        if len(rows) > max_rows:
            raise TableFunctionError(
                f"_fetch returned {len(rows)} rows, more than max_rows={max_rows}"
            )
        if not rows:
            self._exhausted = True
        return rows

    def close(self, ctx: WorkerContext) -> None:
        if not self._started:
            raise TableFunctionError("close before start")
        if self._closed:
            raise TableFunctionError("close called twice")
        self._closed = True
        self._close(ctx)

    @property
    def exhausted(self) -> bool:
        return self._exhausted


def pipeline(
    fn: TableFunction,
    ctx: Optional[WorkerContext] = None,
    fetch_size: int = DEFAULT_FETCH_SIZE,
) -> Iterator[Row]:
    """Drive a table function to completion, yielding rows as they arrive.

    This is the engine-side loop that makes the function *pipelined*: rows
    are surfaced batch by batch, and the function's ``close`` runs even if
    the consumer abandons the iterator early.
    """
    if ctx is None:
        ctx = WorkerContext(0)
    fn.start(ctx)
    try:
        while True:
            batch = fn.fetch(ctx, fetch_size)
            if not batch:
                return
            yield from batch
    finally:
        fn.close(ctx)


def collect(
    fn: TableFunction,
    ctx: Optional[WorkerContext] = None,
    fetch_size: int = DEFAULT_FETCH_SIZE,
) -> List[Row]:
    """Materialise a table function's full result."""
    return list(pipeline(fn, ctx, fetch_size))


class PartitionTask:
    """One slave's unit of work: drain a function instance over a partition.

    A module-level callable (not a closure) so tasks are *pickling-safe*:
    provided ``factory`` and the partition's rows pickle, the whole task
    does.  :class:`~repro.engine.parallel.ProcessExecutor` forks, so its
    slaves inherit tasks without pickling them.
    """

    __slots__ = ("factory", "partition", "fetch_size")

    def __init__(
        self,
        factory: Callable[[Cursor], TableFunction],
        partition: ListCursor,
        fetch_size: int = DEFAULT_FETCH_SIZE,
    ):
        self.factory = factory
        self.partition = partition
        self.fetch_size = fetch_size

    def __call__(self, ctx: WorkerContext) -> List[Row]:
        ctx.charge("partition_per_row", len(self.partition))
        instance = self.factory(self.partition)
        return list(pipeline(instance, ctx, self.fetch_size))


def _empty_task(ctx: WorkerContext) -> List[Row]:
    """Degenerate task for an empty input cursor (also picklable)."""
    return []


def run_parallel(
    factory: Callable[[Cursor], TableFunction],
    input_cursor: Cursor,
    executor: ParallelExecutor,
    method: PartitionMethod = PartitionMethod.ANY,
    key: Optional[Callable[[Row], Any]] = None,
    fetch_size: int = DEFAULT_FETCH_SIZE,
) -> ParallelRun:
    """Execute a parallel table function.

    The input cursor is partitioned ``degree`` ways using ``method``; one
    function instance is created per non-empty partition and drained on the
    executor.  The returned run's ``results`` holds each instance's rows;
    use :func:`flatten_run` for the combined (ordered-by-instance) rows.
    """
    degree = executor.degree
    partitions = partition_cursor(input_cursor, degree, method, key)

    tasks: List[Callable[[WorkerContext], List[Row]]] = [
        PartitionTask(factory, part, fetch_size)
        for part in partitions
        if len(part) > 0
    ]
    if not tasks:
        tasks = [_empty_task]
    return executor.run(tasks)


def flatten_run(run: ParallelRun) -> List[Row]:
    """Concatenate the per-instance row lists of a parallel run."""
    rows: List[Row] = []
    for chunk in run.results:
        rows.extend(chunk)
    return rows
