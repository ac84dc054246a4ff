"""Parallel execution of table-function work.

Oracle's parallel table functions run N *slave* instances, each consuming a
partition of the input cursor.  This module provides that execution model
twice, behind one interface:

* :class:`SimulatedExecutor` — the benchmark engine.  Tasks execute
  serially but charge their work units to per-worker
  :class:`~repro.engine.cost.WorkMeter` instances; the reported *makespan*
  is the maximum worker time plus startup overhead, exactly the quantity a
  multi-CPU host would show.  Scheduling is greedy: each task goes to the
  currently least-loaded worker, which models Oracle's demand-driven
  distribution of cursor partitions to slaves.
* :class:`ProcessExecutor` — real OS processes (fork-based), the closest
  analogue of Oracle's slave *processes*: partitioned table-function work
  actually uses multiple cores.  Task results and worker meters travel
  back over pipes, so results (not the tasks themselves) must pickle.

There is no thread executor: the engine's buffer pool and caches are
unsynchronised, and CPU-bound tasks on threads measured slower than serial
(EXPERIMENTS.md, row X-wall).

All executors return a :class:`ParallelRun` whose ``results`` are in task
submission order regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.errors import EngineError
from repro.engine.cost import CostModel, DEFAULT_COST_MODEL, WorkMeter
from repro.obs import trace

__all__ = [
    "WorkerContext",
    "ParallelRun",
    "ParallelExecutor",
    "SerialExecutor",
    "SimulatedExecutor",
    "ProcessExecutor",
    "MAX_DEGREE",
]

T = TypeVar("T")

#: The largest degree of parallelism an executor is built for: 4x the
#: largest any bench or test runs (512; the paper's largest is 16).  A
#: simulated executor scans every worker's meter per task, so an unbounded
#: degree from a request is unbounded work.
MAX_DEGREE = 2048

Task = Callable[["WorkerContext"], T]


class WorkerContext:
    """Execution context handed to each task: identifies the worker and
    carries the meter that task's work units are charged to."""

    __slots__ = ("worker_id", "meter", "deadline", "parent_span", "trace_ctx")

    def __init__(self, worker_id: int, meter: Optional[WorkMeter] = None):
        self.worker_id = worker_id
        self.meter = meter if meter is not None else WorkMeter()
        #: absolute time.monotonic() bound the originating session runs
        #: under (None = unbounded); the cluster router's retry layer
        #: reads it so backoff/retries never outlive the session
        self.deadline: Optional[float] = None
        #: the long-lived ``server.session`` span this work belongs to
        #: (None outside a traced server session); spans opened on pool
        #: threads pass it as ``parent=`` since their span stack is empty
        self.parent_span: Optional[Any] = None
        #: wire trace context the originating client sent with ``start``
        self.trace_ctx: Optional[Dict[str, Any]] = None

    def charge(self, kind: str, n: float = 1.0) -> None:
        """Record ``n`` work units of ``kind`` against this worker."""
        self.meter.add(kind, n)


@dataclass
class ParallelRun(Generic[T]):
    """Outcome of running a batch of tasks on an executor."""

    results: List[T]
    worker_meters: List[WorkMeter]
    degree: int
    cost_model: CostModel = DEFAULT_COST_MODEL
    wall_seconds: float = 0.0  # real elapsed time (ProcessExecutor only)

    @property
    def worker_seconds(self) -> List[float]:
        return [m.seconds(self.cost_model) for m in self.worker_meters]

    @property
    def makespan_seconds(self) -> float:
        """Simulated elapsed time: slowest worker + parallel startup cost."""
        startup = self.cost_model.worker_startup * (self.degree if self.degree > 1 else 0)
        busiest = max(self.worker_seconds, default=0.0)
        return busiest + startup

    @property
    def total_work_seconds(self) -> float:
        """Sum of all workers' simulated time (the 1-processor equivalent)."""
        return sum(self.worker_seconds)

    @property
    def imbalance(self) -> float:
        """max/mean worker time; 1.0 is a perfectly balanced run."""
        times = [t for t in self.worker_seconds]
        if not times or sum(times) == 0.0:
            return 1.0
        mean = sum(times) / len(times)
        return max(times) / mean if mean else 1.0

    def combined_meter(self) -> WorkMeter:
        meter = WorkMeter()
        for m in self.worker_meters:
            meter.merge(m)
        return meter


class ParallelExecutor:
    """Interface: run tasks with a given degree of parallelism."""

    degree: int
    cost_model: CostModel

    def run(self, tasks: Sequence[Task]) -> ParallelRun:
        raise NotImplementedError


def _run_task(task, ctx, index, executor):
    """Run one task, wrapped in an ``executor.task`` span when tracing."""
    if not trace.ENABLED:
        return task(ctx)
    with trace.span(
        "executor.task",
        ctx,
        worker=ctx.worker_id,
        task=index,
        executor=executor,
    ):
        return task(ctx)


class SerialExecutor(ParallelExecutor):
    """Degree-1 executor: every task runs on one worker, no startup cost."""

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL):
        self.degree = 1
        self.cost_model = cost_model

    def run(self, tasks: Sequence[Task]) -> ParallelRun:
        meter = WorkMeter()
        results = []
        for index, task in enumerate(tasks):
            ctx = WorkerContext(0, meter)
            results.append(_run_task(task, ctx, index, "serial"))
        return ParallelRun(
            results=results,
            worker_meters=[meter],
            degree=1,
            cost_model=self.cost_model,
        )


class SimulatedExecutor(ParallelExecutor):
    """Deterministic multi-worker executor with simulated time.

    Tasks run serially in submission order; each is assigned to the worker
    with the least accumulated simulated time *before* the task starts.
    This greedy longest-processing-time-online policy mirrors demand-driven
    slave scheduling and makes makespan a pure function of the task costs.
    """

    def __init__(self, degree: int, cost_model: CostModel = DEFAULT_COST_MODEL):
        if degree < 1:
            raise EngineError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.cost_model = cost_model

    def run(self, tasks: Sequence[Task]) -> ParallelRun:
        meters = [WorkMeter() for _ in range(self.degree)]
        results: List[Any] = []
        for index, task in enumerate(tasks):
            times = [m.seconds(self.cost_model) for m in meters]
            worker_id = times.index(min(times))
            ctx = WorkerContext(worker_id, meters[worker_id])
            results.append(_run_task(task, ctx, index, "simulated"))
        return ParallelRun(
            results=results,
            worker_meters=meters,
            degree=self.degree,
            cost_model=self.cost_model,
        )


def _raise_collected(errors: Sequence[BaseException]) -> None:
    """Re-raise the first collected worker error, carrying the others.

    Earlier versions silently dropped ``errors[1:]``.  The first error is
    raised; every other worker failure is attached to it as a ``__notes__``
    entry (rendered by tracebacks on Python >= 3.11, a plain attribute
    before that) and the full list is exposed as ``sibling_errors`` so
    callers can inspect all failures programmatically.
    """
    if not errors:
        return
    primary = errors[0]
    rest = list(errors[1:])
    if rest:
        notes = list(getattr(primary, "__notes__", []) or [])
        for extra in rest:
            notes.append(
                "also raised in a parallel worker: "
                f"{type(extra).__name__}: {extra}"
            )
        primary.__notes__ = notes
    primary.sibling_errors = list(errors)
    raise primary


def _portable_error(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a summary EngineError."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return EngineError(f"{type(exc).__name__}: {exc}")


class _FirstTask:
    """A worker's view of the shared task queue: its own first task, then
    whatever the queue hands out."""

    def __init__(self, first: int, queue) -> None:
        self._first: Optional[int] = first
        self._queue = queue

    def get(self) -> Optional[int]:
        if self._first is None:
            return self._queue.get()
        first, self._first = self._first, None
        return first


def _process_worker(worker_id, tasks, task_queue, conn) -> None:
    """Slave-process loop: pull task indices until the ``None`` sentinel.

    Runs in the child.  A ``claim`` message precedes each task so the
    parent knows what was in flight if this process dies; results and
    (last) the accumulated meter counts follow.  Anything that fails to
    pickle is degraded to an :class:`~repro.errors.EngineError` so the
    parent always hears back.
    """
    meter = WorkMeter()
    traced = trace.ENABLED
    if traced:
        # The fork inherited the parent's tracer (including its already-
        # finished spans); start a fresh one so this child only ships spans
        # it produced.  They are re-parented in the parent via adopt().
        trace.enable(sample_every=1)
    while True:
        index = task_queue.get()
        if index is None:
            break
        conn.send(("claim", index, worker_id))
        ctx = WorkerContext(worker_id, meter)
        try:
            payload = ("ok", index, _run_task(tasks[index], ctx, index, "process"))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            payload = ("err", index, _portable_error(exc))
        try:
            conn.send(payload)
        except Exception as exc:
            conn.send(
                (
                    "err",
                    index,
                    EngineError(
                        f"worker {worker_id}: result of task {index} failed "
                        f"to pickle: {exc!r}"
                    ),
                )
            )
    if traced:
        tracer = trace.get_tracer()
        if tracer is not None:
            # Ship this slave's spans over the meter pipe, ahead of the
            # final meter message, so the parent can stitch them under the
            # span that launched the run.
            conn.send(("spans", worker_id, tracer.drain_serialized()))
    conn.send(("meter", worker_id, meter.counts))
    conn.close()


class ProcessExecutor(ParallelExecutor):
    """Real-process executor: Oracle's slave *processes*, literally.

    Forked children each run one task of their own, then pull task
    indices from a shared queue (demand-driven), and stream results back
    over per-worker pipes.  Because children are forks, the *tasks* never
    need to pickle — only their results and meter counts do.  On
    platforms without the ``fork`` start method ``run`` raises
    :class:`~repro.errors.EngineError`.

    A worker that *dies* (killed, segfaulted, OOMed) mid-task does not
    poison the batch: its in-flight task is requeued and retried on a
    surviving worker, up to ``max_task_retries`` attempts per task
    (Oracle restarts failed slave work the same way).  Retries are
    charged as ``task_retry`` units on the dead worker's meter.  Tasks
    must therefore be idempotent or side-effect-free, which every
    table-function partition in this library is.
    """

    def __init__(
        self,
        degree: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_task_retries: int = 1,
    ):
        if degree < 1:
            raise EngineError(f"degree must be >= 1, got {degree}")
        if max_task_retries < 0:
            raise EngineError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        self.degree = degree
        self.cost_model = cost_model
        self.max_task_retries = max_task_retries

    def run(self, tasks: Sequence[Task]) -> ParallelRun:
        import multiprocessing
        import time
        from multiprocessing.connection import wait as conn_wait

        if not tasks:
            return ParallelRun(
                results=[],
                worker_meters=[WorkMeter() for _ in range(self.degree)],
                degree=self.degree,
                cost_model=self.cost_model,
            )
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:
            raise EngineError(
                "real parallel execution needs the 'fork' start method, "
                "which this platform does not offer"
            ) from None

        nworkers = min(self.degree, len(tasks))
        task_queue = mp.Queue()
        # Task ``w`` is worker ``w``'s first; the rest go to whichever
        # worker asks first.  So every worker runs at least one task, even
        # when one forks late and the others could have drained the queue.
        for index in range(nworkers, len(tasks)):
            task_queue.put(index)
        # Exit sentinels are sent only once every task has a result: a task
        # requeued after a worker death must reach a survivor before the
        # survivors are told to shut down.

        receivers = {}
        senders = []
        procs = []
        for worker_id in range(nworkers):
            recv_conn, send_conn = mp.Pipe(duplex=False)
            receivers[worker_id] = recv_conn
            senders.append(send_conn)
            procs.append(
                mp.Process(
                    target=_process_worker,
                    args=(
                        worker_id,
                        list(tasks),
                        _FirstTask(worker_id, task_queue),
                        send_conn,
                    ),
                    daemon=True,
                )
            )

        started = time.perf_counter()
        for proc in procs:
            proc.start()
        for send_conn in senders:
            send_conn.close()  # parent's copies; children hold the real ends

        meters = [WorkMeter() for _ in range(self.degree)]
        results: List[Any] = [None] * len(tasks)
        parent_span = trace.current_span()
        received: set = set()
        errors_by_index: dict = {}
        open_workers = set(receivers)
        in_flight: dict = {}  # worker_id -> claimed task index
        retries: dict = {}  # task index -> retry count so far
        sentinels_sent = False
        suspect_losses = 0  # dead workers that may hold an unclaimed task

        def maybe_send_sentinels() -> None:
            nonlocal sentinels_sent
            if not sentinels_sent and len(received) == len(tasks):
                for _ in range(nworkers):
                    task_queue.put(None)
                sentinels_sent = True

        def requeue_or_fail(index: int, worker_id: Optional[int]) -> None:
            """Retry ``index`` on a survivor, or mark it failed."""
            attempts = retries.get(index, 0)
            if attempts < self.max_task_retries and open_workers:
                retries[index] = attempts + 1
                meters[worker_id if worker_id is not None else 0].add(
                    "task_retry", 1
                )
                task_queue.put(index)
                return
            errors_by_index.setdefault(
                index,
                EngineError(
                    f"parallel worker died before completing task {index}"
                    + (f" (after {attempts + 1} attempts)" if attempts else "")
                ),
            )
            received.add(index)

        def reap_dead_worker(worker_id: int) -> None:
            """A worker's pipe hit EOF without a final meter: it died.

            Its claimed task (if unresolved) is requeued for a survivor,
            bounded by ``max_task_retries``; with no survivors or no
            retries left, the task is marked failed.  A dead worker with
            *no* claim on record may have dequeued a task it never got to
            announce — that task is gone from the queue with no trace, so
            remember the possibility for the stall detector below.
            """
            nonlocal suspect_losses
            open_workers.discard(worker_id)
            index = in_flight.pop(worker_id, None)
            if index is None:
                suspect_losses += 1
                return
            if index in received:
                return
            requeue_or_fail(index, worker_id)

        try:
            while open_workers:
                maybe_send_sentinels()
                ready = conn_wait(
                    [receivers[w] for w in open_workers], timeout=1.0
                )
                if not ready:
                    dead = [
                        w for w in open_workers if not procs[w].is_alive()
                    ]
                    for w in dead:
                        if receivers[w].poll(0):
                            continue  # unread messages remain; drain first
                        reap_dead_worker(w)
                    if suspect_losses and open_workers:
                        # A dead worker may have dequeued a task it never
                        # claimed: nothing would ever resolve it and the
                        # survivors would block on the queue forever.  After
                        # a silent second, requeue every unresolved task no
                        # live worker has claimed.  Tasks are idempotent and
                        # first-completion-wins, so a requeue racing a copy
                        # still sitting in the queue is benign.
                        claimed = set(in_flight.values())
                        for index in range(len(tasks)):
                            if index not in received and index not in claimed:
                                requeue_or_fail(index, None)
                        suspect_losses = 0
                    continue
                conn_to_worker = {receivers[w]: w for w in open_workers}
                for conn in ready:
                    worker_id = conn_to_worker[conn]
                    try:
                        kind, key, value = conn.recv()
                    except EOFError:
                        reap_dead_worker(worker_id)
                        continue
                    if kind == "claim":
                        in_flight[worker_id] = key
                    elif kind == "ok":
                        if key not in received:  # first completion wins
                            results[key] = value
                        received.add(key)
                        in_flight.pop(worker_id, None)
                    elif kind == "err":
                        errors_by_index.setdefault(key, value)
                        received.add(key)
                        in_flight.pop(worker_id, None)
                    elif kind == "spans":
                        if trace.ENABLED:
                            tracer = trace.get_tracer()
                            if tracer is not None:
                                tracer.adopt(value, parent=parent_span)
                    else:  # "meter": the worker's final message
                        for kind, n in value.items():
                            meters[key].add(kind, n)
                        open_workers.discard(worker_id)
            # Every worker died with tasks still unresolved (e.g. the queue
            # holds requeued work nobody survives to pull).
            for index in sorted(set(range(len(tasks))) - received):
                errors_by_index.setdefault(
                    index,
                    EngineError(
                        f"parallel worker died before completing task {index}"
                    ),
                )
                received.add(index)
        finally:
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
            task_queue.close()
            task_queue.cancel_join_thread()
        elapsed = time.perf_counter() - started

        _raise_collected(
            [errors_by_index[i] for i in sorted(errors_by_index)]
        )
        return ParallelRun(
            results=results,
            worker_meters=meters,
            degree=self.degree,
            cost_model=self.cost_model,
            wall_seconds=elapsed,
        )


def make_executor(
    degree: int,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    use_processes: bool = False,
) -> ParallelExecutor:
    """Executor factory used throughout the library.

    Degree 1 always maps to :class:`SerialExecutor`; higher degrees map to
    the simulated executor unless real processes are requested.  A degree
    above :data:`MAX_DEGREE` is an :class:`~repro.errors.EngineError`.
    """
    if degree > MAX_DEGREE:
        raise EngineError(f"parallel degree must be <= {MAX_DEGREE}, got {degree}")
    if degree == 1:
        return SerialExecutor(cost_model)
    if use_processes:
        return ProcessExecutor(degree, cost_model)
    return SimulatedExecutor(degree, cost_model)
