"""ProcessExecutor correctness + multi-error reporting: results in
submission order, metered work, error propagation, and a typed error on a
host without the ``fork`` start method."""

import pickle

import pytest

from repro.errors import EngineError
from repro.engine.cursor import ListCursor
from repro.engine.parallel import (
    ProcessExecutor,
    make_executor,
)
from repro.engine.table_function import (
    PartitionTask,
    flatten_run,
    run_parallel,
)
from tests.engine.test_table_function import EchoCursorFunction


def charge_task(kind, amount):
    def task(ctx):
        ctx.charge(kind, amount)
        return amount

    return task


def boom_task(ctx):
    raise ValueError("task failed")


def type_error_task(ctx):
    raise TypeError("other failure")


@pytest.fixture(params=["processes"])  # the one param keeps the test ids
def real_executor():
    """Factory for the real-concurrency executor."""
    return ProcessExecutor


class TestRealExecutorContract:
    def test_results_in_submission_order(self, real_executor):
        run = real_executor(4).run([charge_task("mbr_test", n) for n in range(10)])
        assert run.results == list(range(10))
        assert run.wall_seconds > 0

    def test_meters_account_all_work(self, real_executor):
        run = real_executor(3).run(
            [charge_task("mbr_test", n) for n in (5, 7, 11)]
        )
        total = sum(m.counts.get("mbr_test", 0) for m in run.worker_meters)
        assert total == 23
        assert len(run.worker_meters) == 3

    def test_exceptions_propagate(self, real_executor):
        with pytest.raises(ValueError, match="task failed"):
            real_executor(2).run([charge_task("mbr_test", 1), boom_task])

    def test_more_workers_than_tasks(self, real_executor):
        run = real_executor(8).run([charge_task("mbr_test", 1)])
        assert run.results == [1]

    def test_no_tasks(self, real_executor):
        run = real_executor(3).run([])
        assert run.results == []
        assert len(run.worker_meters) == 3

    def test_run_parallel_equals_serial(self, real_executor):
        rows = [(i,) for i in range(40)]
        run = run_parallel(
            EchoCursorFunction, ListCursor(rows), real_executor(4)
        )
        assert sorted(flatten_run(run)) == rows

    def test_degree_validation(self, real_executor):
        with pytest.raises(EngineError):
            real_executor(0)


class TestAllErrorsReported:
    """The satellite fix: no collected worker exception is dropped."""

    def test_process_executor_reports_all_errors(self):
        with pytest.raises((ValueError, TypeError)) as info:
            ProcessExecutor(2).run([boom_task, type_error_task])
        exc = info.value
        assert len(exc.sibling_errors) == 2
        types = {type(e) for e in exc.sibling_errors}
        assert types == {ValueError, TypeError}
        assert getattr(exc, "__notes__", [])

    def test_single_error_has_no_notes(self):
        with pytest.raises(ValueError) as info:
            ProcessExecutor(2).run([boom_task])
        assert not getattr(info.value, "__notes__", [])
        assert len(info.value.sibling_errors) == 1


class TestPicklingSafety:
    """run_parallel's tasks are module-level callables, not closures."""

    def test_partition_task_pickles(self):
        task = PartitionTask(EchoCursorFunction, ListCursor([(1,), (2,)]), 64)
        clone = pickle.loads(pickle.dumps(task))
        from repro.engine.parallel import WorkerContext

        assert clone(WorkerContext(0)) == [(1,), (2,)]

    def test_unpicklable_result_degrades_to_engine_error(self):
        def make_unpicklable(ctx):
            return lambda: None  # lambdas never pickle

        with pytest.raises(EngineError, match="failed to pickle"):
            ProcessExecutor(2).run([make_unpicklable])


class TestMakeExecutorProcesses:
    def test_processes_requested(self):
        assert isinstance(
            make_executor(4, use_processes=True), ProcessExecutor
        )

    def test_degree_one_still_serial(self):
        from repro.engine.parallel import SerialExecutor

        assert isinstance(make_executor(1, use_processes=True), SerialExecutor)


class TestForkRequired:
    def test_host_without_fork_gets_typed_error(self, monkeypatch):
        """A host whose multiprocessing has no ``fork`` (Windows) gets
        EngineError from ``run`` — not a silent fallback."""
        import multiprocessing
        from multiprocessing import context

        monkeypatch.delitem(context._concrete_contexts, "fork")
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        ran = []
        with pytest.raises(EngineError, match="'fork' start method"):
            ProcessExecutor(2).run([ran.append, ran.append])
        assert not ran
