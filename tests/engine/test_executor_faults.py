"""Executor fault matrix: dead slave processes, retries, and multi-error
aggregation under concurrent failure mixes."""

import os
import time

import pytest

from repro.errors import EngineError
from repro.engine import parallel as parallel_mod
from repro.engine.parallel import ProcessExecutor


def charge_task(kind, amount):
    def task(ctx):
        ctx.charge(kind, amount)
        return amount

    return task


class DieOnce:
    """Kills the hosting worker process the first time it runs; succeeds on
    the retry.  State lives in the filesystem because the task is re-pickled
    into a different process each attempt."""

    def __init__(self, marker_path):
        self.marker_path = marker_path

    def __call__(self, ctx):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as fh:
                fh.write("died")
            os._exit(17)  # hard kill: no exception, no cleanup
        ctx.charge("mbr_test", 1)
        return "survived"


class AlwaysDie:
    def __call__(self, ctx):
        os._exit(17)


class TestDeadWorkerRequeue:
    def test_task_requeued_after_worker_death(self, tmp_path):
        marker = str(tmp_path / "died.marker")
        run = ProcessExecutor(2).run(
            [charge_task("mbr_test", 1), DieOnce(marker), charge_task("mbr_test", 2)]
        )
        assert run.results == [1, "survived", 2]
        retries = sum(m.counts.get("task_retry", 0) for m in run.worker_meters)
        assert retries == 1

    def test_retries_exhausted_raises(self):
        with pytest.raises(EngineError, match="died before completing") as info:
            ProcessExecutor(2, max_task_retries=1).run(
                [charge_task("mbr_test", 1), AlwaysDie()]
            )
        assert "after 2 attempts" in str(info.value)

    def test_zero_retries_fails_fast(self):
        with pytest.raises(EngineError, match="died before completing"):
            ProcessExecutor(2, max_task_retries=0).run([AlwaysDie()])

    def test_retry_budget_validated(self):
        with pytest.raises(EngineError):
            ProcessExecutor(2, max_task_retries=-1)

    def test_sibling_tasks_still_complete(self, tmp_path):
        # A death in one worker must not lose work queued to the others.
        marker = str(tmp_path / "died.marker")
        tasks = [charge_task("mbr_test", n) for n in range(8)]
        tasks.insert(3, DieOnce(marker))
        run = ProcessExecutor(3).run(tasks)
        assert run.results[3] == "survived"
        assert [r for i, r in enumerate(run.results) if i != 3] == list(range(8))


_REAL_WORKER = parallel_mod._process_worker


def _steal_and_die_worker(worker_id, tasks, task_queue, conn):
    """Worker 0 dequeues a task and dies *before* sending its claim — the
    window where the parent has no in-flight record of what was lost."""
    if worker_id == 0:
        task_queue.get()
        os._exit(17)
    _REAL_WORKER(worker_id, tasks, task_queue, conn)


def _slow_value_task(n):
    def task(ctx):
        time.sleep(0.05)  # keep the queue busy until worker 0 steals
        ctx.charge("mbr_test", 1)
        return n

    return task


class TestUnclaimedTaskLoss:
    def test_task_lost_before_claim_is_recovered(self, monkeypatch):
        # Pre-fix, the stolen task was never requeued: the survivor blocked
        # on the empty queue and the run hung forever.
        monkeypatch.setattr(parallel_mod, "_process_worker", _steal_and_die_worker)
        run = ProcessExecutor(2).run([_slow_value_task(n) for n in range(4)])
        assert run.results == list(range(4))
        retries = sum(m.counts.get("task_retry", 0) for m in run.worker_meters)
        assert retries >= 1


def boom(ctx):
    raise ValueError("boom")


def type_boom(ctx):
    raise TypeError("type boom")


def ok(ctx):
    return "ok"


class TestSiblingErrorMatrix:
    """Every mix of failures reports *all* collected errors."""

    @pytest.fixture(params=["processes"])  # the one param keeps the test ids
    def make(self):
        return ProcessExecutor

    def test_mixed_success_and_failure(self, make):
        with pytest.raises(ValueError) as info:
            make(2).run([ok, boom, ok])
        assert len(info.value.sibling_errors) == 1

    def test_all_tasks_fail(self, make):
        # Processes drain the whole queue: every failure is collected.
        with pytest.raises(ValueError) as info:
            make(3).run([boom, boom, boom])
        assert len(info.value.sibling_errors) == 3
        assert all(isinstance(e, ValueError) for e in info.value.sibling_errors)

    def test_process_executor_reports_all_failures(self):
        # Processes drain the whole queue: both failures must surface.
        with pytest.raises((ValueError, TypeError)) as info:
            ProcessExecutor(2).run([boom, type_boom])
        assert {type(e) for e in info.value.sibling_errors} == {ValueError, TypeError}

    def test_error_plus_dead_worker_reports_both(self, tmp_path):
        # One task raises cleanly, another kills its worker beyond the
        # retry budget: the EngineError for the death must ride along as a
        # sibling of the ValueError (or vice versa).
        with pytest.raises((ValueError, EngineError)) as info:
            ProcessExecutor(2, max_task_retries=0).run([boom, AlwaysDie()])
        types = {type(e) for e in info.value.sibling_errors}
        assert ValueError in types and EngineError in types
