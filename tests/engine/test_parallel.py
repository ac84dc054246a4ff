"""Unit tests for executors and simulated-time accounting."""

import pytest

from repro.errors import EngineError
from repro.engine.cost import CostModel, WorkMeter
from repro.engine.parallel import (
    ParallelRun,
    SerialExecutor,
    SimulatedExecutor,
    WorkerContext,
    make_executor,
)


def charge_task(kind, amount):
    def task(ctx):
        ctx.charge(kind, amount)
        return amount

    return task


class TestWorkMeter:
    def test_add_and_seconds(self):
        m = WorkMeter()
        m.add("mbr_test", 1000)
        model = CostModel()
        assert m.seconds(model) == pytest.approx(1000 * model.mbr_test)

    def test_merge(self):
        a, b = WorkMeter(), WorkMeter()
        a.add("mbr_test", 5)
        b.add("mbr_test", 3)
        b.add("result_row", 1)
        a.merge(b)
        assert a.counts["mbr_test"] == 8
        assert a.counts["result_row"] == 1

    def test_unknown_kind_rejected_at_pricing(self):
        m = WorkMeter()
        m.add("not_a_kind")
        with pytest.raises(EngineError):
            m.seconds()

    def test_breakdown_sorted_by_cost(self):
        m = WorkMeter()
        m.add("mbr_test", 1)
        m.add("physical_read", 1)
        top = next(iter(m.breakdown()))
        assert top[0] == "physical_read"

    def test_scaled_model_preserves_ratios(self):
        model = CostModel()
        scaled = model.scaled(10.0)
        assert scaled.mbr_test / scaled.physical_read == pytest.approx(
            model.mbr_test / model.physical_read
        )


class TestSerialExecutor:
    def test_single_meter_no_startup(self):
        ex = SerialExecutor()
        run = ex.run([charge_task("mbr_test", 100), charge_task("mbr_test", 50)])
        assert run.results == [100, 50]
        assert len(run.worker_meters) == 1
        assert run.makespan_seconds == pytest.approx(run.total_work_seconds)


class TestSimulatedExecutor:
    def test_results_in_submission_order(self):
        ex = SimulatedExecutor(3)
        run = ex.run([charge_task("mbr_test", n) for n in (5, 1, 9, 2)])
        assert run.results == [5, 1, 9, 2]

    def test_greedy_balancing(self):
        # 4 equal tasks on 2 workers -> 2 each.
        ex = SimulatedExecutor(2)
        run = ex.run([charge_task("mbr_test", 100)] * 4)
        times = run.worker_seconds
        assert times[0] == pytest.approx(times[1])
        assert run.imbalance == pytest.approx(1.0)

    def test_makespan_less_than_total_for_parallel_work(self):
        ex = SimulatedExecutor(4, CostModel(worker_startup=0.0))
        run = ex.run([charge_task("physical_read", 1000)] * 8)
        assert run.makespan_seconds == pytest.approx(run.total_work_seconds / 4)

    def test_startup_cost_charged_once_per_worker(self):
        model = CostModel(worker_startup=1.0)
        ex = SimulatedExecutor(2, model)
        run = ex.run([charge_task("mbr_test", 1)])
        assert run.makespan_seconds >= 2.0  # 2 workers' startup

    def test_skewed_tasks_dominate_makespan(self):
        ex = SimulatedExecutor(2, CostModel(worker_startup=0.0))
        run = ex.run(
            [charge_task("physical_read", 1000)] + [charge_task("physical_read", 1)] * 5
        )
        assert run.makespan_seconds == pytest.approx(
            1000 * CostModel().physical_read, rel=0.01
        )

    def test_degree_validation(self):
        with pytest.raises(EngineError):
            SimulatedExecutor(0)


class TestMakeExecutor:
    def test_degree_one_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_default_parallel_is_simulated(self):
        assert isinstance(make_executor(4), SimulatedExecutor)

    def test_engine_names_three_executors(self):
        from repro.engine import parallel

        assert [n for n in parallel.__all__ if n.endswith("Executor")] == [
            "ParallelExecutor",
            "SerialExecutor",
            "SimulatedExecutor",
            "ProcessExecutor",
        ]
