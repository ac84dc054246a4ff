"""Unit tests for the ``python -m repro.bench`` CLI (fast paths only)."""

import pytest


class TestCli:
    def test_unknown_experiment_rejected(self, capsys):
        from repro.bench.__main__ import main

        code = main(["prog", "table9000"])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_module_loader_finds_bench_files(self):
        from repro.bench.__main__ import _load_bench_module

        module = _load_bench_module("table1")
        assert hasattr(module, "run_table1")
        module = _load_bench_module("figure2")
        assert hasattr(module, "run_figure2")

    def test_experiment_registry_complete(self):
        from repro.bench.__main__ import EXPERIMENTS, _MODULE_FILES, _load_bench_module

        for name in EXPERIMENTS:
            module = _load_bench_module(_MODULE_FILES.get(name, name))
            assert hasattr(module, f"run_{name}"), name

    def test_list_flag_prints_descriptions(self, capsys):
        from repro.bench.__main__ import DESCRIPTIONS, EXPERIMENTS, main

        code = main(["prog", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
            assert DESCRIPTIONS[name] in out
        # Ablation H is retired: its halves live in the oracle tests and
        # the wall-clock harness
        assert "kernels" not in EXPERIMENTS
        assert "kernels" not in out

    def test_list_wins_over_experiment_names(self, capsys):
        # --list must not build workloads even when names are also given.
        from repro.bench.__main__ import main

        code = main(["prog", "table1", "--list"])
        assert code == 0
        assert "cluster" in capsys.readouterr().out
