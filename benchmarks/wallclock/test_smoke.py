"""Smoke test of the wall-clock benchmark (``--quick`` sizes, < 20 s).

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run it
explicitly::

    PYTHONPATH=src python -m pytest benchmarks/wallclock/test_smoke.py -q

It checks the harness, not the program's speed: the emitted names are
exactly those ``BENCHMARK.json`` declares, every declared per-layer metric
is measured by at least one workload, the gate passes, a trace file is
written per workload, and the benchmark refuses to run without a program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_set(out: Path, *extra: str):
    """``run.py --quick`` over every workload → (exit, result lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.3",
         "--seed", "7", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=120, check=False,
    )
    results = [
        json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')
    ]
    return proc, results


def test_declaration_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/wallclock"]
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer") for e in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < e["bound"] <= 0.25 for e in SPEC["end_to_end"])
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_quick_end_to_end(tmp_path):
    proc, results = run_set(tmp_path)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert len(results) == len(WORKLOADS)
    declared = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name]
            assert metric["value"] > 0, name
    assert not list(tmp_path.glob("tmp-*")), "temp directories must be removed on exit"


def test_quick_traced(tmp_path):
    proc, results = run_set(tmp_path, "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert len(results) == len(WORKLOADS)
    declared = {e["name"] for e in SPEC["per_layer"]}
    measured = set()
    for result in results:
        assert result["correct"], result
        assert set(result["metrics"]) == declared
        measured |= {n for n, m in result["metrics"].items() if m["value"] != 0}
    # counters that must read 0 on a healthy run are the only silent names
    quiet = {"cluster.retries", "cluster.hedges", "cluster.breaker_opens",
             "server.overloaded_share"}
    assert declared - measured <= quiet, sorted(declared - measured - quiet)
    for workload in WORKLOADS:
        trace = json.loads((tmp_path / f"trace-{workload}-seed7.json").read_text())
        assert trace["traceEvents"], workload
        assert {"name", "ph", "ts", "dur", "args"} <= set(trace["traceEvents"][0])


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wallclock",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/wallclock/run.py", "--workload", "join_counties",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '{"correct"' not in proc.stdout


def test_unknown_workload_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nonsense", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2
    assert '{"correct"' not in proc.stdout
