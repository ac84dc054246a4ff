#!/usr/bin/env python3
"""The repo's one wall-clock benchmark.  See README.md beside this file.

Two ways in:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one run of
  one workload in this process (what the benchmark driver calls).  Prints
  every metric by name, then — as the last line of stdout — one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding every
  end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) declared in ``BENCHMARK.json``.
* ``run.py [--seed N]`` — every workload, each in a fresh child process
  (clean peak-RSS, fork-before-threads for the cluster), with a summary.
  ``--repeat-check`` does that twice and compares the two sets against
  each metric's bound.

Exit status: 0 measured and correct; 1 measured but a correctness check
or an operation failed; 2 no valid measurement (missing program, workload
drift, harness error).
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import (
    HERE, BenchError, Report, SpanRecorder, bootstrap, load_spec, peak_rss_mb,
    quartiles, run_header,
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SETUP_REPEATS = 3  # setup_s is the median of this many complete set-ups


def workload_classes() -> Dict[str, Any]:
    from wl_build import IndexBuild
    from wl_join import JoinCounties, JoinStars
    from wl_local import LocalQuery
    from wl_served import ClusterMixed, ServeWindow

    classes = (JoinCounties, JoinStars, IndexBuild, LocalQuery, ServeWindow, ClusterMixed)
    return {cls.name: cls for cls in classes}


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def measure(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    tmp = bootstrap(args.out)  # before anything imports repro
    from inputs import DEFAULT_SEED
    from workload import Config

    classes = workload_classes()
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(classes):
        raise BenchError(f"BENCHMARK.json workloads {declared} != harness {sorted(classes)}")
    if args.workload not in classes:
        raise BenchError(f"unknown workload {args.workload!r}; one of {', '.join(declared)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    cfg = Config(
        seed=seed,
        seconds=float(args.seconds if args.seconds is not None else spec["run_seconds"]),
        profile="quick" if args.quick else "full",
        tmp=tmp,
        pin=args.pin,
    )
    workload = classes[args.workload](cfg)
    header = run_header(seed)
    report = Report()
    rec = SpanRecorder() if args.trace else None
    setups: List[float] = []
    try:
        for i in range(1 if args.trace else SETUP_REPEATS):
            if i:
                workload.teardown()
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        gc.collect()
        if rec is not None:
            workload.trace(report, rec)
        else:
            workload.run(report)
        workload.check(report)
    finally:
        workload.teardown()  # reaps shard children on every exit path
    if rec is not None:
        trace_path = args.out / f"trace-{workload.name}-seed{seed}.json"
        rec.write_chrome(trace_path, dict(header, workload=workload.name))
    else:
        q1, med, q3 = quartiles(setups)
        report.put("setup_s", med, "s", len(setups), q1, q3)
        report.put("peak_rss_mb", peak_rss_mb(), "MB")

    section = "per_layer" if args.trace else "end_to_end"
    print(f"# wallclock {workload.name} ({section}, {cfg.profile} profile, "
          f"{cfg.seconds:g} s timed)")
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    if rec is None:
        print(f"# primary op: {workload.primary}")
        print(f"# second op:  {workload.alt}")
    else:
        print(f"# trace file: {trace_path}")
    for key, value in sorted({**report.golden, **report.facts}.items()):
        print(f"# {key}: {value}")
    if args.pin:
        print("# golden " + json.dumps({workload.name: report.golden}, sort_keys=True))
    print(f"{'metric':42s} {'unit':>6s} {'n':>7s} {'median':>14s} {'q1':>14s} {'q3':>14s}")
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        got = report.values.get(name)
        if got is None:
            if section == "end_to_end":
                raise BenchError(f"{workload.name} did not measure end-to-end metric {name}")
            reason = report.unmeasured.get(name, "layer not exercised by this workload")
            print(f"{name:42s} {unit:>6s} {'-':>7s} {'null':>14s}   # {reason}")
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            raise BenchError(f"{name}: measured in {got['unit']}, declared {unit}")
        alias = workload.aliases.get(name)
        print(
            f"{name:42s} {unit:>6s} {got['n']:7d} {got['value']:14.6g} "
            f"{_fmt(got['q1'])} {_fmt(got['q3'])}" + (f"   # = {alias}" if alias else "")
        )
        metrics[name] = {"value": got["value"], "unit": unit}
    undeclared = sorted(set(report.values) - {e["name"] for e in spec[section]})
    if undeclared:
        raise BenchError(f"{workload.name} measured names BENCHMARK.json does not declare: {undeclared}")
    print(f"failed_share {report.failed_share:.6g}  ({report.failed} of {report.attempted} "
          "operations and checks)")
    for failure in report.failures:
        print(f"FAILED: {failure}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.failed == 0 else 1


def _fmt(value: Optional[float]) -> str:
    return f"{value:14.6g}" if value is not None else f"{'':14s}"


# ----------------------------------------------------------------------
# Every workload, one child process each
# ----------------------------------------------------------------------
def run_set(args: argparse.Namespace, spec: Dict[str, Any], trace: int) -> Dict[str, Dict[str, Any]]:
    """One complete set of runs → ``{workload: result-line dict}``."""
    results: Dict[str, Dict[str, Any]] = {}
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
               "--trace", str(trace), "--out", str(args.out)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.quick:
            cmd.append("--quick")
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        lines = child.stdout.strip().splitlines()
        result = None
        if child.returncode in (0, 1) and lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        if result is None:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        result["exit"] = child.returncode
        results[entry["name"]] = result
        print()
    return results


def summarize(results: Dict[str, Dict[str, Any]]) -> int:
    bad = 0
    print(f"{'workload':16s} {'exit':>4s} {'attempted':>9s} {'failed':>6s} {'failed_share':>12s}")
    for name, result in results.items():
        share = result["failed"] / result["attempted"]
        print(f"{name:16s} {result['exit']:4d} {result['attempted']:9d} "
              f"{result['failed']:6d} {share:12.6g}")
        if result["exit"] != 0 or not result["correct"]:
            bad += 1
    return 1 if bad else 0


def repeat_check(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Two complete end-to-end sets of the same code on the same host."""
    first = run_set(args, spec, trace=0)
    second = run_set(args, spec, trace=0)
    status = summarize(first) | summarize(second)
    print(f"\n{'workload':16s} {'metric':14s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        for workload in first:
            a = first[workload]["metrics"].get(name, {}).get("value")
            b = second[workload]["metrics"].get(name, {}).get("value")
            if not a or not b:
                print(f"{workload:16s} {name:14s} missing")
                status = 1
                continue
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            verdict = "" if abs(worse) <= bound else "  EXCEEDS BOUND"
            print(f"{workload:16s} {name:14s} {a:12.6g} {b:12.6g} {worse:+9.1%} {bound:6.0%}{verdict}")
            if verdict:
                status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, help="the only input to generation")
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run — per-layer metrics and a trace file")
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the end-to-end set twice and compare against the bounds")
    parser.add_argument("--pin", action="store_true",
                        help="print this seed's input hash and counts as a golden.json entry")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="the only directory written to (trace files, temp files)")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    try:
        spec = load_spec()
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[section]:
                if not NAME_RE.match(entry["name"]):
                    raise BenchError(f"bad name in BENCHMARK.json: {entry['name']!r}")
        if args.workload:
            return measure(args, spec)
        if args.repeat_check:
            return repeat_check(args, spec)
        return summarize(run_set(args, spec, args.trace))
    except BenchError as exc:
        print(f"wallclock: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - a harness bug must not look like a measurement
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
