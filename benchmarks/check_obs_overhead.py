"""CI gate: tracing must not perturb the simulated-cost story.

Runs the sweep-ablation join workload untraced and then fully traced and
checks two things:

1. **Exactness** (the real guarantee): per-kind meter counts and the
   resulting simulated seconds are *identical* — tracing only reads
   meters, so the simulated-time overhead of the disabled AND enabled
   paths is exactly 0%, comfortably under the 2% budget.
2. **Wall-clock overhead** (informational): the traced run's wall time
   is printed next to the untraced one so regressions are visible in CI
   logs; wall time is hardware-noisy, so it does not gate.

Also writes ``obs_sample_trace.json`` — a Chrome trace-event document of
the traced run — which CI uploads as a Perfetto-loadable artifact.

After the single-node gates pass, the same charge-identity argument is
re-proven on the **cluster path** (router + forked shards + metrics/SLO
plane + distributed trace stitching) by delegating to
``bench_obsplane.py``; pass ``--no-cluster`` to skip that phase.

Usage: PYTHONPATH=src python benchmarks/check_obs_overhead.py [out.json]
"""

from __future__ import annotations

import math
import os
import sys
import time

from repro.bench.workloads import CountiesWorkload
from repro.index.rtree.join import JoinStrategy
from repro.obs import trace
from repro.obs.exporters import write_chrome_trace

OVERHEAD_BUDGET = 0.02  # simulated-seconds overhead must stay under 2%


def _run_join(db):
    started = time.perf_counter()
    result = db.spatial_join(
        "counties", "geom", "counties", "geom", strategy=JoinStrategy.SWEEP
    )
    wall = time.perf_counter() - started
    return result, wall


def _fsum_counts(meters):
    per_kind = {}
    for m in meters:
        for kind, n in m.counts.items():
            per_kind.setdefault(kind, []).append(n)
    return {kind: math.fsum(vals) for kind, vals in sorted(per_kind.items())}


def _cluster_phase() -> int:
    """Charge identity with the obs plane on, on the sharded path."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "bench_obsplane.py")
    spec = importlib.util.spec_from_file_location("bench_obsplane", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    print("\n-- cluster path (router + shards + metrics/SLO plane) --")
    return module.main()


def main(argv) -> int:
    run_cluster = "--no-cluster" not in argv
    argv = [a for a in argv if a != "--no-cluster"]
    out_path = argv[1] if len(argv) > 1 else "obs_sample_trace.json"
    workload = CountiesWorkload.build()
    db = workload.db

    assert not trace.enabled(), "run this check with REPRO_TRACE unset/off"
    baseline, wall_off = _run_join(db)
    base_counts = _fsum_counts(baseline.run.worker_meters)
    base_seconds = baseline.makespan_seconds

    with trace.tracing() as tracer:
        traced, wall_on = _run_join(db)
    traced_counts = _fsum_counts(traced.run.worker_meters)
    traced_seconds = traced.makespan_seconds

    if traced.pairs != baseline.pairs:
        print("FAIL: traced join returned different pairs")
        return 1
    if traced_counts != base_counts:
        diffs = {
            k: (base_counts.get(k), traced_counts.get(k))
            for k in set(base_counts) | set(traced_counts)
            if base_counts.get(k) != traced_counts.get(k)
        }
        print(f"FAIL: traced meter counts differ: {diffs}")
        return 1

    overhead = (
        abs(traced_seconds - base_seconds) / base_seconds
        if base_seconds
        else 0.0
    )
    print(f"simulated seconds untraced: {base_seconds:.6f}")
    print(f"simulated seconds traced:   {traced_seconds:.6f}")
    print(f"simulated overhead: {overhead * 100:.4f}% (budget {OVERHEAD_BUDGET * 100:.0f}%)")
    print(f"wall seconds untraced: {wall_off:.3f}")
    print(f"wall seconds traced:   {wall_on:.3f} (informational)")
    if overhead >= OVERHEAD_BUDGET:
        print("FAIL: simulated overhead exceeds budget")
        return 1

    spans = len(tracer.spans)
    write_chrome_trace(out_path, tracer)
    print(f"wrote {out_path} ({spans} spans) — load it in ui.perfetto.dev")
    names = {s.name for s in tracer.spans}
    for required in ("executor.task", "join.primary_filter", "join.secondary_filter"):
        if required not in names:
            print(f"FAIL: sample trace is missing {required!r} spans")
            return 1
    print("OK: tracing is charge-exact; overhead gate passed")
    if run_cluster:
        return _cluster_phase()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
