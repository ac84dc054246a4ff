"""Ablation G — primary-filter pairing strategy inside the R-tree join.

The synchronized R-tree traversal visits node pairs; within each pair the
original implementation tested every entry of one node against every entry
of the other (NESTED, quadratic in fanout).  The SWEEP strategy replaces
that with space restriction (clip each entry list to the other node's
bounds) followed by a sort-based plane sweep over the node's flat
coordinate arrays.

Both variants must emit the *same* candidate pairs — the ablation
measures only how much primary-filter work (``mbr_test`` charges, and
hence simulated seconds) each policy spends to find them, on the Table 1
counties workload and the largest >=25K Table 2 stars subset.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import ExperimentTable
from repro.index.rtree.join import JoinStrategy

VARIANTS = (JoinStrategy.NESTED, JoinStrategy.SWEEP)


def _join_rows(db, table, workload_label, distance=0.0):
    """Run the self-join under every pairing variant; one row per variant."""
    rows = []
    reference = None
    for strategy in VARIANTS:
        label = strategy.value
        result = db.spatial_join(
            table, "geom", table, "geom", distance=distance, strategy=strategy
        )
        pairs = sorted(result.pairs)
        if reference is None:
            reference = pairs
        assert pairs == reference, f"{label} changed the join result"
        counts = result.run.combined_meter().counts
        rows.append(
            {
                "workload": workload_label,
                "variant": label,
                "sim_s": result.makespan_seconds,
                "mbr_tests": counts.get("mbr_test", 0),
                "sweep_sorts": round(counts.get("sweep_sort_per_item", 0)),
                "sweep_emits": counts.get("sweep_pair_emit", 0),
                "result_size": len(pairs),
            }
        )
    return rows


def run_ablation_sweep(counties_workload, stars_workload):
    rows = _join_rows(counties_workload.db, "counties", "counties")
    stars_size = max(
        (s for s in stars_workload.sizes if s >= 25_000),
        default=max(stars_workload.sizes),
    )
    rows += _join_rows(
        stars_workload.dbs[stars_size], "stars", f"stars-{stars_size}"
    )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_sweep(benchmark, counties_workload, stars_workload):
    rows = benchmark.pedantic(
        run_ablation_sweep,
        args=(counties_workload, stars_workload),
        rounds=1,
        iterations=1,
    )

    table = ExperimentTable(
        experiment="ablation_sweep",
        title="Ablation G — primary-filter pairing strategy",
        columns=[
            "workload", "variant", "join (sim s)", "mbr tests",
            "sweep sort items", "sweep emits", "result size",
        ],
        paper_note=(
            "not in the paper (engineering ablation): plane sweep with "
            "space restriction must find the identical candidate set with "
            "fewer per-pair MBR tests than the naive nested pairing"
        ),
    )
    for row in rows:
        table.add_row(
            row["workload"], row["variant"], row["sim_s"], row["mbr_tests"],
            row["sweep_sorts"], row["sweep_emits"], row["result_size"],
        )
    table.emit()

    # --- shape assertions -------------------------------------------------
    by_key = {(r["workload"], r["variant"]): r for r in rows}
    workloads = {r["workload"] for r in rows}
    for wl in workloads:
        nested = by_key[(wl, "NESTED")]
        sweep = by_key[(wl, "SWEEP")]
        assert sweep["result_size"] == nested["result_size"]
        assert sweep["mbr_tests"] < nested["mbr_tests"], (
            f"{wl}: sweep must cut primary-filter MBR tests"
        )
        assert sweep["sim_s"] < nested["sim_s"], (
            f"{wl}: sweep must cut simulated join time"
        )
        assert nested["sweep_emits"] == 0
        assert sweep["sweep_emits"] > 0

    benchmark.extra_info["rows"] = rows
