"""Observability chaos drill: SIGKILL the leader and prove the plane saw it.

Standalone (the CI obs-plane job runs it directly)::

    PYTHONPATH=src CHAOS_SEED=1337 python benchmarks/obs_killleader.py

The scenario mirrors the resilience bench (3 replicated durable shards,
auto-heal, nobody calls ``failover()``) but this time the metrics/SLO
plane and distributed tracing are attached, and the *assertions* are
about what observability captured rather than about recovery itself:

1. the ``repro_cluster_replication_lag_seconds`` gauge **spikes** after the
   kill (the follower reports time-since-caught-up while the leader is
   dead) and the spike is visible in the store's ring buffer;
2. the per-shard **breaker-state metric** is present in the store;
3. at least one **SLO burn-rate alert fires** during the outage
   (availability and/or replication-lag, over drill-sized burn windows);
4. **MTTR derived from the store** (the peak replication-lag sample —
   kill → promotion as the follower saw it) agrees with the directly
   measured MTTR, and loosely with the MTTR the resilience bench wrote
   to ``BENCH_resilience.json`` when that sidecar exists.

Writes three CI artifacts into the working directory: a stitched
distributed trace (``obsplane_trace.json``), the live dashboard
rendered *after* the incident (``obsplane_dashboard.html``), and the
drill summary (``obsplane_drill.json``).
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.bench.reporting import results_dir
from repro.cluster.local import LocalCluster
from repro.cluster.router import RetryPolicy
from repro.geometry.mbr import MBR
from repro.obs import trace
from repro.obs.dashboard import render_html
from repro.obs.plane import BurnWindow, default_cluster_slos

BOX = MBR(0.0, 0.0, 100.0, 100.0)
TABLE_ROWS = 200
HALO = 2.0
FULL_WINDOW = "POLYGON ((0 0, 99 0, 99 99, 0 99, 0 0))"
#: drill-sized burn windows: page when BOTH the 2s and 8s windows burn
#: at >=2x budget — real seconds, sized to a seconds-long outage.
DRILL_WINDOWS = (BurnWindow(2.0, 8.0, 2.0, "page"),)
MTTR_AGREEMENT_S = 5.0  # store-derived vs directly measured, same incident
BENCH_TOLERANCE_S = 10.0  # vs the (separate-run) resilience bench sidecar


def make_rows(n: int = TABLE_ROWS):
    from repro import Geometry
    from repro.geometry.wkt import to_wkt

    rng = random.Random(777)
    rows = []
    for i in range(n):
        x = rng.uniform(0, 94)
        y = rng.uniform(0, 94)
        rect = Geometry.rectangle(
            x, y, x + rng.uniform(0.5, 3.0), y + rng.uniform(0.5, 3.0)
        )
        rows.append([i, to_wkt(rect)])
    return rows


def full_window_ids(client):
    session = client.start(
        "window",
        {"table": "shapes", "column": "geom", "wkt": FULL_WINDOW},
    )
    return sorted(row[0] for row in session.rows(page=128))


def measure_mttr(cluster, want_ids) -> float:
    """Kill the leader; wall seconds until the first exact result."""
    cluster.kill_leader()
    killed = time.perf_counter()
    deadline = killed + 60.0
    while time.perf_counter() < deadline:
        try:
            with cluster.client(timeout=15.0) as client:
                if full_window_ids(client) == want_ids:
                    return time.perf_counter() - killed
                raise AssertionError(
                    "post-kill window lost acked rows — replication broke"
                )
        except AssertionError:
            raise
        except Exception:
            time.sleep(0.05)  # detection/promotion still in flight
    raise AssertionError("cluster never recovered within 60s of the kill")


def main() -> int:
    seed = os.environ.get("CHAOS_SEED", "1337")
    rng = random.Random(int(seed) if seed.isdigit() else 1337)
    print(f"CHAOS_SEED={seed}")
    rows = make_rows()
    want_ids = sorted(r[0] for r in rows)

    trace.enable()  # before start(): forked shards inherit enablement
    try:
        with LocalCluster(
            3,
            BOX,
            n_entries_hint=TABLE_ROWS,
            halo=HALO,
            replicated=True,
            durable=True,
            auto_heal=True,
            health_kwargs=dict(
                interval=0.05, timeout=0.5, suspect_after=1, down_after=3
            ),
            retry=RetryPolicy(
                max_attempts=12, budget=64, backoff=0.05, backoff_cap=0.4
            ),
            breaker_threshold=1000,
            client_timeout=15.0,
            obs_plane=True,
            obs_interval=0.05,
            obs_slos=default_cluster_slos(lag_seconds=0.4),
            obs_kwargs=dict(windows=DRILL_WINDOWS),
        ) as cluster:
            cluster.create_spatial_table("shapes")
            totals = cluster.load("shapes", rows)
            assert totals["placed"] == TABLE_ROWS
            plane = cluster.plane

            # Healthy traffic: grounds the availability SLO's totals and
            # produces the stitched-trace artifact.
            with cluster.client() as client:
                for _ in range(5):
                    assert full_window_ids(client) == want_ids
                session = client.start(
                    "window",
                    {"table": "shapes", "column": "geom", "wkt": FULL_WINDOW},
                )
                session.all()
                stitched = client.trace(session.session_id)
            with open("obsplane_trace.json", "w") as out:
                json.dump(stitched, out, indent=2)
            shards_in_trace = {
                s["tags"].get("shard")
                for s in stitched["spans"]
                if s["tags"].get("shard") is not None
            }
            print(
                f"stitched trace: {len(stitched['spans'])} spans across "
                f"{len(shards_in_trace)} shard(s), id {stitched['trace']}"
            )

            time.sleep(rng.uniform(0.1, 0.5))  # seeded kill-timing jitter
            lag_before = [
                v
                for _, v in plane.store.range_query(
                    "repro_cluster_replication_lag_seconds"
                )
            ]
            kill_wall = time.perf_counter()
            mttr_direct = measure_mttr(cluster, want_ids)
            print(f"MTTR (kill -> first exact result): {mttr_direct:.2f}s")

            # A few more scrape rounds so recovery lands in the store,
            # then freeze the plane state we assert against.
            time.sleep(0.5)
            plane.scrape_once()
            store = plane.store
            dashboard = render_html(
                plane.snapshot(),
                topology=cluster.router.topology(),
                health=cluster.router.resilience_status(),
                title=f"obs drill: leader kill (seed {seed})",
            )
            snapshot = plane.snapshot()
            alerts = [a.to_dict() for a in plane.engine.alerts]
            lag_all = [
                v
                for _, v in store.range_query(
                    "repro_cluster_replication_lag_seconds"
                )
            ]
            breaker_shards = store.match("repro_cluster_breaker_state")
            elapsed_since_kill = time.perf_counter() - kill_wall
    finally:
        trace.disable()

    with open("obsplane_dashboard.html", "w") as out:
        out.write(dashboard)

    # -- 1. the replication-lag gauge spiked --------------------------------
    peak_before = max(lag_before, default=0.0)
    peak = max(lag_all, default=0.0)
    print(f"replication lag: pre-kill peak {peak_before:.3f}s, "
          f"incident peak {peak:.3f}s")
    if peak < 0.4:
        raise AssertionError(
            f"lag gauge never spiked past the 0.4s SLO ceiling (peak "
            f"{peak:.3f}s) — the plane missed the outage"
        )
    if peak <= peak_before:
        raise AssertionError(
            f"incident lag peak {peak:.3f}s does not exceed the healthy "
            f"baseline peak {peak_before:.3f}s"
        )
    if peak > elapsed_since_kill + 1.0:
        raise AssertionError(
            f"lag peak {peak:.2f}s exceeds time since kill "
            f"({elapsed_since_kill:.2f}s) — bogus gauge"
        )

    # -- 2. the breaker-state metric is in the store ------------------------
    if len(breaker_shards) != 3:
        raise AssertionError(
            f"expected breaker-state series for 3 shards, got "
            f"{breaker_shards}"
        )

    # -- 3. an SLO burn-rate alert fired ------------------------------------
    fired = [a for a in alerts if a["state"] == "firing"]
    if not fired:
        raise AssertionError(
            f"no SLO alert fired during the outage; alert log: {alerts}"
        )
    fired_keys = sorted({(a["slo"], a["severity"]) for a in fired})
    print(f"alerts fired during the drill: {fired_keys}")

    # -- 4. MTTR from the store agrees with the direct measurement ----------
    # The peak lag sample is the outage as the *follower* clocked it
    # (kill -> promotion); the direct MTTR adds the client ride-through.
    mttr_store = peak
    if abs(mttr_store - mttr_direct) > MTTR_AGREEMENT_S:
        raise AssertionError(
            f"store-derived MTTR {mttr_store:.2f}s disagrees with the "
            f"measured {mttr_direct:.2f}s by more than {MTTR_AGREEMENT_S}s"
        )
    bench_path = os.path.join(results_dir(), "BENCH_resilience.json")
    bench_mttr = None
    if os.path.exists(bench_path):
        with open(bench_path) as f:
            bench_mttr = json.load(f)["mttr_seconds"]
        if abs(mttr_store - bench_mttr) > BENCH_TOLERANCE_S:
            raise AssertionError(
                f"store-derived MTTR {mttr_store:.2f}s is implausibly far "
                f"from the resilience bench's {bench_mttr:.2f}s "
                f"(tolerance {BENCH_TOLERANCE_S}s)"
            )
        print(f"MTTR: store {mttr_store:.2f}s, direct {mttr_direct:.2f}s, "
              f"resilience bench {bench_mttr:.2f}s — consistent")
    else:
        print(f"MTTR: store {mttr_store:.2f}s, direct {mttr_direct:.2f}s "
              f"(no {bench_path} to cross-check)")

    with open("obsplane_drill.json", "w") as out:
        json.dump(
            {
                "chaos_seed": seed,
                "mttr_direct_seconds": round(mttr_direct, 3),
                "mttr_store_seconds": round(mttr_store, 3),
                "mttr_bench_seconds": bench_mttr,
                "lag_peak_seconds": round(peak, 3),
                "alerts": alerts,
                "scrapes": snapshot["scrapes"],
                "collector_errors": snapshot["collector_errors"],
                "trace_spans": len(stitched["spans"]),
            },
            out,
            indent=2,
        )
    print(
        "OK: lag spike, breaker metric, SLO alert and store-derived MTTR "
        "all observed — wrote obsplane_trace.json, "
        "obsplane_dashboard.html, obsplane_drill.json"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
