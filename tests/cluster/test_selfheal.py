"""The self-healing gate: seeded network chaos plus a SIGKILLed leader,
and the cluster must recover *unattended* — the health plane detects the
death, the coordinator promotes the WAL follower, and queries issued
during the failure window come back exact.  (``test_cluster_join.py``
replays cluster answers against the scalar oracles of ``tests/oracles.py``.)

``CHAOS_SEED`` parameterises the fault plan so the CI matrix can sweep
seeds; any value must pass (``NetFaultPlan.random`` never draws an
unrecoverable fault).
"""

import os
import random
import time
from collections import Counter

from repro import Database, Geometry
from repro.cluster.chaos import NetFaultPlan
from repro.cluster.local import LocalCluster
from repro.cluster.router import RetryPolicy
from repro.geometry.mbr import MBR
from repro.geometry.wkt import to_wkt

SEED = int(os.environ.get("CHAOS_SEED", "1337"))
BOX = MBR(0.0, 0.0, 100.0, 100.0)
N_ROWS = 140
FULL_WINDOW = "POLYGON ((0 0, 99 0, 99 99, 0 99, 0 0))"


def make_rows(n=N_ROWS, seed=31):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 94), rng.uniform(0, 94)
        rect = Geometry.rectangle(
            x, y, x + rng.uniform(0.3, 4.0), y + rng.uniform(0.3, 4.0)
        )
        rows.append([i, to_wkt(rect)])
    return rows


def single_node_join(rows):
    db = Database()
    db.sql("create table shapes (id number, geom sdo_geometry)")
    db.sql(
        "create index shapes_sidx on shapes(geom) "
        "indextype is spatial_index parameters ('kind=RTREE')"
    )
    for row_id, wkt in rows:
        db.sql(f"insert into shapes values ({row_id}, sdo_geometry('{wkt}'))")
    table = db.table("shapes")
    result = db.spatial_join("shapes", "geom", "shapes", "geom")
    pairs = [
        (table.value(a, "id"), table.value(b, "id")) for a, b in result.pairs
    ]
    db.close()
    return pairs


def wait_for(condition, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.05)
    return False


def test_leader_kill_heals_unattended_with_exact_results():
    rows = make_rows()
    reference = Counter(single_node_join(rows))
    plan = NetFaultPlan(SEED)
    with LocalCluster(
        3,
        BOX,
        n_entries_hint=N_ROWS,
        halo=2.0,
        replicated=True,
        durable=True,
        auto_heal=True,
        chaos_plan=plan,
        health_kwargs=dict(
            interval=0.05, timeout=0.5, suspect_after=1, down_after=3
        ),
        retry=RetryPolicy(
            max_attempts=12, budget=64, backoff=0.05, backoff_cap=0.4
        ),
        breaker_threshold=1000,
        client_timeout=10.0,
    ) as cluster:
        cluster.create_spatial_table("shapes")
        totals = cluster.load("shapes", rows)
        assert totals["placed"] == N_ROWS  # every row below is ACKED

        # Arm the seeded random fault *now*, re-based onto the live
        # chunk counters: DDL and ingest are acked and out of the
        # blast radius, the failure window below takes the hit.
        fault = NetFaultPlan.random(SEED)
        for site, fire_at in fault.reset.items():
            plan.reset[site] = plan.chunk_calls.get(site, 0) + fire_at
        plan.latency.update(fault.latency)
        plan.drip.update(fault.drip)

        cluster.kill_leader()  # SIGKILL; nobody calls failover()

        # Queries issued while the leader is a corpse: the retry
        # layer must ride out the detection + promotion window.
        with cluster.client() as client:
            session = client.start(
                "spatial_join",
                {
                    "table_a": "shapes",
                    "column_a": "geom",
                    "table_b": "shapes",
                    "column_b": "geom",
                },
            )
            during = Counter(
                (a, b) for a, b in session.rows(page=128)
            )
        assert during == reference, (
            "join during the failure window diverged from the "
            "single-node reference"
        )

        # Zero acked-write loss: the promoted replica serves every
        # row the load was acknowledged for.
        with cluster.client() as client:
            session = client.start(
                "window",
                {
                    "table": "shapes",
                    "column": "geom",
                    "wkt": FULL_WINDOW,
                },
            )
            got = sorted(row[0] for row in session.rows(page=256))
        assert got == sorted(r[0] for r in rows)

        # The recovery was automatic and exactly-once.
        assert wait_for(lambda: cluster._failed_over), (
            "health plane never promoted the follower"
        )
        if cluster.coordinator is not None:
            cluster.coordinator.wait_idle(10.0)
        assert cluster.router.resilience.get("failovers", 0) == 1
        kinds = [e["kind"] for e in cluster.resilience_events()]
        assert "failover_started" in kinds
        assert "failover_done" in kinds
