"""Puts under network chaos: a lost shard response is ambiguous, not retried.

The router sends each shard its rows in one ``put``.  When the shard's
answer is lost on the wire (``CHAOS_SEED`` picks which batch and which
shard link resets), the shard may have applied the rows, so re-sending
could apply them twice: the router answers ``SHARD_FAILED`` naming the
outcome as ambiguous instead, and the client is never acknowledged for
that batch.  Afterwards a window over everything returns every acked row
and every row of the ambiguous batch exactly once — nothing was sent
twice — and nothing else.
"""

import os
import random
from collections import Counter

from repro import Geometry
from repro.cluster.chaos import NetFaultPlan
from repro.cluster.local import LocalCluster
from repro.cluster.router import RetryPolicy
from repro.geometry.mbr import MBR
from repro.geometry.wkt import from_wkt, to_wkt
from repro.server.client import RemoteError
from repro.server.protocol import ERR_SHARD_FAILED

BOX = MBR(0.0, 0.0, 100.0, 100.0)

SEED = int(os.environ.get("CHAOS_SEED", "1337"))


def batch_on(part, shard, rng, first_id, n=5):
    """``n`` rows whose every copy (primary and halo) lands on ``shard``."""
    rows = []
    while len(rows) < n:
        x, y = rng.uniform(1, 97), rng.uniform(1, 97)
        wkt = to_wkt(Geometry.rectangle(x, y, x + 0.4, y + 0.4))
        if part.shards_for_mbr(from_wkt(wkt).mbr) == {shard}:
            rows.append([first_id + len(rows), wkt])
    return rows


def test_lost_put_response_is_ambiguous_and_never_resent():
    rng = random.Random(SEED)
    plan = NetFaultPlan(SEED)
    with LocalCluster(
        2,
        BOX,
        n_entries_hint=80,
        halo=1.0,
        chaos_plan=plan,
        retry=RetryPolicy(max_attempts=3, budget=8, backoff=0.01),
    ) as cluster:
        cluster.create_spatial_table("shapes")
        part = cluster.partitioner
        shard = rng.randrange(2)
        lost = rng.randrange(3, 9)  # the batch whose response is dropped
        acked, ambiguous = [], []
        with cluster.client() as client:
            for n in range(10):
                rows = batch_on(part, shard if n == lost else rng.randrange(2), rng, 10 * n)
                if n == lost:
                    # The next chunk this shard sends back is the put's
                    # answer: reset the link on it.
                    site = f"shard{shard}.down"
                    plan.reset[site] = plan.chunk_calls.get(site, 0)
                try:
                    client.request("put", table="shapes", rows=rows)
                except RemoteError as exc:
                    assert n == lost, f"batch {n} failed: {exc}"
                    assert exc.code == ERR_SHARD_FAILED
                    assert "ambiguous" in exc.remote_message
                    ambiguous.extend(rows)
                else:
                    acked.extend(rows)
            assert plan.resets_fired, f"the reset never fired (CHAOS_SEED={SEED})"
            assert len(ambiguous) == 5
            session = client.start(
                "window",
                {"table": "shapes", "column": "geom",
                 "wkt": "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))"},
            )
            got = Counter(row[0] for row in session.rows(page=64))
        # The lost answer's rows landed once (the shard applied them before
        # the reset), the acked rows once each, and nothing else.
        assert got == Counter(row[0] for row in acked + ambiguous), (
            f"CHAOS_SEED={SEED}"
        )
        assert cluster.router.resilience.get("write_retries", 0) == 0
