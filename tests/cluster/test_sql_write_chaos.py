"""A routed ``sql`` statement whose shard answer is lost is never re-sent.

A ``sql`` start executes its statement on admission, so it is a write
(``protocol.WRITE_KINDS``): once it may have reached the shard, the
router's shard client answers a lost response ``AMBIGUOUS`` instead of
re-sending it, and the router answers ``SHARD_FAILED`` naming the outcome
as ambiguous.  The scenario drops the answer to a broadcast ``CREATE`` on
one shard and to a broadcast ``INSERT`` on the other (a link reset fires
once per site).  Afterwards each shard holds the table once and the row
once: re-sending would have refused the second ``CREATE`` as a duplicate
table and applied the ``INSERT`` twice.
"""

from repro.cluster.chaos import NetFaultPlan
from repro.cluster.local import LocalCluster
from repro.cluster.router import RetryPolicy
from repro.geometry.mbr import MBR
from repro.server.client import QueryClient, RemoteError
from repro.server.protocol import ERR_SHARD_FAILED

BOX = MBR(0.0, 0.0, 100.0, 100.0)

STATEMENTS = (
    "create table shapes (id number, geom sdo_geometry)",
    "insert into shapes values (7, sdo_geometry('POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))'))",
)


def test_lost_sql_answers_are_ambiguous_and_applied_once():
    plan = NetFaultPlan(0)
    with LocalCluster(
        2,
        BOX,
        n_entries_hint=80,
        chaos_plan=plan,
        retry=RetryPolicy(max_attempts=3, budget=8, backoff=0.01),
    ) as cluster:
        with cluster.client() as client:
            for shard, statement in enumerate(STATEMENTS):
                # The next chunk this shard sends back is the statement's
                # answer: reset the link on it.
                site = f"shard{shard}.down"
                plan.reset[site] = plan.chunk_calls.get(site, 0)
                try:
                    client.start("sql", {"statement": statement}).all()
                except RemoteError as exc:
                    assert exc.code == ERR_SHARD_FAILED, statement
                    assert "ambiguous" in exc.remote_message, exc.remote_message
                else:
                    raise AssertionError(f"the lost answer was not reported: {statement}")
        assert plan.resets_fired == ["shard0.down", "shard1.down"]
        assert cluster.router.resilience.get("write_retries", 0) == 0
        for shard in range(2):
            with QueryClient(port=cluster.procs[shard].port) as direct:
                rows = direct.start("sql", {"statement": "select id from shapes"}).all()
            assert rows == [[7]], f"shard {shard}"
