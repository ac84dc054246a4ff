"""WAL follower: bootstrap, tail, ack, idempotent replay, restart state."""

import json
import os

import pytest

from repro.cluster.local import LocalCluster, ShardProcess
from repro.cluster.replication import ReplicationError, WalFollower
from repro.engine.database import Database
from repro.geometry.mbr import MBR
from repro.server.client import QueryClient

BOX = MBR(0.0, 0.0, 100.0, 100.0)

DDL = [
    "create table pts (id number, geom sdo_geometry)",
    "create index pts_sidx on pts(geom) "
    "indextype is spatial_index parameters ('kind=RTREE')",
]


def _commit_batch(client, statements):
    """Run statements on the leader, then commit them durably; returns the
    commit's LSN."""
    for statement in statements:
        client.start("sql", {"statement": statement}).all()
    return client.request("commit")["lsn"]


@pytest.fixture()
def leader(tmp_path):
    """A WAL-backed single-shard server process (no router, no follower)."""
    proc = ShardProcess(0, path=str(tmp_path / "leader.db")).start()
    try:
        yield proc, tmp_path
    finally:
        proc.stop()


class TestTailAndApply:
    def test_follower_reaches_committed_lsn(self, leader):
        proc, tmp_path = leader
        with QueryClient(port=proc.port, retries=5) as client:
            lsn = _commit_batch(client, list(DDL) + [
                "insert into pts values (1, sdo_geometry('POINT (10 10)'))",
                "insert into pts values (2, sdo_geometry('POINT (20 20)'))",
            ])
            follower = WalFollower(
                QueryClient(port=proc.port, retries=5),
                str(tmp_path / "replica.db"),
            )
            try:
                follower.wait_for(lsn, timeout=10.0)
                assert follower.applied_lsn >= lsn
                assert follower.commits_applied >= 1
            finally:
                follower.close()

    def test_replayed_segment_is_noop(self, leader):
        proc, tmp_path = leader
        with QueryClient(port=proc.port, retries=5) as client:
            lsn = _commit_batch(client, list(DDL) + [
                "insert into pts values (1, sdo_geometry('POINT (10 10)'))",
            ])
            follower = WalFollower(
                QueryClient(port=proc.port, retries=5),
                str(tmp_path / "replica.db"),
            )
            try:
                follower.wait_for(lsn, timeout=10.0)
                applied = follower.records_applied

                # Re-ship the whole log from LSN 0: every record is at or
                # below applied_lsn, so _apply must skip all of them.
                response = follower.client.request(
                    "wal.tail", after_lsn=0, max_records=128
                )
                if not response.get("reset"):
                    replayed = follower._apply(response["records"])
                    assert replayed == 0
                assert follower.records_applied == applied
                assert follower.applied_lsn == lsn
            finally:
                follower.close()

    def test_promoted_replica_serves_committed_rows(self, leader):
        proc, tmp_path = leader
        with QueryClient(port=proc.port, retries=5) as client:
            lsn = _commit_batch(client, list(DDL) + [
                f"insert into pts values ({i}, sdo_geometry('POINT ({i} {i})'))"
                for i in range(1, 8)
            ])
            follower = WalFollower(
                QueryClient(port=proc.port, retries=5),
                str(tmp_path / "replica.db"),
            )
            follower.wait_for(lsn, timeout=10.0)
        proc.kill()  # replica must not need the leader from here on
        path = follower.promote()
        db = Database.open(path, durability="wal")
        try:
            result = db.sql("select count(*) from pts")
            assert result.rows[0][0] == 7
        finally:
            db.close()


class TestRestartState:
    def test_applied_lsn_survives_restart(self, leader):
        proc, tmp_path = leader
        replica = str(tmp_path / "replica.db")
        with QueryClient(port=proc.port, retries=5) as client:
            lsn = _commit_batch(client, list(DDL) + [
                "insert into pts values (1, sdo_geometry('POINT (5 5)'))",
            ])
        follower = WalFollower(QueryClient(port=proc.port, retries=5), replica)
        follower.wait_for(lsn, timeout=10.0)
        follower.close()

        with open(replica + ".replstate", encoding="utf-8") as fh:
            assert json.load(fh)["applied_lsn"] == lsn

        # A restarted follower resumes from the sidecar, not a re-bootstrap.
        again = WalFollower(QueryClient(port=proc.port, retries=5), replica)
        try:
            assert again.applied_lsn == lsn
            assert again.poll() == 0  # nothing new to apply
        finally:
            again.close()


class TestSemiSyncCluster:
    def test_put_waits_for_follower_ack(self):
        with LocalCluster(
            2, BOX, n_entries_hint=50, halo=1.0, replicated=True
        ) as cluster:
            cluster.create_spatial_table("shapes")
            totals = cluster.load(
                "shapes",
                [[i, f"POINT ({i} {i})"] for i in range(1, 30)],
            )
            assert totals["lsn"] is not None
            # put() returned => the follower acked this LSN already.
            assert cluster.follower.applied_lsn >= totals["lsn"]
            with cluster.client() as client:
                topo = client.request("topology")
            assert topo["replicated"] is True
            assert topo["follower"]["applied_lsn"] >= totals["lsn"]
            assert topo["follower"]["error"] is None

    def test_wait_for_times_out_typed(self, leader):
        proc, tmp_path = leader
        with QueryClient(port=proc.port, retries=5) as client:
            _commit_batch(client, list(DDL))
        follower = WalFollower(
            QueryClient(port=proc.port, retries=5),
            str(tmp_path / "replica.db"),
        ).start()
        try:
            with pytest.raises(ReplicationError):
                follower.wait_for(10_000_000, timeout=0.3)
        finally:
            follower.close()
