"""Scatter-gather behavior: fan-out kinds, partial failure, stats rollup."""

import random

import pytest

from repro import Database, Geometry
from repro.cluster.local import LocalCluster
from repro.cluster.partition import GridPartitioner
from repro.cluster.router import RouterService
from repro.geometry.mbr import MBR
from repro.geometry.wkt import from_wkt, to_wkt
from repro.server.client import QueryClient, RemoteError
from repro.server.metrics import ServerMetrics
from repro.geometry.mbr import union_all
from repro.server.protocol import ERR_BAD_REQUEST, ERR_SHARD_FAILED

BOX = MBR(0.0, 0.0, 100.0, 100.0)
N_ROWS = 100


def make_rows(n=N_ROWS, seed=5):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 94), rng.uniform(0, 94)
        rect = Geometry.rectangle(
            x, y, x + rng.uniform(0.3, 3.0), y + rng.uniform(0.3, 3.0)
        )
        rows.append([i, to_wkt(rect)])
    return rows


def reference_db(rows):
    db = Database()
    db.sql("create table shapes (id number, geom sdo_geometry)")
    db.sql(
        "create index shapes_sidx on shapes(geom) "
        "indextype is spatial_index parameters ('kind=RTREE')"
    )
    for row_id, wkt in rows:
        db.sql(f"insert into shapes values ({row_id}, sdo_geometry('{wkt}'))")
    return db


@pytest.fixture(scope="module")
def fleet():
    rows = make_rows()
    ref = reference_db(rows)
    with LocalCluster(3, BOX, n_entries_hint=N_ROWS, halo=1.0) as cluster:
        cluster.create_spatial_table("shapes")
        cluster.load("shapes", rows)
        yield cluster, ref, rows
    ref.close()


class TestWindowFanOut:
    def test_matches_single_node(self, fleet):
        cluster, ref, _rows = fleet
        table = ref.table("shapes")
        win = Geometry.rectangle(20, 20, 55, 55)
        want = sorted(
            table.value(r, "id")
            for r in ref.select_rowids(
                "shapes", "geom", "SDO_RELATE", [win, "ANYINTERACT"]
            )
        )
        with cluster.client() as client:
            session = client.start(
                "window",
                {"table": "shapes", "column": "geom", "wkt": to_wkt(win)},
            )
            got = sorted(row[0] for row in session.rows(page=32))
        assert got == want
        assert len(got) == len(set(got)), "halo replicas leaked duplicates"

    def test_close_summary_reports_per_shard_rows(self, fleet):
        cluster, _ref, _rows = fleet
        win = Geometry.rectangle(0, 0, 100, 100)
        with cluster.client() as client:
            session = client.start(
                "window",
                {"table": "shapes", "column": "geom", "wkt": to_wkt(win)},
            )
            total = 0
            while not session.eof:
                rows, _ = session.fetch(64)
                total += len(rows)
            summary = session.close()
        assert total == N_ROWS
        assert sum(summary["rows_per_shard"].values()) == N_ROWS
        assert summary["failed_shards"] == []


def _session_requests(metrics):
    requests = metrics.snapshot(0)["requests"]
    return {
        op: requests.get(op, {}).get("count", 0)
        for op in ("start", "fetch", "close")
    }


class TestOneRequestPerHop:
    """A window whose result fits one page costs one request at every
    hop: one client->router ``start``, one ``start`` per target shard."""

    @pytest.mark.parametrize(
        "win", [(20, 20, 24, 24), (0, 30, 100, 36)], ids=["narrow", "wide"]
    )
    def test_routed_window_costs_one_request_per_hop(self, fleet, win):
        cluster, ref, _rows = fleet
        window = Geometry.rectangle(*win)
        targets = cluster.partitioner.shards_for_mbr(window.mbr, expand=0.0)
        shards = {
            shard: QueryClient(port=cluster.endpoint_port(shard))
            for shard in range(cluster.nshards)
        }
        try:
            def shard_counts():
                return {
                    shard: {
                        op: c.stats()["requests"].get(op, {}).get("count", 0)
                        for op in ("start", "fetch", "close")
                    }
                    for shard, c in shards.items()
                }

            router = cluster.server.server.metrics
            before, shard_before = _session_requests(router), shard_counts()
            with cluster.client() as client:
                rows = client.start(
                    "window",
                    {"table": "shapes", "column": "geom", "wkt": to_wkt(window)},
                ).all()
            after, shard_after = _session_requests(router), shard_counts()
        finally:
            for c in shards.values():
                c.close()
        table = ref.table("shapes")
        assert sorted(r[0] for r in rows) == sorted(
            table.value(r, "id")
            for r in ref.select_rowids(
                "shapes", "geom", "SDO_RELATE", [window, "ANYINTERACT"]
            )
        )
        assert {op: after[op] - before[op] for op in after} == {
            "start": 1, "fetch": 0, "close": 0
        }
        for shard in shards:
            sent = {
                op: shard_after[shard][op] - shard_before[shard][op]
                for op in ("start", "fetch", "close")
            }
            want = 1 if shard in targets else 0
            assert sent == {"start": want, "fetch": 0, "close": 0}, shard
        if win == (0, 30, 100, 36):
            assert len(targets) > 1  # the wide window really fans out


class _RecordingHandle:
    """A shard handle that records the typed rows of every ``put`` it is
    sent; a put is one request, never a session."""

    def __init__(self, shard):
        self.shard = shard
        self.rows = []

    def request(self, op, **fields):
        assert op == "put", op
        assert fields["table"] == "shapes"
        self.rows.extend(fields["rows"])
        return {"rows": len(fields["rows"]), "lsn": None}


class TestPutPlacement:
    def test_batch_placement_matches_per_row_routing(self):
        part = GridPartitioner.build(BOX, 3, 400, halo=1.5)
        spec = part.spec
        rng = random.Random(3)
        rows = []
        for i in range(200):
            # Half the rectangles start exactly on a tile edge.
            if i % 2:
                x = spec.min_x + rng.randrange(spec.nx) * spec.tile_w
                y = spec.min_y + rng.randrange(spec.ny) * spec.tile_h
            else:
                x, y = rng.uniform(0, 95), rng.uniform(0, 95)
            w = spec.tile_w if i % 3 == 0 else rng.uniform(0.1, 4.0)
            rows.append([i, to_wkt(Geometry.rectangle(x, y, x + w, y + 1.0))])
        handles = [_RecordingHandle(shard) for shard in range(3)]
        result = RouterService(handles, part).put("shapes", rows)
        assert result["placed"] == len(rows)
        for row in rows:
            placed = {h.shard for h in handles if row in h.rows}
            assert placed == part.shards_for_mbr(from_wkt(row[1]).mbr)
        # Each shard gets its rows as sent (the client's WKT), in batch order.
        for h in handles:
            assert h.rows == [row for row in rows if row in h.rows]


class TestKnnMerge:
    def test_global_topk_exact(self, fleet):
        cluster, ref, _rows = fleet
        from repro.geometry.distance import distance as exact_distance

        from repro.geometry.wkt import from_wkt

        query = from_wkt("POINT (47 53)")
        index = ref.spatial_index_on("shapes", "geom")
        table = ref.table("shapes")
        want = sorted(
            (
                exact_distance(query, index.geometry_of(r)),
                table.value(r, "id"),
            )
            for r in ref.select_rowids("shapes", "geom", "SDO_NN", [query, 7])
        )
        with cluster.client() as client:
            session = client.start(
                "knn",
                {"table": "shapes", "column": "geom",
                 "wkt": "POINT (47 53)", "k": 7},
            )
            got = [(d, i) for i, d in session.rows(page=16)]
        assert len(got) == 7
        assert got == sorted(got), "merged stream not distance-ordered"
        assert [i for _, i in got] == [i for _, i in want]

    def test_k_larger_than_data(self, fleet):
        cluster, _ref, rows = fleet
        with cluster.client() as client:
            session = client.start(
                "knn",
                {"table": "shapes", "column": "geom",
                 "wkt": "POINT (50 50)", "k": len(rows) * 2},
            )
            got = session.all(page=64)
        ids = [row[0] for row in got]
        assert sorted(ids) == sorted(r[0] for r in rows)
        assert len(ids) == len(set(ids)), "replica dedup failed"


class TestSqlBroadcast:
    def test_select_comes_from_leader_only(self, fleet):
        cluster, _ref, _rows = fleet
        with cluster.client() as client:
            session = client.start(
                "sql", {"statement": "select count(*) from shapes"}
            )
            rows = session.all()
        # One result set (the leader's), not one per shard.
        assert len(rows) == 1

    def test_statement_batch_validated(self, fleet):
        cluster, _ref, _rows = fleet
        with cluster.client() as client:
            with pytest.raises(RemoteError):
                client.start("sql", {"statements": []})


class TestPut:
    def test_rows_validated(self, fleet):
        cluster, _ref, _rows = fleet
        with cluster.client() as client:
            with pytest.raises(RemoteError):
                client.request("put", table="shapes", rows=[[1]])
            with pytest.raises(RemoteError):
                client.request(
                    "put", table="shapes", rows=[[1, "NOT A WKT"]]
                )

    @staticmethod
    def _everything(client):
        session = client.start(
            "window",
            {"table": "shapes", "column": "geom",
             "wkt": "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))"},
        )
        return sorted(row[0] for row in session.rows(page=256))

    @pytest.mark.parametrize(
        "fields",
        [
            {"table": "shapes", "rows": "not a list"},
            {"table": "shapes", "rows": []},
            {"table": "shapes", "rows": [[1, "POINT (5 5)", 3]]},
            {"table": "shapes", "rows": [[900, "POINT (5 5)"], [901, "NOT A WKT"]]},
            {"table": "no_such_table", "rows": [[900, "POINT (5 5)"], [901, "POINT (95 95)"]]},
        ],
        ids=["rows-not-a-list", "rows-empty", "wrong-arity", "bad-wkt", "unknown-table"],
    )
    def test_hostile_put_refused_with_nothing_applied(self, fleet, fields):
        cluster, _ref, rows = fleet
        with cluster.client() as client:
            with pytest.raises(RemoteError) as excinfo:
                client.request("put", **fields)
            assert excinfo.value.code == ERR_BAD_REQUEST
            assert self._everything(client) == sorted(r[0] for r in rows)
            assert client.request("topology")["shards"] == 3

    def test_refused_row_leaves_its_shard_unchanged(self, fleet):
        """A batch placed wholly on one shard whose 5th row has a
        non-numeric id: the shard undoes rows 1-4, and the router answers
        BAD_REQUEST naming the row."""
        cluster, _ref, rows = fleet
        part = cluster.partitioner
        batch = []
        for i in range(400):
            x, y = 3 + (i % 20) * 4.5, 3 + (i // 20) * 4.5
            wkt = to_wkt(Geometry.rectangle(x, y, x + 0.5, y + 0.5))
            if part.shards_for_mbr(from_wkt(wkt).mbr) == {0}:
                batch.append([1000 + len(batch), wkt])
            if len(batch) == 8:
                break
        assert len(batch) == 8
        batch[4][0] = "x"
        region = to_wkt(Geometry.from_mbr(
            union_all([from_wkt(wkt).mbr for _id, wkt in batch])
        ))
        with cluster.client() as client:
            count = client.start("sql", {"statement": "select count(*) from shapes"}).all()
            before = client.start(
                "window", {"table": "shapes", "column": "geom", "wkt": region}
            ).all()
            with pytest.raises(RemoteError) as excinfo:
                client.request("put", table="shapes", rows=batch)
            assert excinfo.value.code == ERR_BAD_REQUEST
            assert "put row 4 (id 'x')" in excinfo.value.remote_message
            assert client.start(
                "sql", {"statement": "select count(*) from shapes"}
            ).all() == count
            assert client.start(
                "window", {"table": "shapes", "column": "geom", "wkt": region}
            ).all() == before
            assert self._everything(client) == sorted(r[0] for r in rows)

    def test_topology_op(self, fleet):
        cluster, _ref, _rows = fleet
        with cluster.client() as client:
            topo = client.request("topology")
        assert topo["shards"] == 3
        assert topo["leader"] == 0
        assert topo["replicated"] is False
        assert topo["partitioner"]["shards"] == 3


class TestStatsRollup:
    def test_aggregate_covers_all_shards(self, fleet):
        cluster, _ref, _rows = fleet
        with cluster.client() as client:
            client.start(
                "window",
                {"table": "shapes", "column": "geom",
                 "wkt": "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"},
                n=1,
            ).all()
            stats = client.stats()
        assert set(stats["shards"]) == {"0", "1", "2", "router"}
        assert stats["queries"]["window"]["latency"]["count"] >= 3
        assert "topology" in stats
        # per-shard meters are visible for the simulated-cost rollup
        assert any(
            stats["shards"][k].get("meters") for k in ("0", "1", "2")
        )

    def test_prometheus_exposition_single_family(self, fleet):
        cluster, _ref, _rows = fleet
        with cluster.client() as client:
            text = client.metrics()
        assert text.count("# TYPE repro_sessions_active gauge") == 1
        assert "repro_requests_total" in text


class TestPartialFailure:
    """A dead shard fails typed, or is skipped under ``partial: true``."""

    @pytest.fixture()
    def wounded(self):
        rows = make_rows(60, seed=11)
        with LocalCluster(3, BOX, n_entries_hint=60, halo=1.0) as cluster:
            cluster.create_spatial_table("shapes")
            cluster.load("shapes", rows)
            cluster.procs[2].kill()
            yield cluster

    def test_shard_failure_is_typed(self, wounded):
        with wounded.client() as client:
            with pytest.raises(RemoteError) as excinfo:
                client.start(
                    "window",
                    {"table": "shapes", "column": "geom",
                     "wkt": "POLYGON ((0 0, 99 0, 99 99, 0 99, 0 0))"},
                ).all(page=32)
        assert excinfo.value.code == ERR_SHARD_FAILED

    def test_partial_opt_in_returns_survivors(self, wounded):
        with wounded.client() as client:
            session = client.start(
                "window",
                {"table": "shapes", "column": "geom",
                 "wkt": "POLYGON ((0 0, 99 0, 99 99, 0 99, 0 0))",
                 "partial": True},
            )
            rows = []
            while not session.eof:
                page, _ = session.fetch(32)
                rows.extend(page)
            summary = session.close()
        failed = [f["shard"] for f in summary["failed_shards"]]
        assert failed == [2]
        assert rows, "surviving shards returned nothing"
        assert set(summary["rows_per_shard"]) <= {"0", "1"}


class _StatsHandle:
    """A shard handle that answers ``stats`` with a canned snapshot."""

    def __init__(self, shard, snap):
        self.shard = shard
        self.snap = snap

    def request(self, op, **fields):
        assert op == "stats" and fields == {"raw": True}
        return {"stats": self.snap}


class TestStatsRollupRefusal:
    def test_foreign_bucket_table_is_skipped_and_counted(self):
        good, bad = ServerMetrics(shard_id=0), ServerMetrics(shard_id=1)
        good.record_query("window", 0.01, 3)
        bad.record_query("window", 0.02, 4)
        bad_snap = bad.snapshot(raw=True)
        bad_snap["queries"]["window"]["latency_raw"]["counts"].append(0)
        router = RouterService(
            [_StatsHandle(0, good.snapshot(raw=True)), _StatsHandle(1, bad_snap)],
            GridPartitioner.build(BOX, 2, 10),
        )
        rollup = ServerMetrics().twin()
        shards = router.shard_stats(rollup)
        assert set(shards) == {"0"}
        assert router.failures == {1: 1}
        window = rollup.snapshot()["queries"]["window"]
        assert window["rows"] == 3 and window["latency"]["count"] == 1
