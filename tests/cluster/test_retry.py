"""Retry, resume, hedging, and partial-failure behavior of the
scatter-gather path under real shard death and slow links."""

import random
import threading
import time

import pytest

from repro import Geometry
from repro.cluster.chaos import NetFaultPlan
from repro.cluster.local import LocalCluster
from repro.cluster.router import (
    RetryPolicy,
    ShardFailed,
    _GatherStream,
    _Resume,
    _SubSession,
)
from repro.geometry.mbr import MBR
from repro.geometry.wkt import to_wkt
from repro.server.client import RemoteError

BOX = MBR(0.0, 0.0, 100.0, 100.0)
FULL_WINDOW = "POLYGON ((0 0, 99 0, 99 99, 0 99, 0 0))"


def make_rows(n, seed):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 94), rng.uniform(0, 94)
        rect = Geometry.rectangle(
            x, y, x + rng.uniform(0.3, 3.0), y + rng.uniform(0.3, 3.0)
        )
        rows.append([i, to_wkt(rect)])
    return rows


def window_params(**extra):
    params = {"table": "shapes", "column": "geom", "wkt": FULL_WINDOW}
    params.update(extra)
    return params


class TestSkipResume:
    def test_kill_and_restart_mid_stream_is_exactly_once(self):
        """A durable shard dies between pages; the re-scattered slice
        resumes after the rows already delivered — no dup, no gap."""
        rows = make_rows(80, seed=5)
        with LocalCluster(
            1,
            BOX,
            n_entries_hint=80,
            halo=1.0,
            durable=True,
            retry=RetryPolicy(max_attempts=6, budget=32, backoff=0.05),
            gather_page=8,
        ) as cluster:
            cluster.create_spatial_table("shapes")
            cluster.load("shapes", rows)
            with cluster.client() as client:
                session = client.start("window", window_params())
                first, eof = session.fetch(16)
                assert len(first) == 16 and not eof
                cluster.kill_shard(0)
                cluster.restart_shard(0)
                rest = []
                while not session.eof:
                    page, _ = session.fetch(16)
                    rest.extend(page)
                session.close()
            got = sorted(row[0] for row in first + rest)
            assert got == sorted(r[0] for r in rows)
            assert len(got) == len(set(got)), "resume duplicated rows"
            assert cluster.router.resilience.get("rescatters", 0) >= 1


class _ScriptedHandle:
    shard = 0

    def close_session(self, session_id):
        pass


class _ScriptedService:
    """Serves one shard slice whose first run drops its connection after
    ``cut`` rows and whose re-run replays ``replay``."""

    gather_page = 2
    handles = [_ScriptedHandle()]

    def __init__(self, first, cut, replay):
        self.runs = {"first": (first, cut), "replay": (replay, None)}

    def _fetch_page(self, stream, sub, page):
        rows, cut = self.runs[sub.session_id]
        start = sub.extra.setdefault("pos", 0)
        if cut is not None and start >= cut:
            raise _Resume(OSError("connection reset"))
        chunk = rows[start : start + page]
        sub.extra["pos"] = start + len(chunk)
        return chunk, sub.extra["pos"] >= len(rows)

    def _rescatter(self, stream, sub, count, sig):
        return _SubSession(sub.handle, "replay", {})


def drain_scripted(first, cut, replay):
    service = _ScriptedService(first, cut, replay)
    stream = _GatherStream(
        service, lambda s: iter(()), "window", lambda shard: {}, None, None, False
    )
    sub = _SubSession(service.handles[0], "first", {})
    return list(stream.drain(sub)), stream.info["rows_per_shard"]


class TestResumeMatchesRowsByValue:
    """A resumed slice drops one replayed row per delivered row, matched
    by value, so it is exact whatever order the replay takes."""

    ROWS = [[0], [1], [1], [2], [3], [4], [5]]

    def test_same_order_replay_is_byte_identical(self):
        got, per_shard = drain_scripted(self.ROWS, 4, self.ROWS)
        assert got == self.ROWS
        assert per_shard == {"0": len(self.ROWS)}

    def test_reordered_replay_yields_every_row_once(self):
        # A restarted shard rebuilt its index: same rows, another order.
        replay = [[5], [1], [3], [0], [4], [2], [1]]
        got, _ = drain_scripted(self.ROWS, 4, replay)
        assert got[:4] == self.ROWS[:4]
        assert got[4:] == [[5], [3], [4]]  # the rest, in replay order

    def test_replay_missing_a_delivered_row_fails_typed(self):
        replay = [[0], [1], [3], [4], [5]]  # lost one [1] and the [2]
        with pytest.raises(ShardFailed, match="resume underrun"):
            drain_scripted(self.ROWS, 4, replay)


class TestPartialSummaries:
    def test_shard_dying_between_pages_lands_in_close_summary(self):
        rows = make_rows(60, seed=9)
        with LocalCluster(
            2,
            BOX,
            n_entries_hint=60,
            halo=1.0,
            retry=RetryPolicy(max_attempts=2, budget=4, backoff=0.01),
            gather_page=8,
        ) as cluster:
            cluster.create_spatial_table("shapes")
            cluster.load("shapes", rows)
            with cluster.client() as client:
                session = client.start(
                    "window", window_params(partial=True)
                )
                got, _ = session.fetch(8)  # shard 0 is streaming fine
                cluster.kill_shard(1)
                while not session.eof:
                    page, _ = session.fetch(8)
                    got.extend(page)
                summary = session.close()
            failed = [f["shard"] for f in summary["failed_shards"]]
            assert failed == [1]
            # shard 0's slice arrived intact despite its peer dying
            assert got, "the surviving shard's rows were lost"
            assert summary["rows_per_shard"].get("0", 0) > 0
            assert len(got) == len({row[0] for row in got})

    def test_two_shards_dead_in_one_scatter(self):
        rows = make_rows(60, seed=13)
        with LocalCluster(
            3,
            BOX,
            n_entries_hint=60,
            halo=1.0,
            retry=RetryPolicy(max_attempts=2, budget=4, backoff=0.01),
        ) as cluster:
            cluster.create_spatial_table("shapes")
            cluster.load("shapes", rows)
            cluster.kill_shard(1)
            cluster.kill_shard(2)
            with cluster.client() as client:
                session = client.start(
                    "window", window_params(partial=True)
                )
                got = []
                while not session.eof:
                    page, _ = session.fetch(32)
                    got.extend(page)
                summary = session.close()
            failed = sorted(f["shard"] for f in summary["failed_shards"])
            assert failed == [1, 2]
            assert set(summary["rows_per_shard"]) <= {"0"}


class TestHedging:
    def test_slow_dripping_shard_is_hedged_not_waited_on(self):
        """A drip-fed link trips the hedge SLO; the hedge re-runs the
        slice on a fresh connection and the result stays exact."""
        rows = make_rows(40, seed=21)
        plan = NetFaultPlan(3)
        with LocalCluster(
            2,
            BOX,
            n_entries_hint=40,
            halo=1.0,
            chaos_plan=plan,
            retry=RetryPolicy(
                max_attempts=6, budget=50, backoff=0.02, hedge_ms=100
            ),
            gather_page=8,
        ) as cluster:
            cluster.create_spatial_table("shapes")
            cluster.load("shapes", rows)
            # Arm the drip only now: DDL and load traffic stays fast,
            # the query below hits a link feeding 16 bytes per 30 ms.
            plan.drip["shard0.down"] = (16, 0.03)
            healer = threading.Timer(0.4, plan.heal)
            healer.start()
            try:
                with cluster.client() as client:
                    session = client.start("window", window_params())
                    got = sorted(row[0] for row in session.rows(page=16))
            finally:
                healer.cancel()
                plan.heal()
            assert got == sorted(r[0] for r in rows)
            assert cluster.router.resilience.get("hedges", 0) >= 1


    def test_slow_first_page_is_hedged_and_the_straggler_closed(self):
        """The first page rides in the sub-session start, so a slow start
        is hedged like a slow fetch; the abandoned start's session is
        closed once its late response arrives."""
        rows = make_rows(40, seed=22)
        plan = NetFaultPlan(5)
        with LocalCluster(
            2,
            BOX,
            n_entries_hint=40,
            halo=1.0,
            chaos_plan=plan,
            retry=RetryPolicy(
                max_attempts=6, budget=50, backoff=0.02, hedge_ms=100
            ),
            gather_page=8,
        ) as cluster:
            cluster.create_spatial_table("shapes")
            cluster.load("shapes", rows)
            plan.latency["shard0.down"] = (0.3, 0.0)
            healer = threading.Timer(0.25, plan.heal)
            healer.start()
            try:
                with cluster.client() as client:
                    session = client.start("window", window_params())
                    got = sorted(row[0] for row in session.rows(page=16))
            finally:
                healer.cancel()
                plan.heal()
            assert got == sorted(r[0] for r in rows)
            assert cluster.router.resilience.get("hedges", 0) >= 1
            shard0 = cluster.router.handles[0]
            deadline = time.monotonic() + 5.0
            while shard0.request("stats")["stats"]["sessions"]["active"]:
                assert time.monotonic() < deadline, "a hedged start leaked"
                time.sleep(0.05)


class TestDeadlineBoundsRetries:
    def test_retries_never_outlive_the_session_deadline(self):
        """With a dead shard and a generous retry policy, the session
        deadline cuts the retry loop short instead of letting backoff
        sleeps run the clock out."""
        rows = make_rows(30, seed=17)
        with LocalCluster(
            2,
            BOX,
            n_entries_hint=30,
            halo=1.0,
            retry=RetryPolicy(max_attempts=50, budget=100, backoff=0.2),
            breaker_threshold=1000,
        ) as cluster:
            cluster.create_spatial_table("shapes")
            cluster.load("shapes", rows)
            cluster.kill_shard(1)
            started = time.monotonic()
            with cluster.client() as client:
                with pytest.raises(RemoteError):
                    client.start(
                        "window", window_params(), deadline_ms=500
                    ).all(page=32)
            elapsed = time.monotonic() - started
            assert elapsed < 2.5, (
                f"deadline-bounded query took {elapsed:.2f}s — retries "
                "are sleeping past the session deadline"
            )
