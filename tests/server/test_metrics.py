"""LatencyHistogram edge cases and metrics snapshot/exposition behavior."""

import threading

import pytest

from repro.server.metrics import _BOUNDS, LatencyHistogram, ServerMetrics


class TestLatencyHistogramEdges:
    def test_empty_percentiles_are_zero(self):
        hist = LatencyHistogram()
        for p in (0, 50, 90, 99, 100):
            assert hist.percentile(p) == 0.0
        snap = hist.snapshot()
        assert snap == {
            "count": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p90_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
        }

    def test_single_sample(self):
        hist = LatencyHistogram()
        hist.record(0.010)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["mean_ms"] == 10.0
        assert snap["max_ms"] == 10.0
        # every percentile lands in the one occupied bucket, whose upper
        # bound is the first power-of-two bound >= the sample
        for p in (50, 90, 99):
            bound = hist.percentile(p)
            assert 0.010 <= bound <= 0.0128 + 1e-12

    def test_value_beyond_last_bucket_bound(self):
        hist = LatencyHistogram()
        huge = _BOUNDS[-1] * 10  # way past the ~2min top bound
        hist.record(huge)
        assert hist.counts[-1] == 1  # overflow bucket
        assert hist.percentile(99) == huge  # reports the observed max
        assert hist.snapshot()["max_ms"] == pytest.approx(huge * 1000.0)

    def test_value_exactly_on_a_bound(self):
        hist = LatencyHistogram()
        hist.record(_BOUNDS[3])
        assert hist.counts[3] == 1  # bisect_left: bound value stays in bucket

    def test_zero_and_negative_clamp_to_first_bucket(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(-0.001)  # clock skew defensive case
        assert hist.counts[0] == 2

    def test_snapshot_stable_under_concurrent_record(self):
        hist = LatencyHistogram()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                hist.record(0.0001 * (i % 50 + 1))
                i += 1

        def reader():
            while not stop.is_set():
                snap = hist.snapshot()
                try:
                    assert snap["count"] >= 0
                    assert snap["max_ms"] >= 0.0
                    for p in (50, 90, 99):
                        hist.percentile(p)
                except AssertionError as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(0.3, stop.set)
        stop_timer.start()
        for t in threads:
            t.join()
        stop_timer.cancel()
        assert not errors
        # final state is consistent once writers are quiescent
        assert sum(hist.counts) == hist.total


class TestSnapshotStorageSchema:
    def test_storage_zeros_when_absent(self):
        snap = ServerMetrics().snapshot()
        assert snap["storage"] == {
            "durability": "none",
            "num_pages": 0,
            "page_size": 0,
            "physical_reads": 0,
            "physical_writes": 0,
            "buffer_hit_ratio": 0.0,
            "prefetches": 0,
            "prefetch_hits": 0,
            "wal_bytes": 0,
            "recovered_pages": 0,
            "columnar_segments": 0,
            "columnar_chunks": 0,
            "columnar_pages": 0,
            "columnar_journal_rows": 0,
            "columnar_zone_prunes": 0,
        }

    def test_storage_merges_real_stats_over_zeros(self):
        snap = ServerMetrics(
            storage=lambda: {"durability": "wal", "wal_bytes": 77, "commits": 3}
        ).snapshot()
        assert snap["storage"]["durability"] == "wal"
        assert snap["storage"]["wal_bytes"] == 77
        assert snap["storage"]["commits"] == 3
        assert snap["storage"]["recovered_pages"] == 0  # zero-filled


def _bucket_table(n):
    return {"counts": [1] * n, "total": n, "sum_seconds": 1.0, "max_seconds": 2.0}


def _assert_snapshot_refused(latency_raw):
    """A shard snapshot whose knn histogram is ``latency_raw`` (``None``:
    no buckets at all) is refused whole by a router rollup."""
    shard = ServerMetrics(shard_id=0)
    shard.record_request("start", ok=True)
    shard.record_query("knn", 0.01, 3)
    snap = shard.snapshot(raw=True)
    if latency_raw is None:
        del snap["queries"]["knn"]["latency_raw"]
    else:
        snap["queries"]["knn"]["latency_raw"] = latency_raw
    rollup = ServerMetrics().twin()
    with pytest.raises(ValueError):
        rollup.merge_snapshot(snap)
    # nothing of the refused snapshot was merged
    assert rollup.snapshot() == ServerMetrics().snapshot()


def _router_rollup(*snaps):
    """Roll shard ``stats`` snapshots up the way the router does, through
    :meth:`RouterService.shard_stats` over fake handles (``None``: a shard
    that does not answer).  Returns the rollup's stats, the per-shard
    sections and the router."""
    from repro.cluster.partition import GridPartitioner
    from repro.cluster.router import RouterService
    from repro.geometry.mbr import MBR

    class Handle:
        def __init__(self, shard, snap):
            self.shard, self.snap = shard, snap

        def request(self, op, **fields):
            if self.snap is None:
                raise OSError("shard down")
            return {"stats": self.snap}

    handles = [Handle(i, snap) for i, snap in enumerate(snaps)]
    router = RouterService(
        handles, GridPartitioner.build(MBR(0, 0, 10, 10), len(handles), 10)
    )
    rollup = ServerMetrics().twin()
    shards = router.shard_stats(rollup)
    return rollup.snapshot(), shards, router


class TestHistogramMerge:
    def test_merge_sums_buckets_and_extrema(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.001)
        a.record(0.010)
        b.record(0.010)
        b.record(5.0)
        a.merge(b)
        assert a.total == 4
        assert a.sum_seconds == pytest.approx(5.021)
        assert a.max_seconds == 5.0
        assert sum(a.counts) == 4

    def test_merge_from_shorter_bucket_table(self):
        # A bucket table that stops earlier than ours is not realigned:
        # its buckets cannot be placed without guessing, so it is refused.
        short = _bucket_table(len(_BOUNDS) - 2)
        with pytest.raises(ValueError):
            LatencyHistogram.from_raw(short)
        _assert_snapshot_refused(short)

    def test_merge_from_longer_bucket_table(self):
        # A bucket table with more buckets than ours is not folded into
        # our overflow bucket: it is refused.
        long = _bucket_table(len(_BOUNDS) + 5)
        with pytest.raises(ValueError):
            LatencyHistogram.from_raw(long)
        _assert_snapshot_refused(long)

    def test_raw_round_trip_preserves_percentiles(self):
        a = LatencyHistogram()
        for ms in (1, 2, 5, 10, 50, 100, 500):
            a.record(ms / 1000.0)
        clone = LatencyHistogram.from_raw(a.raw())
        assert clone.snapshot() == a.snapshot()

    def test_empty_raw_is_noop(self):
        a = LatencyHistogram()
        a.record(0.004)
        before = a.snapshot()
        a.merge(LatencyHistogram.from_raw(LatencyHistogram().raw()))
        assert a.snapshot() == before


class TestRefuseUncheckedHistograms:
    """A histogram from another process is merged only when its bucket
    table is this process's: otherwise the whole snapshot is refused
    (the router then counts that shard as failed)."""

    @pytest.mark.parametrize(
        "latency_raw",
        [
            dict(_bucket_table(len(_BOUNDS) + 1), counts=[-1] + [1] * len(_BOUNDS)),
            dict(_bucket_table(len(_BOUNDS) + 1), total=3),  # total != sum
        ],
        ids=["negative", "total"],
    )
    def test_foreign_histogram_refuses_the_snapshot(self, latency_raw):
        with pytest.raises(ValueError):
            LatencyHistogram.from_raw(latency_raw)
        _assert_snapshot_refused(latency_raw)


class TestAggregateSnapshots:
    def _snap(self, shard, ms_samples, rows=10):
        m = ServerMetrics(shard_id=shard, active_sessions=lambda: 1)
        for ms in ms_samples:
            m.record_query("window", ms / 1000.0, rows)
        m.bump_session("opened", 2)
        return m.snapshot(raw=True)

    def test_counters_sum_and_histograms_merge_exactly(self):
        out, shards, _ = _router_rollup(
            self._snap(0, [1, 2, 3]), self._snap(1, [100, 200, 300])
        )
        q = out["queries"]["window"]
        assert q["rows"] == 60
        assert q["latency"]["count"] == 6
        # Exact merge: the p99 reflects shard 1's slow samples, which an
        # average of per-shard percentile estimates would understate.
        assert q["latency"]["p99_ms"] >= 200.0
        assert out["sessions"]["opened"] == 4
        assert out["sessions"]["active"] == 2
        assert set(shards) == {"0", "1"}

    def test_fallback_without_raw_keeps_counts(self):
        # A snapshot without latency_raw carries only estimates, which no
        # rollup can merge exactly: it is refused, and the rollup keeps
        # its own counts untouched.
        m = ServerMetrics(shard_id=7)
        for ms in (10, 20, 30):
            m.record_query("knn", ms / 1000.0, 1)
        assert "latency_raw" not in m.snapshot()["queries"]["knn"]
        rollup = ServerMetrics().twin()
        rollup.merge_snapshot(self._snap(0, [1, 2, 3]))
        before = rollup.snapshot()
        with pytest.raises(ValueError):
            rollup.merge_snapshot(m.snapshot())
        assert rollup.snapshot() == before
        assert rollup.snapshot()["queries"]["window"]["latency"]["count"] == 3
        _assert_snapshot_refused(None)

    def test_per_shard_meters_preserved(self):
        from repro.engine.cost import WorkMeter

        m = ServerMetrics(shard_id=3)
        meter = WorkMeter()
        meter.add("mbr_test", 40)
        m.merge_meter("window", meter)
        out, shards, _ = _router_rollup(m.snapshot(raw=True))
        assert shards["3"]["meters"]["window"]["mbr_test"] == 40
        assert out["meters"]["window"]["mbr_test"] == 40


class TestAggregateHeterogeneous:
    """Real clusters ship uneven snapshots: in-memory shards have no
    storage section, restarted shards miss resilience keys the router
    has, and a fully-degraded scrape can arrive empty."""

    def test_missing_storage_section(self):
        durable = ServerMetrics(shard_id=0)
        durable.record_query("window", 0.01, 5)
        durable_snap = durable.snapshot(raw=True)
        durable_snap["storage"] = {"pages": 12, "wal_records": 3}

        in_memory = ServerMetrics(shard_id=1)
        in_memory.record_query("window", 0.02, 7)
        memory_snap = in_memory.snapshot(raw=True)
        del memory_snap["storage"]  # in-memory shard: nothing to report

        out, shards, _ = _router_rollup(durable_snap, memory_snap)
        # Query counters still merge across both shards...
        assert out["queries"]["window"]["rows"] == 12
        assert out["queries"]["window"]["latency"]["count"] == 2
        # ...and the storage views stay per-shard, absent one included;
        # page counts are per file, so the rollup keeps its own schema.
        assert shards["0"]["storage"]["pages"] == 12
        assert shards["1"]["storage"] == {}
        assert out["storage"]["num_pages"] == 0

    def test_mismatched_resilience_keys(self):
        a = ServerMetrics(shard_id=0)
        a.bump_resilience("retries", 3)
        a.bump_resilience("hedges", 1)
        b = ServerMetrics(shard_id=1)
        b.bump_resilience("retries", 2)
        b.bump_resilience("restarts", 1)  # unknown to shard 0

        rollup = ServerMetrics().twin()
        rollup.merge_snapshot(a.snapshot(raw=True))
        rollup.merge_snapshot(b.snapshot(raw=True))
        out = rollup.snapshot()
        assert out["resilience"]["retries"] == 5
        assert out["resilience"]["hedges"] == 1
        assert out["resilience"]["restarts"] == 1
        # Zero-valued standard keys survive (dashboards key on them).
        assert out["resilience"]["deadline_misses"] == 0

    def test_zero_shard_input(self):
        out, shards, router = _router_rollup(None, None)
        assert shards == {}
        assert router.failures == {0: 1, 1: 1}
        assert out["requests"] == {}
        assert out["queries"] == {}
        assert out["meters"] == {}
        assert out["sessions"]["active"] == 0
        # The storage rollup keeps its zero schema so consumers can
        # read fields without existence checks.
        assert out["storage"]["num_pages"] == 0
        assert out["storage"]["physical_reads"] == 0
