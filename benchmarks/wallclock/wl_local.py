"""``local_query`` — single-table queries in process, no wire.

The in-process floor for the serving workloads (the same kind of window
query with no server, router or codec in the way), and the storage-bound
workload: index windows read a few heap rows each, ``window_scan`` over
the compacted copy reads zone maps and column chunks.
"""

from __future__ import annotations

from typing import List

from common import Budget, Report, Series, SpanRecorder, ms, timed
from inputs import area_windows, stream, windows_on
from oracle import knn_distances, window_ids
from workload import Workload

from repro import Database
from repro.datasets import SKY_EXTENT, load_geometries
from repro.geometry.distance import distance
from repro.geometry.geometry import Geometry

CHECKS = 50
KNN_K = 10
INDEX_WINDOW_SHARE = 0.0004  # 0.04 % of the sky, over a star: part of one cluster
SCAN_WINDOW_SHARE = 0.01  # 1 % of the sky: zone maps prune most chunks, not all
SMALL_POOL = 128  # pages; the tables do not fit (the default 1024 does)


class LocalQuery(Workload):
    name = "local_query"
    primary = "index window query, list(Database.select_rowids(SDO_RELATE)) on a heap table"
    alt = "Database.window_scan over the compacted (columnar) copy, 1 % windows"
    aliases = {"op_p50_ms": "window_p50_ms", "alt_p50_ms": "scan_col_p50_ms"}

    def setup(self) -> None:
        self.generate()
        self.db = self.load(Database())
        self.db.create_spatial_index("s_sidx", "s", "geom", kind="RTREE")

    def load(self, db: Database) -> Database:
        """The rows twice: ``s`` stays a heap table, ``sc`` is compacted."""
        load_geometries(db, "s", self.geoms)
        load_geometries(db, "sc", self.geoms)
        db.compact_table("sc")
        return db

    def teardown(self) -> None:
        self.db = None

    def index_window(self, window: Geometry) -> List:
        return list(self.db.select_rowids("s", "geom", "SDO_RELATE", [window, "ANYINTERACT"]))

    def run(self, report: Report) -> None:
        self.guard_inputs(report)
        rng = stream(self.cfg.seed, "local_query/run")
        index_windows = windows_on(rng, 4000, self.geoms, SKY_EXTENT, INDEX_WINDOW_SHARE)
        scan_windows = windows_on(rng, 800, self.geoms, SKY_EXTENT, SCAN_WINDOW_SHARE)
        op, alt = ms(), ms()
        self.index_window(index_windows[-1])
        self.db.window_scan("sc", "geom", scan_windows[-1])  # warm-ups, discarded
        # 40 % of the time on index windows, 60 % on columnar scans, in
        # alternating slices so a slow spell of the host hits both.
        budget = Budget(self.cfg.seconds)
        i = j = 0
        while budget.left() or len(alt) < 4:
            slice_ = Budget(0.08)
            while slice_.left():
                seconds, _rows = timed(lambda: self.index_window(index_windows[i % len(index_windows)]))
                op.add(seconds)
                i += 1
            slice_ = Budget(0.12)
            while slice_.left():
                seconds, _rows = timed(
                    lambda: self.db.window_scan("sc", "geom", scan_windows[j % len(scan_windows)])
                )
                alt.add(seconds)
                j += 1
        report.ok(len(op) + len(alt))
        self.emit(report, op, alt)

    def check(self, report: Report) -> None:
        rng = stream(self.cfg.seed, "local_query/check")
        ids = {rowid: row[0] for rowid, row in self.db.table("s").scan()}
        for window in area_windows(rng, CHECKS, SKY_EXTENT, 0.001):
            got = {ids[r] for r in self.index_window(window)}
            want = window_ids(self.geoms, window)
            report.check(got == want, f"index window: {len(got)} rows, brute force {len(want)}")
        index = self.db.spatial_index_on("s", "geom")
        for probe in area_windows(rng, CHECKS, SKY_EXTENT, 0.00001):
            rows = list(self.db.select_rowids("s", "geom", "SDO_NN", [probe, KNN_K]))
            got = sorted(distance(index.geometry_of(r), probe) for r in rows)
            want = knn_distances(self.geoms, probe, KNN_K)
            report.check(got == want, f"SDO_NN k={KNN_K}: distances differ from brute force")
        col_ids = {rowid: row[0] for rowid, row in self.db.table("sc").scan()}
        for share in (0.0004, 0.01, 0.04):
            for window in area_windows(rng, 2, SKY_EXTENT, share):
                heap = [ids[r] for r in self.db.window_scan("s", "geom", window)]
                columnar = [col_ids[r] for r in self.db.window_scan("sc", "geom", window)]
                report.check(
                    heap == columnar,
                    f"heap and columnar window_scan differ ({len(heap)} vs {len(columnar)} rows)",
                )
                want = window_ids(self.geoms, window)
                report.check(
                    set(heap) == want,
                    f"window_scan: {len(heap)} rows, brute force {len(want)}",
                )

    def trace(self, report: Report, rec: SpanRecorder) -> None:
        self.guard_inputs(report)
        rng = stream(self.cfg.seed, "local_query/trace")
        samples = self.cfg.samples
        index = self.db.spatial_index_on("s", "geom")
        table = self.db.table("s")
        windows = windows_on(rng, samples(800), self.geoms, SKY_EXTENT, INDEX_WINDOW_SHARE)
        plain = ms()
        for w in windows:
            plain.add(timed(lambda: self.index_window(w))[0])
        traced = ms()
        for n, w in enumerate(windows):
            with rec.span("window", op=f"window#{n}") as sp:
                self.index_window(w)
            traced.add(sp["end"] - sp["start"])
        report.put("obs.bench_trace_overhead_share",
                   (traced.median - plain.median) / plain.median, "ratio", len(windows))
        with report.probe("rtree.window_probe_us"):
            probe = Series("us", 1e6)
            for w in windows:
                probe.add(timed(lambda: list(index.fetch("SDO_FILTER", [w], exact=False)))[0])
            report.put_series("rtree.window_probe_us", probe)
        with report.probe("rtree.knn_us", "bench.knn_p50_ms"):
            mbr_only, exact = Series("us", 1e6), ms()
            for q in area_windows(rng, samples(200), SKY_EXTENT, 0.00001):
                mbr_only.add(timed(lambda: list(index.fetch_nn([q, KNN_K], exact=False)))[0])
                exact.add(timed(
                    lambda: list(self.db.select_rowids("s", "geom", "SDO_NN", [q, KNN_K]))
                )[0])
            report.put_series("rtree.knn_us", mbr_only)
            report.put_series("bench.knn_p50_ms", exact)
        with report.probe("bench.scan_p50_ms", "storage.buffer_hit_ratio"):
            scans = ms()
            for w in area_windows(rng, samples(8), SKY_EXTENT, 0.0004):
                with rec.span("storage.heap_window_scan", op="scan"):
                    scans.add(timed(lambda: self.db.window_scan("s", "geom", w))[0])
            report.put_series("bench.scan_p50_ms", scans)
            report.put("storage.buffer_hit_ratio",
                       self.db.storage_stats()["buffer_hit_ratio"], "ratio")
        with report.probe("bench.scan_small_pool_p50_ms", "storage.buffer_hit_ratio_small_pool"):
            small = self.load(Database(buffer_capacity=SMALL_POOL))
            scans = ms()
            for w in area_windows(rng, samples(4), SKY_EXTENT, 0.0004):
                scans.add(timed(lambda: small.window_scan("s", "geom", w))[0])
            report.put_series("bench.scan_small_pool_p50_ms", scans)
            report.put("storage.buffer_hit_ratio_small_pool",
                       small.storage_stats()["buffer_hit_ratio"], "ratio")
        with report.probe("storage.heap_scan_rows_per_s"):
            with rec.span("storage.heap_scan", op="scan"):
                rows = sum(1 for _ in table.scan())
            report.put("storage.heap_scan_rows_per_s",
                       rows / rec.total("storage.heap_scan"), "1/s", rows)
        with report.probe("storage.codec_decode_mb_s", "geometry.sdo_decode_us"):
            from repro.storage.codec import decode_row

            blobs = [data for _rid, data in table.heap.scan()]
            seconds, _ = timed(lambda: [decode_row(b) for b in blobs])
            megabytes = sum(len(b) for b in blobs) / 1e6
            report.put("storage.codec_decode_mb_s", megabytes / seconds, "MB/s", len(blobs))
            report.put("geometry.sdo_decode_us", seconds / len(blobs) * 1e6, "us", len(blobs))
        with report.probe("storage.col_scan_rows_per_s", "storage.zone_prune_ratio"):
            segment = self.db.table("sc").columnar
            before = segment.stats()["zone_prunes"]
            probes = area_windows(rng, samples(40), SKY_EXTENT, 0.04)
            with rec.span("storage.col_window_scan", op="scan"):
                returned = sum(
                    len(self.db.window_scan("sc", "geom", w, exact=False)) for w in probes
                )
            chunks = segment.stats()["chunks"] * len(probes)
            report.put("storage.col_scan_rows_per_s",
                       returned / rec.total("storage.col_window_scan"), "1/s", returned)
            report.put("storage.zone_prune_ratio",
                       (segment.stats()["zone_prunes"] - before) / chunks, "ratio", chunks)
        with report.probe("storage.compact_s"):
            with rec.span("storage.compact", op="compact"):
                self.db.compact_table("sc")
            report.put("storage.compact_s", rec.total("storage.compact"), "s")
