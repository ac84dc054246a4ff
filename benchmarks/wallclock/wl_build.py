"""``index_build`` — the paper's Table 3: spatial index creation.

Exercises tessellation, the B-tree and STR bulk loading — layers the
joins bypass.  A join optimisation must leave this workload unmoved.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from common import Budget, Report, Series, SpanRecorder, ms, timed
from inputs import area_windows, stream
from oracle import window_ids
from workload import Workload

from repro import Database
from repro.datasets import BLOCKGROUP_EXTENT, load_geometries

CHECK_WINDOWS = 50


class IndexBuild(Workload):
    name = "index_build"
    primary = "create_spatial_index(kind='QUADTREE') over the block-group layer, then drop"
    alt = "create_spatial_index(kind='RTREE') over the same rows, then drop"
    aliases = {"op_p50_ms": "build_quadtree_s", "alt_p50_ms": "build_rtree_s"}

    def setup(self) -> None:
        self.generate()
        self.db = Database()
        self.table = load_geometries(self.db, "b", self.geoms)
        self.built: Dict[str, Any] = {}  # kind -> (index, report) of the last build

    def teardown(self) -> None:
        self.db = self.table = None

    def build(self, kind: str, series: Series) -> None:
        # maintain=False: a dropped index would otherwise stay referenced by
        # the table's DML hook, and peak RSS would grow with the run length.
        name = f"b_{kind.lower()}"
        seconds, self.built[kind] = timed(
            lambda: self.db.create_spatial_index(name, "b", "geom", kind=kind, maintain=False)
        )
        series.add(seconds)
        self.db.drop_index(name)

    def run(self, report: Report) -> None:
        self.guard_inputs(report)
        op, alt = ms(), ms()
        discard = ms()
        self.build("QUADTREE", discard)
        self.build("RTREE", discard)
        budget = Budget(self.cfg.seconds)
        while budget.left() or len(op) < 2:
            self.build("QUADTREE", op)
            for _ in range(5):
                self.build("RTREE", alt)
        report.ok(len(op) + len(alt))
        self.emit(report, op, alt)

    def check(self, report: Report) -> None:
        """Both built indexes answer windows like a brute-force scan."""
        rng = stream(self.cfg.seed, "index_build/check")
        probes = area_windows(rng, CHECK_WINDOWS, BLOCKGROUP_EXTENT, 0.01)
        ids = {rowid: row[0] for rowid, row in self.table.scan()}
        _index, build_report = self.built["QUADTREE"]
        self.guard_count(report, "tiles", build_report.tiles_created)
        for kind, (index, _report) in self.built.items():
            for window in probes:
                got = {ids[r] for r in index.fetch("SDO_RELATE", [window, "ANYINTERACT"])}
                want = window_ids(self.geoms, window)
                report.check(
                    got == want,
                    f"{kind} index window answer differs from brute force "
                    f"({len(got)} vs {len(want)} rows)",
                )

    def trace(self, report: Report, rec: SpanRecorder) -> None:
        self.guard_inputs(report)
        k = self.cfg.repeats
        quad, rtree = Series("s"), Series("s")
        for i in range(k):
            with rec.span("build.quadtree", op=f"quadtree#{i}"):
                self.build("QUADTREE", quad)
            with rec.span("build.rtree", op=f"rtree#{i}"):
                self.build("RTREE", rtree)
        index, build_report = self.built["QUADTREE"]
        rows = [(rowid, row[1]) for rowid, row in self.table.scan()]
        with report.probe("quadtree.tessellate_s", "quadtree.tiles",
                          "quadtree.tiles_per_geom", "quadtree.btree_load_s"):
            from repro.index.quadtree.tessellate import tessellate
            from repro.storage.btree import BPlusTree

            with rec.span("quadtree.tessellate", op="layers"):
                items = [
                    ((tile.code, rowid), tile.interior)
                    for rowid, geom in rows
                    for tile in tessellate(geom, index.grid)
                ]
            items.sort(key=lambda kv: kv[0])
            with rec.span("quadtree.btree_load", op="layers"):
                BPlusTree.bulk_load(items, order=index.btree_order)
            report.put("quadtree.tessellate_s", rec.total("quadtree.tessellate"), "s")
            report.put("quadtree.tiles", len(items), "count")
            report.put("quadtree.tiles_per_geom", len(items) / len(rows), "count", len(rows))
            report.put("quadtree.btree_load_s", rec.total("quadtree.btree_load"), "s")
            report.check(
                len(items) == build_report.tiles_created,
                f"tessellate() made {len(items)} tiles, the index build {build_report.tiles_created}",
            )
        with report.probe("rtree.bulkload_s", "rtree.insert_us"):
            from repro.index.rtree.bulkload import str_pack

            entries = [(geom.mbr, rowid) for rowid, geom in rows]
            with rec.span("rtree.bulkload", op="layers"):
                tree = str_pack(entries)
            report.put("rtree.bulkload_s", rec.total("rtree.bulkload"), "s")
            fresh = entries[: max(1, len(entries) // 4)]
            with rec.span("rtree.insert", op="layers"):
                for mbr, rowid in fresh:
                    tree.insert(mbr, rowid)
            report.put("rtree.insert_us", rec.total("rtree.insert") / len(fresh) * 1e6, "us", len(fresh))
        with report.probe("storage.insert_us_per_row"):
            seconds, _ = timed(lambda: load_geometries(Database(), "probe", self.geoms))
            report.put("storage.insert_us_per_row", seconds / len(self.geoms) * 1e6, "us", len(self.geoms))
        with report.probe("storage.wal_commit_ms", "storage.wal_bytes_per_user_byte"):
            from repro.storage.codec import encode_row

            path = os.path.join(str(self.cfg.tmp), "wal_probe.db")
            db = Database.open(path, durability="wal")
            try:
                table = load_geometries(db, "w", self.geoms)
                with rec.span("storage.wal_commit", op="layers"):
                    db.commit()
                user_bytes = sum(len(encode_row(row)) for _rid, row in table.scan())
                wal_bytes = db.storage_stats()["wal_bytes"]
            finally:
                db.close(checkpoint=False)
            report.put("storage.wal_commit_ms", rec.total("storage.wal_commit") * 1e3, "ms")
            report.put("storage.wal_bytes_per_user_byte", wal_bytes / user_bytes, "ratio")
        with report.probe("engine.sim_s", "engine.sim_over_wall"):
            report.put("engine.sim_s", build_report.makespan_seconds, "s")
            report.put("engine.sim_over_wall", build_report.makespan_seconds / quad.median, "ratio")
        report.put_series("bench.build_quadtree_s", quad)
        report.put_series("bench.build_rtree_s", rtree)
        # The builds above ran inside spans; an unspanned pair gives the overhead.
        plain = Series("s")
        self.build("QUADTREE", plain)
        report.put(
            "obs.bench_trace_overhead_share",
            (quad.median - plain.median) / plain.median, "ratio", k,
        )
