"""``join_counties`` and ``join_stars`` — the paper's Tables 1 and 2.

Both run the index-based spatial self-join through ``Database.spatial_join``.
They differ in what the refinement layer is given: counties are few
geometries with many vertices (the n×m edge matrices dominate), stars are
many tiny polygons (per-candidate dispatch, rowid sort and heap fetch
dominate).  A kernel change that wins on one and loses on the other shows.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import Budget, Report, Series, SpanRecorder, ms, timed
from inputs import JOIN_DISTANCE, ORACLE_ROWS
from oracle import nested_loop_ids
from workload import Workload

from repro import Database
from repro.core.secondary_filter import JoinPredicate, SecondaryFilter
from repro.core.spatial_join import DEFAULT_CANDIDATE_ARRAY_SIZE, SpatialJoinFunction
from repro.datasets import load_geometries
from repro.engine.cost import WorkMeter
from repro.engine.parallel import WorkerContext
from repro.geometry import kernels
from repro.index.rtree.join import RTreeJoinCursor

FIRST_PAGE = 1024
METER_KINDS = ("mbr_test", "rtree_node_visit", "geom_fetch_base", "exact_test_per_vertex")


class JoinWorkload(Workload):
    def setup(self) -> None:
        self.generate()
        self.db = Database()
        self.table = load_geometries(self.db, "t", self.geoms)
        self.db.create_spatial_index("t_sidx", "t", "geom", kind="RTREE")
        self.first: Dict[float, Any] = {}  # distance -> first JoinResult seen
        self.last: Dict[float, Any] = {}

    def teardown(self) -> None:
        self.db = self.table = None

    def join(self, distance: float = 0.0, **options: Any):
        return self.db.spatial_join(
            "t", "geom", "t", "geom", mask="ANYINTERACT", distance=distance, **options
        )

    def timed_join(self, report: Report, series: Series, distance: float) -> None:
        seconds, result = timed(lambda: self.join(distance))
        series.add(seconds)
        first = self.first.setdefault(distance, result)
        self.last[distance] = result
        report.check(
            len(result.pairs) == len(first.pairs),
            f"join(distance={distance}) returned {len(result.pairs)} pairs, "
            f"first run {len(first.pairs)}",
        )

    def id_pairs(self, pairs) -> List[Tuple[int, int]]:
        ids = {rowid: row[0] for rowid, row in self.table.scan()}
        return [(ids[a], ids[b]) for a, b in pairs]

    def check_join(self, report: Report, distance: float, count_key: str) -> None:
        """Full join == nested loop on the subsample; repeats are identical."""
        first, last = self.first[distance], self.last[distance]
        self.guard_count(report, count_key, len(first.pairs))
        report.check(
            first.pairs == last.pairs,
            f"serial join(distance={distance}) is not repeatable (pairs or order differ)",
        )
        m = min(ORACLE_ROWS, len(self.geoms))
        got = {(a, b) for a, b in self.id_pairs(last.pairs) if a < m and b < m}
        want = nested_loop_ids(self.geoms[:m], distance)
        report.check(
            got == want,
            f"join(distance={distance}) restricted to the first {m} rows has "
            f"{len(got)} pairs, nested loop {len(want)}",
        )

    # -- traced run ------------------------------------------------------
    def traced_join(self, report: Report, rec: SpanRecorder, distance: float,
                    op: str) -> Dict[str, float]:
        """Drive one join from its public parts, one span per layer call.

        ``RTreeJoinCursor.next_candidates`` → ``SecondaryFilter.order_candidates``
        → ``Table.fetch`` → ``kernels.evaluate_predicate_batch`` /
        ``JoinPredicate.evaluate``, chunked by the same candidate-array size
        as ``SpatialJoinFunction``, so the pairs *and their order* must equal
        the untraced ``Database.spatial_join`` result.  Then
        ``SecondaryFilter.process`` runs whole over the same candidates.
        """
        table, col = self.table, self.table.schema.index_of("geom")
        tree = self.db.rtree_of("t", "geom")
        predicate = JoinPredicate(mask="ANYINTERACT", distance=distance)
        ctx = WorkerContext(0, WorkMeter())
        pairs: List[Tuple[Any, Any]] = []
        chunks = []
        stats = {"candidates": 0, "vertices": 0, "fetched": 0}
        kernels.reset_counters()
        with rec.span("join", op=op, distance=distance):
            cursor = RTreeJoinCursor([(tree.root, tree.root)], distance=distance)
            ordering = SecondaryFilter(table, "geom", table, "geom", predicate)
            while True:
                with rec.span("rtree.primary_filter"):
                    chunk = cursor.next_candidates(DEFAULT_CANDIDATE_ARRAY_SIZE, ctx)
                if not chunk:
                    break
                chunks.append(chunk)
                stats["candidates"] += len(chunk)
                with rec.span("core.sort"):
                    ordered = ordering.order_candidates(chunk)
                with rec.span("storage.fetch"):
                    geoms = {}
                    for rid_a, rid_b, _ma, _mb in ordered:
                        for rid in (rid_a, rid_b):
                            if rid not in geoms:
                                geoms[rid] = table.fetch(rid)[col]
                    stats["fetched"] += len(geoms)
                with rec.span("geometry.refine", candidates=len(ordered)):
                    i, n = 0, len(ordered)
                    while i < n:
                        j = i + 1
                        while j < n and ordered[j][0] == ordered[i][0]:
                            j += 1
                        probe = geoms[ordered[i][0]]
                        others = [geoms[c[1]] for c in ordered[i:j]]
                        stats["vertices"] += sum(
                            probe.num_vertices + g.num_vertices for g in others
                        )
                        verdicts = (
                            kernels.evaluate_predicate_batch(
                                probe, others, predicate.mask, distance
                            )
                            if len(others) > 1
                            else [predicate.evaluate(probe, others[0])]
                        )
                        pairs.extend(
                            (c[0], c[1]) for c, ok in zip(ordered[i:j], verdicts) if ok
                        )
                        i = j
        counts = kernels.counters()
        whole = SecondaryFilter(table, "geom", table, "geom", predicate)
        processed: List[Tuple[Any, Any]] = []
        with rec.span("core.secondary_filter", op=op):
            for chunk in chunks:
                processed.extend(whole.process(chunk, ctx))
        reference = self.first[distance].pairs
        report.check(
            pairs == reference,
            f"traced join(distance={distance}) != untraced Database.spatial_join "
            f"({len(pairs)} vs {len(reference)} pairs, or order)",
        )
        report.check(
            processed == reference,
            f"SecondaryFilter.process over drained candidates != untraced join "
            f"(distance={distance})",
        )
        stats.update(
            nodes_visited=cursor.nodes_visited,
            mbr_tests=cursor.pairs_tested,
            kernel_calls=sum(counts["calls"].values()),
            kernel_items=sum(counts["items"].values()),
            results=len(pairs),
        )
        return stats

    def trace_layers(self, report: Report, rec: SpanRecorder) -> None:
        """Per-layer numbers of the intersect join, k repetitions."""
        k = self.cfg.repeats
        untraced = ms()
        for _ in range(k):
            self.timed_join(report, untraced, 0.0)
        for i in range(k):
            stats = self.traced_join(report, rec, 0.0, op=f"join#{i}")
        traced_wall = rec.total("join") / k  # the spanned pipeline, not the extra whole-filter pass
        plain = self.plain_seconds = untraced.median / 1e3
        cands = stats["candidates"]

        primary = rec.total("rtree.primary_filter") / k
        fetch = rec.total("storage.fetch") / k
        refine = rec.total("geometry.refine") / k
        process = rec.total("core.secondary_filter") / k
        report.put("rtree.primary_filter_s", primary, "s", k)
        report.put("rtree.candidates", cands, "count")
        report.put("rtree.nodes_visited", stats["nodes_visited"], "count")
        report.put("rtree.mbr_tests", stats["mbr_tests"], "count")
        report.put("core.sort_s", rec.total("core.sort") / k, "s", k)
        report.put("storage.fetch_s", fetch, "s", k)
        report.put("storage.fetch_us_per_row", fetch / stats["fetched"] * 1e6, "us", stats["fetched"])
        report.put("geometry.refine_s", refine, "s", k)
        report.put("geometry.refine_us_per_candidate", refine / cands * 1e6, "us", cands)
        report.put("geometry.vertices_per_candidate", stats["vertices"] / cands, "count", cands)
        report.put("geometry.kernel_calls", stats["kernel_calls"], "count")
        report.put("geometry.kernel_items", stats["kernel_items"], "count")
        report.put("core.secondary_filter_s", process, "s", k)
        # Self time of the whole filter: what is left once the fetches and
        # exact tests it performs (measured above over the same candidates)
        # are taken out — ordering, run folding, cache bookkeeping.
        report.put("core.filter_self_s", max(0.0, process - fetch - refine), "s", k)
        report.put("core.candidates_per_result", cands / max(1, stats["results"]), "ratio")
        report.put(
            "obs.bench_trace_overhead_share",
            (traced_wall - plain) / plain, "ratio", k,
        )
        with report.probe("storage.buffer_hit_ratio"):
            report.put(
                "storage.buffer_hit_ratio",
                self.db.storage_stats()["buffer_hit_ratio"], "ratio",
            )
        with report.probe("core.fetch_calls", "core.cache_hit_ratio", "bench.first_page_ms"):
            seconds, _rows, join_stats = self.paged_join(FIRST_PAGE, drain=True)
            report.put("core.fetch_calls", join_stats.fetch_calls, "count")
            report.put("core.cache_hit_ratio", join_stats.cache_hit_ratio, "ratio")
            report.put("bench.first_page_ms", seconds * 1e3, "ms")
        with report.probe("engine.sim_s", "engine.sim_over_wall",
                          *(f"engine.meter.{kind}" for kind in METER_KINDS)):
            result = self.first[0.0]
            report.put("engine.sim_s", result.makespan_seconds, "s")
            report.put("engine.sim_over_wall", result.makespan_seconds / plain, "ratio")
            meter = result.run.combined_meter()
            for kind in METER_KINDS:
                report.put(f"engine.meter.{kind}", meter.counts.get(kind, 0.0), "count")
        with report.probe("geometry.sdo_decode_us"):
            from repro.storage.codec import decode_row

            blobs = [data for _rid, data in self.table.heap.scan()][:2000]
            seconds, _ = timed(lambda: [decode_row(b) for b in blobs])
            report.put("geometry.sdo_decode_us", seconds / len(blobs) * 1e6, "us", len(blobs))

    def paged_join(self, page: int, drain: bool = False):
        """Time to the first ``page`` pairs through ``SpatialJoinFunction``.

        The table function's start/fetch/close is the paper's pipelining
        promise: a client sees rows before the join has finished.
        """
        tree = self.db.rtree_of("t", "geom")
        fn = SpatialJoinFunction(
            self.table, "geom", tree, self.table, "geom", tree,
            predicate=JoinPredicate(mask="ANYINTERACT"),
        )
        ctx = WorkerContext(0)
        started = time.perf_counter()
        fn.start(ctx)
        rows = fn.fetch(ctx, page)
        seconds = time.perf_counter() - started
        while drain and fn.fetch(ctx, page):
            pass
        stats = fn.stats
        fn.close(ctx)
        return seconds, rows, stats


class JoinCounties(JoinWorkload):
    name = "join_counties"
    primary = "intersect self-join of the county layer, Database.spatial_join start→drain→close"
    alt = f"within-distance {JOIN_DISTANCE} self-join of the same layer"
    aliases = {"op_p50_ms": "join_wall_s", "alt_p50_ms": "join_within_wall_s"}

    def run(self, report: Report) -> None:
        self.guard_inputs(report)
        op, alt = ms(), ms()
        self.join()
        self.join(JOIN_DISTANCE)  # one discarded warm-up per series
        budget = Budget(self.cfg.seconds)
        while budget.left() or len(op) < 2:
            self.timed_join(report, op, 0.0)
            self.timed_join(report, alt, JOIN_DISTANCE)
        self.emit(report, op, alt)

    def check(self, report: Report) -> None:
        self.check_join(report, 0.0, "pairs")
        self.check_join(report, JOIN_DISTANCE, "within_pairs")

    def trace(self, report: Report, rec: SpanRecorder) -> None:
        self.guard_inputs(report)
        self.trace_layers(report, rec)
        k = self.cfg.repeats
        within = ms()
        for _ in range(k):
            self.timed_join(report, within, JOIN_DISTANCE)
        before = rec.total("geometry.refine")
        for i in range(k):
            self.traced_join(report, rec, JOIN_DISTANCE, op=f"within#{i}")
        report.put(
            "geometry.within_refine_s", (rec.total("geometry.refine") - before) / k, "s", k
        )
        with report.probe("obs.repro_trace_overhead_share"):
            from repro.obs import trace

            with trace.tracing():
                seconds, result = timed(self.join)
            report.check(
                result.pairs == self.first[0.0].pairs,
                "join under repro.obs.trace.tracing() returned different pairs",
            )
            report.put(
                "obs.repro_trace_overhead_share",
                (seconds - self.plain_seconds) / self.plain_seconds, "ratio",
            )


class JoinStars(JoinWorkload):
    name = "join_stars"
    primary = "serial intersect self-join of the star layer, Database.spatial_join"
    alt = "the same join with parallel=2, use_processes=True, strategy='GRID'"
    aliases = {"op_p50_ms": "join_wall_s", "alt_p50_ms": "join_p2_wall_s"}

    def p2_join(self, report: Report, series: Series, full_check: bool) -> Any:
        seconds, result = timed(
            lambda: self.join(parallel=2, use_processes=True, strategy="GRID")
        )
        series.add(seconds)
        reference = self.first[0.0].pairs
        same = (
            sorted(result.pairs) == sorted(reference)
            if full_check
            else len(result.pairs) == len(reference)
        )
        report.check(same, "parallel=2 GRID join returned a different pair set than serial")
        return result

    def run(self, report: Report) -> None:
        self.guard_inputs(report)
        op, alt = ms(), ms()
        self.timed_join(report, ms(), 0.0)
        self.p2_join(report, ms(), full_check=True)  # warm-ups, discarded
        budget = Budget(self.cfg.seconds)
        while budget.left() or len(op) < 2:
            self.timed_join(report, op, 0.0)
            self.p2_join(report, alt, full_check=False)
        self.emit(report, op, alt)

    def check(self, report: Report) -> None:
        self.check_join(report, 0.0, "pairs")
        _seconds, rows, _stats = self.paged_join(FIRST_PAGE)
        report.check(
            list(rows) == self.first[0.0].pairs[:FIRST_PAGE],
            "first page of the pipelined join is not the head of the full join",
        )

    def trace(self, report: Report, rec: SpanRecorder) -> None:
        self.guard_inputs(report)
        self.trace_layers(report, rec)
        with report.probe("bench.join_p2_wall_s", "core.p2_speedup", "core.p2_worker_imbalance"):
            p2 = Series("s")
            for _ in range(self.cfg.repeats):
                result = self.p2_join(report, p2, full_check=True)
            report.put_series("bench.join_p2_wall_s", p2)
            report.put("core.p2_speedup", self.plain_seconds / p2.median, "ratio", len(p2))
            report.put("core.p2_worker_imbalance", result.run.imbalance, "ratio")
        with report.probe("core.grid_build_tiles_s"):
            from repro.core.grid_partition import build_grid_spec, build_tiles
            from repro.engine.cost import pick_grid_shape

            tree = self.db.rtree_of("t", "geom")
            entries = list(tree.leaf_entries())
            nx, ny = pick_grid_shape(len(entries), len(entries), 2)
            spec = build_grid_spec(tree.root.mbr, nx, ny)
            with rec.span("core.grid_build_tiles", op="grid"):
                build_tiles(entries, spec, 0.0, None)
            report.put("core.grid_build_tiles_s", rec.total("core.grid_build_tiles"), "s")
        with report.probe("engine.executor_spawn_ms"):
            from repro.engine.parallel import ProcessExecutor

            seconds, _ = timed(lambda: ProcessExecutor(2).run([_noop, _noop]))
            report.put("engine.executor_spawn_ms", seconds * 1e3, "ms")


def _noop(ctx) -> int:
    return 0
