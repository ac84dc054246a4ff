"""``serve_window`` and ``cluster_mixed`` — the query service on the wire.

Both page the same window queries over the same county rows; what differs
is the path.  ``serve_window`` talks to one ``BackgroundServer`` (codec,
admission, thread bridge, session bookkeeping — no router).
``cluster_mixed`` talks to a ``LocalCluster`` router over two forked
shards (scatter/gather, two JSON hops, ``put`` routing and index
maintenance) and adds a writer.

Load model: closed loops.  Each client is an application thread paging a
cursor with start / fetch(64) / close and waiting for every reply — the
ODCITable usage the paper describes — so a slower server receives less
load.  The one open loop is the paced writer of ``cluster_mixed``, so
that data growth is identical on both sides of a comparison; its
latencies are taken from the time each batch was *due*.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import Budget, Report, Series, SpanRecorder, client_count, ms, tail, timed
from inputs import (
    ORACLE_ROWS, SERVE_EXTENT, WINDOW_SIZE, put_batches, stream, windows,
)
from oracle import nested_loop_ids, window_ids
from workload import Workload

from repro import Database
from repro.datasets import load_geometries
from repro.errors import ReproError
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.geometry.wkt import from_wkt, to_wkt
from repro.server import BackgroundServer, QueryClient

PAGE = 64
JOIN_PAGE = 1024
CHECKS = 50
PUT_RATE = 20.0  # batches per second, open loop
PUT_ROWS = 8
FIRST_PUT_ID = 1_000_000
HALO = 0.5
SHARDS = 2
JOIN_PARAMS = {"table_a": "c", "column_a": "geom", "table_b": "c", "column_b": "geom"}


def window_session(client: QueryClient, wkt: str, rec: Optional[SpanRecorder] = None,
                   op: Optional[str] = None, **extra: Any) -> List[Any]:
    """One complete session: start → fetch pages of 64 until eof → close."""
    params = dict(extra, table="c", column="geom", wkt=wkt)
    if rec is None:
        return client.start("window", params).all(page=PAGE)
    rows: List[Any] = []
    with rec.span("session", op=op):
        with rec.span("server.start"):
            session = client.start("window", params)
        while not session.eof:
            with rec.span("server.fetch"):
                page, _eof = session.fetch(PAGE)
            rows.extend(page)
        with rec.span("server.close"):
            session.close()
    return rows


class ClientLoop(threading.Thread):
    """One closed-loop client: next session only after the last one closed."""

    def __init__(self, port: int, wkts: Sequence[str], stop: Callable[[], bool],
                 rec: Optional[SpanRecorder] = None, label: str = "c"):
        super().__init__(name=f"wallclock-{label}", daemon=True)
        self.port, self.wkts, self.stop_now = port, wkts, stop
        self.rec, self.label = rec, label
        self.latencies: List[float] = []
        self.errors: List[str] = []
        self.retries = 0

    def run(self) -> None:
        try:
            with QueryClient(port=self.port, retries=5) as client:
                window_session(client, self.wkts[-1])  # warm-up, discarded
                n = 0
                while not self.stop_now():
                    started = time.perf_counter()
                    try:
                        window_session(
                            client, self.wkts[n % len(self.wkts)], self.rec,
                            op=f"{self.label}#{n}",
                        )
                    except (ReproError, OSError) as exc:
                        self.errors.append(f"{type(exc).__name__}: {exc}")
                    else:
                        self.latencies.append(time.perf_counter() - started)
                    n += 1
                self.retries = client.retry_count
        except (ReproError, OSError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def closed_loop(port: int, seconds: float, wkt_sets: Sequence[Sequence[str]],
                report: Report, rec: Optional[SpanRecorder] = None,
                stop: Optional[Callable[[], bool]] = None) -> Tuple[Series, float, int]:
    """Run one client per wkt set for ``seconds`` → (latencies, wall, refusals)."""
    budget = Budget(seconds)
    until = stop if stop is not None else (lambda: not budget.left())
    clients = [
        ClientLoop(port, wkts, until, rec, label=f"c{i}") for i, wkts in enumerate(wkt_sets)
    ]
    started = time.perf_counter()
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    wall = time.perf_counter() - started
    latencies = ms()
    for c in clients:
        for value in c.latencies:
            latencies.add(value)
        for error in c.errors:
            report.fail(f"window session failed: {error}")
        # An OVERLOADED refusal the client retried is still a refused request.
        for _ in range(c.retries):
            report.fail("request refused (OVERLOADED) and retried")
    report.ok(len(latencies))
    return latencies, wall, sum(c.retries for c in clients)


class ServedWorkload(Workload):
    """Shared inputs: county rows, per-client window streams, row ids."""

    def generate(self) -> None:
        super().generate()
        self.rows = [[i, to_wkt(g)] for i, g in enumerate(self.geoms)]
        self.wkt_sets = [
            [to_wkt(w) for w in windows(
                stream(self.cfg.seed, f"{self.name}/client{i}"), 2000, SERVE_EXTENT, WINDOW_SIZE
            )]
            for i in range(client_count())
        ]
        self.check_windows = windows(
            stream(self.cfg.seed, f"{self.name}/check"), CHECKS, SERVE_EXTENT, WINDOW_SIZE
        )

    def local_db(self) -> Database:
        db = Database()
        load_geometries(db, "c", self.geoms)
        db.create_spatial_index("c_sidx", "c", "geom", kind="RTREE")
        return db

    def wire_join(self, port: int, series: Series) -> List[Any]:
        with QueryClient(port=port, retries=5) as client:
            seconds, rows = timed(
                lambda: client.start("spatial_join", dict(JOIN_PARAMS)).all(page=JOIN_PAGE)
            )
        series.add(seconds)
        return rows

    def check_join_oracle(self, report: Report, id_pairs) -> None:
        m = min(ORACLE_ROWS, len(self.geoms))
        got = {(a, b) for a, b in id_pairs if a < m and b < m}
        want = nested_loop_ids(self.geoms[:m], 0.0)
        report.check(
            got == want,
            f"served join restricted to the first {m} rows: {len(got)} pairs, "
            f"nested loop {len(want)}",
        )


class ServeWindow(ServedWorkload):
    name = "serve_window"
    primary = (f"window session over one BackgroundServer, {client_count()} closed-loop "
               f"clients, {WINDOW_SIZE[0]}×{WINDOW_SIZE[1]} windows paged at {PAGE}")
    alt = f"paged wire spatial_join (page {JOIN_PAGE}) over the same server"
    aliases = {"op_p50_ms": "window_p50_ms", "op_per_s": "window_per_s",
               "alt_p50_ms": "join_wall_s"}

    def setup(self) -> None:
        self.generate()
        self.db = self.local_db()
        self.server = BackgroundServer(self.db).start()
        self.join_rows: List[Any] = []

    def teardown(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None

    def run(self, report: Report) -> None:
        self.guard_inputs(report)
        port = self.server.port
        op, wall, _refused = closed_loop(port, 0.7 * self.cfg.seconds, self.wkt_sets, report)
        alt = ms()
        self.wire_join(port, ms())  # warm-up, discarded
        budget = Budget(0.3 * self.cfg.seconds)
        while budget.left() or len(alt) < 2:
            self.join_rows = self.wire_join(port, alt)
        report.ok(len(alt))
        self.emit(report, op, alt, op_wall=wall)
        label, value = tail(op.values)
        report.facts[f"window_{label}_ms"] = value

    def check(self, report: Report) -> None:
        ids = {(rid.page, rid.slot): row[0] for rid, row in self.db.table("c").scan()}
        with QueryClient(port=self.server.port, retries=5) as client:
            for window in self.check_windows:
                rows = window_session(client, to_wkt(window))
                got = {ids[tuple(r)] for r in rows}
                want = window_ids(self.geoms, window)
                report.check(got == want, f"served window: {len(got)} rows, brute force {len(want)}")
        # The wire session *is* the pipelined table function: same pairs, same order.
        local = self.db.spatial_join("c", "geom", "c", "geom", mask="ANYINTERACT")
        wire = [(tuple(a), tuple(b)) for a, b in self.join_rows]
        self.guard_count(report, "pairs", len(wire))
        report.check(
            wire == [((a.page, a.slot), (b.page, b.slot)) for a, b in local.pairs],
            f"wire join differs from in-process join ({len(wire)} vs {len(local.pairs)} pairs, or order)",
        )
        self.check_join_oracle(report, [(ids[a], ids[b]) for a, b in wire])

    def trace(self, report: Report, rec: SpanRecorder) -> None:
        self.guard_inputs(report)
        port = self.server.port
        share = 0.25 * self.cfg.seconds
        plain, _wall, refused = closed_loop(port, share, self.wkt_sets, report)
        traced, _wall, _ = closed_loop(port, share, self.wkt_sets, report, rec)
        report.put("obs.bench_trace_overhead_share",
                   (traced.median - plain.median) / plain.median, "ratio", len(traced))
        for name in ("start", "fetch", "close"):
            series = ms()
            for seconds in rec.durations(f"server.{name}"):
                series.add(seconds)
            report.put_series(f"server.{name}_rtt_ms", series)
        label, value = tail(plain.values)
        report.put("bench.window_p95_ms", value, "ms", len(plain))
        report.facts["window_tail"] = label
        requests = 2 * len(plain) + sum(1 for _ in rec.durations("server.fetch"))
        report.put("server.overloaded_share", refused / max(1, requests), "ratio", requests)
        with report.probe("server.ping_rtt_us"):
            pings = Series("us", 1e6)
            with QueryClient(port=port) as client:
                for _ in range(self.cfg.samples(200)):
                    pings.add(timed(client.ping)[0])
            report.put_series("server.ping_rtt_us", pings)
        with report.probe("server.service_open_ms", "server.overhead_ms"):
            from repro.engine.parallel import WorkerContext
            from repro.server import QueryService

            service = QueryService(self.db)
            inproc = ms()
            for wkt in self.wkt_sets[0][:self.cfg.samples(300)]:
                with rec.span("server.service_open", op="inproc"):
                    seconds, _ = timed(lambda: list(service.open(
                        "window", {"table": "c", "column": "geom", "wkt": wkt}, WorkerContext(0)
                    )[0]))
                inproc.add(seconds)
            report.put_series("server.service_open_ms", inproc)
            report.put("server.overhead_ms", plain.median - inproc.median, "ms", len(plain))
        with report.probe("geometry.wkt_parse_us"):
            parse = Series("us", 1e6)
            for wkt in self.wkt_sets[0][:self.cfg.samples(300)]:
                parse.add(timed(lambda: from_wkt(wkt))[0])
            report.put_series("geometry.wkt_parse_us", parse)
        wire = Series("s")
        for i in range(self.cfg.repeats):
            with rec.span("server.wire_join", op=f"wirejoin#{i}"):
                self.join_rows = self.wire_join(port, wire)
        report.put_series("bench.wire_join_s", wire)
        with report.probe("server.join_stream_overhead_s"):
            seconds, _ = timed(
                lambda: self.db.spatial_join("c", "geom", "c", "geom", mask="ANYINTERACT")
            )
            report.put("server.join_stream_overhead_s", wire.median - seconds, "s", len(wire))
        with report.probe("server.encode_us_per_row", "server.decode_us_per_row",
                          "server.page_bytes_per_row"):
            from repro.server import protocol

            page = self.join_rows[:JOIN_PAGE]
            message = protocol.ok_response(1, rows=page, eof=False)
            encode, decode = Series("us", 1e6 / len(page)), Series("us", 1e6 / len(page))
            for _ in range(20):
                seconds, line = timed(lambda: protocol.encode(message))
                encode.add(seconds)
                decode.add(timed(lambda: protocol.decode_line(line))[0])
            report.put_series("server.encode_us_per_row", encode)
            report.put_series("server.decode_us_per_row", decode)
            report.put("server.page_bytes_per_row", len(line) / len(page), "B", len(page))


class ClusterMixed(ServedWorkload):
    name = "cluster_mixed"
    primary = (f"window session routed over LocalCluster({SHARDS} shards), "
               f"{client_count()} closed-loop clients, read-only phase")
    alt = (f"acknowledged put of {PUT_ROWS} rows, {PUT_RATE:g} batches/s open loop "
           "beside one closed-loop reader, from due time")
    aliases = {"op_p50_ms": "window_p50_ms", "op_per_s": "window_per_s",
               "alt_p50_ms": "put_p50_ms"}

    def setup(self) -> None:
        from repro.cluster.local import LocalCluster

        self.generate()
        self.cluster = self.boot(LocalCluster)
        self.acked: List[Tuple[Geometry, List[List[Any]]]] = []
        self.next_put_id = FIRST_PUT_ID

    def boot(self, factory, **options: Any):
        cluster = factory(
            SHARDS, MBR(*SERVE_EXTENT), n_entries_hint=len(self.rows), halo=HALO, **options
        ).start()
        try:
            cluster.create_spatial_table("c")
            self.load_seconds, self.load_totals = timed(lambda: cluster.load("c", self.rows))
        except BaseException:
            cluster.stop()  # never leave shard children behind
            raise
        return cluster

    def teardown(self) -> None:
        if getattr(self, "cluster", None) is not None:
            self.cluster.stop()
            self.cluster = None

    # -- phase B: one reader beside the paced writer ---------------------
    def mixed_phase(self, port: int, seconds: float, report: Report,
                    paced: bool = True) -> Dict[str, Any]:
        """Reader closed loop + writer; returns the series and acked batches.

        ``paced`` → open loop at PUT_RATE, timed from each batch's due
        time.  Otherwise the writer is a closed-loop probe: a replicated
        cluster cannot hold the rate, and an unbounded backlog measures
        nothing.
        """
        batches = put_batches(
            stream(self.cfg.seed, f"{self.name}/puts{self.next_put_id}"),
            int(seconds * PUT_RATE) + 1, PUT_ROWS, self.next_put_id,
        )
        self.next_put_id += len(batches) * PUT_ROWS
        put, lag = ms(), ms()
        acked: List[Tuple[Geometry, List[List[Any]]]] = []
        done = threading.Event()
        errors: List[str] = []

        def writer() -> None:
            try:
                with QueryClient(port=port, retries=5) as client:
                    start = time.perf_counter()
                    for i, (region, rows) in enumerate(batches):
                        if paced:
                            due = start + i / PUT_RATE
                            delay = due - time.perf_counter()
                            if delay > 0:
                                time.sleep(delay)
                        else:
                            due = time.perf_counter()
                            if due - start > seconds:
                                break
                        lag.add(time.perf_counter() - due)
                        client.request("put", table="c", rows=rows)
                        put.add(time.perf_counter() - due)
                        acked.append((region, rows))
            except (ReproError, OSError) as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                done.set()

        thread = threading.Thread(target=writer, name="wallclock-writer", daemon=True)
        thread.start()
        reads, _wall, _ = closed_loop(
            port, seconds, self.wkt_sets[:1], report, stop=done.is_set
        )
        thread.join()
        for error in errors:
            report.fail(f"put failed: {error}")
        report.ok(len(put))
        return {"put": put, "lag": lag, "reads": reads, "acked": acked}

    def run(self, report: Report) -> None:
        self.guard_inputs(report)
        port = self.cluster.port
        op, wall, _refused = closed_loop(port, 0.5 * self.cfg.seconds, self.wkt_sets, report)
        mixed = self.mixed_phase(port, 0.5 * self.cfg.seconds, report)
        self.acked.extend(mixed["acked"])
        self.emit(report, op, mixed["put"], op_wall=wall)
        report.facts["mixed_window_p50_ms"] = mixed["reads"].median
        report.facts["generator_lag_p50_ms"] = mixed["lag"].median

    def all_rows(self) -> List[Tuple[int, Geometry]]:
        """(id, geometry) of the loaded rows and every acknowledged put."""
        out = list(enumerate(self.geoms))
        for _region, rows in self.acked:
            out.extend((row_id, from_wkt(wkt)) for row_id, wkt in rows)
        return out

    def check(self, report: Report) -> None:
        rows = self.all_rows()
        ids = [row_id for row_id, _g in rows]
        geoms = [g for _id, g in rows]
        with self.cluster.client() as client:
            # Every acknowledged put is returned by a window over its location.
            for region, batch in self.acked:
                got = {r[0] for r in window_session(client, to_wkt(region))}
                missing = {row_id for row_id, _wkt in batch} - got
                report.check(not missing, f"acknowledged put rows not returned: {sorted(missing)[:4]}")
            for window in self.check_windows:
                got = sorted(r[0] for r in window_session(client, to_wkt(window)))
                want = sorted(ids[i] for i in window_ids(geoms, window))
                report.check(got == want, f"routed window: {len(got)} rows, brute force {len(want)}")

    def trace(self, report: Report, rec: SpanRecorder) -> None:
        self.guard_inputs(report)
        port = self.cluster.port
        part = self.cluster.partitioner
        share = 0.15 * self.cfg.seconds
        plain, _wall, _ = closed_loop(port, share, self.wkt_sets, report)
        traced, _wall, _ = closed_loop(port, share, self.wkt_sets, report, rec)
        report.put("obs.bench_trace_overhead_share",
                   (traced.median - plain.median) / plain.median, "ratio", len(traced))
        label, value = tail(plain.values)
        report.put("bench.window_p95_ms", value, "ms", len(plain))
        report.facts["window_tail"] = label

        with report.probe("cluster.rtt_max_ms", "cluster.rtt_sum_ms", "cluster.router_overhead_ms"):
            # The same windows, one client: routed, then straight to each
            # shard the router would touch, with the sub-session parameters
            # the router sends.  Routed ≈ max means concurrent fan-out;
            # routed ≈ sum means the shards are visited one after another.
            # Only windows that span both shards tell the two apart.
            targets = [
                (wkt, sorted(part.shards_for_mbr(from_wkt(wkt).mbr, expand=0.0)))
                for wkt in self.wkt_sets[0]
            ]
            wide = [t for t in targets if len(t[1]) > 1]
            routed, rtt_max, rtt_sum = ms(), ms(), ms()
            direct = {
                shard: QueryClient(port=self.cluster.endpoint_port(shard), retries=5)
                for shard in range(SHARDS)
            }
            try:
                with self.cluster.client() as client:
                    for n, (wkt, shards) in enumerate((wide or targets)[:self.cfg.samples(150)]):
                        with rec.span("cluster.routed", op=f"probe#{n}"):
                            routed.add(timed(lambda: window_session(client, wkt))[0])
                        times = []
                        for shard in shards:
                            with rec.span("cluster.shard_direct", op=f"probe#{n}", shard=shard):
                                times.append(timed(lambda: window_session(
                                    direct[shard], wkt,
                                    cluster=part.for_shard(shard).to_wire(),
                                    primary_only=True, emit_ids=True, id_column="id",
                                ))[0])
                        rtt_max.add(max(times))
                        rtt_sum.add(sum(times))
            finally:
                for c in direct.values():
                    c.close()
            report.put_series("cluster.rtt_max_ms", rtt_max)
            report.put_series("cluster.rtt_sum_ms", rtt_sum)
            report.put("cluster.router_overhead_ms", routed.median - rtt_max.median, "ms", len(routed))
        with report.probe("cluster.fanout", "cluster.retries", "cluster.hedges",
                          "cluster.breaker_opens"):
            with self.cluster.client() as client:
                counters = client.request("health").get("counters", {})
            scatters = counters.get("scatters", 0)
            report.put("cluster.fanout", counters.get("scatter_width_total", 0) / max(1, scatters),
                       "count", scatters)
            report.put("cluster.retries", counters.get("retries", 0), "count")
            report.put("cluster.hedges", counters.get("hedges", 0), "count")
            report.put("cluster.breaker_opens", counters.get("breaker_open", 0), "count")

        mixed = self.mixed_phase(port, 0.2 * self.cfg.seconds, report)
        self.acked.extend(mixed["acked"])
        report.put_series("bench.put_p50_ms", mixed["put"])
        report.put("bench.put_p95_ms", tail(mixed["put"].values)[1], "ms", len(mixed["put"]))
        report.put_series("bench.mixed_window_p50_ms", mixed["reads"])
        report.put("bench.mixed_window_p95_ms", tail(mixed["reads"].values)[1], "ms", len(mixed["reads"]))
        report.put_series("bench.generator_lag_ms", mixed["lag"])

        with report.probe("cluster.put_route_us", "geometry.wkt_parse_us"):
            route, parse = Series("us", 1e6), Series("us", 1e6)
            for _region, batch in self.acked:
                for _id, wkt in batch:
                    seconds, geom = timed(lambda: from_wkt(wkt))
                    parse.add(seconds)
                    route.add(seconds + timed(lambda: part.shards_for_mbr(geom.mbr))[0])
            report.put_series("cluster.put_route_us", route)
            report.put_series("geometry.wkt_parse_us", parse)
        with report.probe("cluster.replica_share", "cluster.shard_imbalance",
                          "cluster.load_rows_per_s"):
            totals = self.load_totals
            report.put("cluster.replica_share", totals["replicas"] / totals["placed"], "ratio", totals["placed"])
            report.put("cluster.load_rows_per_s", totals["placed"] / self.load_seconds, "1/s", totals["placed"])
            per_shard = [0] * SHARDS
            for geom in self.geoms:
                for shard in part.shards_for_mbr(geom.mbr):
                    per_shard[shard] += 1
            report.put("cluster.shard_imbalance",
                       max(per_shard) / (sum(per_shard) / SHARDS), "ratio", SHARDS)
        with report.probe("engine.sql_parse_us", "engine.sql_insert_us"):
            from repro.engine.sql.parser import parse as parse_sql

            scratch = Database()
            scratch.sql("create table c (id number, geom sdo_geometry)")
            scratch.sql("create index c_sidx on c(geom) indextype is spatial_index "
                        "parameters ('kind=RTREE')")
            parse_s, insert_s = Series("us", 1e6), Series("us", 1e6)
            for row_id, wkt in self.rows[:self.cfg.samples(300)]:
                text = f"insert into c values ({row_id}, sdo_geometry('{wkt}'))"
                parse_s.add(timed(lambda: parse_sql(text))[0])
                insert_s.add(timed(lambda: scratch.sql(text))[0])
            report.put_series("engine.sql_parse_us", parse_s)
            report.put_series("engine.sql_insert_us", insert_s)
        with report.probe("cluster.join_wall_s"):
            joins = Series("s")
            for i in range(self.cfg.repeats):
                with rec.span("cluster.join", op=f"join#{i}"):
                    pairs = sorted((a, b) for a, b in self.wire_join(port, joins))
            report.put_series("cluster.join_wall_s", joins)
            # Shard outputs partition the single-node result: same id pairs.
            rows = self.all_rows()
            db = Database()
            table = db.create_table("c", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
            for row in rows:
                table.insert(row)
            db.create_spatial_index("c_sidx", "c", "geom", kind="RTREE")
            local = db.spatial_join("c", "geom", "c", "geom", mask="ANYINTERACT")
            want = sorted((table.value(a, "id"), table.value(b, "id")) for a, b in local.pairs)
            report.check(pairs == want,
                         f"cluster join: {len(pairs)} id pairs, single node {len(want)}")
            self.check_join_oracle(report, pairs)
        with report.probe("cluster.repl_put_p50_ms", "cluster.repl_window_p50_ms"):
            from repro.cluster.local import LocalCluster

            replicated = self.boot(LocalCluster, replicated=True, workdir=str(self.cfg.tmp))
            try:
                probe = self.mixed_phase(replicated.port, 0.2 * self.cfg.seconds, report, paced=False)
            finally:
                replicated.stop()
            report.put_series("cluster.repl_put_p50_ms", probe["put"])
            report.put_series("cluster.repl_window_p50_ms", probe["reads"])
