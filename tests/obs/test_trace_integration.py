"""End-to-end tracing acceptance: spatial joins under the tracer.

The headline guarantee: tracing only *reads* meters, so a traced join
charges exactly what an untraced one does — per worker and in total —
and the exported Chrome trace nests primary filter / secondary filter
(and, in parallel mode, per-worker partition task) spans correctly.
"""

import json
import math

import pytest

from repro import Database
from repro.datasets import load_geometries
from repro.obs import trace
from repro.obs.exporters import chrome_trace, write_chrome_trace


def _sum_meters(spans):
    """Exact order-independent per-kind sum of span meter deltas.

    ``math.fsum`` is correctly rounded regardless of association order,
    so two runs whose per-worker charges are the same multiset of floats
    sum to the *identical* float even though thread scheduling assigns
    partitions to workers in a different order each run.
    """
    per_kind = {}
    for s in spans:
        for kind, n in s.meter_delta.items():
            per_kind.setdefault(kind, []).append(n)
    return {kind: math.fsum(vals) for kind, vals in sorted(per_kind.items())}


def _sum_worker_meters(meters):
    """The same exact sum over a run's per-worker ``WorkMeter``s."""
    per_kind = {}
    for m in meters:
        for kind, n in m.counts.items():
            per_kind.setdefault(kind, []).append(n)
    return {kind: math.fsum(vals) for kind, vals in sorted(per_kind.items())}


@pytest.fixture
def join_db(random_rects):
    db = Database()
    load_geometries(db, "shapes", random_rects(80, seed=7))
    db.create_spatial_index(
        "shapes_ridx", "shapes", "geom", kind="RTREE", fanout=8
    )
    return db


class TestTracedJoinEquality:
    def test_serial_join_charges_identical_and_spans_nest(self, join_db):
        untraced = join_db.spatial_join("shapes", "geom", "shapes", "geom")
        baseline = _sum_worker_meters(untraced.run.worker_meters)

        with trace.tracing() as tracer:
            traced = join_db.spatial_join("shapes", "geom", "shapes", "geom")
        assert traced.pairs == untraced.pairs
        assert _sum_worker_meters(traced.run.worker_meters) == baseline

        # the task spans account for every charge of the run, exactly
        task_spans = tracer.find("executor.task")
        assert task_spans, "executor task span missing"
        assert _sum_meters(task_spans) == baseline

        primary = tracer.find("join.primary_filter")
        secondary = tracer.find("join.secondary_filter")
        assert primary and secondary
        fetch_ids = {s.span_id for s in tracer.find("join.fetch")}
        assert all(s.parent_id in fetch_ids for s in primary)
        assert all(s.parent_id in fetch_ids for s in secondary)

    def test_parallel_worker_spans_sum_exactly(self, join_db):
        # The simulated executor assigns partitions to workers
        # deterministically, so the per-worker spans of a traced run must
        # sum to the untraced run's totals EXACTLY (same floats, no
        # drift).  The real-thread/process executors claim tasks in
        # timing-dependent order, which permutes float association — they
        # are covered (to within association order) below.
        untraced = join_db.spatial_join(
            "shapes", "geom", "shapes", "geom", parallel=3
        )
        baseline = _sum_worker_meters(untraced.run.worker_meters)

        with trace.tracing() as tracer:
            traced = join_db.spatial_join(
                "shapes", "geom", "shapes", "geom", parallel=3
            )
        assert traced.pairs == untraced.pairs

        task_spans = tracer.find("executor.task")
        assert len(task_spans) >= 3
        assert {s.tags["worker"] for s in task_spans} == {0, 1, 2}
        assert _sum_meters(task_spans) == baseline

    @pytest.mark.parametrize("use_processes", [True])  # keeps the test id
    def test_real_executor_spans_cover_all_charges(
        self, join_db, use_processes
    ):
        kwargs = dict(parallel=3, use_processes=use_processes)
        untraced = join_db.spatial_join(
            "shapes", "geom", "shapes", "geom", **kwargs
        )
        baseline = _sum_worker_meters(untraced.run.worker_meters)

        with trace.tracing() as tracer:
            traced = join_db.spatial_join(
                "shapes", "geom", "shapes", "geom", **kwargs
            )
        assert traced.pairs == untraced.pairs

        summed = _sum_meters(tracer.find("executor.task"))
        assert set(summed) == set(baseline)
        for kind, total in baseline.items():
            if float(total).is_integer():
                assert summed[kind] == total, kind
            else:
                # task->worker claiming order varies run to run, which
                # permutes float association; the sums agree to the ulp
                assert summed[kind] == pytest.approx(total, rel=1e-12), kind

    def test_process_worker_spans_are_stitched(self, join_db):
        with trace.tracing() as tracer:
            join_db.spatial_join(
                "shapes", "geom", "shapes", "geom",
                parallel=2, use_processes=True,
            )
        task_spans = tracer.find("executor.task")
        workers = {s.tags.get("worker") for s in task_spans}
        assert len(workers) >= 2
        # child-process spans were re-rooted into this tracer's id space
        span_ids = {s.span_id for s in tracer.spans}
        for s in tracer.spans:
            if s.parent_id is not None:
                assert s.parent_id in span_ids


class TestChromeExport:
    def test_traced_join_chrome_trace_has_nested_filter_spans(
        self, join_db, tmp_path
    ):
        with trace.tracing() as tracer:
            join_db.spatial_join(
                "shapes", "geom", "shapes", "geom",
                parallel=2, use_processes=True,
            )
        path = write_chrome_trace(str(tmp_path / "join.json"), tracer)
        with open(path) as fh:
            doc = json.load(fh)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "join.primary_filter" in names
        assert "join.secondary_filter" in names
        assert "executor.task" in names

        # every complete event fits inside its parent's interval
        by_id = {
            e["args"]["span_id"]: e
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        eps = 1e-3  # µs rounding slack
        for e in by_id.values():
            parent = by_id.get(e["args"]["parent_id"])
            if parent is None or parent["pid"] != e["pid"]:
                continue
            assert parent["ts"] <= e["ts"] + eps
            assert (
                parent["ts"] + parent["dur"] + eps
                >= e["ts"] + e["dur"]
            )


class TestDisabledOverhead:
    def test_disabled_join_makes_no_tracer_and_identical_charges(
        self, join_db
    ):
        trace.disable()
        first = join_db.spatial_join("shapes", "geom", "shapes", "geom")
        second = join_db.spatial_join("shapes", "geom", "shapes", "geom")
        assert dict(first.run.combined_meter().counts) == dict(
            second.run.combined_meter().counts
        )
        assert trace.get_tracer() is None


class TestIndexRefineSpans:
    def test_one_span_per_candidate_array(self, join_db, monkeypatch):
        """A window probe's secondary filter is one ``index.refine`` span
        per array; its meter delta is the fetch + exact-test charges, and
        a traced probe charges exactly what an untraced one does."""
        from repro import Geometry
        from repro.engine import indextype
        from repro.engine.parallel import WorkerContext

        monkeypatch.setattr(indextype, "REFINE_ARRAY_ROWS", 16)
        window = Geometry.rectangle(0, 0, 60, 60)
        index = join_db.spatial_index_on("shapes", "geom")

        def probe(operator, args):
            index._geom_cache.clear()
            ctx = WorkerContext(0)
            return list(join_db.select_rowids("shapes", "geom", operator, args, ctx)), ctx

        for operator, args, batched in (
            ("SDO_WITHIN_DISTANCE", (window, 1.0), True),
            ("SDO_RELATE", (window, "INSIDE"), False),
        ):
            trace.disable()
            want, untraced = probe(operator, args)
            with trace.tracing() as tracer:
                got, traced = probe(operator, args)
            assert got == want and want
            assert traced.meter.counts == untraced.meter.counts
            spans = tracer.find("index.refine")
            candidates = untraced.meter.counts["exact_test_base"]
            assert len(spans) == math.ceil(candidates / 16) > 1
            assert [s.tags["candidates"] for s in spans[:-1]] == [16] * (len(spans) - 1)
            assert sum(s.tags["candidates"] for s in spans) == candidates
            assert sum(s.tags["results"] for s in spans) == len(got)
            assert {s.tags["operator"] for s in spans} == {operator}
            # the kernel takes the arrays it accepts from 64 candidate
            # vertices up: a full array of 16 rectangles, not a shorter tail
            assert [s.tags["batched"] for s in spans] == [
                batched and s.tags["candidates"] == 16 for s in spans
            ]
            assert spans[0].tags["batched"] is batched
            refine = _sum_meters(spans)
            assert refine["exact_test_base"] == candidates
            assert "rtree_node_visit" not in refine and "mbr_test" not in refine


class TestTessellationAndWalSpans:
    def test_tessellate_spans(self, random_rects):
        db = Database()
        rects = random_rects(30, seed=2)
        load_geometries(db, "q", rects)
        with trace.tracing() as tracer:
            db.create_spatial_index(
                "q_idx", "q", "geom", kind="QUADTREE", tiling_level=4
            )
        batch_spans = tracer.find("tessellate")
        level_spans = tracer.find("tessellate.level")
        # One span per batch of rows (30 rows are one batch), one level
        # span per level under it.
        assert [s.tags["geometries"] for s in batch_spans] == [30]
        assert [s.tags["level"] for s in level_spans] == list(range(len(level_spans)))
        assert {s.parent_id for s in level_spans} == {batch_spans[0].span_id}
        # Pruning is visible level by level: level 0 hands every boundary
        # edge of the batch to its quadrants, and the batch span's
        # quadrants are the frontier sizes of its levels, summed.
        edges = sum(len(list(g.boundary_edges())) for g in rects)
        assert [s.tags["edges"] for s in level_spans if s.tags["level"] == 0] == [edges]
        assert sum(s.tags["quadrants"] for s in batch_spans) == sum(
            s.tags["frontier"] for s in level_spans
        )

    def test_wal_commit_span(self, tmp_path):
        with trace.tracing() as tracer:
            db = Database.open(str(tmp_path / "t.db"), durability="wal")
            db.sql("create table t (id number)")
            db.sql("insert into t values (1)")
            db.close()
        assert tracer.find("wal.commit")
        assert tracer.find("wal.checkpoint")


class TestIndexBuildSpans:
    @pytest.mark.parametrize(
        "kind, params",
        [("RTREE", {"fanout": 8}), ("QUADTREE", {"tiling_level": 4})],
    )
    @pytest.mark.parametrize("degree", (1, 2))
    def test_build_load_pack_spans_and_equal_charges(
        self, random_rects, kind, params, degree
    ):
        db = Database()
        load_geometries(db, "b", random_rects(40, seed=4))
        _index, untraced = db.create_spatial_index(
            "b_idx", "b", "geom", kind=kind, parallel=degree, **params
        )
        db.drop_index("b_idx")
        with trace.tracing() as tracer:
            _index, traced = db.create_spatial_index(
                "b_idx", "b", "geom", kind=kind, parallel=degree, **params
            )
        assert [m.counts for m in traced.run.worker_meters] == [
            m.counts for m in untraced.run.worker_meters
        ]
        assert traced.makespan_seconds == untraced.makespan_seconds
        (build,) = tracer.find("index.build")
        assert build.tags == {"kind": kind, "degree": degree, "rows": 40}
        children = [s for s in tracer.spans if s.parent_id == build.span_id]
        assert [s.name for s in children if s.name.startswith("index.")] == [
            "index.load", "index.pack",
        ]

    def test_open_rebuild_span(self, tmp_path, random_rects):
        path = str(tmp_path / "r.db")
        db = Database.open(path, durability="wal")
        load_geometries(db, "b", random_rects(20, seed=4))
        db.create_spatial_index("b_r", "b", "geom")
        db.create_spatial_index("b_q", "b", "geom", kind="QUADTREE", tiling_level=4)
        db.close()
        with trace.tracing() as tracer:
            Database.open(path, durability="wal").close(checkpoint=False)
        (rebuild,) = tracer.find("database.rebuild_indexes")
        assert rebuild.tags["indexes"] == 2
        builds = tracer.find("index.build")
        assert [s.tags["kind"] for s in builds] == ["RTREE", "QUADTREE"]
        assert all(s.parent_id == rebuild.span_id for s in builds)
