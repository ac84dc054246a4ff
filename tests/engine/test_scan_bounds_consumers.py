"""The primary filters that read ``Table.scan_bounds`` — R-tree creation,
rebuild on open, quadtree domain inference and the heap window scan —
against the same code run with ``tests/oracles.py::scan_bounds_reference``
patched in for the reader (every row decoded, then ``.mbr``): equal
R-tree structure, reports, charges, buffer traffic and answers."""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine.parallel import WorkerContext
from repro.engine.table import Table
from tests.oracles import scan_bounds_reference


@contextmanager
def decode_path():
    with mock.patch.object(Table, "scan_bounds", scan_bounds_reference):
        yield


def tree_digest(tree) -> str:
    """sha256 over every node's level and entries, MBRs as packed bytes."""
    h = hashlib.sha256()

    def walk(node):
        h.update(struct.pack("<ii", node.level, len(node.entries)))
        for e in node.entries:
            h.update(struct.pack("<4d", *e.mbr.as_tuple()))
            if node.is_leaf:
                h.update(struct.pack("<II", e.rowid.page, e.rowid.slot))
            else:
                walk(e.child)

    walk(tree.root)
    return h.hexdigest()


def report_facts(index, report):
    counts = [sorted(m.counts.items()) for m in report.run.worker_meters]
    return (
        tree_digest(index.tree) if index.kind == "RTREE" else list(index.btree.items()),
        report.rows_indexed,
        report.tiles_created,
        report.makespan_seconds,
        report.serial_tail_seconds,
        counts,
    )


@pytest.fixture(scope="module")
def mixed_geoms(small_counties):
    """County polygons, plus a point, a line, a polygon with a hole, a
    multipolygon and rows left NULL (which the partition keys place)."""
    extra = [
        Geometry.point(-1.0, 3.0),
        Geometry.linestring([(0, 0), (5, -2)]),
        Geometry.polygon([(0, 0), (9, 0), (9, 9), (0, 9)], [[(2, 2), (4, 2), (4, 4)]]),
        Geometry.multipolygon([([(20, 20), (22, 20), (21, 23)], [])]),
    ]
    return list(small_counties) + extra


def loaded(geoms, db=None):
    db = db or Database()
    table = load_geometries(db, "t", geoms)
    for i in range(0, 40, 13):
        table.insert((10_000 + i, None))
    return db


def build(db, kind, degree, processes=False, **params):
    if db.catalog.has_index("ix"):
        db.drop_index("ix")
    index, report = db.create_spatial_index(
        "ix", "t", "geom", kind=kind, parallel=degree, use_processes=processes, **params
    )
    return report_facts(index, report)


class TestRTreeBuild:
    @pytest.mark.parametrize("degree", (1, 2, 4))
    def test_same_tree_report_and_charges(self, mixed_geoms, degree):
        db = loaded(mixed_geoms)
        got = build(db, "RTREE", degree)
        with decode_path():
            want = build(db, "RTREE", degree)
        assert got == want
        assert got[1] == len(mixed_geoms) + 4  # NULL rows are partitioned too

    @pytest.mark.parametrize("degree", (2, 4))
    def test_process_build_equals_the_decode_path(self, mixed_geoms, degree):
        db = loaded(mixed_geoms)
        got = build(db, "RTREE", degree, processes=True)
        with decode_path():
            want = build(db, "RTREE", degree)
        assert got[0] == want[0]
        assert got[1:4] == want[1:4]

    def test_compacted_and_journaled_table(self, mixed_geoms):
        db = loaded(mixed_geoms)
        db.compact_table("t", chunk_rows=32)
        table = db.table("t")
        rowids = [rowid for rowid, _row in table.scan()]
        for rowid in rowids[::9]:
            table.update(rowid, (1, Geometry.rectangle(1, 1, 2, 2)))
        table.insert((2, Geometry.rectangle(-3, -3, -1, -1)))
        got = build(db, "RTREE", 2)
        with decode_path():
            want = build(db, "RTREE", 2)
        assert got == want

    def test_sequential_create(self, mixed_geoms):
        db = loaded(mixed_geoms)
        index, _report = db.create_spatial_index("ix", "t", "geom", kind="RTREE")
        runs = []
        for patch in (nullcontext(), decode_path()):
            ctx = WorkerContext(0)
            with patch:
                index.create(ctx)
            runs.append((tree_digest(index.tree), ctx.meter.counts))
        assert runs[0] == runs[1]

    def test_reopen_rebuilds_the_same_tree(self, mixed_geoms, tmp_path):
        db = Database.open(str(tmp_path / "s.db"), durability="wal")
        loaded(mixed_geoms, db)
        db.create_spatial_index("ix", "t", "geom", kind="RTREE", parallel=2)
        db.close()
        digests = []
        for patch in (nullcontext(), decode_path()):
            with patch:
                reopened = Database.open(str(tmp_path / "s.db"), durability="wal")
            digests.append(tree_digest(reopened.spatial_index("ix").tree))
            reopened.close(checkpoint=False)
        assert digests[0] == digests[1]


def test_quadtree_domain_inference(mixed_geoms):
    db = loaded(mixed_geoms)
    got = build(db, "QUADTREE", 2, tiling_level=5)
    domain = db.catalog.index("ix").parameters["domain"]
    with decode_path():
        want = build(db, "QUADTREE", 2, tiling_level=5)
    assert db.catalog.index("ix").parameters["domain"] == domain
    assert got == want


class TestHeapWindowScan:
    @pytest.fixture(scope="class")
    def star_db(self, small_stars):
        return loaded(small_stars)

    def windows(self, star_db):
        mbrs = [m for _r, m, _n, _g in star_db.table("t").scan_bounds(1) if m is not None]
        for m in mbrs[::37]:
            yield Geometry.rectangle(m.min_x - 1, m.min_y - 1, m.max_x + 2, m.max_y + 2)

    @pytest.mark.parametrize("exact", (True, False))
    @pytest.mark.parametrize("distance", (0.0, 1.5))
    def test_same_rowids_charges_and_buffer_traffic(self, star_db, exact, distance):
        for window in self.windows(star_db):
            runs = []
            for patch in (nullcontext(), decode_path()):
                ctx = WorkerContext(0)
                star_db.pool.stats.reset()
                with patch:
                    rowids = star_db.window_scan(
                        "t", "geom", window, distance=distance, exact=exact, ctx=ctx
                    )
                pool = dataclasses.asdict(star_db.pool.stats)
                runs.append((rowids, ctx.meter.counts, pool))
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("exact", (True, False))
    def test_decodes_only_rows_whose_mbr_passes(self, star_db, exact):
        import repro.storage.codec as codec

        window = next(self.windows(star_db))
        with mock.patch.object(codec, "from_sdo", wraps=codec.from_sdo) as decoded, \
                mock.patch.object(
                    codec, "decode_ring_column", wraps=codec.decode_ring_column
                ) as read:
            candidates = star_db.window_scan("t", "geom", window, exact=False)
            read.reset_mock()
            star_db.window_scan("t", "geom", window, exact=exact)
        assert candidates
        # Each row whose MBR passes is read once, as a packed ring.
        assert read.call_count == (len(candidates) if exact else 0)
        assert decoded.call_count == 0


class TestDroppedAndRefusedIndexes:
    def test_dropped_quadtree_no_longer_checks_its_domain(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(30, seed=1))
        db.create_spatial_index("q", "t", "geom", kind="QUADTREE", tiling_level=4)
        db.drop_index("q")
        db.table("t").insert((99, Geometry.rectangle(5000, 5000, 5001, 5001)))

    def test_dropped_rtree_stops_growing(self, random_rects):
        db = Database()
        load_geometries(db, "t", random_rects(30, seed=1))
        index, _report = db.create_spatial_index("r", "t", "geom")
        db.sql("DROP INDEX r")
        db.table("t").insert((99, Geometry.rectangle(1, 1, 2, 2)))
        assert len(index.tree) == 30
        assert not db.table("t")._maintenance_hooks

    def test_taken_name_is_refused_before_any_build(self, random_rects):
        from repro.core import index_build
        from repro.errors import CatalogError

        db = Database()
        load_geometries(db, "t", random_rects(30, seed=1))
        db.create_spatial_index("r", "t", "geom")
        table = db.table("t")
        with mock.patch.object(index_build, "create_quadtree_parallel") as quad, \
                mock.patch.object(index_build, "create_rtree_parallel") as rtree:
            for kind, params in (("RTREE", {}), ("QUADTREE", {"tiling_level": 4})):
                with pytest.raises(CatalogError, match="already exists"):
                    db.create_spatial_index("R", "t", "geom", kind=kind, **params)
        assert not quad.called and not rtree.called
        assert len(table._maintenance_hooks) == 1
        table.insert((99, Geometry.rectangle(5000, 5000, 5001, 5001)))
        assert len(db.spatial_index("r").tree) == 31
