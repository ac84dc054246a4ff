"""Format-equivalence tests: columnar results must be bit-identical to
slotted, including adversarial zone-map cases.

Every test builds the same dataset twice — one database left slotted, one
compacted to columnar — and asserts the *exact* equality of query results
between formats, with the numpy kernels and again with their scalar
oracles standing in (``tests/oracles.py``).  The charge structures
legitimately differ (that difference is the optimisation); the rows must
not.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.parallel import WorkerContext
from repro.geometry.geometry import Geometry
from tests.oracles import IMPLS as BACKENDS, kernel_impl


def build_pair(loader, chunk_rows=64):
    """Two identical databases: (slotted, compacted-to-columnar)."""
    dbs = []
    for _ in range(2):
        db = Database()
        table = db.create_table(
            "shapes", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")]
        )
        table.insert_many(loader())
        db.create_spatial_index("shapes_sidx", "shapes", "geom", "RTREE")
        dbs.append(db)
    dbs[1].compact_table("shapes", chunk_rows=chunk_rows)
    return dbs[0], dbs[1]


def random_rects(n=400, seed=11):
    def loader():
        rng = random.Random(seed)
        rows = []
        for i in range(n):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            rows.append(
                (
                    i,
                    Geometry.rectangle(
                        x, y, x + rng.uniform(0.5, 4), y + rng.uniform(0.5, 4)
                    ),
                )
            )
        return rows

    return loader


def coherent_strip(n=300):
    """Spatially coherent insertion order: x grows with rowid, so chunk
    zones tile the strip and selective windows prune most chunks."""

    def loader():
        return [
            (i, Geometry.rectangle(i * 2.0, 0.0, i * 2.0 + 1.5, 10.0))
            for i in range(n)
        ]

    return loader


@pytest.mark.parametrize("backend", BACKENDS)
class TestFormatEquivalence:
    def test_select_rowids_identical(self, backend):
        slotted, columnar = build_pair(random_rects())
        windows = [
            Geometry.rectangle(20, 20, 30, 30),
            Geometry.rectangle(0, 0, 100, 100),
            Geometry.rectangle(99.5, 99.5, 99.9, 99.9),
            Geometry.rectangle(500, 500, 501, 501),  # empty
        ]
        with kernel_impl(backend):
            for q in windows:
                for op, args in (
                    ("SDO_RELATE", [q]),
                    ("SDO_FILTER", [q]),
                    ("SDO_WITHIN_DISTANCE", [q, 3.0]),
                ):
                    a = list(slotted.select_rowids("shapes", "geom", op, args))
                    b = list(columnar.select_rowids("shapes", "geom", op, args))
                    assert a == b, (op, q.mbr)

    def test_window_scan_identical(self, backend):
        slotted, columnar = build_pair(random_rects())
        with kernel_impl(backend):
            for q in (
                Geometry.rectangle(10, 10, 25, 25),
                Geometry.rectangle(-5, -5, 0.25, 0.25),
            ):
                for exact in (True, False):
                    a = slotted.window_scan("shapes", "geom", q, exact=exact)
                    b = columnar.window_scan("shapes", "geom", q, exact=exact)
                    assert a == b

    def test_join_pairs_identical(self, backend):
        slotted, columnar = build_pair(random_rects(n=250))
        with kernel_impl(backend):
            a = slotted.spatial_join("shapes", "geom", "shapes", "geom")
            b = columnar.spatial_join("shapes", "geom", "shapes", "geom")
            assert a.pairs == b.pairs

    def test_grid_parallel_join_identical(self, backend):
        slotted, columnar = build_pair(random_rects(n=250))
        with kernel_impl(backend):
            a = slotted.spatial_join(
                "shapes", "geom", "shapes", "geom", parallel=4, strategy="GRID"
            )
            b = columnar.spatial_join(
                "shapes", "geom", "shapes", "geom", parallel=4, strategy="GRID"
            )
            assert a.pairs == b.pairs

    def test_post_compaction_dml_tracks_heap_truth(self, backend):
        slotted, columnar = build_pair(random_rects(n=200))
        q = Geometry.rectangle(20, 20, 40, 40)
        with kernel_impl(backend):
            base = sorted(slotted.select_rowids("shapes", "geom", "SDO_RELATE", [q]))
            victims = base[:2]
            for db in (slotted, columnar):
                t = db.table("shapes")
                t.insert((9001, Geometry.rectangle(25, 25, 26, 26)))
                t.delete(victims[0])
                t.update(victims[1], (9002, Geometry.rectangle(70, 70, 71, 71)))
            a = sorted(slotted.select_rowids("shapes", "geom", "SDO_RELATE", [q]))
            b = sorted(columnar.select_rowids("shapes", "geom", "SDO_RELATE", [q]))
            assert a == b
            # scans merge journal rows back at their rowid positions
            assert list(slotted.table("shapes").scan()) == list(
                columnar.table("shapes").scan()
            )


class TestBackendParity:
    """The MBR kernel and its oracle must agree row-for-row on chunk scans."""

    def test_window_candidates_backend_identical(self):
        _slotted, columnar = build_pair(random_rects())
        seg = columnar.table("shapes").columnar
        box = (15.0, 15.0, 60.0, 60.0)
        with kernel_impl("python"):
            a = [(rid, g) for rid, g in seg.window_candidates(box)]
        with kernel_impl("numpy"):
            b = [(rid, g) for rid, g in seg.window_candidates(box)]
        assert [rid for rid, _ in a] == [rid for rid, _ in b]
        assert all(x == y for (_, x), (_, y) in zip(a, b))

    def test_null_geometry_rows_invisible_on_both_backends(self):
        # NULL geometries carry no MBR plane entry (plane_rows maps the
        # dense planes back to chunk rows), so neither kernel nor oracle
        # can ever emit them from the primary filter.
        db = Database()
        t = db.create_table("mix", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
        rows = []
        for i in range(60):
            geom = (
                None
                if i % 3 == 0
                else Geometry.rectangle(i, 0.0, i + 0.5, 1.0)
            )
            rows.append((i, geom))
        t.insert_many(rows)
        db.compact_table("mix", chunk_rows=16)
        seg = t.columnar
        box = (0.0, 0.0, 100.0, 100.0)
        with kernel_impl("python"):
            a = [rid for rid, _ in seg.window_candidates(box)]
        with kernel_impl("numpy"):
            b = [rid for rid, _ in seg.window_candidates(box)]
        assert a == b
        assert len(a) == sum(1 for _i, g in rows if g is not None)


class TestAdversarialZones:
    """Zone maps on chunk-boundary-straddling MBRs (grid-partition style)."""

    def test_geometry_straddling_chunk_boundary_found(self):
        # One huge rectangle is inserted mid-stream in an otherwise
        # coherent strip: its chunk's zone must widen to cover it, and a
        # window hitting only its far end must still find it.
        def loader():
            rows = [
                (i, Geometry.rectangle(i * 2.0, 0.0, i * 2.0 + 1.5, 10.0))
                for i in range(100)
            ]
            rows[50] = (50, Geometry.rectangle(100.0, 0.0, 900.0, 10.0))
            return rows

        slotted, columnar = build_pair(loader, chunk_rows=16)
        q = Geometry.rectangle(880.0, 2.0, 890.0, 3.0)  # far end of the giant
        a = sorted(slotted.select_rowids("shapes", "geom", "SDO_RELATE", [q]))
        b = sorted(columnar.select_rowids("shapes", "geom", "SDO_RELATE", [q]))
        assert a == b and len(a) == 1
        c = columnar.window_scan("shapes", "geom", q)
        assert c == b

    def test_window_exactly_on_zone_edges(self):
        # Windows whose edges coincide exactly with zone boundaries: the
        # closed-interval test must keep touching geometries (and both
        # formats must agree on every boundary).
        slotted, columnar = build_pair(coherent_strip(), chunk_rows=25)
        seg = columnar.table("shapes").columnar
        for meta in seg.chunks:
            zx0, _zy0, zx1, _zy1 = meta.zone
            for edge in (zx0, zx1):
                q = Geometry.rectangle(edge - 0.25, 3.0, edge, 4.0)
                a = slotted.window_scan("shapes", "geom", q)
                b = columnar.window_scan("shapes", "geom", q)
                assert a == b

    def test_selective_window_prunes_most_chunks(self):
        _slotted, columnar = build_pair(coherent_strip(), chunk_rows=25)
        seg = columnar.table("shapes").columnar
        n_chunks = len(seg.chunks)
        ctx = WorkerContext(0)
        q = Geometry.rectangle(10.0, 2.0, 14.0, 6.0)
        columnar.window_scan("shapes", "geom", q, ctx=ctx)
        assert seg.zone_prunes >= n_chunks - 2
        assert ctx.meter.counts.get("zone_skip", 0) >= n_chunks - 2

    def test_distance_expanded_zone_test(self):
        # A within-distance query must expand the zone test by the same
        # distance the row-level filter uses, or boundary rows vanish.
        slotted, columnar = build_pair(coherent_strip(), chunk_rows=25)
        q = Geometry.rectangle(-50.0, 0.0, -49.0, 10.0)  # left of all data
        for d in (0.0, 48.9, 49.0, 60.0):
            a = sorted(
                slotted.select_rowids(
                    "shapes", "geom", "SDO_WITHIN_DISTANCE", [q, d]
                )
            )
            b = sorted(
                columnar.select_rowids(
                    "shapes", "geom", "SDO_WITHIN_DISTANCE", [q, d]
                )
            )
            assert a == b, d
