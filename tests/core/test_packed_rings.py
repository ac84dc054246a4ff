"""Packed rings: the join's secondary filter reads a heap row's polygon of
one exterior ring as a vertex array over the record bytes, no ``Geometry``
built.

Every test here runs a scenario twice — as shipped, and on the object
path, where ``Table.fetch_packed`` is
``tests/oracles.py::fetch_geometry_reference`` and every fetched row is
decoded into a ``Geometry`` — and wants the same pairs in
the same order, the same charges kind by kind, the same cache hits,
misses and LRU order.  The rows are chosen to break a careless packed
decode: zero-area and sliver exteriors (stored reversed, reversed again on
decode), ``-0.0`` vertices, repeated vertices and a doubled closure,
triangles, holes, multipolygons, points and lines.  The fuzz test feeds
the packed decode hostile bytes.
"""

import math
import random
import struct
from contextlib import contextmanager

import numpy as np
import pytest

from repro import Database
from repro.core.secondary_filter import FetchOrder, JoinPredicate, SecondaryFilter
from repro.datasets import load_geometries
from repro.engine.parallel import WorkerContext
from repro.engine.table import Table
from repro.errors import GeometryError, StorageError
from repro.geometry import kernels
from repro.geometry.geometry import Geometry
from repro.geometry.packed import PackedRing, pack_ring
from repro.storage.codec import decode_ring_column, decode_row, encode_row
from tests.oracles import encode_value, fetch_geometry_reference, secondary_filter_reference


def adversarial_geometries():
    rng = random.Random(2003)
    out = []
    # Overlapping and edge-sharing squares: the packed rows.
    for i in range(5):
        for j in range(4):
            x, y = 1.5 * i, 1.5 * j
            side = 1.5 if (i + j) % 2 else 1.7
            out.append(Geometry.rectangle(x, y, x + side, y + side))
    out += [
        Geometry.polygon([(0.5, 0.5), (0.5, 2.0), (2.0, 2.0)]),  # given clockwise
        Geometry.polygon([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),  # zero area
        Geometry.polygon([(0.0, 3.0), (4.0, 3.0), (2.0, 3.0)]),  # zero area, folded
        Geometry.polygon([(-0.0, -0.0), (1.0, -0.0), (-0.0, 1.0)]),
        Geometry.polygon([(2, 2), (3, 2), (3, 2), (3, 3), (2, 3), (2, 3)]),
        Geometry.polygon([(4, 4), (5, 4), (5, 5), (4, 4), (4, 4)]),  # doubled closure
        Geometry.polygon([(3, 3), (7, 3), (7, 6), (3, 6)], [[(4, 4), (6, 4), (6, 5), (4, 5)]]),
        Geometry.multipolygon([([(0.2, 4), (1, 4), (1, 5)], []), ([(6, 1), (7, 1), (7, 2)], [])]),
        Geometry.point(2.25, 1.0),
        Geometry.point(5.0, 4.5),  # in the hole
        Geometry.point(1.5, 1.5),  # on shared corners
        Geometry.linestring([(0.0, 0.0), (7.5, 6.0)]),
        Geometry.multipoint([(0.1, 0.1), (6.9, 5.1)]),
    ]
    # Long slivers across the squares: the signed area is rounding noise.
    for _ in range(6):
        x0, y0 = rng.uniform(0, 1), rng.uniform(0, 6)
        dx, dy = rng.uniform(2, 4), rng.uniform(-0.5, 0.5)
        e = rng.choice((0.0, 1e-13, -1e-13, 1e-9))
        out.append(Geometry.polygon([(x0, y0), (x0 + dx, y0 + dy), (x0 + 2 * dx, y0 + 2 * dy + e)]))
    return out


@pytest.fixture(scope="module")
def adb():
    db = Database()
    geoms = adversarial_geometries()
    load_geometries(db, "t", geoms)
    load_geometries(db, "c", geoms)
    db.create_spatial_index("t_idx", "t", "geom", kind="RTREE", fanout=4)
    db.compact_table("c")
    db.create_spatial_index("c_idx", "c", "geom", kind="RTREE", fanout=4)
    return db


@contextmanager
def object_path(monkeypatch):
    """Within the block every fetched row is a ``Geometry``."""
    with monkeypatch.context() as patch:
        patch.setattr(Table, "fetch_packed", fetch_geometry_reference)
        yield


def outcome(result):
    return (
        result.pairs,
        [m.counts for m in result.run.worker_meters],
        result.makespan_seconds,
    )


def both_paths(monkeypatch, run):
    packed = run()
    with object_path(monkeypatch):
        objects = run()
    return packed, objects


class TestStoredForms:
    def test_packed_only_where_the_decode_keeps_the_stored_ring(self, adb):
        table = adb.table("t")
        kinds = {"packed": 0, "object": 0}
        for rowid, row in table.scan():
            geom = row[1]
            got = table.fetch_packed(rowid, 1)
            if type(got) is PackedRing:
                kinds["packed"] += 1
                assert got.geometry() == geom
                assert got.num_vertices == geom.num_vertices
                assert got.vertices.tobytes() == geom.exterior.closed_array().tobytes()
            else:
                kinds["object"] += 1
                assert got == geom
        assert kinds["packed"] >= 20 and kinds["object"] >= 9, kinds

    def test_rings_the_decode_reverses_stay_objects(self):
        for pts in ([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], [(0.0, 3.0), (4.0, 3.0), (2.0, 3.0)]):
            geom = Geometry.polygon(pts)
            data = encode_row((0, geom))
            decoded = decode_row(data)[1]
            assert decoded.exterior.coords != geom.exterior.coords  # reversed twice
            got = decode_ring_column(data, 1)
            assert type(got) is Geometry and got == decoded

    def test_columnar_rows_stay_objects(self, adb):
        table = adb.table("c")
        for rowid, _row in table.scan():
            assert type(table.fetch_packed(rowid, 1)) is Geometry


class TestJoinDifferential:
    @pytest.mark.parametrize("distance", (0.0, 0.3))
    @pytest.mark.parametrize("strategy", ("SWEEP", "NESTED", "GRID"))
    def test_serial(self, adb, monkeypatch, strategy, distance):
        packed, objects = both_paths(
            monkeypatch,
            lambda: outcome(adb.spatial_join(
                "t", "geom", "t", "geom", distance=distance, strategy=strategy
            )),
        )
        assert packed == objects
        assert packed[0]  # the join found pairs

    @pytest.mark.parametrize("strategy", ("SWEEP", "GRID"))
    def test_process_slaves(self, adb, monkeypatch, strategy):
        """Slaves pull tasks from a shared queue, so which slave runs which
        task, and with it each slave's cache and fetch charges, varies
        from run to run; the pairs and the exact-test work do not."""
        kinds = ("exact_test_base", "exact_test_per_vertex", "result_row")

        def run():
            result = adb.spatial_join(
                "t", "geom", "t", "geom", parallel=2, use_processes=True, strategy=strategy
            )
            counts = result.run.combined_meter().counts
            return result.pairs, [counts[k] for k in kinds]

        packed, objects = both_paths(monkeypatch, run)
        assert packed == objects

    @pytest.mark.parametrize("distance", (0.0, 0.3))
    def test_compacted_against_heap(self, adb, monkeypatch, distance):
        packed, objects = both_paths(
            monkeypatch,
            lambda: outcome(adb.spatial_join("c", "geom", "t", "geom", distance=distance)),
        )
        assert packed == objects

    def test_scalar_only_mask(self, adb, monkeypatch):
        packed, objects = both_paths(
            monkeypatch,
            lambda: outcome(adb.spatial_join("t", "geom", "t", "geom", mask="TOUCH")),
        )
        assert packed == objects
        assert packed[0]  # the squares touch


def all_candidates(db, name, slack):
    rows = [(rid, row[1].mbr) for rid, row in db.table(name).scan()]
    return [
        (ra, rb, ma, mb)
        for ra, ma in rows
        for rb, mb in rows
        if ma.expand(slack).intersects(mb)
    ]


class TestFilterDifferential:
    @pytest.mark.parametrize("predicate", (
        JoinPredicate(), JoinPredicate(distance=0.3), JoinPredicate(mask="TOUCH"),
    ))
    @pytest.mark.parametrize("clear_between", (False, True))
    def test_random_order_small_cache(self, adb, monkeypatch, predicate, clear_between):
        cands = all_candidates(adb, "t", 0.3)

        def run(process):
            f = SecondaryFilter(
                adb.table("t"), "geom", adb.table("t"), "geom", predicate,
                fetch_order=FetchOrder.RANDOM, cache_capacity=5, rng_seed=7,
            )
            ctx = WorkerContext(0)
            half = len(cands) // 2
            pairs = process(f, cands[:half], ctx)
            if clear_between:
                f.clear_caches()
            pairs += process(f, cands[half:], ctx)
            return (
                pairs, ctx.meter.counts, f.cache.hits, f.cache.misses,
                list(f.cache._entries),
            )

        packed, objects = both_paths(monkeypatch, lambda: run(SecondaryFilter.process))
        assert packed == objects
        # The per-candidate reference, unedited, on the packed cache.
        assert run(secondary_filter_reference) == packed
        assert packed[3] > 5  # the capacity really was exceeded


# ----------------------------------------------------------------------
# Hostile bytes
# ----------------------------------------------------------------------
_N_ELEM_AT = 18  # u32 count, int column (9), geometry tag, gtype

PROBES = [
    Geometry.rectangle(0.5, 0.5, 1.5, 1.25),
    Geometry.polygon([(-1.0, -1.0), (9.0, -1.0), (9.0, 9.0)]),
    Geometry.point(1.0, 1.0),
    Geometry.linestring([(-1.0, 0.5), (3.0, 0.5)]),
]


def _mutations(data, rng):
    n_ord_at = _N_ELEM_AT + 4 + 4 * struct.unpack_from("<I", data, _N_ELEM_AT)[0]
    ords_at = n_ord_at + 4
    n_ord = struct.unpack_from("<I", data, n_ord_at)[0]
    ords_end = ords_at + 8 * n_ord

    def put(fmt, at, value, raw=data):
        out = bytearray(raw)
        struct.pack_into(fmt, out, at, value)
        return bytes(out)

    def ordinate(k):
        return ords_at + 8 * k

    yield data[: rng.randrange(len(data))]  # truncated
    yield put("<I", n_ord_at, n_ord + rng.choice((1, 2, 1000, 2**31)))
    yield put("<I", n_ord_at, n_ord - 1)  # odd, one ordinate left over
    yield put("<I", n_ord_at, n_ord - 1)[:-8]  # odd, and consistent
    yield put("<I", n_ord_at, n_ord - 2)  # a vertex left over
    for k in range(4):  # closed rings of k - 1 vertices
        head = put("<I", n_ord_at, 2 * k)[:ords_at]
        yield head + data[ords_at : ords_at + 8 * (2 * k - 2)] + data[ords_at : ords_at + 16][: 8 * 2 * k]
    for at in (18, 22, 26, 30):  # n_elem and the triplet lie
        yield put("<I", at, rng.choice((0, 1, 2, 3, 5, 6, 1003, 2003, 2**31)))
    yield put("<I", 14, rng.choice((2001, 2002, 2007, 9999)))  # gtype
    yield put("<d", ords_end - 16, rng.choice((0.5, 1e-300, -1.0)))  # unclosed
    yield put("<d", ords_end - 8, struct.unpack_from("<d", data, ords_end - 8)[0] + 1e-12)
    for k in (0, 1, 2 * rng.randrange(n_ord // 2), n_ord - 1, n_ord - 2):
        yield put("<d", ordinate(k), rng.choice((math.nan, math.inf, -math.inf)))
    for k in (0, n_ord - 2):  # -0.0 against 0.0 at either end of the closure
        yield put("<d", ordinate(k), -0.0)
    for _ in range(6):  # bit flips
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        yield bytes(out)
    yield data + b"\x00"  # trailing byte


def _decode(fn, data):
    try:
        return fn(data)
    except (StorageError, GeometryError) as exc:
        return exc


def test_hostile_bytes_give_the_decode_or_a_typed_error():
    rng = random.Random(1303)
    seeds = [
        Geometry.rectangle(0.0, 0.0, 2.0, 1.0),
        Geometry.polygon([(0.0, 0.0), (2.0, 0.0), (1.0, 1.5)]),
        Geometry.polygon([(-0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-0.0, 1.0)]),
        Geometry.polygon([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),
        Geometry.polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 3.0)], [[(2.0, 0.5), (2.5, 0.5), (2.5, 1.0)]]),
    ]
    packed = fallback = refused = 0
    for trial in range(40):
        for data in _mutations(encode_row((7, seeds[trial % len(seeds)])), rng):
            want = _decode(decode_row, data)
            got = _decode(lambda d: decode_ring_column(d, 1), data)
            if isinstance(want, Exception):
                assert isinstance(got, Exception), (data, got)
                refused += 1
                continue
            geom = want[1]
            if type(got) is not PackedRing:
                assert encode_value(got) == encode_value(geom)
                fallback += 1
                continue
            packed += 1
            assert encode_value(got.geometry()) == encode_value(geom)
            assert got.vertices.tobytes() == geom.exterior.closed_array().tobytes()
            for dist in (0.0, 0.4):
                verdicts = kernels.evaluate_predicate_pairs(
                    [got] * len(PROBES), PROBES, "ANYINTERACT", dist
                )
                assert verdicts == kernels.evaluate_predicate_pairs(
                    [geom] * len(PROBES), PROBES, "ANYINTERACT", dist
                )
                if np.isfinite(got.vertices).all():
                    predicate = JoinPredicate(distance=dist)
                    assert verdicts == [predicate.evaluate(geom, p) for p in PROBES]
    assert packed and fallback and refused, (packed, fallback, refused)


def test_non_finite_stored_ring_is_refused_by_both_decodes():
    # An infinite x at vertex 1 makes the shoelace sum +inf: positive, yet
    # not a ring the full decode keeps.
    data = bytearray(encode_row((7, Geometry.polygon([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0)]))))
    x1_at = _N_ELEM_AT + 4 + 4 * struct.unpack_from("<I", data, _N_ELEM_AT)[0] + 4 + 16
    assert struct.unpack_from("<d", data, x1_at)[0] == 1.0
    struct.pack_into("<d", data, x1_at, math.inf)
    ring = np.array([(0.0, -1.0), (math.inf, 0.0), (0.0, 1.0), (0.0, -1.0)])
    assert pack_ring(ring) is None
    for decode in (decode_row, lambda d: decode_ring_column(d, 1)):
        with pytest.raises(GeometryError, match="non-finite"):
            decode(bytes(data))
