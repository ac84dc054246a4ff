"""Index probes and window scans on packed rows against the object path.

The index operators' secondary filter reads its rows through the row cache
(``GeometryCache`` over ``Table.fetch_packed``), so a heap row's polygon of
one exterior ring reaches the exact test as a ``PackedRing``; the heap
``window_scan`` reads the rows whose MBR passes through
``decode_ring_column``.  The reference is the object path every row took
before: a twin database whose tables are on
``tests/oracles.py::use_object_path`` (every fetched or scanned row a
decoded ``Geometry``, the index row caches the old ``OrderedDict`` LRU),
probed one candidate at a time by
``index_fetch_reference``.  Rows, their order, the whole
``WorkMeter.counts`` dict and the row cache's hits, misses and LRU order
must be equal — for both index kinds, heap and compacted tables, arrays on
both sides of ``KERNEL_MIN_VERTICES``, and after DML.

The rows are those that break a careless packed decode
(``tests/core/test_packed_rings.py::adversarial_geometries``: clockwise
and zero-area exteriors, slivers, ``-0.0``, repeated vertices, holes,
multi-part rows, points and lines), plus many-vertex rings so that some
candidate arrays reach the kernel at the shipped threshold.
"""

import math

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.engine import indextype
from repro.engine.parallel import WorkerContext
from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.geometry.packed import PackedRing
from repro.geometry.predicates import INTERACTION_MASKS
from tests.core.test_packed_rings import adversarial_geometries
from tests.oracles import index_fetch_reference, use_object_path

KINDS = ("RTREE", "QUADTREE")
DOMAIN = MBR(-16, -16, 16, 16)


def _gon(cx, cy, r, n):
    return Geometry.polygon(
        [(cx + r * math.cos(2 * math.pi * k / n), cy + r * math.sin(2 * math.pi * k / n))
         for k in range(n)]
    )


def rows():
    return adversarial_geometries() + [
        _gon(2.0, 2.0, 1.2, 40),
        _gon(5.5, 3.5, 2.0, 72),
        _gon(-3.0, -3.0, 1.0, 24),
        None,
    ]


WINDOWS = {
    "one square": Geometry.rectangle(0.2, 0.2, 0.4, 0.4),
    "few rows": Geometry.rectangle(-3.5, -3.5, 0.6, 0.6),
    "middle": Geometry.rectangle(1.0, 1.0, 4.0, 3.2),
    "everything": Geometry.rectangle(-8.0, -8.0, 12.0, 12.0),
    "concave": Geometry.polygon(
        [(0, 0), (7, 0), (7, 6), (5, 6), (5, 2), (2, 2), (2, 6), (0, 6)]
    ),
    "point": Geometry.point(1.5, 1.5),
    "line": Geometry.linestring([(-1.0, 0.5), (3.0, 0.5), (6.0, 4.0)]),
}


def probes(window):
    for mask in INTERACTION_MASKS:  # the kernel's masks and TOUCH, CONTAINS, ...
        yield "SDO_RELATE", (window, mask)
    yield "SDO_RELATE", (window, "INSIDE+TOUCH")
    for distance in (0.0, 0.3):
        yield "SDO_WITHIN_DISTANCE", (window, distance)


class Twin:
    """Two identical databases: the shipped code runs on one, the object
    path on the other.  ``t`` stays a heap table, ``c`` is compacted and
    then journaled by DML; both carry a spatial index of ``kind``."""

    def __init__(self, kind):
        parameters = {}
        if kind == "QUADTREE":
            parameters = {"domain": DOMAIN, "tiling_level": 5}
        self.sides = []
        for reference in (False, True):
            db = Database()
            load_geometries(db, "t", rows())
            load_geometries(db, "c", rows())
            db.compact_table("c")
            c = db.table("c")
            rowids = [rowid for rowid, _row in c.scan()]
            c.update(rowids[1], (1, Geometry.polygon([(6, 6), (6, 7), (7, 7), (7, 6)])))
            c.update(rowids[2], (2, _gon(4.0, 5.0, 1.5, 30)))
            c.delete(rowids[3])
            c.insert((999, Geometry.polygon([(0.5, 4.5), (1.5, 4.5), (1.0, 5.5)])))
            for name in ("t", "c"):
                index, _report = db.create_spatial_index(
                    f"{name}_idx", name, "geom", kind=kind, **parameters
                )
                if reference:
                    use_object_path(db.table(name), index)
            self.sides.append(db)

    def index(self, side, name):
        return self.sides[side].spatial_index_on(name, "geom")

    def check(self, name, operator, args, exact=True):
        """One probe on each side: rows, order, charges and cache state."""
        ctx, ref_ctx = WorkerContext(0), WorkerContext(0)
        index, twin = self.index(0, name), self.index(1, name)
        got = list(index.fetch(operator, args, ctx, exact))
        if operator == "SDO_NN":
            want = list(twin.fetch(operator, args, ref_ctx, exact))
        else:
            want = list(index_fetch_reference(twin, operator, args, ref_ctx, exact))
        assert got == want, (name, operator, args[1:])
        assert ctx.meter.counts == ref_ctx.meter.counts, (name, operator, args[1:])
        assert cache_state(index) == cache_state(twin)
        return got

    def check_scan(self, name, window, distance, exact=True):
        ctx, ref_ctx = WorkerContext(0), WorkerContext(0)
        got = self.sides[0].window_scan(name, "geom", window, distance, exact, ctx)
        want = self.sides[1].window_scan(name, "geom", window, distance, exact, ref_ctx)
        assert got == want, (name, distance, exact)
        assert ctx.meter.counts == ref_ctx.meter.counts, (name, distance, exact)
        return got


def cache_state(index):
    cache = index._geom_cache
    return cache.hits, cache.misses, list(cache._entries)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Sizes of the arrays the single-probe kernel was called on."""
    sizes = []
    kernel = kernels.evaluate_predicate_batch

    def recording(g1, geoms, mask, distance=0.0):
        sizes.append(len(geoms))
        return kernel(g1, geoms, mask, distance)

    monkeypatch.setattr(kernels, "evaluate_predicate_batch", recording)
    return sizes


@pytest.mark.parametrize("bound", ("shipped", 0))
@pytest.mark.parametrize("kind", KINDS)
def test_operators(kind, bound, monkeypatch, kernel_calls):
    """Every mask and distance, heap and compacted tables; at the shipped
    ``KERNEL_MIN_VERTICES`` small arrays take the scalar exit (which builds
    the ``Geometry`` of a packed ring it tests) and large ones the kernel."""
    if bound != "shipped":
        monkeypatch.setattr(indextype, "KERNEL_MIN_VERTICES", bound)
    twin = Twin(kind)
    scalar = 0
    for name in ("t", "c"):
        for window in WINDOWS.values():
            for operator, args in probes(window):
                calls = len(kernel_calls)
                rows = twin.check(name, operator, args)
                scalar += rows != [] and len(kernel_calls) == calls
            twin.check(name, "SDO_RELATE", (window, "ANYINTERACT"), exact=False)
    assert kernel_calls  # some arrays reached the kernel
    assert scalar or bound == 0  # and at the shipped bound some did not
    packed = [e for e in twin.index(0, "t")._geom_cache._entries.values()
              if type(e) is PackedRing]
    assert packed and all(
        type(e) is not PackedRing for e in twin.index(1, "t")._geom_cache._entries.values()
    )


def test_nearest_neighbours():
    twin = Twin("RTREE")
    for name in ("t", "c"):
        for window in WINDOWS.values():
            for k in (1, 3, 8):
                assert len(twin.check(name, "SDO_NN", (window, k))) == k
                twin.check(name, "SDO_NN", (window, k), exact=False)


@pytest.mark.parametrize("exact", (True, False))
def test_window_scans(exact):
    """The heap scan's packed reads and the compacted scan's journaled
    rows (``fetch_packed``, MBR from ``as_geometry``) against decoded rows."""
    twin = Twin("RTREE")
    found = 0
    for name in ("t", "c"):
        for window in WINDOWS.values():
            for distance in (0.0, 0.3):
                found += len(twin.check_scan(name, window, distance, exact))
    assert found


@pytest.mark.parametrize("kind", KINDS)
def test_dml_between_probes(kind, monkeypatch):
    """Updates and deletes drop cached rows (``GeometryCache.discard``); a
    small cache evicts.  Both sides keep the same hits, misses and order."""
    monkeypatch.setattr(indextype.DomainIndex, "GEOMETRY_CACHE_ROWS", 6)
    twin = Twin(kind)
    window = WINDOWS["everything"]
    # Within distance 0: no quadtree interior tile settles a row unfetched.
    before = twin.check("t", "SDO_WITHIN_DISTANCE", (window, 0.0))
    assert len(twin.index(0, "t")._geom_cache._entries) == 6
    moved = Geometry.polygon([(9.0, 9.0), (10.0, 9.0), (10.0, 10.0), (9.0, 10.0)])
    cached = [key[2] for key in twin.index(0, "t")._geom_cache._entries]
    for db in twin.sides:
        table = db.table("t")
        table.update(cached[0], (0, moved))
        table.insert((1000, _gon(1.0, 1.0, 0.5, 90)))
        table.delete(cached[1])
    assert cache_state(twin.index(0, "t"))[2] == cache_state(twin.index(1, "t"))[2]
    assert len(twin.index(0, "t")._geom_cache._entries) == 4
    after = twin.check("t", "SDO_WITHIN_DISTANCE", (window, 0.0))
    assert cached[1] not in after and len(after) == len(before)  # one in, one out
    assert twin.check("t", "SDO_WITHIN_DISTANCE", (moved, 0.0)) == [cached[0]]
    for operator, args in probes(WINDOWS["middle"]):
        twin.check("t", operator, args)
