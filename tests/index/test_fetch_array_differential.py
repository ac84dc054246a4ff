"""``DomainIndex.fetch`` against ``tests/oracles.py::index_fetch_reference``.

The shipped ``fetch`` drains primary-filter candidates into bounded arrays
and resolves each with one pair-kernel call; the reference fetches, charges
and tests one candidate at a time with the scalar operator.  Rowids, their
order and the full ``WorkMeter.counts`` dict of every drained probe must be
equal, for both index kinds.  Arrays under ``KERNEL_MIN_VERTICES`` take the
scalar evaluator in the shipped code as well, so most tests here set that
constant to 0 and make every array the kernel accepts go through it.  Each scenario runs on twin databases — same
rows, same index, same probes in the same sequence — so the row caches of
the two sides evolve together and a divergence in LRU state shows up as a
charge difference on a later probe.  The oracle's twin is on the object
path (``tests/oracles.py::use_object_path``): its row cache is the old
``OrderedDict`` LRU of decoded ``Geometry``s where the shipped one is a
``GeometryCache`` holding packed rings, and the two caches' hits, misses
and LRU order must still be equal.
"""

import random
from functools import partial

import pytest

from repro import Database, Geometry
from repro.datasets import counties, load_geometries, stars
from repro.engine import indextype
from repro.engine.parallel import WorkerContext
from repro.errors import OperatorError
from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.geometry.packed import as_geometry
from repro.geometry.predicates import INTERACTION_MASKS
from tests.oracles import index_fetch_reference, use_object_path

KINDS = ("RTREE", "QUADTREE")
DOMAIN = MBR(-8, -8, 8, 8)  # level 5 puts the tile lines on the half-integers

_TEMPLATES = [
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(0, 0), (1, 0), (0, 1)],
    [(0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5)],
    [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)],
    [(0, 0), (1, 0), (1, 1), (0.5, 0.5), (0, 1)],
]

SLIVER_A = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SLIVER_B = [  # PR 13 deviation 7: near-collinear with SLIVER_A's diagonal, far apart
    (1.1363961044043247, 1.136396101731461),
    (4.671930017761683, 4.671930000239578),
    (4.7, 1.0),
]


def _placed(rng):
    """A template on the half-integer snap grid, inside DOMAIN."""
    k = rng.choice([0.5, 1.0, 2.0])
    x, y = rng.randrange(-10, 9) / 2.0, rng.randrange(-10, 9) / 2.0
    return [(x + k * px, y + k * py) for px, py in rng.choice(_TEMPLATES)], x, y, k


def _flat(rng):
    return Geometry.polygon(_placed(rng)[0])


def _holed(rng):
    _ring, x, y, k = _placed(rng)
    outer = [(x, y), (x + 2 * k, y), (x + 2 * k, y + 2 * k), (x, y + 2 * k)]
    hole = [(x + k / 2, y + k / 2), (x + 1.5 * k, y + k / 2),
            (x + 1.5 * k, y + 1.5 * k), (x + k / 2, y + 1.5 * k)]
    return Geometry.polygon(outer, holes=[hole])


def _multi(rng):
    ring, x, y, k = _placed(rng)
    far = [(x - 1.5, y), (x - 1.0, y), (x - 1.5, y + 0.5)]  # a gap of 1 from the ring's box
    return Geometry.multipolygon([(ring, []), (far, [])])


def _point(rng):
    return Geometry.point(rng.randrange(-12, 13) / 2.0, rng.randrange(-12, 13) / 2.0)


def _line(rng):
    _ring, x, y, k = _placed(rng)
    return Geometry.linestring([(x, y), (x + k, y + k), (x + k, y)])


def _dataset(name):
    rng = random.Random(f"fetch-differential-{name}")
    if name == "nulls":
        return [None if i % 3 == 0 else _flat(rng) for i in range(45)]
    if name == "slivers":
        return [Geometry.polygon(SLIVER_A), Geometry.polygon(SLIVER_B)] + [
            _flat(rng) for _ in range(12)
        ]
    if name == "mixed":
        makers = (_flat, _holed, _multi, _point, _line)
        return [makers[i % 5](rng) for i in range(50)]
    maker = {"flat": _flat, "holed": _holed, "multi": _multi,
             "points": _point, "lines": _line}[name]
    return [maker(rng) for _ in range(40)]


DATASETS = ("flat", "holed", "multi", "points", "lines", "nulls", "slivers", "mixed")

QUERIES = {
    # edges exactly on the snap grid, so data edges lie on the window boundary
    "rectangle": Geometry.rectangle(-2.0, -1.5, 2.5, 2.0),
    "concave": Geometry.polygon(
        [(-3, -3), (3, -3), (3, 3), (1, 3), (1, -1), (-1, -1), (-1, 3), (-3, 3)]
    ),
    "point": Geometry.point(0.5, 0.5),
    "linestring": Geometry.linestring([(-4, -4), (0, 0.5), (4.5, 1)]),
    "sliver": Geometry.polygon(SLIVER_B),
}


def _probes(query):
    """Every operator spelling of the matrix as ``(operator, args, exact)``."""
    for mask in INTERACTION_MASKS:
        yield "SDO_RELATE", (query, mask), True
    yield "sdo_relate", (query, "anyinteract"), True
    yield "SDO_RELATE", (query,), True  # default mask
    yield "SDO_RELATE", (query, "Inside + touch"), True
    yield "SDO_RELATE", (query, "ANYINTERACT+INTERSECT"), True
    yield "SDO_RELATE", (query, "CONTAINS+ANYINTERACT"), True
    for distance in (0, 1e-12, 0.25):
        yield "SDO_WITHIN_DISTANCE", (query, distance), True
    yield "SDO_FILTER", (query,), True
    yield "SDO_RELATE", (query, "ANYINTERACT"), False
    yield "SDO_WITHIN_DISTANCE", (query, 0.25), False


class Twin:
    """Two identical databases: ``fetch`` runs on one, the oracle on the other."""

    def __init__(self, kind, geoms, level=5):
        parameters = {}
        if kind == "QUADTREE":
            parameters = {"domain": DOMAIN, "tiling_level": level}
        self.sides = []
        for _ in range(2):
            db = Database()
            table = load_geometries(db, "t", geoms)
            index, _report = db.create_spatial_index(
                "t_idx", "t", "geom", kind=kind, **parameters
            )
            self.sides.append((db, table, index))
        use_object_path(*self.sides[1][1:])
        self.index, self.twin = self.sides[0][2], self.sides[1][2]

    def check(self, operator, args, exact=True, **kw):
        """One probe on each side: rows, order and charges equal."""
        ctx, ref_ctx = WorkerContext(0), WorkerContext(0)
        got = list(self.index.fetch(operator, args, ctx, exact, **kw))
        want = list(index_fetch_reference(self.twin, operator, args, ref_ctx, exact, **kw))
        assert got == want, (operator, args[1:], exact)
        assert ctx.meter.counts == ref_ctx.meter.counts, (operator, args[1:], exact)
        assert cache_state(self.index) == cache_state(self.twin)
        return got


def cache_state(index):
    """A row cache's hits, misses and keys in LRU order."""
    cache = index._geom_cache
    return cache.hits, cache.misses, list(cache._entries)


@pytest.fixture
def kernel_always(monkeypatch):
    monkeypatch.setattr(indextype, "KERNEL_MIN_VERTICES", 0)


# ----------------------------------------------------------------------
# The matrix: index kind x data x query x operator spelling.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("data", DATASETS)
@pytest.mark.parametrize("kind", KINDS)
def test_matrix(kind, data, kernel_always):
    # Level 4 (tile lines on the integers, half-integers mid-tile) keeps the
    # 100 window tessellations a side cheap; the boundary tests use level 5.
    twin = Twin(kind, _dataset(data), level=4)
    rows = tested = 0
    for query in QUERIES.values():
        for operator, args, exact in _probes(query):
            rows += len(twin.check(operator, args, exact))
            tested += 1
    assert tested == len(QUERIES) * (len(INTERACTION_MASKS) + 11)
    assert rows > 0


@pytest.mark.parametrize("kind", KINDS)
def test_small_row_cache_keeps_the_hit_miss_sequence(kind, monkeypatch):
    """With a cache smaller than a window's candidates every probe evicts;
    fetching in candidate order keeps misses and hits where they were.
    (Shipped ``KERNEL_MIN_VERTICES``: small arrays scalar, large ones kernel.)"""
    monkeypatch.setattr(indextype.DomainIndex, "GEOMETRY_CACHE_ROWS", 5)
    twin = Twin(kind, _dataset("mixed"))
    for query in QUERIES.values():
        for distance in (0, 0.25):
            twin.check("SDO_WITHIN_DISTANCE", (query, distance))
        twin.check("SDO_RELATE", (query, "TOUCH"))
    assert len(twin.index._geom_cache._entries) == 5


# ----------------------------------------------------------------------
# Array boundaries.
# ----------------------------------------------------------------------
def _row_of_squares(n):
    """Square i sits strictly inside level-5 tile [i - 7, i - 6.5) x [0, 0.5),
    so a quadtree window has exactly as many candidates as an R-tree one."""
    return [Geometry.rectangle(i - 6.9, 0.1, i - 6.6, 0.4) for i in range(n)]


def _kernel_batches(monkeypatch):
    """Record the size of every array the single-probe kernel resolved."""
    sizes = []
    kernel = kernels.evaluate_predicate_batch

    def recording(g1, geoms, mask, distance=0.0):
        verdicts = kernel(g1, geoms, mask, distance)
        if verdicts is not None:
            sizes.append(len(geoms))
        return verdicts

    monkeypatch.setattr(kernels, "evaluate_predicate_batch", recording)
    return sizes


@pytest.mark.parametrize("kind", KINDS)
def test_array_size_boundaries(kind, monkeypatch, kernel_always):
    """0, 1, size and size + 1 candidates, with the array size set to 4."""
    monkeypatch.setattr(indextype, "REFINE_ARRAY_ROWS", 4)
    twin = Twin(kind, _row_of_squares(12))
    sizes = _kernel_batches(monkeypatch)
    for n, batches in ((0, []), (1, [1]), (4, [4]), (5, [4, 1]), (12, [4, 4, 4])):
        # strictly inside the first n squares: touches no neighbour, no tile line
        window = Geometry.rectangle(-7.1, 0.1, n - 7.3, 0.4) if n else (
            Geometry.rectangle(-7.9, 3.1, -7.6, 3.4)
        )
        del sizes[:]
        assert len(twin.check("SDO_WITHIN_DISTANCE", (window, 0.0))) == n
        assert sizes == batches
        assert len(twin.check("SDO_RELATE", (window, "CONTAINS"))) == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [indextype.REFINE_ARRAY_ROWS, indextype.REFINE_ARRAY_ROWS + 1])
def test_shipped_array_size(kind, n, monkeypatch, kernel_always):
    """The constant as shipped: one array at the size, two just past it."""
    rng = random.Random(n)
    pts = [Geometry.point(rng.uniform(-7, 7), rng.uniform(-7, 7)) for _ in range(n)]
    twin = Twin(kind, pts)
    sizes = _kernel_batches(monkeypatch)
    window = Geometry.rectangle(-7.5, -7.5, 7.5, 7.5)
    assert len(twin.check("SDO_WITHIN_DISTANCE", (window, 0.125))) == n
    assert sizes == ([n] if n == indextype.REFINE_ARRAY_ROWS else [n - 1, 1])


@pytest.mark.parametrize("kind", KINDS)
def test_vertex_bound_closes_an_array(kind, monkeypatch, kernel_always):
    """Squares count 4 vertices: a bound of 12 is reached exactly by 3 of
    them, a bound of 15 is passed by the fourth."""
    monkeypatch.setattr(kernels, "GROUP_VERTICES", 12)
    twin = Twin(kind, _row_of_squares(12))
    sizes = _kernel_batches(monkeypatch)
    window = Geometry.rectangle(-7.1, 0.1, 0.7, 0.4)
    assert len(twin.check("SDO_WITHIN_DISTANCE", (window, 0.0))) == 8
    assert sizes == [3, 3, 2]
    monkeypatch.setattr(kernels, "GROUP_VERTICES", 15)
    del sizes[:]
    assert len(twin.check("SDO_RELATE", (window, "ANYINTERACT+INTERSECT"))) == 8
    assert sizes == [4, 4]


@pytest.mark.parametrize("kind", KINDS)
def test_small_arrays_take_the_scalar_evaluator(kind, monkeypatch):
    """The shipped size switch: candidate vertices under the constant never
    reach the kernel, at or over it they do; rows and charges either way."""
    assert indextype.KERNEL_MIN_VERTICES == 64
    twin = Twin(kind, _row_of_squares(12))  # 4 vertices each
    sizes = _kernel_batches(monkeypatch)
    for n, batches in ((1, []), (12, []), ):
        window = Geometry.rectangle(-6.8, 0.2, n - 7.7, 0.3)
        assert len(twin.check("SDO_WITHIN_DISTANCE", (window, 0.25))) == n
        assert sizes == batches
    window = Geometry.rectangle(-6.8, 0.2, 4.3, 0.3)
    for bound, batches in ((49, []), (48, [12]), (47, [12])):
        monkeypatch.setattr(indextype, "KERNEL_MIN_VERTICES", bound)
        del sizes[:]
        assert len(twin.check("SDO_RELATE", (window, "ANYINTERACT"))) == 12
        # a quadtree interior tile may settle rows before the exact test
        assert sizes == batches or (kind == "QUADTREE" and sum(sizes) < 12)


def test_quadtree_certain_accepts_keep_their_place(monkeypatch, kernel_always):
    """Interior-tile accepts pay nothing and stay interleaved, in rowid
    order, with the rows the kernel resolves — across array boundaries."""
    monkeypatch.setattr(indextype, "REFINE_ARRAY_ROWS", 3)
    big = [Geometry.rectangle(-6 + 2 * i, -6, -4.5 + 2 * i, 6) for i in range(6)]
    small = [Geometry.rectangle(-5.9 + 2 * i, 0.1, -5.8 + 2 * i, 0.2) for i in range(6)]
    twin = Twin("QUADTREE", [g for pair in zip(big, small) for g in pair])
    sizes = _kernel_batches(monkeypatch)
    window = Geometry.rectangle(-7, -1, 7, 1)
    assert len(twin.check("SDO_RELATE", (window, "ANYINTERACT"))) == 12
    assert sum(sizes) < 12  # some rows were certain
    del sizes[:]
    assert len(twin.check("SDO_RELATE", (window, "TOUCH"))) == 0
    assert sizes == []  # declined mask: scalar evaluator, no certainty used


# ----------------------------------------------------------------------
# prefilter, abandoned probes, DML.
# ----------------------------------------------------------------------
def test_prefilter_rejects_before_fetch_and_test(kernel_always):
    twin = Twin("RTREE", _dataset("mixed"))
    seen = []

    def owned(candidates):
        seen.extend(rowid for _mbr, rowid in candidates)
        return [rowid.slot % 3 != 0 for _mbr, rowid in candidates]

    for query in QUERIES.values():
        for operator, args, exact in _probes(query):
            rows = twin.check(operator, args, exact, prefilter=owned)
            assert all(r.slot % 3 for r in rows)
    assert seen


@pytest.mark.parametrize("kind", KINDS)
def test_abandoned_probe(kind, monkeypatch):
    monkeypatch.setattr(indextype, "REFINE_ARRAY_ROWS", 4)
    geoms = _row_of_squares(12)
    twin = Twin(kind, geoms)
    window = Geometry.rectangle(-7.1, 0.1, 4.7, 0.4)  # all twelve
    probe = twin.index.fetch("SDO_RELATE", (window, "ANYINTERACT"), WorkerContext(0))
    first = next(probe)
    probe.close()
    probe.close()
    # Exactly the first array was fetched; what the cache holds is the table's.
    table = twin.sides[0][1]
    entries = twin.index._geom_cache._entries
    assert len(entries) == 4
    for (_name, _column, rowid), entry in entries.items():
        assert as_geometry(entry) == table.fetch(rowid)[1]
    # The oracle side catches up on the same rows, then the two agree again.
    assert first == next(index_fetch_reference(twin.twin, "SDO_RELATE", (window,)))
    for _name, _column, rowid in list(entries)[1:]:
        twin.twin.geometry_of(rowid)
    assert len(twin.check("SDO_RELATE", (window, "ANYINTERACT"))) == 12
    assert len(twin.check("SDO_WITHIN_DISTANCE", (window, 0.25))) == 12


@pytest.mark.parametrize("kind", KINDS)
def test_dml_between_probes_invalidates(kind):
    geoms = _row_of_squares(8)
    twin = Twin(kind, geoms)
    window = Geometry.rectangle(-7.1, 0.1, 0.7, 0.4)
    before = twin.check("SDO_RELATE", (window, "ANYINTERACT"))
    assert len(before) == 8
    moved = Geometry.rectangle(5.0, 5.0, 5.5, 5.5)
    for _db, table, _index in twin.sides:
        table.update(before[2], (2, moved))
        table.delete(before[5])
    after = twin.check("SDO_RELATE", (window, "ANYINTERACT"))
    assert after == [r for r in before if r not in (before[2], before[5])]
    assert twin.check("SDO_WITHIN_DISTANCE", (moved, 0.0)) == [before[2]]


# ----------------------------------------------------------------------
# Arguments are validated once per probe, whatever the data.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_bad_arguments_raise_before_the_primary_filter(kind):
    """Ten unit squares; ``far`` is a window no candidate reaches."""
    twin = Twin(kind, [Geometry.rectangle(i - 5, 0, i - 4, 1) for i in range(10)])
    db, _table, index = twin.sides[0]
    far = Geometry.rectangle(6.1, 6.1, 6.4, 6.4)
    q = Geometry.rectangle(-4.5, 0.25, -3.5, 0.75)
    bad = [
        ("SDO_RELATE", [far, "BOGUS"], "mask"),
        ("SDO_RELATE", [q, "ANYINTERACT+BOGUS"], "mask"),
        ("SDO_WITHIN_DISTANCE", [q, -1.0], "distance"),
        ("SDO_WITHIN_DISTANCE", [q, float("nan")], "distance"),
        ("SDO_WITHIN_DISTANCE", [far, float("inf")], "distance"),
        ("SDO_WITHIN_DISTANCE", [q, "near"], "distance"),
        ("SDO_WITHIN_DISTANCE", [q], "distance"),
        ("SDO_TOUCHES", [q], "operator"),
        ("SDO_RELATE", [], "query geometry"),
        ("SDO_RELATE", ["POINT (1 1)"], "geometry"),
    ]
    for operator, args, named in bad:
        ctx = WorkerContext(0)
        with pytest.raises(OperatorError, match=named):
            list(db.select_rowids("t", "geom", operator, args, ctx))
        with pytest.raises(OperatorError, match=named):
            list(index.fetch(operator, args, ctx, exact=False))
        assert ctx.meter.counts == {}, (operator, args)
    with pytest.raises(OperatorError, match="distance"):
        db.window_scan("t", "geom", q, distance=-1.0)
    assert len(twin.check("SDO_RELATE", (q, "anyinteract"))) == 2


# ----------------------------------------------------------------------
# The paper's baseline rides on fetch: pairs, order and simulated time.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make, distance, pairs, makespan",
    [
        (lambda: stars(1500, 2003), 0.0, 15310, 6.2910944),
        (lambda: counties(200, 2003, refine=4), 0.0, 1614, 1.3471128),
        (lambda: counties(200, 2003, refine=4), 0.1, 1614, 1.3471728),
    ],
    ids=["stars", "counties", "counties-within"],
)
def test_nested_loop_join_unchanged(make, distance, pairs, makespan):
    """Pinned at the parent commit, and equal to the join over the oracle."""
    geoms = make()
    results = []
    for reference in (False, True):
        db = Database()
        load_geometries(db, "t", geoms)
        index, _report = db.create_spatial_index("t_idx", "t", "geom", kind="RTREE")
        if reference:
            index.fetch = partial(index_fetch_reference, index)
        results.append(db.nested_loop_join("t", "geom", "t", "geom", distance=distance))
    got, want = results
    assert got.pairs == want.pairs
    assert got.run.combined_meter().counts == want.run.combined_meter().counts
    assert got.makespan_seconds == want.makespan_seconds == makespan
    assert len(got.pairs) == pairs
