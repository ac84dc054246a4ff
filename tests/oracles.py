"""Scalar oracles for :mod:`repro.geometry.kernels`, for tessellation and
for the index operators' secondary filter.

The kernels have one (numpy) implementation; what they must agree with,
bit for bit, is written here once, in plain Python, straight from the
scalar definitions: the closed-interval gap test, ``math.floor`` binning,
and ``JoinPredicate.evaluate`` pair by pair.  Likewise
:func:`tessellate_reference` is quadtree tessellation straight from its
definition — every quadrant against every edge of the geometry — which
``repro.index.quadtree.tessellate`` must equal in tiles and in charges
(:func:`parent_code` / :func:`child_codes` / :func:`descendant_range`
spell out the Morton parent / child relation the tile-code tests check).
  :func:`index_fetch_reference` is ``DomainIndex.fetch``
one candidate at a time — fetch, charge, scalar operator — which the
array-at-a-time ``fetch`` must equal in rowids, order and charges, and
:func:`secondary_filter_reference` is the join's ``SecondaryFilter.process``
the same way.  :func:`fetch_geometry_reference` is the object path every
row fetch took before heap rings were read packed (``decode_row``, a
``Geometry`` always), and :class:`ObjectRowCache` the index operators'
row cache of that time; :func:`use_object_path` puts a table and its
indexes on them, so a twin database can run the old fetch beside the
shipped one.  The smaller references check one live function each:
:func:`unmask_crc` inverts ``mask_crc``, :func:`encode_value` /
:func:`decode_value` run the row codec's field coder on one value,
:func:`lint_prometheus` checks ``prometheus_text``'s line format, and
:func:`validate` is what every generated dataset geometry satisfies.

Tests use the oracles two ways.  Kernel-level tests call both and compare
the results directly.  System-level tests that are parametrised
``[numpy]`` / ``[python]`` replay their scenario under
:func:`kernel_impl`: the ``numpy`` leg runs the code as shipped, the
``python`` leg runs it with the oracles standing in for the kernel entry
points, so a whole join, window scan or cluster answer is checked against
the reference implementation and not just against itself.  (Forked
processes inherit the substitution, like any other module state.)
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from contextlib import contextmanager
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple
from unittest import mock

from repro.core.secondary_filter import FetchOrder, JoinPredicate
from repro.engine.indextype import OPERATORS
from repro.errors import OperatorError, StorageError
from repro.geometry import kernels
from repro.geometry.geometry import Geometry, GeometryType, Ring
from repro.geometry.mbr import MBR
from repro.geometry.predicates import contains, intersects
from repro.geometry.segments import segments_intersect
from repro.index.quadtree.codes import TileGrid, morton_encode
from repro.engine.parallel import WorkerContext
from repro.index.quadtree.quadtree import QuadtreeIndex
from repro.index.quadtree.tessellate import Tile, tessellate
from repro.index.rtree.node import RTreeNode
from repro.index.rtree.rtree import RTree
from repro.storage.checksum import _MASK_DELTA
from repro.storage.codec import _decode_from, _encode_into, decode_row
from repro.storage.columnar import MISSING

IMPLS = ("numpy", "python")


def mbr_filter_indices(coords, box, distance=0.0, exact=False) -> List[int]:
    """No axis gap above ``distance``; ``exact`` adds the squared corner
    distance, as ``MBR.distance(...) <= distance`` would."""
    x0s, y0s, x1s, y1s = coords
    lo_x, lo_y, hi_x, hi_y = box
    out = []
    for i in range(len(x0s)):
        gap_x = max(lo_x - x1s[i], x0s[i] - hi_x)
        gap_y = max(lo_y - y1s[i], y0s[i] - hi_y)
        if gap_x > distance or gap_y > distance:
            continue
        if exact and distance > 0.0:
            dx, dy = max(gap_x, 0.0), max(gap_y, 0.0)
            if dx * dx + dy * dy > distance * distance:
                continue
        out.append(i)
    return out


def tile_ranges_batch(coords, origin, tile_size, shape, expand=0.0):
    """``floor((v ± expand − origin) / size)`` clamped to the grid."""
    x0s, y0s, x1s, y1s = coords

    def bins(values, grow, start, size, n):
        return [
            min(max(math.floor((v + grow - start) / size), 0), n - 1) for v in values
        ]

    (gx, gy), (tw, th), (nx, ny) = origin, tile_size, shape
    return (
        bins(x0s, -expand, gx, tw, nx),
        bins(x1s, expand, gx, tw, nx),
        bins(y0s, -expand, gy, th, ny),
        bins(y1s, expand, gy, th, ny),
    )


def evaluate_predicate_pairs(geoms_a, geoms_b, mask, distance=0.0) -> Optional[List[bool]]:
    """``JoinPredicate.evaluate`` pair by pair; ``None`` for the masks the
    kernel declines, so callers take the same branch either way."""
    if not (distance and distance > 0.0):
        names = [n.strip() for n in mask.upper().split("+")] if mask else []
        if not names or any(n not in ("ANYINTERACT", "INTERSECT") for n in names):
            return None
    predicate = JoinPredicate(mask=mask, distance=distance)
    return [predicate.evaluate(a, b) for a, b in zip(geoms_a, geoms_b)]


def evaluate_predicate_batch(g1, geoms, mask, distance=0.0) -> Optional[List[bool]]:
    return evaluate_predicate_pairs([g1] * len(geoms), geoms, mask, distance)


_ORACLES = {
    fn.__name__: fn
    for fn in (
        mbr_filter_indices,
        tile_ranges_batch,
        evaluate_predicate_pairs,
        evaluate_predicate_batch,
    )
}


@contextmanager
def kernel_impl(name: str) -> Iterator[None]:
    """``"numpy"``: the kernels as shipped.  ``"python"``: every kernel
    entry point replaced by its oracle for the duration of the block."""
    assert name in IMPLS, name
    if name == "numpy":
        yield
        return
    with mock.patch.multiple(kernels, **_ORACLES):
        yield


# ----------------------------------------------------------------------
# Tessellation: the per-quadrant full-geometry formulation.
# ----------------------------------------------------------------------
TILE_OUTSIDE_MBR = 0  # quadrant does not even meet the geometry's MBR
TILE_OUTSIDE = 1  # meets the MBR but not the geometry
TILE_BOUNDARY = 2  # intersects the geometry boundary
TILE_INTERIOR = 3  # wholly inside a polygonal geometry


def classify_tile(geom: Geometry, quad: MBR, polygonal: bool) -> int:
    """MBR gate, ``intersects(rect, geom)``, then ``contains(geom, rect)``,
    each against every edge of ``geom``, on a rectangle built for the call."""
    if not quad.intersects(geom.mbr):
        return TILE_OUTSIDE_MBR
    rect = Geometry.from_mbr(quad)
    if not intersects(rect, geom):
        return TILE_OUTSIDE
    if polygonal and contains(geom, rect):
        return TILE_INTERIOR
    return TILE_BOUNDARY


def parent_code(code: int) -> int:
    """Code of the tile's parent quadrant, one level up."""
    return code >> 2


def child_codes(code: int) -> Tuple[int, int, int, int]:
    """Codes of the four child tiles, one level down (SW, SE, NW, NE)."""
    base = code << 2
    return (base, base + 1, base + 2, base + 3)


def descendant_range(code: int, levels_down: int) -> Tuple[int, int]:
    """Inclusive code range covered by a tile ``levels_down`` levels deeper.

    Every level-(l+k) descendant of a level-l tile with code c has a code
    in [c << 2k, ((c+1) << 2k) - 1] — the property quadrant range scans use.
    """
    lo = code << (2 * levels_down)
    hi = ((code + 1) << (2 * levels_down)) - 1
    return lo, hi


def tessellate_reference(geom: Geometry, grid: TileGrid, ctx=None) -> List[Tile]:
    """What :func:`repro.index.quadtree.tessellate.tessellate` must return
    and charge: level-synchronous subdivision, :func:`classify_tile` per
    quadrant, ``mbr_test`` per quadrant and ``tessellate_per_tile`` per
    quadrant past the MBR gate."""
    if ctx is not None:
        ctx.charge("tessellate_per_vertex", geom.num_vertices)
    polygonal = any(p.geom_type is GeometryType.POLYGON for p in geom.simple_parts())
    tiles: List[Tile] = []
    frontier = [(0, 0)]
    level = 0
    while frontier:
        codes = [
            classify_tile(geom, grid.quadrant_mbr(level, ix, iy), polygonal)
            for ix, iy in frontier
        ]
        if ctx is not None:
            ctx.charge("mbr_test", len(frontier))
            examined = sum(1 for c in codes if c != TILE_OUTSIDE_MBR)
            if examined:
                ctx.charge("tessellate_per_tile", examined)
        next_frontier = []
        for (ix, iy), code in zip(frontier, codes):
            if code in (TILE_OUTSIDE_MBR, TILE_OUTSIDE):
                continue
            if code == TILE_INTERIOR:
                span = 1 << (grid.level - level)
                for dx in range(span):
                    for dy in range(span):
                        tiles.append(
                            Tile(morton_encode(ix * span + dx, iy * span + dy), True)
                        )
            elif level == grid.level:
                tiles.append(Tile(morton_encode(ix, iy), False))
            else:
                for dx in (0, 1):
                    for dy in (0, 1):
                        next_frontier.append((ix * 2 + dx, iy * 2 + dy))
        frontier = next_frontier
        level += 1
    tiles.sort(key=lambda t: t.code)
    return tiles


def assert_tessellation_matches_reference(geom: Geometry, grid: TileGrid) -> int:
    """Tile lists (codes, interior flags, order) and the whole
    ``WorkMeter.counts`` dict equal; returns the tile count."""
    ctx, ref_ctx = WorkerContext(0), WorkerContext(0)
    tiles = tessellate(geom, grid, ctx)
    assert tiles == tessellate_reference(geom, grid, ref_ctx)
    assert ctx.meter.counts == ref_ctx.meter.counts
    return len(tiles)


# ----------------------------------------------------------------------
# Index operators: one candidate at a time.
# ----------------------------------------------------------------------
def index_fetch_reference(index, operator, args, ctx=None, exact=True, prefilter=None):
    """What ``index.fetch(operator, args, ctx, exact[, prefilter])`` must
    yield and charge: the per-candidate loop both index kinds ran before
    the array-at-a-time secondary filter — primary filter, then for each
    candidate in order ``geometry_of``, one ``exact_test_base``,
    ``exact_test_per_vertex`` for its and the query's vertices, and the
    operator's scalar evaluator.  It probes ``index`` itself (tree, tiles,
    row cache), so compare it with ``fetch`` on a twin index, not the same one.
    """
    op_name = operator.upper()
    op = OPERATORS[op_name]
    query = args[0]
    if ctx is not None:
        ctx.charge("index_probe")
    if isinstance(index, QuadtreeIndex):
        window = query
        if op_name == "SDO_WITHIN_DISTANCE":
            window_mbr = query.mbr.expand(float(args[1])).intersection(
                index.grid.quadrant_mbr(0, 0, 0)
            )
            if window_mbr.is_empty or window_mbr.area == 0.0:
                return
            window = Geometry.from_mbr(window_mbr)
        flags = index._primary_filter(window, ctx)
        anyinteract = op_name == "SDO_RELATE" and (
            len(args) < 2 or str(args[1]).upper() in ("ANYINTERACT", "INTERSECT")
        )
        candidates = [(rowid, anyinteract and flags[rowid]) for rowid in sorted(flags)]
        visits_before = None
    else:
        visits_before = ctx.meter.counts.get("rtree_node_visit", 0.0) if ctx else 0.0
        distance = float(args[1]) if op_name == "SDO_WITHIN_DISTANCE" else 0.0
        seg = index.table.columnar
        if seg is not None and seg.journal_empty():
            if seg.all_zones_miss(query.mbr.as_tuple(), distance, ctx):
                return
        if op_name == "SDO_WITHIN_DISTANCE":
            found = index.tree.search_within(query.mbr, distance, ctx)
        else:
            found = index.tree.search(query.mbr, ctx)
        candidates = (
            (rowid, False)
            for mbr, rowid in found
            if prefilter is None or prefilter([(mbr, rowid)])[0]
        )
    for rowid, certain in candidates:
        if op_name == "SDO_FILTER" or not exact or certain:
            yield rowid
            continue
        geom = index.geometry_of(rowid, ctx)
        if ctx is not None:
            ctx.charge("exact_test_base")
            ctx.charge("exact_test_per_vertex", geom.num_vertices + query.num_vertices)
        if op.evaluate(geom, *args):
            yield rowid
    if visits_before is not None:
        index._charge_node_misses(ctx, visits_before)


def evaluate_operator(name: str, geom: Geometry, *args) -> bool:
    """Exact evaluation of a named operator (no index involved)."""
    try:
        op = OPERATORS[name.upper()]
    except KeyError:
        raise OperatorError(f"unknown operator {name!r}") from None
    return op.evaluate(geom, *args)


def fetch_geometry_reference(table, rowid, column_index, ctx=None):
    """What ``as_geometry(table.fetch_packed(rowid, column_index, ctx))``
    must return, with the same charges: a columnar-resident row from its
    chunk, any other row through the full ``decode_row`` of its heap
    record (``geom_fetch_base`` + ``geom_fetch_per_vertex``) — always a
    ``Geometry``, never a packed ring."""
    seg = table.columnar
    if seg is not None:
        geom = seg.geometry_at(rowid, ctx)
        if geom is not MISSING:
            return geom
    geom = decode_row(table.heap.read(rowid))[column_index]
    if ctx is not None:
        ctx.charge("geom_fetch_base")
        if geom is not None:
            ctx.charge("geom_fetch_per_vertex", geom.num_vertices)
    return geom


class ObjectRowCache:
    """The row cache behind ``DomainIndex.geometry_of`` before the index
    operators shared the join's ``GeometryCache``: an ``OrderedDict`` LRU
    of decoded geometries (:func:`fetch_geometry_reference`), charging a
    ``buffer_get_hit`` per hit.  It counts hits and misses and keys rows
    ``(table name, column index, rowid)`` as the shipped cache does, so the
    two compare entry for entry."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = self.misses = 0

    def fetch(self, table, rowid, column_index, ctx=None):
        key = (table.name, column_index, rowid)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            if ctx is not None:
                ctx.charge("buffer_get_hit")
            return cached
        self.misses += 1
        geom = fetch_geometry_reference(table, rowid, column_index, ctx)
        self._entries[key] = geom
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return geom

    def discard(self, table, rowid, column_index):
        self._entries.pop((table.name, column_index, rowid), None)


def use_object_path(table, *indexes):
    """Put one ``Table`` instance, and the given domain indexes on it, on
    the object path: its row fetches are :func:`fetch_geometry_reference`,
    its bounds scan is :func:`scan_bounds_reference` and each index's row
    cache is an empty :class:`ObjectRowCache`, so every geometry handed to
    a row cache, an exact test or a window scan is a decoded
    ``Geometry``."""
    table.fetch_packed = partial(fetch_geometry_reference, table)
    table.scan_bounds = partial(scan_bounds_reference, table)
    for index in indexes:
        index._geom_cache = ObjectRowCache(index.GEOMETRY_CACHE_ROWS)
    return table


def scan_bounds_reference(table, column_index):
    """What ``table.scan_bounds(column_index)`` must yield: the
    decode-then-``.mbr`` loop the primary filters ran before they read
    bounds from the stored ordinates — every row decoded by
    ``Table.scan``, ``(rowid, geom.mbr, geom.num_vertices, geometry)``
    with ``geometry()`` returning ``geom``, and ``(rowid, None, 0, None)``
    for a NULL geometry.  Patched in for ``Table.scan_bounds``, it runs a
    whole build or window scan the old way."""
    for rowid, row in table.scan():
        geom = row[column_index]
        if geom is None:
            yield rowid, None, 0, None
        else:
            yield rowid, geom.mbr, geom.num_vertices, lambda geom=geom: geom


def analyze_table_reference(table):
    """What ``engine.stats.analyze_table(table)`` must return: every row
    decoded by ``Table.scan``, each non-NULL geometry's ``.mbr`` and
    ``.num_vertices`` summed in row order."""
    from repro.engine.stats import ColumnGeometryStats, TableStats

    stats = TableStats(table_name=table.name)
    names = [
        c.name for c in table.meta.columns if c.type_tag.upper() == "SDO_GEOMETRY"
    ]
    accum = {name.upper(): ColumnGeometryStats(column=name) for name in names}
    sums = {name.upper(): [0.0, 0.0, 0.0] for name in names}
    for _rowid, row in table.scan():
        stats.row_count += 1
        for name in names:
            value = table.schema.value(row, name)
            if not isinstance(value, Geometry):
                continue
            col = accum[name.upper()]
            col.geometry_count += 1
            col.layer_mbr = col.layer_mbr.union(value.mbr)
            s = sums[name.upper()]
            s[0] += value.mbr.width
            s[1] += value.mbr.height
            s[2] += value.num_vertices
    for name in names:
        col = accum[name.upper()]
        if col.geometry_count:
            s = sums[name.upper()]
            col.avg_width = s[0] / col.geometry_count
            col.avg_height = s[1] / col.geometry_count
            col.avg_vertices = s[2] / col.geometry_count
    stats.geometry_columns = accum
    return stats


def secondary_filter_reference(filt, candidates, ctx=None):
    """What ``filt.process(candidates, ctx)`` must return, charge and count:
    the per-candidate loop the join's secondary filter ran before it
    resolved arrays with the pair kernel — order the array, then for each
    candidate both ``cache.fetch`` calls, one ``exact_test_base``,
    ``exact_test_per_vertex`` for both geometries and the scalar
    ``predicate.evaluate``.  It drives ``filt``'s own cache, so compare
    it with ``process`` on a twin filter.
    """
    n = len(candidates)
    if ctx is not None and n > 1 and filt.fetch_order is FetchOrder.SORTED:
        ctx.charge("sort_per_item", n * math.log2(n))
    results = []
    for rid_a, rid_b, _mbr_a, _mbr_b in filt.order_candidates(candidates):
        g1 = filt.cache.fetch(filt.table_a, rid_a, filt._col_a, ctx)
        g2 = filt.cache.fetch(filt.table_b, rid_b, filt._col_b, ctx)
        if ctx is not None:
            ctx.charge("exact_test_base")
            ctx.charge("exact_test_per_vertex", g1.num_vertices + g2.num_vertices)
        if filt.predicate.evaluate(g1, g2):
            results.append((rid_a, rid_b))
            if ctx is not None:
                ctx.charge("result_row")
    return results


# ----------------------------------------------------------------------
# R-tree maintenance: Guttman's insert on MBR objects.
# ----------------------------------------------------------------------
def _choose_subtree_reference(self, node, mbr, ctx):
    """Least-enlargement child (ties: smaller area), one ``mbr_test`` per
    entry, through ``MBR.enlargement`` and tuple comparison."""
    best = None
    best_key = (float("inf"), float("inf"))
    for entry in node.entries:
        if ctx is not None:
            ctx.charge("mbr_test")
        key = (entry.mbr.enlargement(mbr), entry.mbr.area)
        if key < best_key:
            best_key = key
            best = entry
    assert best is not None
    return best


def _pick_seeds_reference(entries):
    """The pair with the largest dead space, every pair in turn."""
    worst = (-1.0, 0, 1)
    n = len(entries)
    for i in range(n):
        for j in range(i + 1, n):
            waste = (
                entries[i].mbr.union(entries[j].mbr).area
                - entries[i].mbr.area
                - entries[j].mbr.area
            )
            if waste > worst[0]:
                worst = (waste, i, j)
    return worst[1], worst[2]


def _split_reference(self, node, ctx=None):
    """Guttman's quadratic split with an ``MBR`` per comparison."""
    entries = node.entries
    if ctx is not None:
        ctx.charge("mbr_test", len(entries) * len(entries))
        ctx.charge("page_write", 2)
    seed_a, seed_b = _pick_seeds_reference(entries)
    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    mbr_a = entries[seed_a].mbr
    mbr_b = entries[seed_b].mbr
    remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
    while remaining:
        if len(group_a) + len(remaining) <= self.min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) <= self.min_entries:
            group_b.extend(remaining)
            break
        best_idx = 0
        best_diff = -1.0
        for i, e in enumerate(remaining):
            diff = abs(mbr_a.enlargement(e.mbr) - mbr_b.enlargement(e.mbr))
            if diff > best_diff:
                best_diff = diff
                best_idx = i
        chosen = remaining.pop(best_idx)
        d_a = mbr_a.enlargement(chosen.mbr)
        d_b = mbr_b.enlargement(chosen.mbr)
        if (d_a, mbr_a.area, len(group_a)) <= (d_b, mbr_b.area, len(group_b)):
            group_a.append(chosen)
            mbr_a = mbr_a.union(chosen.mbr)
        else:
            group_b.append(chosen)
            mbr_b = mbr_b.union(chosen.mbr)
    node.entries = group_a
    node.invalidate_coords()
    return RTreeNode(level=node.level, entries=group_b)


@contextmanager
def rtree_insert_reference() -> Iterator[None]:
    """Run every ``RTree`` insert, split and delete-reinsert inside the
    block on the ``MBR``-object Guttman code that ``RTree._choose_subtree``
    and ``RTree._split`` must equal: same groups, same entry order, same
    charges."""
    with mock.patch.multiple(
        RTree, _choose_subtree=_choose_subtree_reference, _split=_split_reference
    ):
        yield


# ----------------------------------------------------------------------
# Checksums: the reflected table-driven CRC-32C, a byte at a time.
# ----------------------------------------------------------------------
def _crc32c_byte_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _crc32c_byte_table()


def crc32c_reference(data: bytes, crc: int = 0) -> int:
    """What ``storage.checksum.crc32c(data, crc)`` must return: the
    classic reflected table-driven CRC-32C loop."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = _CRC32C_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def unmask_crc(masked: int) -> int:
    """The inverse of ``storage.checksum.mask_crc``: masking loses nothing."""
    rot = (masked - _MASK_DELTA) & 0xFFFFFFFF
    return ((rot >> 17) | (rot << 15)) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# Record codec: one value, through the row codec's own field coder.
# ----------------------------------------------------------------------
def encode_value(value) -> bytes:
    """One field as ``encode_row`` lays it out inside a record."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def decode_value(data: bytes):
    """Decode bytes produced by :func:`encode_value`."""
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise StorageError("trailing bytes after value decode")
    return value


# ----------------------------------------------------------------------
# Prometheus text format (0.0.4): a line-by-line lint of what
# ``obs.exporters.prometheus_text`` renders.
# ----------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?|NaN|[-+]?Inf)"
    r"(?: [0-9]+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<label>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)
_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def lint_prometheus(text: str) -> List[str]:
    """Validate Prometheus text-format exposition; return error strings.

    Checks: line syntax (HELP/TYPE comments and samples), metric/label
    name charsets, TYPE declared before its samples, valid TYPE values,
    duplicate (name, labelset) samples, and a trailing newline.
    """
    errors: List[str] = []
    if text and not text.endswith("\n"):
        errors.append("exposition must end with a newline")
    typed: Dict[str, str] = {}
    seen_samples: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment {line!r}")
                continue
            if not _METRIC_NAME_RE.match(parts[2]):
                errors.append(f"line {lineno}: bad metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                mtype = parts[3].strip() if len(parts) > 3 else ""
                if mtype not in _VALID_TYPES:
                    errors.append(f"line {lineno}: bad TYPE {mtype!r}")
                if parts[2] in typed:
                    errors.append(
                        f"line {lineno}: duplicate TYPE for {parts[2]!r}"
                    )
                typed[parts[2]] = mtype
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            errors.append(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
        labels = match.group("labels")
        labelset = ()
        if labels is not None and labels != "":
            pairs = []
            for pair in _split_label_pairs(labels):
                pm = _LABEL_PAIR_RE.match(pair)
                if not pm:
                    errors.append(
                        f"line {lineno}: malformed label pair {pair!r}"
                    )
                    continue
                if not _LABEL_NAME_RE.match(pm.group("label")):
                    errors.append(
                        f"line {lineno}: bad label name {pm.group('label')!r}"
                    )
                pairs.append((pm.group("label"), pm.group("value")))
            labelset = tuple(sorted(pairs))
        key = (name, labelset)
        if key in seen_samples:
            errors.append(f"line {lineno}: duplicate sample {line!r}")
        seen_samples.add(key)
    return errors


def _split_label_pairs(labels: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in labels:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        pairs.append("".join(current))
    return pairs


# ----------------------------------------------------------------------
# Geometry validity: what every generated dataset geometry must satisfy.
# ----------------------------------------------------------------------
def validate(geom: Geometry) -> List[str]:
    """Return a list of validity problems (empty list means valid)."""
    problems: List[str] = []
    for part in geom.simple_parts():
        if part.geom_type is GeometryType.POINT:
            _check_finite(part, problems)
        elif part.geom_type is GeometryType.LINESTRING:
            _check_finite(part, problems)
            _check_no_repeated_consecutive(part, problems)
        elif part.geom_type is GeometryType.POLYGON:
            _check_polygon(part, problems)
    return problems


def _check_finite(part: Geometry, problems: List[str]) -> None:
    for x, y in part.vertices():
        if not (math.isfinite(x) and math.isfinite(y)):
            problems.append(f"non-finite vertex ({x}, {y})")
            return


def _check_no_repeated_consecutive(part: Geometry, problems: List[str]) -> None:
    prev = None
    for pt in part.coords:
        if prev is not None and pt == prev:
            problems.append(f"repeated consecutive vertex {pt}")
            return
        prev = pt


def _check_polygon(part: Geometry, problems: List[str]) -> None:
    assert part.exterior is not None
    _check_finite(part, problems)
    if part.exterior.area == 0.0:
        problems.append("exterior ring has zero area")
    if _ring_self_intersects(part.exterior):
        problems.append("exterior ring self-intersects")
    if not part.exterior.is_ccw:
        problems.append("exterior ring is not counter-clockwise")
    for i, hole in enumerate(part.holes):
        if hole.area == 0.0:
            problems.append(f"hole {i} has zero area")
        if _ring_self_intersects(hole):
            problems.append(f"hole {i} self-intersects")
        if hole.is_ccw:
            problems.append(f"hole {i} is not clockwise")
        # Hole vertices must lie inside (or on) the exterior ring.
        for x, y in hole.coords:
            if not part.exterior.contains_point(x, y):
                problems.append(f"hole {i} vertex ({x}, {y}) outside exterior")
                break


def _ring_self_intersects(ring: Ring) -> bool:
    """O(n^2) self-intersection check between non-adjacent edges.

    Adequate for validation of the synthetic datasets (rings are small);
    adjacency (shared endpoints) is excluded from the test.
    """
    edges = list(ring.edges())
    n = len(edges)
    for i in range(n):
        a1, a2 = edges[i]
        for j in range(i + 1, n):
            if j == i or (i == 0 and j == n - 1):
                continue
            if j == i + 1:
                continue
            b1, b2 = edges[j]
            if segments_intersect(a1, a2, b1, b2):
                return True
    return False
