"""Unit tests for columnar geometry storage (chunks, zone maps, journal)."""

import pickle

import pytest

from repro.engine.cost import WorkMeter
from repro.errors import StorageError
from repro.geometry.geometry import Geometry
from repro.storage.buffer import BufferPool
from repro.storage.codec import decode_row, encode_row
from repro.storage.columnar import (
    MISSING,
    ColumnarChunk,
    build_segment,
    encode_chunk,
    segment_from_snapshot,
    segment_snapshot,
)
from repro.storage.heap import HeapFile, RowId
from repro.storage.pager import MemoryPager

np = pytest.importorskip("numpy", reason="coords_view aliasing tests need numpy")


class Ctx:
    """Minimal charge-recording stand-in for a WorkerContext."""

    def __init__(self):
        self.meter = WorkMeter()

    def charge(self, kind, n=1.0):
        self.meter.add(kind, n)


def sample_geometries():
    return [
        Geometry.polygon(
            [(0, 0), (4, 0), (4, 3), (0, 3)],
            holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]],
        ),
        Geometry.point(5.5, -2.25),
        Geometry.linestring([(0, 0), (1, 1), (2, 0.5)]),
        None,
        Geometry.multipolygon(
            [
                ([(10, 10), (12, 10), (12, 12), (10, 12)], []),
                (
                    [(20, 20), (21, 20), (21, 21), (20, 21)],
                    [[(20.2, 20.2), (20.4, 20.2), (20.4, 20.4), (20.2, 20.4)]],
                ),
            ]
        ),
        Geometry.multipoint([(1, 2), (3, 4)]),
        Geometry.multilinestring([[(0, 0), (1, 0)], [(5, 5), (6, 6), (7, 5)]]),
    ]


def make_chunk():
    geoms = sample_geometries()
    rows = [(i, f"name{i}", g, float(i) * 1.5) for i, g in enumerate(geoms)]
    rowids = [RowId(100 + i // 3, i % 3) for i in range(len(rows))]
    blob, zone = encode_chunk(rows, rowids, geom_col=2)
    return rows, rowids, geoms, blob, zone


class TestChunkRoundTrip:
    def test_all_geometry_types_and_null(self):
        rows, rowids, geoms, blob, _zone = make_chunk()
        chunk = ColumnarChunk.decode(blob)
        assert chunk.row_count == len(rows)
        for i, row in enumerate(rows):
            assert chunk.row(i) == row
            assert chunk.rowids[i] == rowids[i]
            g = chunk.geometry(i)
            if geoms[i] is None:
                assert g is None
            else:
                assert g == geoms[i]
                assert g.mbr == geoms[i].mbr
                assert g.num_vertices == geoms[i].num_vertices

    def test_vertices_bit_identical_to_heap_codec(self):
        rows, _rowids, _geoms, blob, _zone = make_chunk()
        chunk = ColumnarChunk.decode(blob)
        for i, row in enumerate(rows):
            heap_row = decode_row(encode_row(row))
            assert heap_row == chunk.row(i)
            if row[2] is not None:
                assert tuple(heap_row[2].vertices()) == tuple(
                    chunk.geometry(i).vertices()
                )

    def test_zone_is_union_of_row_mbrs(self):
        _rows, _rowids, geoms, _blob, zone = make_chunk()
        present = [g for g in geoms if g is not None]
        assert zone == (
            min(g.mbr.min_x for g in present),
            min(g.mbr.min_y for g in present),
            max(g.mbr.max_x for g in present),
            max(g.mbr.max_y for g in present),
        )

    def test_all_null_chunk_has_no_zone(self):
        rows = [(1, None), (2, None)]
        rowids = [RowId(1, 0), RowId(1, 1)]
        blob, zone = encode_chunk(rows, rowids, geom_col=1)
        assert zone is None
        chunk = ColumnarChunk.decode(blob)
        assert chunk.geometry(0) is None and chunk.row(1) == rows[1]
        assert chunk.plane_rows == []

    def test_bad_magic_rejected(self):
        _rows, _rowids, _geoms, blob, _zone = make_chunk()
        with pytest.raises(StorageError):
            ColumnarChunk.decode(b"XXXX" + blob[4:])

    def test_collection_rejected(self):
        coll = Geometry.collection(
            [Geometry.point(0, 0), Geometry.linestring([(0, 0), (1, 1)])]
        )
        with pytest.raises(StorageError):
            encode_chunk([(1, coll)], [RowId(1, 0)], geom_col=1)

    def test_non_geometry_column_rejected(self):
        with pytest.raises(StorageError):
            encode_chunk([(1, "not a geometry")], [RowId(1, 0)], geom_col=1)


class TestZeroDecodeViews:
    def test_coords_view_aliases_chunk_buffer(self):
        _rows, _rowids, geoms, blob, _zone = make_chunk()
        chunk = ColumnarChunk.decode(blob)
        full = np.frombuffer(chunk.xy, dtype=np.float64)
        for i, g in enumerate(geoms):
            if g is None:
                continue
            view = chunk.coords_view(i)
            assert view.shape == (g.num_vertices, 2)
            assert np.shares_memory(view, full)

    def test_rebuilt_geometry_coords_array_preseeded(self):
        # Every rebuilt polygon ring's seeded cache must equal what lazy
        # computation would build, and must alias the chunk buffer (no
        # per-row decode).
        _rows, _rowids, geoms, blob, _zone = make_chunk()
        chunk = ColumnarChunk.decode(blob)
        full = np.frombuffer(chunk.xy, dtype=np.float64)
        seen = 0
        for i, g in enumerate(geoms):
            if g is None:
                continue
            for part, orig in zip(chunk.geometry(i).simple_parts(), g.simple_parts()):
                if part.exterior is None:
                    continue
                for ring, orig_ring in zip((part.exterior, *part.holes),
                                           (orig.exterior, *orig.holes)):
                    seeded = ring._coords_array
                    assert seeded is not None
                    assert np.shares_memory(seeded, full)
                    assert np.array_equal(ring.coords_array(), orig_ring.coords_array())
                    seen += 1
        assert seen == 5

    def test_ring_views_preseeded_for_polygons(self):
        _rows, _rowids, geoms, blob, _zone = make_chunk()
        chunk = ColumnarChunk.decode(blob)
        poly = chunk.geometry(0)
        full = np.frombuffer(chunk.xy, dtype=np.float64)
        assert poly.exterior._coords_array is not None
        assert np.shares_memory(poly.exterior._coords_array, full)
        for hole in poly.holes:
            assert hole._coords_array is not None
            assert np.shares_memory(hole._coords_array, full)


def build_grid_segment(n=100, chunk_rows=16, page_size=512):
    pager = MemoryPager(page_size=page_size)
    pool = BufferPool(pager, capacity=256)
    heap = HeapFile(pool)
    rowids, geoms = [], []
    for i in range(n):
        x, y = float(i % 10) * 10, float(i // 10) * 10
        g = Geometry.rectangle(x, y, x + 5, y + 5)
        geoms.append(g)
        rowids.append(heap.insert(encode_row((i, g))))
    seg = build_segment(heap, pool, geom_col=1, chunk_rows=chunk_rows)
    return pool, heap, seg, rowids, geoms


class TestSegment:
    def test_build_counts(self):
        _pool, _heap, seg, _rowids, _geoms = build_grid_segment()
        assert seg.row_count == 100
        assert len(seg.chunks) == 7  # ceil(100 / 16)
        assert seg.page_count > 0 and seg.byte_size > 0
        assert seg.journal_empty()

    def test_geometry_at_and_charges(self):
        _pool, _heap, seg, rowids, geoms = build_grid_segment()
        ctx = Ctx()
        g = seg.geometry_at(rowids[0], ctx)
        assert g == geoms[0]
        counts = ctx.meter.counts
        # first access loads the chunk (physical_read per page) then views
        assert counts["physical_read"] == len(seg.chunks[0].pages)
        assert counts["chunk_row_view"] == 1
        ctx2 = Ctx()
        seg.geometry_at(rowids[1], ctx2)  # same chunk: no load
        assert "physical_read" not in ctx2.meter.counts
        assert ctx2.meter.counts["chunk_row_view"] == 1

    def test_chunk_loads_use_prefetch(self):
        pool, _heap, seg, rowids, _geoms = build_grid_segment()
        pool.invalidate()
        pool.stats.reset()
        seg.geometry_at(rowids[0])
        assert pool.stats.prefetches == len(seg.chunks[0].pages)
        assert pool.stats.prefetch_hits == len(seg.chunks[0].pages)

    def test_zone_prune_skips_whole_chunks(self):
        _pool, _heap, seg, _rowids, _geoms = build_grid_segment()
        ctx = Ctx()
        hits = list(seg.window_candidates((1000.0, 1000.0, 1001.0, 1001.0), ctx=ctx))
        assert hits == []
        assert seg.zone_prunes == len(seg.chunks)
        assert ctx.meter.counts == {"zone_skip": float(len(seg.chunks))}

    def test_window_candidates_match_brute_force(self):
        _pool, _heap, seg, rowids, geoms = build_grid_segment()
        box, d = (0.0, 0.0, 12.0, 12.0), 0.0
        expect = [
            (rid, g)
            for rid, g in zip(rowids, geoms)
            if not (
                box[0] - g.mbr.max_x > d
                or g.mbr.min_x - box[2] > d
                or box[1] - g.mbr.max_y > d
                or g.mbr.min_y - box[3] > d
            )
        ]
        got = list(seg.window_candidates(box, d))
        assert [r for r, _ in got] == [r for r, _ in expect]
        assert all(a == b for (_, a), (_, b) in zip(got, expect))

    def test_all_zones_miss(self):
        _pool, _heap, seg, _rowids, _geoms = build_grid_segment()
        ctx = Ctx()
        assert seg.all_zones_miss((5000.0, 5000.0, 5001.0, 5001.0), ctx=ctx)
        assert ctx.meter.counts["zone_skip"] == len(seg.chunks)
        assert not seg.all_zones_miss((0.0, 0.0, 1.0, 1.0))
        # within-distance can reach a zone the plain window misses
        assert not seg.all_zones_miss((-30.0, -30.0, -29.0, -29.0), distance=40.0)

    def test_journal_exclusions(self):
        _pool, _heap, seg, rowids, _geoms = build_grid_segment()
        seg.note_update(rowids[3])
        seg.note_delete(rowids[4])
        fresh = RowId(10_000, 0)
        seg.note_insert(fresh)
        assert seg.geometry_at(rowids[3]) is MISSING
        assert seg.geometry_at(rowids[4]) is MISSING
        assert seg.geometry_at(fresh) is MISSING
        served = {rid for rid, _row in seg.chunk_rows()}
        assert rowids[3] not in served and rowids[4] not in served
        assert len(served) == 98
        # window candidates honour the same exclusions
        cands = {rid for rid, _g in seg.window_candidates((0.0, 0.0, 100.0, 100.0))}
        assert rowids[3] not in cands and rowids[4] not in cands

    def test_journal_transitions(self):
        _pool, _heap, seg, rowids, _geoms = build_grid_segment()
        rid = rowids[0]
        seg.note_update(rid)
        assert rid in seg.stale
        seg.note_delete(rid)  # updated then deleted -> dead, not stale
        assert rid in seg.dead and rid not in seg.stale
        seg.note_insert(rid)  # rowid reuse: live again, heap-resident
        assert rid in seg.fresh and rid not in seg.dead
        seg.note_delete(rid)  # fresh delete cancels out entirely
        assert rid not in seg.fresh and rid not in seg.dead

    def test_snapshot_roundtrip_through_codec(self):
        pool, _heap, seg, rowids, _geoms = build_grid_segment()
        seg.note_update(rowids[1])
        seg.note_delete(rowids[2])
        snap = decode_row(encode_row(segment_snapshot(seg)))
        seg2 = segment_from_snapshot(pool, snap)
        assert seg2.geom_col == seg.geom_col
        assert [m.pages for m in seg2.chunks] == [m.pages for m in seg.chunks]
        assert [m.zone for m in seg2.chunks] == [m.zone for m in seg.chunks]
        assert seg2.stale == seg.stale and seg2.dead == seg.dead
        assert dict(seg2.chunk_rows()) == dict(seg.chunk_rows())

    def test_pickle_drops_chunk_cache(self):
        _pool, _heap, seg, rowids, geoms = build_grid_segment()
        seg.geometry_at(rowids[0])  # populate the LRU
        clone = pickle.loads(pickle.dumps(seg))
        assert clone._loaded == {}
        assert clone.geometry_at(rowids[0]) == geoms[0]

    def test_chunk_lru_bounded(self):
        pool, heap, _seg, _rowids, _geoms = build_grid_segment()
        seg = build_segment(heap, pool, geom_col=1, chunk_rows=16)
        seg._cache_chunks = 2
        for rid, _row in seg.chunk_rows():
            pass
        assert len(seg._loaded) <= 2

    def test_bad_chunk_rows_rejected(self):
        pool, heap, _seg, _rowids, _geoms = build_grid_segment()
        with pytest.raises(StorageError):
            build_segment(heap, pool, geom_col=1, chunk_rows=0)


class TestCompression:
    def test_columnar_bytes_beat_heap_row_encoding(self):
        # delta/varint ring offsets + dictionary gtypes + closing-vertex
        # elision must keep the chunk image no larger than the sum of the
        # heap's per-row TLV encodings, despite adding the MBR planes.
        pool, heap, seg, _rowids, _geoms = build_grid_segment(
            n=200, chunk_rows=256
        )
        heap_bytes = sum(len(data) for _rid, data in heap.scan())
        assert seg.byte_size <= heap_bytes
        # ...and the page image is materially smaller than the heap's
        # page footprint (slot directories, per-row headers, free space).
        heap_pages = len(heap.pages_snapshot()[0])
        assert seg.page_count < heap_pages

    def test_gtype_dictionary_single_entry_for_uniform_chunk(self):
        rows = [(i, Geometry.rectangle(i, 0, i + 1, 1)) for i in range(20)]
        rowids = [RowId(1, i) for i in range(20)]
        blob, _zone = encode_chunk(rows, rowids, geom_col=1)
        chunk = ColumnarChunk.decode(blob)
        assert chunk.gtype_dict == [2003]
