"""``Table.scan_bounds`` against the decode-then-``.mbr`` reference
(``tests/oracles.py::scan_bounds_reference``): bounds compared as packed
bytes, vertex counts, decoded geometries, raised exception classes and
buffer-pool traffic, over every record form the codec reads — on a heap
table, a compacted one and a compacted one with a DML journal."""

from __future__ import annotations

import dataclasses
import math
import random
import struct

import pytest

from repro import Database, Geometry
from repro.geometry.packed import as_geometry
from repro.geometry.sdo import to_sdo
from repro.storage.codec import BOUNDS_BATCH, decode_row
from tests.oracles import encode_value, scan_bounds_reference

NAN, INF = math.nan, math.inf


def geometry_value(gtype, elem_info, ords) -> bytes:
    """A geometry value as the codec stores it, from raw SDO arrays."""
    return (
        bytes([8])
        + struct.pack(f"<II{len(elem_info)}I", gtype, len(elem_info), *elem_info)
        + struct.pack(f"<I{len(ords)}d", len(ords), *ords)
    )


def record(*values: bytes) -> bytes:
    return struct.pack("<I", len(values)) + b"".join(values)


def ring(*xy) -> list:
    return [v for point in xy for v in point]


def polygon(*xy) -> bytes:
    return geometry_value(2003, [1, 1003, 1], ring(*xy))


def stored(geom: Geometry) -> bytes:
    return encode_value(geom)


NULL = bytes([0])

# Geometry values the full decode accepts, one per form.
VALID = {
    "point": geometry_value(2001, [1, 1, 1], [3.5, -2.0]),
    "point_at_zero": geometry_value(2001, [1, 1, 1], [-0.0, 0.0]),
    "line": geometry_value(2002, [1, 2, 1], [0.0, 1.0, 2.0, -3.0, 4.0, 5.0]),
    "multipoint": geometry_value(2005, [1, 1, 3], [1.0, 2.0, -1.0, 7.0, 4.0, 4.0]),
    "multiline": stored(Geometry.multilinestring([[(0, 0), (1, 1)], [(5, 5), (6, 9)]])),
    "multipolygon": stored(Geometry.multipolygon([
        ([(0, 0), (2, 0), (2, 2), (0, 2)], []),
        ([(5, 5), (8, 5), (8, 8)], []),
    ])),
    "holes": stored(Geometry.polygon(
        [(0, 0), (10, 0), (10, 10), (0, 10)], [[(2, 2), (4, 2), (4, 4), (2, 4)]]
    )),
    "rectangle_interp": geometry_value(2003, [1, 1003, 3], [1.0, 2.0, 5.0, 7.0]),
    "ccw": polygon((1, 1), (4, 1), (4, 3), (1, 3), (1, 1)),
    "cw": polygon((1, 1), (1, 3), (4, 3), (4, 1), (1, 1)),
    "sliver": polygon((1, 1), (2, 2), (3, 3), (1, 1)),
    "unclosed": polygon((1, 1), (4, 1), (4, 3), (1, 3)),
    "stored_ccw": stored(Geometry.polygon([(-5, -5), (-1, -6), (-2, -1)])),
    # ±0.0: the bound is a zero of either sign, and the first one wins
    "zero_min_x": polygon((-0.0, 1), (3, 1), (0.0, 4), (-0.0, 1)),
    "zero_min_x_cw": polygon((0.0, 1), (0.0, 4), (3, 1), (-0.0, 2), (0.0, 1)),
    "zero_max_y": polygon((1, -0.0), (3, -2), (4, 0.0), (1, -0.0)),
    "zero_inside": polygon((-1, -1), (1, -1), (-0.0, 0.0), (1, 1), (-1, 1), (-1, -1)),
    # equal to row 0 but not bit-identical: Ring drops it all the same
    "closing_signed_zero": polygon((0.0, 1), (3, 1), (3, 4), (-0.0, 1)),
    "closing_repeats": polygon((1, 1), (4, 1), (4, 1), (4, 3), (1, 1)),
    # the row before the closing one equals row 0: reversing the ring
    # drops it too
    "doubled_closing_cw": polygon((1, 1), (1, 3), (4, 3), (4, 1), (1, 1), (1, 1)),
    "doubled_closing_signed_zero": polygon(
        (0.0, 1), (3, 4), (3, -3), (-2, -3), (-0.0, 1), (0.0, 1)
    ),
    "collinear_doubled_closing": stored(
        Geometry.polygon([(1, 1), (1, 1), (2, 2), (3, 3), (1, 1), (1, 1)])
    ),
    "tiny": polygon((1e-300, 1e-300), (2e-300, 1e-300), (2e-300, 3e-300), (1e-300, 1e-300)),
    "null": NULL,
}

# Geometry values the full decode refuses.
INVALID = {
    "nan_vertex": polygon((1, 1), (NAN, 1), (4, 3), (1, 1)),
    "inf_vertex": polygon((1, 1), (4, 1), (4, INF), (1, 1)),
    "neg_inf_closing": polygon((-INF, 1), (4, 1), (4, 3), (-INF, 1)),
    "two_distinct": polygon((1, 1), (4, 1), (1, 1)),
    "two_distinct_doubled_closing": polygon((1, 1), (4, 1), (1, 1), (1, 1)),
    "odd_ordinates": geometry_value(2003, [1, 1003, 1], [1.0, 1.0, 4.0, 1.0, 4.0]),
}


def id_value(i: int) -> bytes:
    return encode_value(i)


def random_rings(n: int, seed: int):
    """Closed rings in both orientations, some touching zero."""
    rng = random.Random(seed)
    for _ in range(n):
        cx, cy = rng.choice([0.0, -0.0, rng.uniform(-50, 50)]), rng.uniform(-50, 50)
        k = rng.randint(3, 9)
        pts = [
            (cx + math.cos(2 * math.pi * j / k) * rng.uniform(0.5, 3),
             cy + math.sin(2 * math.pi * j / k) * rng.uniform(0.5, 3))
            for j in range(k)
        ]
        if rng.random() < 0.3:
            pts = [(rng.choice([0.0, -0.0]) if rng.random() < 0.3 else x, y)
                   for x, y in pts]
        if rng.random() < 0.5:
            pts.reverse()
        yield polygon(*pts, pts[0])


def valid_records():
    values = list(VALID.values()) + list(random_rings(2 * BOUNDS_BATCH, seed=7))
    return [record(id_value(i), value) for i, value in enumerate(values)]


def table_of(records, buffer_capacity=1024):
    db = Database(buffer_capacity=buffer_capacity)
    table = db.create_table("t", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
    for data in records:
        table.heap.insert(data)
    return db, table


def packed(rows):
    return [
        (rowid, b"" if mbr is None else struct.pack("<4d", *mbr.as_tuple()), n)
        for rowid, mbr, n in rows
    ]


def assert_matches_reference(table, col=1):
    got = list(table.scan_bounds(col))
    want = list(scan_bounds_reference(table, col))
    assert packed(r[:3] for r in got) == packed(r[:3] for r in want)
    decoded = {rowid: row[col] for rowid, row in table.scan()}
    for rowid, mbr, _n, geometry in got:
        if mbr is None:
            assert geometry is None and decoded[rowid] is None
        else:
            assert to_sdo(as_geometry(geometry())) == to_sdo(decoded[rowid])
    return got


class TestHeap:
    def test_every_form_matches_the_reference(self):
        _db, table = table_of(valid_records())
        got = assert_matches_reference(table)
        assert len(got) == len(VALID) + 2 * BOUNDS_BATCH

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_each_form_alone(self, name):
        _db, table = table_of([record(id_value(0), VALID[name])])
        assert_matches_reference(table)

    def test_signed_zero_bounds_keep_the_first(self):
        _db, table = table_of([record(id_value(0), VALID["zero_min_x_cw"])])
        ((_rowid, mbr, nv, _geometry),) = table.scan_bounds(1)
        assert nv == 4
        assert math.copysign(1.0, mbr.min_x) == math.copysign(
            1.0, decode_row(table.heap.read(_rowid))[1].mbr.min_x
        )

    def test_geometry_column_between_other_columns(self):
        records = [
            record(id_value(i), value, encode_value("tail"), encode_value(2.5))
            for i, value in enumerate(VALID.values())
        ]
        _db, table = table_of(records)
        assert_matches_reference(table)

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_refused_records_raise_the_same_class(self, name):
        records = valid_records()
        records.insert(BOUNDS_BATCH + 3, record(id_value(-1), INVALID[name]))
        self.assert_same_failure(records)

    @pytest.mark.parametrize("cut", (1, 8, 30))
    def test_truncated_record(self, cut):
        records = valid_records()
        bad = record(id_value(-1), VALID["ccw"])
        records.insert(5, bad[: len(bad) - cut])
        self.assert_same_failure(records)

    def test_trailing_bytes(self):
        records = valid_records()
        records.insert(5, record(id_value(-1), VALID["ccw"]) + b"\x00")
        self.assert_same_failure(records)

    def test_first_refused_record_in_scan_order_decides(self):
        records = valid_records()
        trailing = record(id_value(-2), VALID["ccw"]) + b"\x00"
        records[3:3] = [record(id_value(-1), INVALID["nan_vertex"]), trailing]
        self.assert_same_failure(records)

    @staticmethod
    def assert_same_failure(records):
        _db, table = table_of(records)
        with pytest.raises(Exception) as want:
            list(scan_bounds_reference(table, 1))
        with pytest.raises(Exception) as got:
            list(table.scan_bounds(1))
        assert type(got.value) is type(want.value)

    def test_same_buffer_traffic_as_a_scan(self):
        records = valid_records()
        stats = []
        for read in (lambda t: list(t.scan()), lambda t: list(t.scan_bounds(1))):
            db, table = table_of(records, buffer_capacity=4)
            db.pool.stats.reset()
            reads_before = db.pager.stats.reads
            read(table)
            reads = db.pager.stats.reads - reads_before
            stats.append((dataclasses.asdict(db.pool.stats), reads))
        assert stats[0] == stats[1]
        assert stats[0][0]["misses"] > 0


class TestColumnar:
    @pytest.fixture
    def compacted(self):
        db, table = table_of(valid_records())
        db.compact_table("t", chunk_rows=64)
        return db, table

    def test_compacted_rows_match_the_reference(self, compacted):
        _db, table = compacted
        assert len(assert_matches_reference(table)) == len(VALID) + 2 * BOUNDS_BATCH

    def test_journaled_rows_match_the_reference(self, compacted):
        _db, table = compacted
        seg = table.columnar
        rowids = [rowid for rowid, _row in table.scan()]
        for i, value in enumerate(VALID.values()):
            seg.note_insert(table.heap.insert(record(id_value(1000 + i), value)))
        for rowid, value in zip(rowids[::7], VALID.values()):
            table.heap.update(rowid, record(id_value(-1), value))
            seg.note_update(rowid)
        for rowid in rowids[3::11]:
            table.delete(rowid)
        assert seg.journal_size() > len(VALID)
        assert_matches_reference(table)

    def test_same_buffer_traffic_as_a_scan(self):
        stats = []
        for read in (lambda t: list(t.scan()), lambda t: list(t.scan_bounds(1))):
            db, table = table_of(valid_records(), buffer_capacity=4)
            db.compact_table("t", chunk_rows=64)
            rowid = next(rowid for rowid, _row in table.scan())
            table.heap.update(rowid, record(id_value(-1), VALID["cw"]))
            table.columnar.note_update(rowid)
            table.columnar.drop_chunk_cache()
            db.pool.stats.reset()
            read(table)
            stats.append(dataclasses.asdict(db.pool.stats))
        assert stats[0] == stats[1]
