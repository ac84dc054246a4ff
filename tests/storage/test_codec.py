"""Unit tests for the row/value binary codec."""

import pytest

from repro.errors import StorageError
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.storage.codec import decode_column, decode_row, encode_row
from repro.storage.heap import RowId
from tests.oracles import decode_value, encode_value


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -1, 2**40, 3.14159, -1e300, "", "hello", "ünïcødé",
         b"", b"\x00\xff raw"],
    )
    def test_value_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bool_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True


class TestComposites:
    def test_tuple_roundtrip(self):
        value = (1, "two", 3.0, None, (4, "five"))
        assert decode_value(encode_value(value)) == value

    def test_geometry_roundtrip(self):
        poly = Geometry.polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (2, 4), (4, 4), (4, 2)]],
        )
        assert decode_value(encode_value(poly)) == poly

    def test_all_geometry_types_roundtrip(self):
        geoms = [
            Geometry.point(1, 2),
            Geometry.linestring([(0, 0), (1, 1)]),
            Geometry.multipoint([(0, 0), (2, 2)]),
            Geometry.multilinestring([[(0, 0), (1, 1)], [(2, 2), (3, 3)]]),
            Geometry.multipolygon([([(0, 0), (1, 0), (1, 1), (0, 1)], [])]),
        ]
        for g in geoms:
            assert decode_value(encode_value(g)) == g

    def test_mbr_roundtrip(self):
        m = MBR(-1.5, 2.5, 3.5, 4.5)
        assert decode_value(encode_value(m)) == m


class TestRows:
    def test_row_roundtrip(self):
        row = (42, "name", Geometry.point(1, 2), None, 2.5)
        assert decode_row(encode_row(row)) == row

    def test_empty_row(self):
        assert decode_row(encode_row(())) == ()

    def test_row_width_preserved(self):
        row = (None, None, None)
        assert len(decode_row(encode_row(row))) == 3

    def test_trailing_garbage_detected(self):
        data = encode_row((1, 2)) + b"junk"
        with pytest.raises(StorageError):
            decode_row(data)

    def test_unencodable_type_rejected(self):
        with pytest.raises(StorageError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError):
            decode_value(b"\xee")


class TestDecodeColumn:
    """``decode_column(data, i)`` is ``decode_row(data)[i]`` read in place."""

    # one value per codec tag, variable-length ones in the middle
    ROW = (
        None, False, True, -7, 2.5, "naïve", b"\x00\xff", (1, ("x", None), 2.0),
        Geometry.polygon(
            [(0, 0), (6, 0), (6, 6), (0, 6)], holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]]
        ),
        MBR(0, 1, 2, 3), RowId(4, 5), None, Geometry.point(1, 2), 9,
    )

    def test_every_tag_at_every_position(self):
        for shift in range(len(self.ROW)):
            row = self.ROW[shift:] + self.ROW[:shift]
            data = encode_row(row)
            whole = decode_row(data)
            for i in range(len(row)):
                value = decode_column(data, i)
                assert value == whole[i] and type(value) is type(whole[i])

    def test_index_out_of_range(self):
        data = encode_row((1, 2))
        for index in (-1, 2, 99):
            with pytest.raises(StorageError, match="out of range"):
                decode_column(data, index)
        with pytest.raises(StorageError):
            decode_column(encode_row(()), 0)

    def test_truncated_buffers(self):
        """Cut anywhere inside or before the requested column: StorageError.
        Cut after it: the column still reads, as nothing past it is touched."""
        data = encode_row(self.ROW)
        ends = []  # offset just past each column
        for i in range(len(self.ROW)):
            ends.append(len(encode_row(self.ROW[: i + 1])))
        for cut in range(len(data)):
            for i in (0, 3, 5, 7, 8, 10, 13):
                if cut < ends[i]:
                    with pytest.raises(StorageError):
                        decode_column(data[:cut], i)
                else:
                    assert decode_column(data[:cut], i) == self.ROW[i]

    def test_corrupted_tags_and_lengths(self):
        data = bytearray(encode_row((1, "abc", 2)))
        unknown = bytes(data[:4]) + b"\xee" + bytes(data[5:])
        for i in (0, 1, 2):  # skipped or decoded, an unknown tag is an error
            with pytest.raises(StorageError, match="unknown codec tag"):
                decode_column(unknown, i)
        data[14:18] = (2**31).to_bytes(4, "little")  # the string's length
        with pytest.raises(StorageError):
            decode_column(bytes(data), 1)
        with pytest.raises(StorageError):
            decode_column(bytes(data), 2)
        assert decode_column(bytes(data), 0) == 1

    def test_table_value_reads_one_column(self, monkeypatch):
        from repro import Database
        from repro.engine import table as table_module

        db = Database()
        table = db.create_table("t", [("id", "NUMBER"), ("geom", "SDO_GEOMETRY")])
        rowid = table.insert((41, Geometry.rectangle(0, 0, 1, 1)))

        def no_row_decode(_data):
            raise AssertionError("Table.value decoded the whole row")

        monkeypatch.setattr(table_module, "decode_row", no_row_decode)
        assert table.value(rowid, "id") == 41
        assert table.value(rowid, "geom") == Geometry.rectangle(0, 0, 1, 1)


class TestBatchArrayFastPaths:
    """The batch f64/u32 helpers must emit byte-identical output to the
    scalar ``struct.pack`` loops they replaced (on-disk format stability)."""

    def test_f64_array_matches_scalar_pack_loop(self):
        import struct

        from repro.storage.codec import decode_f64_array, encode_f64_array

        values = [0.0, -0.0, 1.5, -2.25, 3.141592653589793, 1e-300, -1e300]
        scalar = b"".join(struct.pack("<d", v) for v in values)
        assert encode_f64_array(values) == scalar
        arr, end = decode_f64_array(scalar, 0, len(values))
        assert end == len(scalar)
        assert arr.typecode == "d"
        assert list(arr) == values

    def test_f64_array_accepts_array_d_input(self):
        from array import array

        from repro.storage.codec import encode_f64_array

        arr = array("d", [1.0, 2.0, 3.0])
        assert encode_f64_array(arr) == arr.tobytes() or encode_f64_array(
            arr
        ) == encode_f64_array(list(arr))

    def test_u32_array_matches_scalar_pack_loop(self):
        import struct

        from repro.storage.codec import decode_u32_array, encode_u32_array

        values = [0, 1, 2**16, 2**32 - 1]
        scalar = b"".join(struct.pack("<I", v) for v in values)
        assert encode_u32_array(values) == scalar
        out, end = decode_u32_array(scalar, 0, len(values))
        assert out == values and end == len(scalar)

    def test_decode_overrun_rejected(self):
        from repro.storage.codec import decode_f64_array, decode_u32_array

        with pytest.raises(StorageError):
            decode_f64_array(b"\x00" * 15, 0, 2)
        with pytest.raises(StorageError):
            decode_u32_array(b"\x00" * 7, 0, 2)

    def test_geometry_row_bytes_stable_under_fast_path(self):
        # The geometry TLV layout is unchanged: gtype, elem_info count +
        # u32s, ordinate count + f64s.  Pin the exact bytes.
        import struct

        from repro.geometry.sdo import to_sdo

        poly = Geometry.polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        sdo = to_sdo(poly)
        expected = bytearray([8])  # _TAG_GEOMETRY
        expected += struct.pack("<I", sdo.gtype)
        expected += struct.pack("<I", len(sdo.elem_info))
        for v in sdo.elem_info:
            expected += struct.pack("<I", v)
        expected += struct.pack("<I", len(sdo.ordinates))
        for v in sdo.ordinates:
            expected += struct.pack("<d", v)
        assert encode_value(poly) == bytes(expected)
