"""Unit tests for wire framing, error frames and row serialisation."""

import pytest

from repro import Geometry
from repro.errors import ProtocolError
from repro.server import protocol
from repro.storage.heap import RowId


class TestFraming:
    def test_encode_round_trips(self):
        message = {"id": 3, "op": "fetch", "session": "s1", "n": 10}
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert protocol.decode_line(line) == message

    def test_decode_rejects_malformed_json(self):
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"[1, 2]\n")

    def test_decode_rejects_oversized(self):
        line = b'{"op": "' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError):
            protocol.decode_line(line)

    def test_error_response_shape(self):
        response = protocol.error_response(7, protocol.ERR_OVERLOADED, "busy")
        assert response == {
            "id": 7,
            "ok": False,
            "error": {"code": "OVERLOADED", "message": "busy"},
        }

    def test_ok_response_merges_fields(self):
        response = protocol.ok_response(1, session="s9", rows=[])
        assert response["ok"] and response["session"] == "s9"


class TestRowSerialisation:
    def test_rowid_round_trip(self):
        rowid = RowId(page=12, slot=3)
        wire = protocol.rowid_to_wire(rowid)
        assert wire == [12, 3]
        assert RowId(*wire) == rowid

    def test_jsonify_scalars_pass_through(self):
        assert protocol.jsonify_row((1, 2.5, "x", None, True)) == [
            1,
            2.5,
            "x",
            None,
            True,
        ]

    def test_jsonify_geometry_becomes_wkt(self):
        geom = Geometry.rectangle(0, 0, 1, 1)
        (cell,) = protocol.jsonify_row((geom,))
        assert isinstance(cell, str) and cell.startswith("POLYGON")

    def test_jsonify_rowid_cell(self):
        (cell,) = protocol.jsonify_row((RowId(page=4, slot=9),))
        assert cell == [4, 9]
