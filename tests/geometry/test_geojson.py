"""Unit tests for GeoJSON I/O."""

import json

import pytest

from repro.errors import GeometryError
from repro.geometry.geojson import from_geojson, to_geojson, to_geojson_str
from repro.geometry.geometry import Geometry, GeometryType


SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]
HOLE = [(1, 1), (1, 3), (3, 3), (3, 1)]


class TestEncode:
    def test_point(self):
        obj = to_geojson(Geometry.point(1, 2))
        assert obj == {"type": "Point", "coordinates": [1.0, 2.0]}

    def test_polygon_rings_closed(self):
        obj = to_geojson(Geometry.polygon(SQUARE, holes=[HOLE]))
        assert obj["type"] == "Polygon"
        for ring in obj["coordinates"]:
            assert ring[0] == ring[-1]
        assert len(obj["coordinates"]) == 2

    def test_str_form_is_valid_json(self):
        text = to_geojson_str(Geometry.linestring([(0, 0), (1, 1)]))
        parsed = json.loads(text)
        assert parsed["type"] == "LineString"


class TestDecode:
    def test_feature_unwrapped(self):
        obj = {
            "type": "Feature",
            "properties": {"name": "x"},
            "geometry": {"type": "Point", "coordinates": [3, 4]},
        }
        geom = from_geojson(obj)
        assert geom == Geometry.point(3, 4)

    def test_feature_collection(self):
        obj = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0, 0]}},
                {"type": "Feature", "geometry": {"type": "Point", "coordinates": [1, 1]}},
            ],
        }
        geom = from_geojson(obj)
        assert geom.geom_type is GeometryType.COLLECTION
        assert len(geom.parts) == 2

    def test_errors(self):
        with pytest.raises(GeometryError):
            from_geojson({"type": "Point"})
        with pytest.raises(GeometryError):
            from_geojson({"coordinates": [1, 2]})
        with pytest.raises(GeometryError):
            from_geojson({"type": "Hypercube", "coordinates": []})
        with pytest.raises(GeometryError):
            from_geojson({"type": "Feature", "geometry": None})


class TestRoundTrip:
    @pytest.mark.parametrize(
        "geom",
        [
            Geometry.point(1.5, -2.5),
            Geometry.linestring([(0, 0), (1, 1), (2, 0)]),
            Geometry.polygon(SQUARE),
            Geometry.polygon(SQUARE, holes=[HOLE]),
            Geometry.multipoint([(0, 0), (1, 2)]),
            Geometry.multilinestring([[(0, 0), (1, 1)], [(2, 2), (3, 3)]]),
            Geometry.multipolygon([(SQUARE, [HOLE])]),
            Geometry.collection([Geometry.point(0, 0), Geometry.polygon(SQUARE)]),
        ],
    )
    def test_roundtrip(self, geom):
        assert from_geojson(to_geojson(geom)) == geom

    def test_roundtrip_through_text(self):
        geom = Geometry.polygon(SQUARE, holes=[HOLE])
        assert from_geojson(json.loads(to_geojson_str(geom))) == geom

    def test_wkt_geojson_agree(self):
        from repro.geometry.wkt import from_wkt

        wkt_geom = from_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
        gj_geom = from_geojson(
            {"type": "Polygon", "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]]}
        )
        assert wkt_geom == gj_geom
