"""Unit tests for the geometry validity oracle."""

from repro.geometry.geometry import Geometry
from tests.oracles import validate


class TestValidGeometries:
    def test_simple_shapes_are_valid(self):
        assert validate(Geometry.point(1, 2)) == []
        assert validate(Geometry.linestring([(0, 0), (1, 1)])) == []
        assert validate(Geometry.rectangle(0, 0, 2, 2)) == []

    def test_polygon_with_hole_valid(self):
        poly = Geometry.polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (2, 4), (4, 4), (4, 2)]],
        )
        assert validate(poly) == []


class TestInvalidGeometries:
    def test_bowtie_self_intersection(self):
        # Construct via internal representation (factories can't stop this
        # shape since each edge pair check is what validation is for).
        from repro.geometry.geometry import GeometryType, Ring

        bowtie = Geometry(
            GeometryType.POLYGON,
            exterior=Ring([(0, 0), (2, 2), (2, 0), (0, 2)]),
        )
        problems = validate(bowtie)
        assert any("self-intersect" in p for p in problems)

    def test_wrong_exterior_orientation_detected(self):
        from repro.geometry.geometry import GeometryType, Ring

        cw = Geometry(
            GeometryType.POLYGON,
            exterior=Ring([(0, 0), (0, 2), (2, 2), (2, 0)]),
        )
        problems = validate(cw)
        assert any("counter-clockwise" in p for p in problems)

    def test_repeated_consecutive_vertex_in_line(self):
        from repro.geometry.geometry import GeometryType

        line = Geometry(
            GeometryType.LINESTRING, coords=((0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
        )
        problems = validate(line)
        assert any("repeated" in p for p in problems)

    def test_hole_vertex_outside_exterior(self):
        from repro.geometry.geometry import GeometryType, Ring

        poly = Geometry(
            GeometryType.POLYGON,
            exterior=Ring([(0, 0), (4, 0), (4, 4), (0, 4)]),
            holes=(Ring([(3, 3), (3, 6), (6, 6), (6, 3)]).oriented(ccw=False),),
        )
        problems = validate(poly)
        assert any("outside exterior" in p for p in problems)


class TestDatasetValidity:
    def test_generated_counties_valid(self, small_counties):
        for geom in small_counties[:40]:
            assert validate(geom) == []

    def test_generated_stars_valid(self, small_stars):
        for geom in small_stars[:40]:
            assert validate(geom) == []
