"""Unit tests for the synthetic dataset generators."""

import math

import pytest

from repro.datasets import (
    blockgroups,
    counties,
    load_geometries,
    radial_polygon,
    regular_polygon,
    stars,
)
from repro.errors import DatasetError
from repro.geometry.predicates import intersects, touches
from tests.oracles import validate


class TestCounties:
    def test_count_and_determinism(self):
        a = counties(100, seed=3)
        b = counties(100, seed=3)
        assert len(a) == 100
        assert a == b

    def test_different_seeds_differ(self):
        assert counties(50, seed=1) != counties(50, seed=2)

    def test_all_valid(self):
        for geom in counties(150, seed=4):
            assert validate(geom) == []

    def test_tessellation_is_contiguous(self):
        """Adjacent counties share boundary: intersect without overlap."""
        polys = counties(60, seed=5)
        touching = 0
        for i, a in enumerate(polys):
            for b in polys[i + 1 :]:
                if a.mbr.intersects(b.mbr) and intersects(a, b):
                    touching += 1
        # grid tessellation: roughly 2 shared edges per cell
        assert touching >= len(polys)

    def test_counties_cover_extent_area(self):
        polys = counties(100, seed=6, extent=(0, 0, 10, 10))
        total = sum(p.area for p in polys)
        # cells tile the extent: total area equals extent area
        assert total == pytest.approx(100.0, rel=0.05)

    def test_refinement_adds_vertices(self):
        coarse = counties(20, seed=7, refine=0)
        fine = counties(20, seed=7, refine=3)
        assert fine[0].num_vertices > coarse[0].num_vertices

    def test_bad_count(self):
        with pytest.raises(DatasetError):
            counties(0)


class TestStars:
    def test_count_and_determinism(self):
        assert len(stars(500, seed=9)) == 500
        assert stars(200, seed=9) == stars(200, seed=9)

    def test_stars_are_small_valid_polygons(self):
        for star in stars(100, seed=10):
            assert validate(star) == []
            assert star.mbr.width < 5.0

    def test_clustering_produces_overlaps(self):
        """Self-join selectivity must be non-trivial (Table 2 depends on
        result sets growing with dataset size)."""
        polys = stars(800, seed=11)
        overlaps = 0
        for i, a in enumerate(polys):
            for b in polys[max(0, i - 60) : i]:
                if a.mbr.intersects(b.mbr) and intersects(a, b):
                    overlaps += 1
        assert overlaps > 20

    def test_prefixes_remain_clustered(self):
        full = stars(1000, seed=12)
        prefix = full[:100]
        # clustered prefix: mean nearest-neighbour gap far below uniform
        xs = sorted(g.mbr.center[0] for g in prefix)
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert sorted(gaps)[len(gaps) // 2] < 1.0  # median gap tiny vs 360 extent


class TestBlockgroups:
    def test_count_and_determinism(self):
        assert len(blockgroups(300, seed=13)) == 300
        assert blockgroups(100, seed=13) == blockgroups(100, seed=13)

    def test_heavy_tailed_vertex_counts(self):
        polys = blockgroups(600, seed=14)
        counts = sorted(p.num_vertices for p in polys)
        p50 = counts[len(counts) // 2]
        p99 = counts[int(len(counts) * 0.99)]
        assert p99 > 4 * p50  # heavy tail

    def test_all_valid_sample(self):
        for geom in blockgroups(120, seed=15):
            assert validate(geom) == []

    def test_complexity_correlates_with_size(self):
        polys = blockgroups(400, seed=16)
        small = [p for p in polys if p.num_vertices < 12]
        big = [p for p in polys if p.num_vertices > 100]
        if small and big:
            avg_small = sum(p.area for p in small) / len(small)
            avg_big = sum(p.area for p in big) / len(big)
            assert avg_big > avg_small


class TestHelpers:
    def test_regular_polygon(self):
        hexagon = regular_polygon(0, 0, 1.0, 6)
        assert hexagon.num_vertices == 6
        assert hexagon.area == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-6)

    def test_radial_polygon_star_convex(self):
        import random

        poly = radial_polygon(random.Random(1), 5, 5, 2.0, 50)
        assert validate(poly) == []
        assert poly.contains_point(5, 5)  # centre is inside (star-convex)

    def test_bad_parameters(self):
        import random

        with pytest.raises(DatasetError):
            regular_polygon(0, 0, 1.0, 2)
        with pytest.raises(DatasetError):
            radial_polygon(random.Random(1), 0, 0, 1.0, 2)


class TestLoader:
    def test_load_geometries(self, random_rects):
        from repro import Database

        db = Database()
        geoms = random_rects(25, seed=17)
        table = load_geometries(db, "loaded", geoms)
        assert table.row_count == 25
        rows = [row for _rid, row in table.scan()]
        assert [r[0] for r in rows] == list(range(25))
        assert rows[0][1] == geoms[0]
