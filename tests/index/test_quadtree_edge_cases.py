"""Quadtree edge cases: domain boundaries and degenerate windows."""

import pytest

from repro import Database, Geometry
from repro.datasets import load_geometries
from repro.errors import IndexBuildError
from repro.geometry.mbr import MBR
from repro.index.quadtree.quadtree import QuadtreeIndex


DOMAIN = MBR(0, 0, 100, 100)


@pytest.fixture
def edge_index(random_rects):
    db = Database()
    geoms = random_rects(60, seed=191) + [
        Geometry.rectangle(0, 0, 1, 1),       # touching the domain corner
        Geometry.rectangle(98, 98, 99.9, 99.9),  # near the far corner
    ]
    load_geometries(db, "t", geoms)
    index = QuadtreeIndex("t_q", db.table("t"), "geom", domain=DOMAIN, tiling_level=5)
    index.create()
    return db, index


class TestDomainBoundaries:
    def test_window_fully_outside_domain(self, edge_index):
        _db, index = edge_index
        window = Geometry.rectangle(500, 500, 510, 510)
        assert list(index.fetch("SDO_RELATE", (window, "ANYINTERACT"))) == []

    def test_within_distance_window_clipped_to_domain(self, edge_index):
        """An expanded search window that pokes outside the tiled domain
        must be clipped, not crash the tessellator."""
        db, index = edge_index
        probe = Geometry.rectangle(98, 98, 99, 99)
        got = sorted(index.fetch("SDO_WITHIN_DISTANCE", (probe, 50.0)))
        from repro.geometry.distance import within_distance

        expected = sorted(
            rid for rid, row in db.table("t").scan()
            if within_distance(row[1], probe, 50.0)
        )
        assert got == expected

    def test_within_distance_probe_outside_domain(self, edge_index):
        db, index = edge_index
        probe = Geometry.point(120, 120)
        got = sorted(index.fetch("SDO_WITHIN_DISTANCE", (probe, 40.0)))
        from repro.geometry.distance import within_distance

        expected = sorted(
            rid for rid, row in db.table("t").scan()
            if within_distance(row[1], probe, 40.0)
        )
        assert got == expected

    def test_corner_geometry_indexed_and_found(self, edge_index):
        db, index = edge_index
        window = Geometry.rectangle(0, 0, 0.5, 0.5)
        hits = list(index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
        corner_ids = [db.table("t").fetch(r)[0] for r in hits]
        assert 60 in corner_ids  # the corner rectangle's id

    def test_tiny_window_single_tile(self, edge_index):
        _db, index = edge_index
        window = Geometry.rectangle(50.1, 50.1, 50.2, 50.2)
        hits = list(index.fetch("SDO_RELATE", (window, "ANYINTERACT")))
        assert len(hits) == len(set(hits))  # well-formed, no duplicates


class TestGeometryOutsideDomain:
    """A data geometry outside the tiled square is refused with a typed
    error (it used to be indexed with no tiles, or with those of its inside
    part only, and then went missing from window answers); query windows
    past the domain stay legal."""

    @pytest.fixture
    def diagonal(self):
        db = Database()
        table = load_geometries(
            db, "t", [Geometry.rectangle(i, i, i + 1, i + 1) for i in range(10)]
        )
        index, _report = db.create_spatial_index("t_q", "t", "geom", kind="QUADTREE")
        return table, index

    def test_insert_outside_domain_raises(self, diagonal):
        table, index = diagonal
        tiles_before = index.tile_count()
        with pytest.raises(IndexBuildError) as err:
            table.insert([99, Geometry.rectangle(50, 50, 51, 51)])
        message = str(err.value)
        assert "t_q" in message and "RowId" in message
        assert "(50.0, 50.0, 51.0, 51.0)" in message  # the geometry's MBR
        assert str(index.grid.quadrant_mbr(0, 0, 0).as_tuple()) in message
        assert index.tile_count() == tiles_before

    def test_insert_partly_outside_domain_raises(self, diagonal):
        table, index = diagonal
        edge = index.grid.quadrant_mbr(0, 0, 0).max_x
        with pytest.raises(IndexBuildError):
            table.insert([99, Geometry.rectangle(edge - 1, 5, edge + 1, 6)])

    def test_create_with_too_small_domain_raises(self):
        db = Database()
        load_geometries(
            db, "t", [Geometry.rectangle(i, i, i + 1, i + 1) for i in range(10)]
        )
        with pytest.raises(IndexBuildError, match="outside the index domain"):
            db.create_spatial_index(
                "t_q", "t", "geom", kind="QUADTREE", domain=MBR(0, 0, 5, 5)
            )
        index = QuadtreeIndex(
            "t_q2", db.table("t"), "geom", domain=MBR(0, 0, 5, 5), tiling_level=4
        )
        with pytest.raises(IndexBuildError, match="outside the index domain"):
            index.create()

    def test_windows_past_the_domain_stay_legal(self, diagonal):
        table, index = diagonal
        window = Geometry.rectangle(7.5, 7.5, 80, 80)
        got = [table.fetch(r)[0] for r in index.fetch("SDO_RELATE", (window, "ANYINTERACT"))]
        assert got == [7, 8, 9]
        near = index.fetch("SDO_WITHIN_DISTANCE", (Geometry.point(14, 14), 6.0))
        assert [table.fetch(r)[0] for r in near] == [9]
