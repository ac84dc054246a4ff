"""Shared fixtures: small seeded datasets and pre-built databases."""

from __future__ import annotations

import random

import pytest

from repro import Database, Geometry
from repro.datasets import counties, load_geometries, stars
from repro.storage import pager, wal


@pytest.fixture(scope="session")
def small_counties():
    """~120 contiguous county-like polygons (session-cached)."""
    return counties(120, seed=11)


@pytest.fixture(scope="session")
def small_stars():
    """~400 clustered star polygons (session-cached)."""
    return stars(400, seed=5)


@pytest.fixture
def random_rects():
    """Factory for seeded random rectangle geometries."""

    def make(n: int, seed: int = 0, extent: float = 100.0, size: float = 4.0):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            x = rng.uniform(0, extent - size)
            y = rng.uniform(0, extent - size)
            w = rng.uniform(size * 0.2, size)
            h = rng.uniform(size * 0.2, size)
            out.append(Geometry.rectangle(x, y, x + w, y + h))
        return out

    return make


@pytest.fixture
def indexed_db(random_rects):
    """A database with one table of 150 rectangles and both index kinds."""
    db = Database()
    geoms = random_rects(150, seed=3)
    load_geometries(db, "shapes", geoms)
    db.create_spatial_index("shapes_ridx", "shapes", "geom", kind="RTREE", fanout=8)
    db.create_spatial_index(
        "shapes_qidx", "shapes", "geom", kind="QUADTREE", tiling_level=6
    )
    return db


@pytest.fixture
def opened_files(monkeypatch):
    """Every file the storage layer opens with the builtin ``open`` during
    the test, in order (so a test can check that a refusal closed them)."""
    files = []

    def tracking_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    for module in (pager, wal):
        monkeypatch.setattr(module, "open", tracking_open, raising=False)
    return files
