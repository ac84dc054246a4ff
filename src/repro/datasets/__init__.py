"""Seeded synthetic datasets standing in for the paper's proprietary data.

* :func:`counties` — contiguous county-like tessellation (Table 1).
* :func:`stars` — clustered star polygons (Table 2).
* :func:`blockgroups` — complex heavy-tailed polygons (Table 3).
* :func:`load_geometries` — bulk load any of them into a database table.
"""

from repro.datasets.blockgroups import (
    BLOCKGROUP_EXTENT,
    DEFAULT_BLOCKGROUP_COUNT,
    blockgroups,
)
from repro.datasets.cache import cache_dir, cache_path, cached_dataset
from repro.datasets.counties import (
    CONUS_EXTENT,
    CONUS_INDEX_DOMAIN,
    DEFAULT_COUNTY_COUNT,
    counties,
)
from repro.datasets.loader import load_geometries
from repro.datasets.random_geom import radial_polygon, regular_polygon
from repro.datasets.stars import DEFAULT_STAR_COUNT, SKY_EXTENT, stars

__all__ = [
    "counties",
    "DEFAULT_COUNTY_COUNT",
    "CONUS_EXTENT",
    "CONUS_INDEX_DOMAIN",
    "stars",
    "DEFAULT_STAR_COUNT",
    "SKY_EXTENT",
    "blockgroups",
    "DEFAULT_BLOCKGROUP_COUNT",
    "BLOCKGROUP_EXTENT",
    "load_geometries",
    "radial_polygon",
    "regular_polygon",
    "cached_dataset",
    "cache_dir",
    "cache_path",
]
