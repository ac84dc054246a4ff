"""2-D geometry engine: the library's ``sdo_geometry`` equivalent.

Public surface:

* :class:`Geometry` / :class:`GeometryType` / :class:`Ring` — the object model.
* :class:`MBR` — minimum bounding rectangles (the index currency).
* predicates — ``intersects``, ``contains``, ``touches``, ``relate`` masks.
* ``distance`` / ``within_distance`` — exact metric operations.
* ``to_wkt`` / ``from_wkt`` and ``to_sdo`` / ``from_sdo`` — interchange.
"""

from repro.geometry.distance import distance, within_distance
from repro.geometry.geojson import from_geojson, to_geojson, to_geojson_str
from repro.geometry.geometry import Geometry, GeometryType, Ring
from repro.geometry.mbr import EMPTY_MBR, MBR, mbr_of_points, union_all
from repro.geometry.predicates import (
    INTERACTION_MASKS,
    contains,
    disjoint,
    equals,
    inside,
    intersects,
    relate,
    touches,
)
from repro.geometry.sdo import SdoGeometry, from_sdo, to_sdo
from repro.geometry.wkt import from_wkt, to_wkt

__all__ = [
    "Geometry",
    "GeometryType",
    "Ring",
    "MBR",
    "EMPTY_MBR",
    "mbr_of_points",
    "union_all",
    "intersects",
    "contains",
    "inside",
    "touches",
    "equals",
    "disjoint",
    "relate",
    "INTERACTION_MASKS",
    "distance",
    "within_distance",
    "SdoGeometry",
    "to_sdo",
    "from_sdo",
    "to_wkt",
    "from_wkt",
    "to_geojson",
    "from_geojson",
    "to_geojson_str",
]
