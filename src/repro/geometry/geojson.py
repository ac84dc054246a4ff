"""GeoJSON (RFC 7946) reader and writer.

A second interchange format next to WKT: the examples ship data in and
out of the library with it, and round-tripping through a dict-based
format exercises different paths than the text codec.

Supported: Point, LineString, Polygon, MultiPoint, MultiLineString,
MultiPolygon, GeometryCollection, plus Feature / FeatureCollection
unwrapping on read.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.geometry import Geometry, GeometryType

__all__ = ["to_geojson", "from_geojson", "to_geojson_str"]

Coord = Tuple[float, float]


def to_geojson(geom: Geometry) -> Dict[str, Any]:
    """Encode a :class:`Geometry` as a GeoJSON geometry object (dict)."""
    t = geom.geom_type
    if t is GeometryType.POINT:
        return {"type": "Point", "coordinates": list(geom.coords[0])}
    if t is GeometryType.LINESTRING:
        return {"type": "LineString", "coordinates": [list(c) for c in geom.coords]}
    if t is GeometryType.POLYGON:
        return {"type": "Polygon", "coordinates": _polygon_rings(geom)}
    if t is GeometryType.MULTIPOINT:
        return {
            "type": "MultiPoint",
            "coordinates": [list(p.coords[0]) for p in geom.parts],
        }
    if t is GeometryType.MULTILINESTRING:
        return {
            "type": "MultiLineString",
            "coordinates": [[list(c) for c in p.coords] for p in geom.parts],
        }
    if t is GeometryType.MULTIPOLYGON:
        return {
            "type": "MultiPolygon",
            "coordinates": [_polygon_rings(p) for p in geom.parts],
        }
    return {
        "type": "GeometryCollection",
        "geometries": [to_geojson(p) for p in geom.parts],
    }


def _polygon_rings(geom: Geometry) -> List[List[List[float]]]:
    assert geom.exterior is not None
    rings = [geom.exterior] + list(geom.holes)
    out = []
    for ring in rings:
        closed = list(ring.coords) + [ring.coords[0]]
        out.append([list(c) for c in closed])
    return out


def from_geojson(obj: Dict[str, Any]) -> Geometry:
    """Decode a GeoJSON object (geometry, Feature, or FeatureCollection).

    Features decode to their geometry; FeatureCollections decode to a
    geometry collection of their features' geometries.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise GeometryError("GeoJSON object must be a dict with a 'type'")
    gtype = obj["type"]
    if gtype == "Feature":
        geometry = obj.get("geometry")
        if geometry is None:
            raise GeometryError("Feature with null geometry")
        return from_geojson(geometry)
    if gtype == "FeatureCollection":
        features = obj.get("features", [])
        if not features:
            raise GeometryError("empty FeatureCollection")
        return Geometry.collection([from_geojson(f) for f in features])
    if gtype == "GeometryCollection":
        return Geometry.collection(
            [from_geojson(g) for g in obj.get("geometries", [])]
        )

    coords = obj.get("coordinates")
    if coords is None:
        raise GeometryError(f"{gtype} without coordinates")
    if gtype == "Point":
        return Geometry.point(coords[0], coords[1])
    if gtype == "LineString":
        return Geometry.linestring([_pt(c) for c in coords])
    if gtype == "Polygon":
        return _polygon_from_rings(coords)
    if gtype == "MultiPoint":
        return Geometry.multipoint([_pt(c) for c in coords])
    if gtype == "MultiLineString":
        return Geometry.multilinestring([[_pt(c) for c in line] for line in coords])
    if gtype == "MultiPolygon":
        parts = [_polygon_from_rings(rings) for rings in coords]
        return Geometry.multipolygon(
            [
                (
                    list(p.exterior.coords),  # type: ignore[union-attr]
                    [list(h.coords) for h in p.holes],
                )
                for p in parts
            ]
        )
    raise GeometryError(f"unsupported GeoJSON type {gtype!r}")


def _pt(c: Sequence[float]) -> Coord:
    if len(c) < 2:
        raise GeometryError(f"coordinate {c!r} needs at least x and y")
    return (float(c[0]), float(c[1]))


def _polygon_from_rings(rings: Sequence[Sequence[Sequence[float]]]) -> Geometry:
    if not rings:
        raise GeometryError("Polygon needs at least an exterior ring")
    exterior = [_pt(c) for c in rings[0]]
    holes = [[_pt(c) for c in ring] for ring in rings[1:]]
    return Geometry.polygon(exterior, holes)


def to_geojson_str(geom: Geometry, **json_kwargs: Any) -> str:
    """Encode a geometry as GeoJSON text."""
    return json.dumps(to_geojson(geom), **json_kwargs)
