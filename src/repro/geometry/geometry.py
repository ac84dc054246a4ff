"""The geometry object model.

This is the library's stand-in for Oracle Spatial's ``sdo_geometry`` object
type: a single :class:`Geometry` class whose :class:`GeometryType` tag covers
points, lines, polygons with holes, and the homogeneous/heterogeneous
multi-element types defined by the OGC simple-feature model.

Construction is via the classmethod factories (:meth:`Geometry.point`,
:meth:`Geometry.polygon`, ...) which validate their inputs once; instances
are immutable afterwards, and derived values (MBR, vertex count) are cached.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.mbr import EMPTY_MBR, MBR, mbr_of_points
from repro.geometry.segments import EPSILON, on_segment, orientation

__all__ = ["GeometryType", "Ring", "Geometry"]

Coord = Tuple[float, float]


class GeometryType(enum.Enum):
    """OGC simple-feature geometry types supported by the library."""

    POINT = "POINT"
    LINESTRING = "LINESTRING"
    POLYGON = "POLYGON"
    MULTIPOINT = "MULTIPOINT"
    MULTILINESTRING = "MULTILINESTRING"
    MULTIPOLYGON = "MULTIPOLYGON"
    COLLECTION = "GEOMETRYCOLLECTION"

    @property
    def is_multi(self) -> bool:
        return self in (
            GeometryType.MULTIPOINT,
            GeometryType.MULTILINESTRING,
            GeometryType.MULTIPOLYGON,
            GeometryType.COLLECTION,
        )


class Ring:
    """A closed polygon ring.

    The coordinate list excludes the repeated closing vertex; ``ring.coords``
    always satisfies ``coords[0] != coords[-1]`` (the closure is implicit).
    Rings know their signed area and can answer point-location queries.
    """

    __slots__ = ("coords", "_mbr", "_signed_area", "_coords_array", "_closed_array")

    def __init__(self, coords: Sequence[Coord]):
        pts = [(float(x), float(y)) for x, y in coords]
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]  # normalise away an explicit closing vertex
        if len(pts) < 3:
            raise GeometryError(f"ring needs >= 3 distinct vertices, got {len(pts)}")
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GeometryError(f"non-finite ring vertex ({x}, {y})")
        self.coords: Tuple[Coord, ...] = tuple(pts)
        self._mbr: Optional[MBR] = None
        self._signed_area: Optional[float] = None
        self._coords_array = None
        self._closed_array = None

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Ring({len(self.coords)} vertices)"

    # Pickling: ship the coordinates, not the derived caches.
    def __getstate__(self):
        return self.coords

    def __setstate__(self, state) -> None:
        self.coords = state
        self._mbr = None
        self._signed_area = None
        self._coords_array = None
        self._closed_array = None

    @property
    def mbr(self) -> MBR:
        if self._mbr is None:
            self._mbr = mbr_of_points(self.coords)
        return self._mbr

    def coords_array(self):
        """Cached contiguous ``float64`` ndarray view of the ring vertices.

        Shape ``(n, 2)``; never invalidated — rings are immutable, so the
        decode cost is paid once per object.  Only the vectorized kernels
        call this.
        """
        cached = self._coords_array
        if cached is None:
            import numpy as np

            cached = np.asarray(self.coords, dtype=np.float64).reshape(-1, 2)
            self._coords_array = cached
        return cached

    def closed_array(self):
        """:meth:`coords_array` with vertex 0 repeated as row ``n``, so edge
        ``k`` runs from row ``k`` to row ``k + 1``; cached the same way."""
        cached = self._closed_array
        if cached is None:
            import numpy as np

            c = self.coords_array()
            cached = np.concatenate((c, c[:1]))
            self._closed_array = cached
        return cached

    @property
    def signed_area(self) -> float:
        """Shoelace area: positive for counter-clockwise orientation."""
        if self._signed_area is None:
            total = 0.0
            pts = self.coords
            n = len(pts)
            for i in range(n):
                x1, y1 = pts[i]
                x2, y2 = pts[(i + 1) % n]
                total += x1 * y2 - x2 * y1
            self._signed_area = total / 2.0
        return self._signed_area

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area > 0.0

    def reversed(self) -> "Ring":
        return Ring(tuple(reversed(self.coords)))

    def oriented(self, ccw: bool) -> "Ring":
        """Return this ring with the requested orientation."""
        if self.is_ccw == ccw:
            return self
        return self.reversed()

    def edges(self) -> Iterator[Tuple[Coord, Coord]]:
        pts = self.coords
        n = len(pts)
        for i in range(n):
            yield pts[i], pts[(i + 1) % n]

    def contains_point(self, x: float, y: float, eps: float = EPSILON) -> bool:
        """Point-in-ring test (boundary counts as inside).

        Standard ray casting with an explicit boundary pre-check so that
        vertices and edge-interior points are classified deterministically.
        """
        if not self.mbr.contains_point(x, y):
            return False
        p = (x, y)
        for a, b in self.edges():
            if on_segment(p, a, b, eps):
                return True
        inside = False
        pts = self.coords
        n = len(pts)
        j = n - 1
        for i in range(n):
            xi, yi = pts[i]
            xj, yj = pts[j]
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def is_convex(self) -> bool:
        """True when all turns share one orientation (collinear runs allowed)."""
        sign = 0
        pts = self.coords
        n = len(pts)
        for i in range(n):
            o = orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n])
            if o == 0:
                continue
            if sign == 0:
                sign = o
            elif o != sign:
                return False
        return True


class Geometry:
    """An immutable 2-D geometry (the library's ``sdo_geometry`` analogue).

    Internal representation by type:

    * ``POINT`` — ``coords`` holds one coordinate pair.
    * ``LINESTRING`` — ``coords`` holds the vertex chain.
    * ``POLYGON`` — ``exterior`` is the outer :class:`Ring` (CCW),
      ``holes`` the inner rings (CW).
    * multi types / collections — ``parts`` holds component geometries.
    """

    __slots__ = (
        "geom_type",
        "coords",
        "exterior",
        "holes",
        "parts",
        "_mbr",
        "_nvertices",
    )

    def __init__(
        self,
        geom_type: GeometryType,
        coords: Tuple[Coord, ...] = (),
        exterior: Optional[Ring] = None,
        holes: Tuple[Ring, ...] = (),
        parts: Tuple["Geometry", ...] = (),
    ):
        self.geom_type = geom_type
        self.coords = coords
        self.exterior = exterior
        self.holes = holes
        self.parts = parts
        self._mbr: Optional[MBR] = None
        self._nvertices: Optional[int] = None

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, x: float, y: float) -> "Geometry":
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"non-finite point coordinates ({x}, {y})")
        return cls(GeometryType.POINT, coords=((x, y),))

    @classmethod
    def linestring(cls, coords: Sequence[Coord]) -> "Geometry":
        pts = tuple((float(x), float(y)) for x, y in coords)
        if len(pts) < 2:
            raise GeometryError(f"linestring needs >= 2 vertices, got {len(pts)}")
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GeometryError(f"non-finite linestring vertex ({x}, {y})")
        return cls(GeometryType.LINESTRING, coords=pts)

    @classmethod
    def polygon(
        cls,
        exterior: Sequence[Coord],
        holes: Sequence[Sequence[Coord]] = (),
    ) -> "Geometry":
        """Polygon from an exterior ring and optional holes.

        Ring orientation in the input is normalised: exterior to CCW, holes
        to CW, matching the OGC convention.
        """
        outer = Ring(exterior).oriented(ccw=True)
        inner = tuple(Ring(h).oriented(ccw=False) for h in holes)
        for hole in inner:
            if not outer.mbr.contains(hole.mbr):
                raise GeometryError("hole MBR extends outside the exterior ring")
        return cls(GeometryType.POLYGON, exterior=outer, holes=inner)

    @classmethod
    def rectangle(cls, min_x: float, min_y: float, max_x: float, max_y: float) -> "Geometry":
        """Axis-aligned rectangular polygon (a common query window)."""
        if min_x >= max_x or min_y >= max_y:
            raise GeometryError("rectangle requires min < max on both axes")
        return cls.polygon(
            [(min_x, min_y), (max_x, min_y), (max_x, max_y), (min_x, max_y)]
        )

    @classmethod
    def from_mbr(cls, mbr: MBR) -> "Geometry":
        if mbr.is_empty:
            raise GeometryError("cannot build geometry from empty MBR")
        if mbr.width == 0.0 and mbr.height == 0.0:
            return cls.point(mbr.min_x, mbr.min_y)
        if mbr.width == 0.0 or mbr.height == 0.0:
            return cls.linestring([(mbr.min_x, mbr.min_y), (mbr.max_x, mbr.max_y)])
        return cls.rectangle(mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)

    @classmethod
    def multipoint(cls, points: Sequence[Coord]) -> "Geometry":
        parts = tuple(cls.point(x, y) for x, y in points)
        if not parts:
            raise GeometryError("multipoint needs >= 1 point")
        return cls(GeometryType.MULTIPOINT, parts=parts)

    @classmethod
    def multilinestring(cls, lines: Sequence[Sequence[Coord]]) -> "Geometry":
        parts = tuple(cls.linestring(line) for line in lines)
        if not parts:
            raise GeometryError("multilinestring needs >= 1 linestring")
        return cls(GeometryType.MULTILINESTRING, parts=parts)

    @classmethod
    def multipolygon(
        cls, polygons: Sequence[Tuple[Sequence[Coord], Sequence[Sequence[Coord]]]]
    ) -> "Geometry":
        """Multipolygon from ``[(exterior, holes), ...]`` tuples."""
        parts = tuple(cls.polygon(ext, holes) for ext, holes in polygons)
        if not parts:
            raise GeometryError("multipolygon needs >= 1 polygon")
        return cls(GeometryType.MULTIPOLYGON, parts=parts)

    @classmethod
    def collection(cls, geometries: Sequence["Geometry"]) -> "Geometry":
        parts = tuple(geometries)
        if not parts:
            raise GeometryError("collection needs >= 1 geometry")
        return cls(GeometryType.COLLECTION, parts=parts)

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def mbr(self) -> MBR:
        if self._mbr is None:
            self._mbr = self._compute_mbr()
        return self._mbr

    def _compute_mbr(self) -> MBR:
        if self.geom_type is GeometryType.POINT:
            (x, y) = self.coords[0]
            return MBR(x, y, x, y)
        if self.geom_type is GeometryType.LINESTRING:
            return mbr_of_points(self.coords)
        if self.geom_type is GeometryType.POLYGON:
            assert self.exterior is not None
            return self.exterior.mbr
        result = EMPTY_MBR
        for part in self.parts:
            result = result.union(part.mbr)
        return result

    @property
    def num_vertices(self) -> int:
        if self._nvertices is None:
            self._nvertices = self._count_vertices()
        return self._nvertices

    def _count_vertices(self) -> int:
        if self.geom_type in (GeometryType.POINT, GeometryType.LINESTRING):
            return len(self.coords)
        if self.geom_type is GeometryType.POLYGON:
            assert self.exterior is not None
            return len(self.exterior) + sum(len(h) for h in self.holes)
        return sum(part.num_vertices for part in self.parts)

    @property
    def area(self) -> float:
        """Total polygon area (holes subtracted); 0 for points and lines."""
        if self.geom_type is GeometryType.POLYGON:
            assert self.exterior is not None
            return self.exterior.area - sum(h.area for h in self.holes)
        if self.geom_type.is_multi:
            return sum(part.area for part in self.parts)
        return 0.0

    @property
    def length(self) -> float:
        """Total boundary/chain length; 0 for points."""
        if self.geom_type is GeometryType.LINESTRING:
            return _chain_length(self.coords, closed=False)
        if self.geom_type is GeometryType.POLYGON:
            assert self.exterior is not None
            total = _chain_length(self.exterior.coords, closed=True)
            for hole in self.holes:
                total += _chain_length(hole.coords, closed=True)
            return total
        if self.geom_type.is_multi:
            return sum(part.length for part in self.parts)
        return 0.0

    # ------------------------------------------------------------------
    # Decomposition helpers used by predicates and tessellation
    # ------------------------------------------------------------------
    def simple_parts(self) -> Iterator["Geometry"]:
        """Yield the primitive (non-multi) geometries this one is made of."""
        if self.geom_type.is_multi:
            for part in self.parts:
                yield from part.simple_parts()
        else:
            yield self

    def boundary_edges(self) -> Iterator[Tuple[Coord, Coord]]:
        """Yield every boundary segment of the geometry.

        Polygon edges include hole boundaries; points yield nothing.
        """
        for part in self.simple_parts():
            if part.geom_type is GeometryType.LINESTRING:
                pts = part.coords
                for i in range(len(pts) - 1):
                    yield pts[i], pts[i + 1]
            elif part.geom_type is GeometryType.POLYGON:
                assert part.exterior is not None
                yield from part.exterior.edges()
                for hole in part.holes:
                    yield from hole.edges()

    def vertices(self) -> Iterator[Coord]:
        """Yield every vertex of the geometry."""
        for part in self.simple_parts():
            if part.geom_type in (GeometryType.POINT, GeometryType.LINESTRING):
                yield from part.coords
            else:
                assert part.exterior is not None
                yield from part.exterior.coords
                for hole in part.holes:
                    yield from hole.coords

    def contains_point(self, x: float, y: float) -> bool:
        """True if (x, y) lies on or inside the geometry."""
        for part in self.simple_parts():
            if part.geom_type is GeometryType.POINT:
                px, py = part.coords[0]
                dx, dy = px - x, py - y
                # Squared comparison: the library-wide distance convention
                # (see repro.geometry.kernels).
                if dx * dx + dy * dy <= EPSILON * EPSILON:
                    return True
            elif part.geom_type is GeometryType.LINESTRING:
                pts = part.coords
                for i in range(len(pts) - 1):
                    if on_segment((x, y), pts[i], pts[i + 1]):
                        return True
            else:
                assert part.exterior is not None
                if part.exterior.contains_point(x, y):
                    in_hole = False
                    for hole in part.holes:
                        # Strictly interior to a hole => outside the polygon;
                        # on the hole boundary => still on the polygon.
                        if hole.contains_point(x, y) and not _on_ring_boundary(
                            hole, x, y
                        ):
                            in_hole = True
                            break
                    if not in_hole:
                        return True
        return False

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return (
            self.geom_type == other.geom_type
            and self.coords == other.coords
            and self.exterior == other.exterior
            and self.holes == other.holes
            and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return hash((self.geom_type, self.coords, self.exterior, self.holes, self.parts))

    def __repr__(self) -> str:
        return f"Geometry({self.geom_type.value}, {self.num_vertices} vertices)"

    # Pickling (geometries ride process-executor task payloads): ship only
    # the defining fields, not the derived caches.
    def __getstate__(self):
        return (self.geom_type, self.coords, self.exterior, self.holes, self.parts)

    def __setstate__(self, state) -> None:
        self.geom_type, self.coords, self.exterior, self.holes, self.parts = state
        self._mbr = None
        self._nvertices = None


def _chain_length(coords: Sequence[Coord], closed: bool) -> float:
    total = 0.0
    n = len(coords)
    last = n if closed else n - 1
    for i in range(last):
        x1, y1 = coords[i]
        x2, y2 = coords[(i + 1) % n]
        total += math.hypot(x2 - x1, y2 - y1)
    return total


def _on_ring_boundary(ring: Ring, x: float, y: float) -> bool:
    p = (x, y)
    for a, b in ring.edges():
        if on_segment(p, a, b):
            return True
    return False
