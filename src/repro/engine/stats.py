"""Optimizer statistics (the ANALYZE ... COMPUTE STATISTICS analogue).

The paper's system sits inside a cost-based optimizer; the piece of that
machinery spatial processing actually needs is per-column geometry
statistics — row count, average MBR extents, layer MBR — from which the
classic spatial selectivity model estimates how many rows a window query
or join will touch:

    P(two boxes intersect) ~ ((w1 + w2) * (h1 + h2)) / area(domain)

``Database.analyze`` computes them; EXPLAIN reports the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CatalogError
from repro.engine.table import Table
from repro.geometry.mbr import EMPTY_MBR, MBR

__all__ = [
    "ColumnGeometryStats",
    "TableStats",
    "analyze_table",
    "estimate_window_rows",
    "estimate_join_pairs",
]


@dataclass
class ColumnGeometryStats:
    """Statistics for one geometry column."""

    column: str
    geometry_count: int = 0
    avg_width: float = 0.0
    avg_height: float = 0.0
    avg_vertices: float = 0.0
    layer_mbr: MBR = EMPTY_MBR


@dataclass
class TableStats:
    """Statistics for one table."""

    table_name: str
    row_count: int = 0
    geometry_columns: Dict[str, ColumnGeometryStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnGeometryStats:
        try:
            return self.geometry_columns[name.upper()]
        except KeyError:
            raise CatalogError(
                f"no geometry statistics for {self.table_name}.{name}; "
                f"run ANALYZE first"
            ) from None


def analyze_table(table: Table) -> TableStats:
    """Full-scan statistics collection for one table.

    Each geometry column is read through :meth:`Table.scan_bounds`: only
    the bounds and vertex count of a row are needed, so no
    :class:`~repro.geometry.geometry.Geometry` is built for a ring record.
    """
    stats = TableStats(table_name=table.name)
    geom_columns = [
        (index, c.name)
        for index, c in enumerate(table.meta.columns)
        if c.type_tag.upper() == "SDO_GEOMETRY"
    ]
    if not geom_columns:
        stats.row_count = sum(1 for _ in table.scan())
    for index, name in geom_columns:
        col = ColumnGeometryStats(column=name)
        rows = 0
        sum_w = sum_h = sum_v = 0.0
        for _rowid, mbr, num_vertices, _geometry in table.scan_bounds(index):
            rows += 1
            if mbr is None:
                continue
            col.geometry_count += 1
            col.layer_mbr = col.layer_mbr.union(mbr)
            sum_w += mbr.width
            sum_h += mbr.height
            sum_v += num_vertices
        stats.row_count = rows
        if col.geometry_count:
            col.avg_width = sum_w / col.geometry_count
            col.avg_height = sum_h / col.geometry_count
            col.avg_vertices = sum_v / col.geometry_count
        stats.geometry_columns[name.upper()] = col
    return stats


def estimate_window_rows(col: ColumnGeometryStats, window: MBR) -> float:
    """Expected rows whose MBR intersects ``window`` (uniformity model)."""
    if col.geometry_count == 0 or col.layer_mbr.is_empty:
        return 0.0
    domain = col.layer_mbr
    domain_area = max(domain.area, 1e-12)
    p = (
        (col.avg_width + window.width)
        * (col.avg_height + window.height)
        / domain_area
    )
    return col.geometry_count * min(1.0, p)


def estimate_join_pairs(
    col_a: ColumnGeometryStats,
    col_b: ColumnGeometryStats,
    distance: float = 0.0,
) -> float:
    """Expected MBR-intersecting pairs between two layers."""
    if col_a.geometry_count == 0 or col_b.geometry_count == 0:
        return 0.0
    domain = col_a.layer_mbr.union(col_b.layer_mbr)
    domain_area = max(domain.area, 1e-12)
    p = (
        (col_a.avg_width + col_b.avg_width + 2 * distance)
        * (col_a.avg_height + col_b.avg_height + 2 * distance)
        / domain_area
    )
    return col_a.geometry_count * col_b.geometry_count * min(1.0, p)
