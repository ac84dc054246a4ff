"""The database catalog.

Keeps metadata for tables and domain indexes.  :class:`IndexMeta` is the
reproduction of the paper's spatial-index *metadata table* row: the indexed
table/column, dimensionality and the index's creation parameters.  Indexes
are derived state, so this row is all a store keeps of one: reopening a
store rebuilds each index from its table and this definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CatalogError

__all__ = ["ColumnMeta", "TableMeta", "IndexMeta", "Catalog"]


@dataclass
class ColumnMeta:
    """One column: a name and a type tag.

    Type tags are strings ('NUMBER', 'VARCHAR', 'SDO_GEOMETRY', 'ROWID')
    rather than Python classes so catalog rows themselves remain plain data.
    """

    name: str
    type_tag: str


@dataclass
class TableMeta:
    """Catalog entry for one heap table."""

    name: str
    columns: List[ColumnMeta]
    heap_name: str

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name.upper() == name.upper():
                return i
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]


@dataclass
class IndexMeta:
    """Catalog entry for one index (the paper's metadata-table row).

    ``index_kind`` names the indextype ('RTREE' or 'QUADTREE' for spatial
    indexes).  ``parameters`` holds the keyword arguments the index was
    created with: R-trees may record ``fanout`` and ``fill``; quadtrees
    always record ``domain`` (inferred when not given) and may record
    ``tiling_level`` and ``btree_order``.
    """

    name: str
    table_name: str
    column_name: str
    index_kind: str
    dimensionality: int = 2
    parameters: Dict[str, Any] = field(default_factory=dict)
    parallel_degree: int = 1


class Catalog:
    """In-memory catalog of tables and indexes.

    Lookups are case-insensitive on names, matching SQL identifier rules.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, TableMeta] = {}
        self._indexes: Dict[str, IndexMeta] = {}

    # -- tables ----------------------------------------------------------
    def register_table(self, meta: TableMeta) -> None:
        key = meta.name.upper()
        if key in self._tables:
            raise CatalogError(f"table {meta.name!r} already exists")
        self._tables[key] = meta

    def drop_table(self, name: str) -> None:
        key = name.upper()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        for index in self.indexes_on(name):
            del self._indexes[index.name.upper()]
        del self._tables[key]

    def table(self, name: str) -> TableMeta:
        try:
            return self._tables[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.upper() in self._tables

    def tables(self) -> List[TableMeta]:
        return list(self._tables.values())

    # -- indexes ---------------------------------------------------------
    def register_index(self, meta: IndexMeta) -> None:
        key = meta.name.upper()
        if key in self._indexes:
            raise CatalogError(f"index {meta.name!r} already exists")
        if meta.table_name.upper() not in self._tables:
            raise CatalogError(
                f"cannot index unknown table {meta.table_name!r}"
            )
        self._indexes[key] = meta

    def drop_index(self, name: str) -> None:
        key = name.upper()
        if key not in self._indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self._indexes[key]

    def index(self, name: str) -> IndexMeta:
        try:
            return self._indexes[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name.upper() in self._indexes

    def indexes(self) -> List[IndexMeta]:
        return list(self._indexes.values())

    def indexes_on(self, table_name: str) -> List[IndexMeta]:
        key = table_name.upper()
        return [m for m in self._indexes.values() if m.table_name.upper() == key]

    def spatial_index_on(
        self, table_name: str, column_name: str
    ) -> Optional[IndexMeta]:
        """Find the spatial (R-tree or quadtree) index on a geometry column."""
        for meta in self.indexes_on(table_name):
            if (
                meta.column_name.upper() == column_name.upper()
                and meta.index_kind in ("RTREE", "QUADTREE")
            ):
                return meta
        return None
