"""Unit tests for the catalog."""

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import Catalog, ColumnMeta, IndexMeta, TableMeta


def table_meta(name="t"):
    return TableMeta(
        name=name,
        columns=[ColumnMeta("id", "NUMBER"), ColumnMeta("geom", "SDO_GEOMETRY")],
        heap_name=f"{name}_heap",
    )


def index_meta(name="t_idx", table="t", kind="RTREE"):
    return IndexMeta(
        name=name,
        table_name=table,
        column_name="geom",
        index_kind=kind,
    )


class TestTables:
    def test_register_and_lookup_case_insensitive(self):
        cat = Catalog()
        cat.register_table(table_meta("Counties"))
        assert cat.table("COUNTIES").name == "Counties"
        assert cat.has_table("counties")

    def test_duplicate_rejected(self):
        cat = Catalog()
        cat.register_table(table_meta())
        with pytest.raises(CatalogError):
            cat.register_table(table_meta())

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_drop_table_cascades_indexes(self):
        cat = Catalog()
        cat.register_table(table_meta())
        cat.register_index(index_meta())
        cat.drop_table("t")
        assert not cat.has_table("t")
        assert not cat.has_index("t_idx")

    def test_column_index_lookup(self):
        meta = table_meta()
        assert meta.column_index("GEOM") == 1
        with pytest.raises(CatalogError):
            meta.column_index("missing")


class TestIndexes:
    def test_register_requires_table(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.register_index(index_meta())

    def test_register_and_query(self):
        cat = Catalog()
        cat.register_table(table_meta())
        cat.register_index(index_meta())
        assert cat.index("T_IDX").index_kind == "RTREE"
        assert len(cat.indexes_on("t")) == 1

    def test_spatial_index_on(self):
        cat = Catalog()
        cat.register_table(table_meta())
        cat.register_index(index_meta(kind="BTREE"))
        assert cat.spatial_index_on("t", "geom") is None
        cat.register_index(index_meta(name="t_sidx", kind="QUADTREE"))
        found = cat.spatial_index_on("t", "geom")
        assert found is not None and found.name == "t_sidx"

    def test_drop_index(self):
        cat = Catalog()
        cat.register_table(table_meta())
        cat.register_index(index_meta())
        cat.drop_index("t_idx")
        assert not cat.has_index("t_idx")
        with pytest.raises(CatalogError):
            cat.drop_index("t_idx")

    def test_metadata_parameters_roundtrip(self):
        meta = index_meta()
        meta.parameters["fanout"] = 32
        meta.parameters["root"] = None
        assert meta.parameters["fanout"] == 32
