"""Unit tests for the extensible-indexing framework."""

import pytest

from repro.errors import IndexTypeError, OperatorError
from repro.engine.indextype import OPERATORS, DomainIndex, IndexTypeRegistry
from repro.geometry.geometry import Geometry
from tests.oracles import evaluate_operator


def square(x, y, s=2.0):
    return Geometry.rectangle(x, y, x + s, y + s)


class TestOperators:
    def test_sdo_relate(self):
        assert evaluate_operator("sdo_relate", square(0, 0), square(1, 1), "ANYINTERACT")
        assert not evaluate_operator("SDO_RELATE", square(0, 0), square(9, 9), "ANYINTERACT")

    def test_sdo_relate_mask_variants(self):
        assert evaluate_operator(
            "SDO_RELATE", square(2, 2, 1), square(0, 0, 10), "INSIDE"
        )
        assert evaluate_operator(
            "SDO_RELATE", square(0, 0, 10), square(2, 2, 1), "CONTAINS"
        )

    def test_sdo_within_distance(self):
        assert evaluate_operator("SDO_WITHIN_DISTANCE", square(0, 0), square(5, 0), 3.0)
        assert not evaluate_operator(
            "SDO_WITHIN_DISTANCE", square(0, 0), square(5, 0), 2.0
        )

    def test_sdo_filter_is_mbr_only(self):
        # Thin diagonal polygon vs a square near its bounding box but far
        # from its boundary: primary filter says yes, exact says no overlap.
        sliver = Geometry.polygon([(0, 0), (10, 10), (10, 10.1), (0, 0.1)])
        probe = square(8, 0, 1)
        assert evaluate_operator("SDO_FILTER", sliver, probe)
        assert not evaluate_operator("SDO_RELATE", sliver, probe, "ANYINTERACT")

    def test_unknown_operator(self):
        with pytest.raises(OperatorError):
            evaluate_operator("SDO_TELEPORT", square(0, 0), square(1, 1))

    def test_operator_registry_contents(self):
        assert set(OPERATORS) == {"SDO_RELATE", "SDO_WITHIN_DISTANCE", "SDO_FILTER"}


class TestRegistry:
    def test_register_and_create(self):
        registry = IndexTypeRegistry()

        class FakeIndex(DomainIndex):
            kind = "FAKE"

        registry.register("FAKE", FakeIndex)
        assert registry.kinds() == ["FAKE"]

    def test_duplicate_kind_rejected(self):
        registry = IndexTypeRegistry()
        registry.register("X", DomainIndex)
        with pytest.raises(IndexTypeError):
            registry.register("x", DomainIndex)

    def test_unknown_kind(self):
        with pytest.raises(IndexTypeError):
            IndexTypeRegistry().create("NOPE", "n", None, "c")


class TestMaintenanceIntegration:
    def test_dml_keeps_index_synchronised(self, indexed_db):
        """Inserting into the base table must update the R-tree (the
        'automatically trigger an update of the corresponding spatial
        indexes' behaviour of the framework)."""
        db = indexed_db
        table = db.table("shapes")
        index = db.spatial_index("shapes_ridx")
        before = len(index.tree)
        rid = table.insert((999, Geometry.rectangle(50, 50, 51, 51)))
        assert len(index.tree) == before + 1
        hits = list(
            index.fetch("SDO_RELATE", (Geometry.rectangle(49, 49, 52, 52), "ANYINTERACT"))
        )
        assert rid in hits
        table.delete(rid)
        assert len(index.tree) == before

    def test_update_moves_index_entry(self, indexed_db):
        db = indexed_db
        table = db.table("shapes")
        index = db.spatial_index("shapes_ridx")
        rid = table.insert((1000, Geometry.rectangle(30, 30, 31, 31)))
        table.update(rid, (1000, Geometry.rectangle(70, 70, 71, 71)))
        old_window = Geometry.rectangle(29, 29, 32, 32)
        new_window = Geometry.rectangle(69, 69, 72, 72)
        assert rid not in list(index.fetch("SDO_RELATE", (old_window, "ANYINTERACT")))
        assert rid in list(index.fetch("SDO_RELATE", (new_window, "ANYINTERACT")))
        table.delete(rid)

    def test_fetch_returns_single_table_rowids_only(self, indexed_db):
        """The framework restriction the paper is built on: fetch yields
        rowids of the indexed table, nothing else."""
        db = indexed_db
        index = db.spatial_index("shapes_ridx")
        table_rowids = {rid for rid, _ in db.table("shapes").scan()}
        window = Geometry.rectangle(0, 0, 100, 100)
        for rid in index.fetch("SDO_RELATE", (window, "ANYINTERACT")):
            assert rid in table_rowids
