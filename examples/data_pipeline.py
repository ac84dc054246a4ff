"""Data-pipeline scenario: ingest GeoJSON, analyze, plan, close, reopen.

Run with::

    python examples/data_pipeline.py

Shows the operational surface around the core engine: GeoJSON ingest,
optimizer statistics + EXPLAIN, a write-ahead-logged store on disk, and a
consistency check that the reopened store (whose spatial index is rebuilt
from the table when it opens) answers identically.
"""

from __future__ import annotations

import os
import tempfile

from repro import Database
from repro.datasets import counties
from repro.geometry import from_geojson, to_geojson_str


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run(os.path.join(tmp, "parcels.db"))


def run(path: str) -> None:
    db = Database.open(path)
    db.sql("create table parcels (id number, geom sdo_geometry)")

    # ------------------------------------------------------------------
    # 1. Ingest: features arrive as GeoJSON (as they would from a web API).
    # ------------------------------------------------------------------
    layer = counties(150, seed=77, extent=(0.0, 0.0, 12.0, 6.0))
    table = db.table("parcels")
    for i, geom in enumerate(layer):
        feature_text = to_geojson_str(geom)  # the wire format...
        table.insert((i, from_geojson(__import__("json").loads(feature_text))))
    print(f"ingested {table.row_count} parcels from GeoJSON features")

    db.sql(
        "create index parcels_sidx on parcels(geom) "
        "indextype is spatial_index parameters ('kind=RTREE') parallel 2"
    )

    # ------------------------------------------------------------------
    # 2. Statistics and plans.
    # ------------------------------------------------------------------
    print(db.sql("analyze table parcels compute statistics").message)
    plan = db.sql(
        "explain select id from parcels where sdo_relate(geom, "
        "sdo_geometry('POLYGON ((2 2, 8 2, 8 5, 2 5, 2 2))'), "
        "'ANYINTERACT') = 'TRUE'"
    )
    print("query plan:")
    for (line,) in plan.rows:
        print(f"  {line}")

    window_count = db.sql(
        "select count(*) from parcels where sdo_relate(geom, "
        "sdo_geometry('POLYGON ((2 2, 8 2, 8 5, 2 5, 2 2))'), "
        "'ANYINTERACT') = 'TRUE'"
    ).scalar()
    print(f"actual rows in window: {window_count}")

    # ------------------------------------------------------------------
    # 3. Close the store and reopen it: the table comes back from its
    #    pages, the index is rebuilt from the table.
    # ------------------------------------------------------------------
    self_join = (
        "select count(*) from TABLE(spatial_join("
        "'parcels','geom','parcels','geom','intersect'))"
    )
    original = db.sql(self_join).scalar()
    db.close()
    size_kb = os.path.getsize(path) / 1024
    print(f"closed the store ({size_kb:.0f} KiB on disk)")

    reopened = Database.open(path)
    try:
        print(f"reopened {reopened.table('parcels').row_count} rows + "
              f"{len(reopened.catalog.indexes())} index(es)")
        recovered = reopened.sql(self_join).scalar()
    finally:
        reopened.close()
    assert original == recovered
    print(f"reopened store reproduces the self-join: "
          f"{recovered} pairs (matches original)")


if __name__ == "__main__":
    main()
