"""Cross-shard spatial joins must be bit-identical to single-node runs.

The acceptance bar for the cluster subsystem: concatenating the shard
streams yields *exactly* the single-node ``Database.spatial_join`` result
— zero duplicates, exact multiplicity — for both intersect and
within-distance predicates.  Shards are real forked processes reached
over the wire.  One cluster serves two references: the single-node join
as shipped (``[numpy]``) and the same join resolved by the scalar oracles
of ``tests/oracles.py`` (``[python]``).
"""

import random
from collections import Counter

import pytest

from repro import Database, Geometry
from repro.cluster.local import LocalCluster
from repro.geometry.mbr import MBR
from repro.geometry.wkt import to_wkt
from tests.oracles import IMPLS, kernel_impl

BOX = MBR(0.0, 0.0, 100.0, 100.0)
HALO = 2.0
N_ROWS = 140


def make_rows(n=N_ROWS, seed=31):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 94), rng.uniform(0, 94)
        rect = Geometry.rectangle(
            x, y, x + rng.uniform(0.3, 4.0), y + rng.uniform(0.3, 4.0)
        )
        rows.append([i, to_wkt(rect)])
    return rows


def single_node_pairs(rows, distance=0.0):
    db = Database()
    db.sql("create table shapes (id number, geom sdo_geometry)")
    db.sql(
        "create index shapes_sidx on shapes(geom) "
        "indextype is spatial_index parameters ('kind=RTREE')"
    )
    for row_id, wkt in rows:
        db.sql(f"insert into shapes values ({row_id}, sdo_geometry('{wkt}'))")
    table = db.table("shapes")
    result = db.spatial_join(
        "shapes", "geom", "shapes", "geom", distance=distance
    )
    pairs = [
        (table.value(a, "id"), table.value(b, "id")) for a, b in result.pairs
    ]
    db.close()
    return pairs


def cluster_join_pairs(cluster, distance=0.0):
    params = {
        "table_a": "shapes",
        "column_a": "geom",
        "table_b": "shapes",
        "column_b": "geom",
    }
    if distance:
        params["distance"] = distance
    with cluster.client() as client:
        session = client.start("spatial_join", params)
        return [(a, b) for a, b in session.rows(page=128)]


@pytest.fixture(scope="module")
def loaded_cluster():
    """A 3-shard loaded cluster, booted once for the module."""
    with LocalCluster(3, BOX, n_entries_hint=N_ROWS, halo=HALO) as cluster:
        cluster.create_spatial_table("shapes")
        cluster.load("shapes", make_rows())
        yield cluster


@pytest.fixture(scope="module", params=IMPLS)
def fleet(request, loaded_cluster):
    """The cluster plus single-node references resolved by the kernels
    (``numpy``) or by their scalar oracles (``python``)."""
    rows = make_rows()
    with kernel_impl(request.param):
        refs = {
            0.0: single_node_pairs(rows),
            1.5: single_node_pairs(rows, distance=1.5),
        }
    return request.param, loaded_cluster, refs


class TestClusterJoinExactness:
    @pytest.mark.parametrize("distance", [0.0, 1.5])
    def test_bit_identical_to_single_node(self, fleet, distance):
        _backend, cluster, refs = fleet
        got = cluster_join_pairs(cluster, distance=distance)
        want = refs[distance]
        assert len(got) == len(want), "pair count diverged"
        # Multiset equality: zero duplicates AND exact multiplicity, not
        # just the same set of pairs.
        assert Counter(got) == Counter(want)

    def test_no_cross_shard_duplicates(self, fleet):
        _backend, cluster, refs = fleet
        got = cluster_join_pairs(cluster)
        counts = Counter(got)
        dupes = {pair: n for pair, n in counts.items() if n > 1}
        want_dupes = {
            pair: n for pair, n in Counter(refs[0.0]).items() if n > 1
        }
        assert dupes == want_dupes

    def test_every_shard_contributes(self, fleet):
        _backend, cluster, _refs = fleet
        with cluster.client() as client:
            session = client.start(
                "spatial_join",
                {"table_a": "shapes", "column_a": "geom",
                 "table_b": "shapes", "column_b": "geom"},
            )
            total = 0
            while not session.eof:
                rows, _ = session.fetch(128)
                total += len(rows)
            summary = session.close()
        per_shard = summary["rows_per_shard"]
        assert set(per_shard) == {"0", "1", "2"}
        assert sum(per_shard.values()) == total == len(_refs_total(_refs))

    def test_distance_beyond_halo_rejected(self, fleet):
        from repro.server.client import RemoteError

        _backend, cluster, _refs = fleet
        with cluster.client() as client:
            with pytest.raises(RemoteError) as excinfo:
                client.start(
                    "spatial_join",
                    {"table_a": "shapes", "column_a": "geom",
                     "table_b": "shapes", "column_b": "geom",
                     "distance": HALO * 10},
                )
        assert "halo" in str(excinfo.value)


def _refs_total(refs):
    return refs[0.0]
