"""The correctness gate's reference answers.

Independent of everything the benchmark times: a brute-force MBR + exact
scan over the generated geometries using the scalar predicates in
``repro.geometry.predicates`` / ``distance`` (the numpy kernels are the
thing under test), and the paper's nested-loop join on a fixed subsample.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Sequence, Set, Tuple

from repro import Database
from repro.datasets import load_geometries
from repro.geometry.distance import distance
from repro.geometry.geometry import Geometry
from repro.geometry.predicates import intersects


def window_ids(geoms: Sequence[Geometry], window: Geometry) -> Set[int]:
    """Positions of the geometries that interact with ``window``."""
    wmbr = window.mbr
    return {
        i
        for i, geom in enumerate(geoms)
        if geom.mbr.intersects(wmbr) and intersects(geom, window)
    }


def knn_distances(geoms: Sequence[Geometry], query: Geometry, k: int) -> List[float]:
    """The k smallest exact distances (ids may tie; distances may not).

    Every geometry is ranked by the distance between MBRs — a lower bound
    of the exact distance — and exact distances are taken in that order
    until the bound passes the k-th best, so the scan stays exhaustive
    without 12 000 exact tests per probe.
    """
    q = query.mbr

    def lower_bound(geom: Geometry) -> float:
        m = geom.mbr
        dx = max(m.min_x - q.max_x, q.min_x - m.max_x, 0.0)
        dy = max(m.min_y - q.max_y, q.min_y - m.max_y, 0.0)
        return math.hypot(dx, dy)

    best: List[float] = []
    for bound, i in sorted((lower_bound(g), i) for i, g in enumerate(geoms)):
        if len(best) == k and bound > best[-1]:
            break
        bisect.insort(best, distance(geoms[i], query))
        del best[k:]
    return best


def nested_loop_ids(geoms: Sequence[Geometry], dist: float) -> Set[Tuple[int, int]]:
    """``Database.nested_loop_join`` over ``geoms`` — the paper's baseline."""
    db = Database()
    table = load_geometries(db, "oracle", geoms)
    db.create_spatial_index("oracle_sidx", "oracle", "geom", kind="RTREE")
    result = db.nested_loop_join(
        "oracle", "geom", "oracle", "geom", mask="ANYINTERACT", distance=dist
    )
    ids = {rowid: row[0] for rowid, row in table.scan()}
    return {(ids[a], ids[b]) for a, b in result.pairs}
