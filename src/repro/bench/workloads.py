"""Benchmark workload construction (shared by all bench files).

Scaling: the paper's full datasets (3230 counties, 250K stars, 230K block
groups) are tractable for the *simulated* cost model but not for repeated
pure-Python wall-clock runs, so each workload has a ``small`` profile used
by default and a ``paper`` profile selected with ``REPRO_BENCH_PROFILE=paper``.
Simulated times (the reported metric) are deterministic functions of the
data, so the small profile reproduces every *shape* claim; the paper
profile reproduces the full row counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import Database
from repro.datasets import (
    CONUS_INDEX_DOMAIN,
    blockgroups,
    cached_dataset,
    counties,
    load_geometries,
    stars,
)
from repro.geometry.geometry import Geometry

__all__ = ["profile", "CountiesWorkload", "StarsWorkload", "BlockgroupsWorkload"]


def profile() -> str:
    """Active bench profile from REPRO_BENCH_PROFILE (small|paper)."""
    value = os.environ.get("REPRO_BENCH_PROFILE", "small").lower()
    if value not in ("small", "paper"):
        raise ValueError(f"REPRO_BENCH_PROFILE must be small|paper, got {value!r}")
    return value


@dataclass
class CountiesWorkload:
    """Table 1 workload: the counties layer, R-tree indexed, self-joined."""

    db: Database
    n: int
    distances: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5)

    @classmethod
    def build(cls, prof: Optional[str] = None) -> "CountiesWorkload":
        prof = prof or profile()
        if prof == "paper":
            n, extent = 3230, (0.0, 0.0, 57.5, 25.0)
        else:
            # Scaled county count on a proportionally scaled extent so the
            # cell size (and hence the meaning of the paper's absolute
            # join distances 0.1/0.25/0.5) matches the full-scale layer.
            n, extent = 1000, (0.0, 0.0, 32.0, 14.0)
        db = Database()
        load_geometries(db, "counties", counties(n, seed=42, refine=6, extent=extent))
        db.create_spatial_index("counties_sidx", "counties", "geom", kind="RTREE")
        return cls(db=db, n=n)

    def index_join(
        self, distance: float, parallel: int = 1, strategy: str = "SWEEP"
    ):
        return self.db.spatial_join(
            "counties", "geom", "counties", "geom", distance=distance,
            parallel=parallel, strategy=strategy,
        )

    def nested_join(self, distance: float):
        return self.db.nested_loop_join(
            "counties", "geom", "counties", "geom", distance=distance
        )


@dataclass
class StarsWorkload:
    """Table 2 workload: star subsets, self-joined at several sizes."""

    dbs: Dict[int, Database]
    sizes: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        prof: Optional[str] = None,
        sizes: Optional[Tuple[int, ...]] = None,
        regen: bool = False,
    ) -> "StarsWorkload":
        """Build the star subsets (and their indexes) at the given sizes.

        ``sizes`` overrides the profile's sweep (the bench CLI's
        ``--sizes`` flag); generation goes through the disk cache keyed by
        ``(n, seed)`` so the 250K paper run pays polygon generation once
        per machine, and ``regen`` forces regeneration.
        """
        prof = prof or profile()
        if sizes is None:
            if prof == "paper":
                sizes = (25, 2_500, 25_000, 100_000, 250_000)
            else:
                sizes = (25, 2_500, 10_000, 25_000)
        sizes = tuple(sorted(sizes))
        full = cached_dataset("stars", stars, max(sizes), 1234, regen=regen)
        dbs: Dict[int, Database] = {}
        for size in sizes:
            db = Database()
            load_geometries(db, "stars", full[:size])
            db.create_spatial_index("stars_sidx", "stars", "geom", kind="RTREE")
            dbs[size] = db
        return cls(dbs=dbs, sizes=sizes)

    def index_join(self, size: int, parallel: int = 1, strategy: str = "SWEEP"):
        return self.dbs[size].spatial_join(
            "stars", "geom", "stars", "geom", parallel=parallel,
            strategy=strategy,
        )

    def nested_join(self, size: int):
        return self.dbs[size].nested_loop_join("stars", "geom", "stars", "geom")


@dataclass
class BlockgroupsWorkload:
    """Table 3 workload: complex polygons for parallel index creation."""

    db: Database
    n: int
    degrees: Tuple[int, ...] = (1, 2, 4)

    @classmethod
    def build(cls, prof: Optional[str] = None) -> "BlockgroupsWorkload":
        prof = prof or profile()
        n = 230_000 if prof == "paper" else 1_500
        db = Database()
        load_geometries(db, "blockgroups", blockgroups(n, seed=7))
        return cls(db=db, n=n)

    def create_quadtree(self, degree: int, tiling_level: int = 9):
        """Fresh quadtree build at the given parallel degree."""
        from repro.engine.parallel import make_executor
        from repro.core.index_build import create_quadtree_parallel
        from repro.geometry.mbr import MBR
        from repro.index.quadtree.quadtree import QuadtreeIndex

        index = QuadtreeIndex(
            f"bg_q_{degree}",
            self.db.table("blockgroups"),
            "geom",
            domain=MBR(*CONUS_INDEX_DOMAIN),
            tiling_level=tiling_level,
        )
        return create_quadtree_parallel(index, make_executor(degree, self.db.cost_model))

    def create_rtree(self, degree: int):
        from repro.engine.parallel import make_executor
        from repro.core.index_build import create_rtree_parallel
        from repro.index.rtree.spatial_index import RTreeIndex

        index = RTreeIndex(
            f"bg_r_{degree}", self.db.table("blockgroups"), "geom"
        )
        return create_rtree_parallel(index, make_executor(degree, self.db.cost_model))
