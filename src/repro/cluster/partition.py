"""Shard placement: which shard owns which tile, and where rows live.

The whole cluster shares one :class:`~repro.core.grid_partition.GridSpec`
over the data domain.  Tile ids are split into **contiguous blocks**, one
per shard (``shard_of_tile``); a row's *primary* shard is the owner of
the tile holding its MBR's low corner — the same canonical-tile notion
the grid join's two-layer duplicate avoidance uses, so "exactly one tile
emits a pair" composes with "exactly one shard owns a tile" into "exactly
one shard emits a pair".

Rows are additionally **halo replicated**: a copy goes to every shard
whose owned tiles the row's MBR, expanded by the halo distance, overlaps.
That makes shard-local joins self-contained for any join distance up to
the halo (the router rejects wider ones), at a storage cost proportional
to perimeter rather than area.

Everything here bins MBRs through
:func:`~repro.core.grid_partition.tile_ranges_of`, i.e. through the same
``tile_ranges_batch`` kernel the join's replica assignment uses —
placement and query-time filtering are bit-identical by construction.
Batches (a ``put``'s rows, a shard's window candidates) bin in one call.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.grid_partition import GridSpec, tile_range_of, tile_ranges_of
from repro.errors import ServerError
from repro.geometry.mbr import MBR

__all__ = [
    "ClusterError",
    "GridPartitioner",
]


class ClusterError(ServerError):
    """A cluster-level configuration or routing failure."""


class GridPartitioner:
    """Space partitioning of one global grid across ``nshards`` shards.

    ``shard`` is set on the copy a shard receives over the wire (so
    shard-local filters know who they are); the router's own instance
    leaves it ``None``.
    """

    def __init__(
        self,
        spec: GridSpec,
        nshards: int,
        halo: float = 0.0,
        shard: Optional[int] = None,
    ):
        if nshards < 1:
            raise ClusterError(f"nshards must be >= 1, got {nshards}")
        if halo < 0.0:
            raise ClusterError(f"halo must be >= 0, got {halo}")
        self.spec = spec
        self.nshards = nshards
        self.halo = float(halo)
        self.shard = shard

    # -- ownership ------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return self.spec.tiles

    def shard_of_tile(self, tile_id: int) -> int:
        """Owner of one tile: contiguous blocks, monotone in tile id."""
        if not 0 <= tile_id < self.n_tiles:
            raise ClusterError(
                f"tile id {tile_id} out of range (0..{self.n_tiles - 1})"
            )
        return min(tile_id * self.nshards // self.n_tiles, self.nshards - 1)

    def owned_tiles(self, shard: Optional[int] = None) -> Set[int]:
        """The set of tile ids one shard owns (defaults to ``self.shard``)."""
        shard = self.shard if shard is None else shard
        if shard is None:
            raise ClusterError("owned_tiles() needs a shard id")
        # Ownership is monotone in tile id, so the block is a range; find
        # its bounds arithmetically instead of scanning every tile.
        lo = _first_tile_of(shard, self.nshards, self.n_tiles)
        hi = _first_tile_of(shard + 1, self.nshards, self.n_tiles)
        return set(range(lo, hi))

    # -- row/query routing ----------------------------------------------
    def primary_tile(self, mbr: MBR) -> int:
        ix0, _ix1, iy0, _iy1 = tile_range_of(self.spec, mbr, 0.0)
        return self.spec.tile_id(ix0, iy0)

    def primary_shard(self, mbr: MBR) -> int:
        """The one shard that owns this MBR's low-corner tile."""
        return self.shard_of_tile(self.primary_tile(mbr))

    def window_owner(self, mbr: MBR, window: MBR, expand: float = 0.0) -> int:
        """The one shard that emits this row for one window query:
        :meth:`window_owners` on a one-row batch."""
        return int(self.window_owners([mbr], window, expand)[0])

    def window_owners(
        self, mbrs: Sequence[MBR], window: MBR, expand: float = 0.0
    ) -> np.ndarray:
        """The emitting shard of every row MBR for one window query.

        The two-layer canonical-tile rule, applied to windows: clamp each
        row MBR's low corner into the search region (``window`` expanded
        by ``expand``) and take the owner of the tile holding the clamped
        corner.  The corner lies inside the row's MBR, so the owning
        shard always holds a copy of the row (replicas cover every tile
        the MBR overlaps); and it lies inside the search region, so the
        router only needs to scatter a window query to
        ``shards_for_mbr(window, expand)`` — every other shard would emit
        nothing.  One emitter per (row, window), no router-side dedup.

        One binning call for the whole candidate array; tiles map to
        shards with array arithmetic.
        """
        cx = np.maximum([m.min_x for m in mbrs], window.min_x - expand)
        cy = np.maximum([m.min_y for m in mbrs], window.min_y - expand)
        ix, _ix1, iy, _iy1 = tile_ranges_of(self.spec, (cx, cy, cx, cy))
        tiles = np.asarray(iy, np.intp) * self.spec.nx + np.asarray(ix, np.intp)
        return np.minimum(tiles * self.nshards // self.n_tiles, self.nshards - 1)

    def shards_for_mbr(self, mbr: MBR, expand: Optional[float] = None) -> Set[int]:
        """Every shard whose owned tiles the (expanded) MBR overlaps:
        :meth:`shards_for_mbrs` on a one-row batch."""
        return self.shards_for_mbrs([mbr], expand)[0]

    def shards_for_mbrs(
        self, mbrs: Sequence[MBR], expand: Optional[float] = None
    ) -> List[Set[int]]:
        """Every shard whose owned tiles each (expanded) MBR overlaps.

        With ``expand`` defaulting to the halo this is the *replica set*
        of a row: the shards that must hold a copy for shard-local joins
        up to the halo distance to be exact.  One binning call for the
        whole batch.
        """
        expand = self.halo if expand is None else expand
        ranges = tile_ranges_of(
            self.spec,
            (
                array("d", [m.min_x for m in mbrs]),
                array("d", [m.min_y for m in mbrs]),
                array("d", [m.max_x for m in mbrs]),
                array("d", [m.max_y for m in mbrs]),
            ),
            expand,
        )
        out: List[Set[int]] = []
        for ix0, ix1, iy0, iy1 in zip(*ranges):
            shards: Set[int] = set()
            for iy in range(iy0, iy1 + 1):
                # Tile ids along one grid row are consecutive, and ownership
                # is monotone in tile id: the row's owners are a shard range.
                lo = self.shard_of_tile(self.spec.tile_id(ix0, iy))
                hi = self.shard_of_tile(self.spec.tile_id(ix1, iy))
                shards.update(range(lo, hi + 1))
            out.append(shards)
        return out

    def tile_blocks(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(shard, first_tile, last_tile_exclusive)`` blocks."""
        for shard in range(self.nshards):
            lo = _first_tile_of(shard, self.nshards, self.n_tiles)
            hi = _first_tile_of(shard + 1, self.nshards, self.n_tiles)
            yield shard, lo, hi

    # -- wire -----------------------------------------------------------
    def for_shard(self, shard: int) -> "GridPartitioner":
        if not 0 <= shard < self.nshards:
            raise ClusterError(f"shard {shard} out of range (0..{self.nshards - 1})")
        return GridPartitioner(self.spec, self.nshards, self.halo, shard)

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {
            "spec": {
                "min_x": self.spec.min_x,
                "min_y": self.spec.min_y,
                "tile_w": self.spec.tile_w,
                "tile_h": self.spec.tile_h,
                "nx": self.spec.nx,
                "ny": self.spec.ny,
            },
            "shards": self.nshards,
            "halo": self.halo,
        }
        if self.shard is not None:
            wire["shard"] = self.shard
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "GridPartitioner":
        spec = wire["spec"]
        return cls(
            GridSpec(
                float(spec["min_x"]),
                float(spec["min_y"]),
                float(spec["tile_w"]),
                float(spec["tile_h"]),
                int(spec["nx"]),
                int(spec["ny"]),
            ),
            int(wire["shards"]),
            float(wire.get("halo", 0.0)),
            int(wire["shard"]) if "shard" in wire else None,
        )

    @classmethod
    def build(
        cls,
        box: MBR,
        nshards: int,
        n_entries: int,
        halo: float = 0.0,
    ) -> "GridPartitioner":
        """Choose a grid over the data domain and split it across shards.

        Reuses :func:`~repro.engine.cost.pick_grid_shape` (same heuristic
        as the parallel grid join, with the shard count as the degree),
        then widens the grid if needed so every shard owns at least one
        tile.
        """
        from repro.core.grid_partition import build_grid_spec
        from repro.engine.cost import pick_grid_shape

        if nshards < 1:
            raise ClusterError(f"nshards must be >= 1, got {nshards}")
        nx, ny = pick_grid_shape(n_entries, n_entries, nshards)
        while nx * ny < nshards:
            nx += 1
        return cls(build_grid_spec(box, nx, ny), nshards, halo)


def _first_tile_of(shard: int, nshards: int, n_tiles: int) -> int:
    """Smallest tile id owned by ``shard`` (= ``n_tiles`` for the end mark).

    Inverse of ``shard_of_tile``: the block boundary is the ceiling of
    ``shard * n_tiles / nshards``.
    """
    if shard >= nshards:
        return n_tiles
    return -(-shard * n_tiles // nshards)
