"""The linear quadtree domain index.

A linear quadtree is "tiles in a B-tree": index creation tessellates every
data geometry into fixed-level tiles and stores ``(tile_code, rowid)`` keys
in a B+-tree (paper §5: "computes tile approximations ... and creates
B-tree indexes on the encoded tile approximations").  Window queries
tessellate the query geometry and turn each query tile into a key-range
scan.

Query-time filter discipline follows Oracle's: a candidate found via an
*interior* tile of either side needs no secondary filter for ANYINTERACT
semantics; boundary-boundary matches go to the exact predicate.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import IndexBuildError, IndexTypeError
from repro.engine.indextype import DomainIndex
from repro.engine.parallel import WorkerContext
from repro.engine.table import Table
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import MBR
from repro.index.quadtree.codes import TileGrid
from repro.index.quadtree.tessellate import Tile, tessellate, tessellate_batch
from repro.storage.btree import BPlusTree
from repro.storage.heap import RowId

__all__ = ["QuadtreeIndex", "DEFAULT_TILING_LEVEL", "TESSELLATE_BATCH"]

DEFAULT_TILING_LEVEL = 8
# Rows tessellated per kernel call: the chunk that bounds the kernel's
# transient arrays.
TESSELLATE_BATCH = 64


class QuadtreeIndex(DomainIndex):
    """Spatial indextype backed by a fixed-level linear quadtree."""

    kind = "QUADTREE"

    def __init__(
        self,
        name: str,
        table: Table,
        column: str,
        domain: MBR,
        tiling_level: int = DEFAULT_TILING_LEVEL,
        btree_order: int = 64,
    ):
        super().__init__(name, table, column)
        self.grid = TileGrid(domain=domain, level=tiling_level)
        self.btree_order = btree_order
        # key: (tile_code, rowid) -> interior flag
        self.btree = BPlusTree(order=btree_order)

    @property
    def tiling_level(self) -> int:
        return self.grid.level

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, ctx: Optional[WorkerContext] = None) -> None:
        """Sequential creation: tessellate all rows, bulk-load the B-tree.

        (The parallel path — tessellation as a parallel table function
        feeding a parallel B-tree build — is in
        :mod:`repro.core.index_build`.)  Rows are tessellated
        ``TESSELLATE_BATCH`` at a time, as that table function does.
        """
        col = self.table.schema.index_of(self.column)
        rows = [(r, g) for r, g in self.table.scan_rings(col) if g is not None]
        items: List[Tuple[Tuple[int, RowId], bool]] = []
        for i in range(0, len(rows), TESSELLATE_BATCH):
            batch = self.tessellate_rows(rows[i : i + TESSELLATE_BATCH], ctx)
            items += [((code, rowid), interior) for code, rowid, interior in batch]
        items.sort(key=lambda kv: kv[0])
        self.btree = BPlusTree.bulk_load(items, order=self.btree_order)

    def insert(
        self, rowid: RowId, geom: Geometry, ctx: Optional[WorkerContext] = None
    ) -> None:
        for code, _rowid, interior in self.tessellate_rows([(rowid, geom)], ctx):
            self.btree.insert((code, rowid), interior)

    def tessellate_rows(
        self, rows: Sequence[Tuple[RowId, Any]], ctx: Optional[WorkerContext] = None
    ) -> List[Tuple[int, RowId, bool]]:
        """Index-table rows ``(tile_code, rowid, interior)`` of data rows
        ``(rowid, geometry)`` (a :class:`Geometry` or a
        :class:`~repro.geometry.packed.PackedRing`): one
        :func:`tessellate_batch` call, tiles in row order and code order
        within a row, one ``tile_insert`` charge per tile.

        Every geometry must lie inside the tiled square.  One outside it
        would get no tiles (or tiles for its inside part only) and silently
        drop out of window answers; Oracle rejects such a row with
        ORA-13011.  Query windows are clipped instead — they go to
        :func:`tessellate` directly.
        """
        rowids = [rowid for rowid, _geom in rows]
        try:
            owner, codes, interior = tessellate_batch(
                [geom for _rowid, geom in rows], self.grid, ctx, names=rowids
            )
        except IndexBuildError as exc:
            raise IndexBuildError(f"{self.name}: {exc}") from None
        if ctx is not None and len(codes):
            ctx.charge("tile_insert", len(codes))
        rowid = map(rowids.__getitem__, owner.tolist())
        return list(zip(codes.tolist(), rowid, interior.tolist()))

    def delete(
        self, rowid: RowId, geom: Geometry, ctx: Optional[WorkerContext] = None
    ) -> None:
        tiles = tessellate(geom, self.grid, ctx)
        if not tiles:
            return
        for tile in tiles:
            key = (tile.code, rowid)
            if key not in self.btree:
                raise IndexTypeError(
                    f"{self.name}: tile {tile.code} for {rowid} missing from index"
                )
            self.btree.delete(key)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def fetch(
        self,
        operator: str,
        args: Sequence[Any],
        ctx: Optional[WorkerContext] = None,
        exact: bool = True,
    ) -> Iterator[RowId]:
        op, form = self._parse_probe(operator, args)
        query: Geometry = args[0]
        if ctx is not None:
            # Fixed cost of one operator invocation through the framework.
            ctx.charge("index_probe")

        if op.index_hint == "MBR_DISTANCE":
            window_mbr = query.mbr.expand(form[1]).intersection(
                self.grid.quadrant_mbr(0, 0, 0)
            )
            if window_mbr.is_empty or window_mbr.area == 0.0:
                return
            window = Geometry.from_mbr(window_mbr)
        else:
            window = query

        candidates = self._primary_filter(window, ctx)

        if form is None or not exact:
            yield from sorted(candidates)
            return

        # Interior-tile certainty: only valid for plain intersection.
        plain = form[0].upper() in ("ANYINTERACT", "INTERSECT")
        certain = candidates if op.name == "SDO_RELATE" and plain else None
        yield from self._refine(op, args, form, sorted(candidates), ctx, certain)

    def _primary_filter(
        self, window: Geometry, ctx: Optional[WorkerContext]
    ) -> Dict[RowId, bool]:
        """Tile-match the window against the index.

        Returns candidate rowids mapped to a certainty flag: True when the
        match came through an interior tile (of the query or of the data),
        so intersection is guaranteed without the secondary filter.
        """
        candidates: Dict[RowId, bool] = {}
        hook = self.btree.visit_hook
        try:
            if ctx is not None:
                self.btree.visit_hook = lambda _leaf: ctx.charge("btree_node_visit")
            for qtile in tessellate(window, self.grid, ctx):
                lo = (qtile.code,)
                hi = (qtile.code + 1,)
                for (code, rowid), interior in self.btree.scan(
                    lo, hi, include_hi=False
                ):
                    certain = qtile.interior or interior
                    if rowid in candidates:
                        candidates[rowid] = candidates[rowid] or certain
                    else:
                        candidates[rowid] = certain
        finally:
            self.btree.visit_hook = hook
        return candidates

    # ------------------------------------------------------------------
    def tile_count(self) -> int:
        return len(self.btree)

    def tiles_of(self, rowid: RowId) -> List[Tile]:
        """All tiles stored for one rowid (diagnostic; full index scan)."""
        return [
            Tile(code, interior)
            for (code, rid), interior in self.btree.items()
            if rid == rowid
        ]
