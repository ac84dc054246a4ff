"""The :class:`Database` façade — the library's main entry point.

Owns the pager, buffer pool, catalog, tables and domain indexes, and
exposes the paper's operations at one call depth:

* ``create_table`` / ``table`` / ``drop_table``
* ``create_spatial_index`` (serial or parallel, R-tree or quadtree)
* ``spatial_join`` (serial or parallel index-based join)
* ``nested_loop_join`` (the baseline)
* ``select_rowids`` (single-table operator queries through the index)
* ``sql`` (the SQL front-end; see :mod:`repro.engine.sql`)
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, EngineError, FaultError, JoinError, StorageError
from repro.engine.cost import CostModel, DEFAULT_COST_MODEL
from repro.engine.indextype import (
    OPERATORS,
    DomainIndex,
    IndexTypeRegistry,
    exact_verdicts,
)
from repro.engine.parallel import (
    ParallelExecutor,
    SerialExecutor,
    WorkerContext,
    make_executor,
)
from repro.engine.table import Table
from repro.geometry.geometry import Geometry
from repro.geometry.mbr import EMPTY_MBR, MBR
from repro.geometry.packed import as_geometry
from repro.obs import trace
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog, ColumnMeta, IndexMeta, TableMeta
from repro.storage.checksum import crc32c, mask_crc
from repro.storage.codec import decode_row, encode_row
from repro.storage.heap import HeapFile, RowId
from repro.storage.pager import PAGE_SIZE, FilePager, MemoryPager, Pager
from repro.storage.wal import WalPager

__all__ = ["Database"]

# Meta-snapshot page chain (rooted at page 0 of a file-backed database):
#   magic u32 | next page u32 (NO_PAGE = end) | chunk_len u32 | crc u32 | chunk
_META_MAGIC = 0x52504D31  # "RPM1"
_META_HDR = struct.Struct("<IIII")
_META_NO_PAGE = 0xFFFFFFFF
# SNAP3: each table entry ends with its (optional) columnar-segment snapshot;
# each index entry is the definition create_spatial_index rebuilds it from.
_SNAP_VERSION = "SNAP3"


class Database:
    """An in-process spatial database instance."""

    def __init__(
        self,
        pager: Optional[Pager] = None,
        buffer_capacity: int = 1024,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        self.pager = pager if pager is not None else MemoryPager()
        self.pool = BufferPool(self.pager, capacity=buffer_capacity)
        self.catalog = Catalog()
        self.cost_model = cost_model
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, DomainIndex] = {}
        self._stats: Dict[str, Any] = {}
        self.indextypes = IndexTypeRegistry()
        self.durability = "memory"  # "memory" | "wal" (after open)
        self.path: Optional[str] = None
        self._meta_pages: List[int] = []
        self._register_builtin_indextypes()

    def _register_builtin_indextypes(self) -> None:
        from repro.index.quadtree.quadtree import QuadtreeIndex
        from repro.index.rtree.spatial_index import RTreeIndex

        self.indextypes.register("RTREE", RTreeIndex)
        self.indextypes.register("QUADTREE", QuadtreeIndex)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, columns: Sequence[Tuple[str, str]]
    ) -> Table:
        """Create a heap table. ``columns`` is [(name, type_tag), ...]."""
        meta = TableMeta(
            name=name,
            columns=[ColumnMeta(cname, ctype) for cname, ctype in columns],
            heap_name=f"{name}_heap",
        )
        self.catalog.register_table(meta)
        heap = HeapFile(self.pool, name=meta.heap_name)
        table = Table(meta, heap)
        self._tables[name.upper()] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self._tables.pop(name.upper(), None)
        stale = [
            iname
            for iname, idx in self._indexes.items()
            if idx.table.name.upper() == name.upper()
        ]
        for iname in stale:
            del self._indexes[iname]

    # ------------------------------------------------------------------
    # Spatial index DDL
    # ------------------------------------------------------------------
    def create_spatial_index(
        self,
        name: str,
        table_name: str,
        column: str,
        kind: str = "RTREE",
        parallel: int = 1,
        use_processes: bool = False,
        maintain: bool = True,
        **parameters: Any,
    ) -> Tuple[DomainIndex, "BuildReportLike"]:
        """Create a spatial index, optionally in parallel.

        ``parallel`` is the paper's PARALLEL clause degree; degree > 1 runs
        the table-function build paths of §5 (on simulated workers by
        default, real slave processes with ``use_processes``).
        ``maintain=True`` hooks the index to base-table DML.  Returns
        ``(index, build_report)``.
        """
        from repro.core.index_build import (
            BuildReport,
            create_quadtree_parallel,
            create_rtree_parallel,
        )

        table = self.table(table_name)
        # A taken name fails before any build work or DML hook.
        if self.catalog.has_index(name):
            raise CatalogError(f"index {name!r} already exists")
        kind = kind.upper()
        if kind == "QUADTREE" and "domain" not in parameters:
            parameters["domain"] = self._infer_domain(table, column)

        # A bad degree fails before the index is registered.
        executor = make_executor(parallel, self.cost_model, use_processes)
        index = self.indextypes.create(kind, name, table, column, **parameters)

        # Every build goes through the table-function path so degree 1 and
        # degree N run the same code under one cost model.
        if kind == "QUADTREE":
            report = create_quadtree_parallel(index, executor)
        elif kind == "RTREE":
            report = create_rtree_parallel(index, executor)
        else:
            ctx = WorkerContext(0)
            index.create(ctx)
            report = BuildReport(kind=kind, degree=1, run=executor.run([]))

        # The definition a reopen rebuilds the index from: the quadtree's
        # domain is recorded even when inferred, since the data can move.
        meta = IndexMeta(
            name=name,
            table_name=table_name,
            column_name=column,
            index_kind=kind,
            parameters=dict(parameters),
            parallel_degree=parallel,
        )
        self.catalog.register_index(meta)
        self._indexes[name.upper()] = index
        if maintain:
            index.attach_maintenance()
        return index, report

    def spatial_index(self, name: str) -> DomainIndex:
        try:
            return self._indexes[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def spatial_index_on(self, table_name: str, column: str) -> DomainIndex:
        meta = self.catalog.spatial_index_on(table_name, column)
        if meta is None:
            raise CatalogError(
                f"no spatial index on {table_name}.{column}; create one first"
            )
        return self._indexes[meta.name.upper()]

    def drop_index(self, name: str) -> None:
        self.catalog.drop_index(name)
        index = self._indexes.pop(name.upper(), None)
        if index is not None:
            index.detach_maintenance()

    def _infer_domain(self, table: Table, column: str) -> MBR:
        domain = EMPTY_MBR
        col = table.schema.index_of(column)
        for _rowid, mbr, _nv, _geometry in table.scan_bounds(col):
            if mbr is not None:
                domain = domain.union(mbr)
        if domain.is_empty:
            raise EngineError(
                f"cannot infer quadtree domain: {table.name}.{column} has no data"
            )
        return domain.expand(max(domain.width, domain.height) * 0.01 + 1e-9)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select_rowids(
        self,
        table_name: str,
        column: str,
        operator: str,
        args: Sequence[Any],
        ctx: Optional[WorkerContext] = None,
    ) -> Iterator[RowId]:
        """Single-table operator query through the spatial index."""
        index = self.spatial_index_on(table_name, column)
        return index.fetch(operator, args, ctx)

    def spatial_join(
        self,
        table_a: str,
        column_a: str,
        table_b: str,
        column_b: str,
        mask: str = "ANYINTERACT",
        distance: float = 0.0,
        parallel: int = 1,
        use_processes: bool = False,
        **options: Any,
    ) -> "JoinResultLike":
        """Index-based spatial join: the one place a (strategy, degree)
        pair picks its driver, for the API, SQL and the wire alike.

        Both columns must carry R-tree indexes (the paper's join traverses
        the two associated R-trees).  ``strategy`` is a
        :class:`~repro.index.rtree.join.JoinStrategy` or its name.  GRID at
        any degree is :func:`~repro.core.parallel_join.grid_parallel_join`
        (space-oriented tiles with two-layer duplicate avoidance) on the
        degree's executor; otherwise ``parallel > 1`` uses the subtree
        decomposition of §4.1 and degree 1 the serial join, each pairing
        entries by SWEEP or NESTED.  ``use_processes`` runs the tasks on
        real slave processes (multiple cores) instead of simulated workers.
        A bad mask or distance is an ``OperatorError``, a degree < 1 an
        ``EngineError``.
        """
        from repro.core.parallel_join import (
            grid_parallel_join,
            parallel_spatial_join,
            spatial_join,
        )
        from repro.core.secondary_filter import JoinPredicate
        from repro.index.rtree.join import JoinStrategy

        strategy = JoinStrategy.of(options.pop("strategy", JoinStrategy.SWEEP))
        tree_a = self._rtree_of(table_a, column_a)
        tree_b = self._rtree_of(table_b, column_b)
        predicate = JoinPredicate(mask=mask, distance=distance)
        # EngineError for a degree < 1, as in create_spatial_index
        executor = make_executor(parallel, self.cost_model, use_processes)
        inputs = (
            self.table(table_a),
            column_a,
            tree_a,
            self.table(table_b),
            column_b,
            tree_b,
        )
        if strategy is JoinStrategy.GRID:
            return grid_parallel_join(
                *inputs, executor, predicate=predicate, **options
            )
        if parallel > 1:
            return parallel_spatial_join(
                *inputs, executor, predicate=predicate, strategy=strategy,
                **options,
            )
        return spatial_join(
            *inputs, predicate=predicate, executor=executor, strategy=strategy,
            **options,
        )

    def nested_loop_join(
        self,
        outer_table: str,
        outer_column: str,
        inner_table: str,
        inner_column: str,
        mask: str = "ANYINTERACT",
        distance: float = 0.0,
    ) -> "JoinResultLike":
        """The pre-9i baseline: per-row index probes of the inner table."""
        from repro.core.nested_loop import nested_loop_join
        from repro.core.secondary_filter import JoinPredicate

        inner_index = self.spatial_index_on(inner_table, inner_column)
        return nested_loop_join(
            self.table(outer_table),
            outer_column,
            inner_index,
            JoinPredicate(mask=mask, distance=distance),
            executor=SerialExecutor(self.cost_model),
        )

    # ------------------------------------------------------------------
    # Columnar compaction + window scans
    # ------------------------------------------------------------------
    def compact_table(
        self,
        table_name: str,
        column: Optional[str] = None,
        chunk_rows: Optional[int] = None,
    ) -> "Table":
        """Compact a table's current rows into a columnar segment.

        The slotted heap stays the write format and the store of record;
        the segment is a frozen read image whose chunk directory carries
        zone maps for scan pruning.  ``column`` names the geometry column
        to columnarise (defaults to the table's single SDO_GEOMETRY
        column); ``chunk_rows`` overrides the chunk width.  Re-compacting
        folds the post-compaction DML journal back in.  On a file-backed
        database the new state is checkpointed so the chunk pages (and
        the directory, in the meta snapshot) are durable.
        """
        from repro.storage.columnar import DEFAULT_CHUNK_ROWS, build_segment

        table = self.table(table_name)
        if column is None:
            geom_cols = [
                c.name
                for c in table.meta.columns
                if c.type_tag.upper() == "SDO_GEOMETRY"
            ]
            if len(geom_cols) != 1:
                raise EngineError(
                    f"compact_table({table_name!r}) needs an explicit column: "
                    f"found {len(geom_cols)} geometry columns"
                )
            column = geom_cols[0]
        geom_col = table.schema.index_of(column)
        # Build from the heap directly: it holds the current version of
        # every row regardless of any previous segment's journal.
        table.columnar = None
        table.columnar = build_segment(
            table.heap,
            self.pool,
            geom_col,
            chunk_rows=chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS,
        )
        if self.path is not None:
            self.checkpoint()
        return table

    def window_scan(
        self,
        table_name: str,
        column: str,
        window: Geometry,
        distance: float = 0.0,
        exact: bool = True,
        ctx: Optional[WorkerContext] = None,
    ) -> List[RowId]:
        """Window query by table scan (no index): primary + secondary filter.

        On a plain heap table every row's stored ordinates are bounded and
        MBR-tested (:meth:`Table.scan_bounds`), and only the rows that pass
        are read for the exact test, a one-ring polygon as a packed ring.  On a
        compacted table the primary filter consults the chunk directory's
        zone maps first — chunks whose zone cannot intersect the window
        are skipped for a ``zone_skip`` charge without reading their
        pages — and survivors are batch-MBR-filtered straight off the
        chunk planes; journaled rows fall back to the heap.  Both paths
        return the same rowids in ascending order.
        """
        # Distance 0 is the intersection test.
        op = OPERATORS["SDO_WITHIN_DISTANCE"]
        args = (window, distance)
        form = op.pair_form(args)
        table = self.table(table_name)
        col = table.schema.index_of(column)
        qmbr = window.mbr
        box = (qmbr.min_x, qmbr.min_y, qmbr.max_x, qmbr.max_y)

        def box_hits(mbr: MBR) -> bool:
            # Same closed-interval gap test as kernels.mbr_filter_indices.
            return not (
                box[0] - mbr.max_x > distance
                or mbr.min_x - box[2] > distance
                or box[1] - mbr.max_y > distance
                or mbr.min_y - box[3] > distance
            )

        candidates: List[Tuple[RowId, Any]] = []
        seg = table.columnar
        if seg is not None:
            candidates.extend(seg.window_candidates(box, distance, ctx))
            for rowid in sorted(seg.stale | seg.fresh):
                geom = table.fetch_packed(rowid, col, ctx)
                if geom is None:
                    continue
                if ctx is not None:
                    ctx.charge("mbr_test")
                if box_hits(as_geometry(geom).mbr):
                    candidates.append((rowid, geom))
            candidates.sort(key=lambda c: (c[0].page, c[0].slot))
        else:
            # Only the rows whose MBR passes are decoded, and only for the
            # exact test.
            for rowid, mbr, _nv, geometry in table.scan_bounds(col):
                if mbr is None:
                    continue
                if ctx is not None:
                    ctx.charge("mbr_test")
                if box_hits(mbr):
                    candidates.append((rowid, geometry() if exact else None))
        if not exact:
            return [rowid for rowid, _geom in candidates]

        verdicts, _batched = exact_verdicts(
            op, args, form, [geom for _rowid, geom in candidates], ctx
        )
        results = [
            rowid
            for (rowid, _geom), ok in zip(candidates, verdicts)
            if ok
        ]
        if ctx is not None and results:
            ctx.charge("result_row", len(results))
        return results

    def _rtree_of(self, table_name: str, column: str):
        from repro.index.rtree.spatial_index import RTreeIndex

        index = self.spatial_index_on(table_name, column)
        if not isinstance(index, RTreeIndex):
            raise JoinError(
                f"spatial_join requires R-tree indexes; {index.name} is "
                f"{index.kind}"
            )
        return index.tree

    def rtree_of(self, table_name: str, column: str):
        """The R-tree backing ``table.column``'s spatial index.

        Public accessor used by layers that drive the join table function
        directly (e.g. the query service's streaming sessions).
        """
        return self._rtree_of(table_name, column)

    # ------------------------------------------------------------------
    # Durability: open / checkpoint / close
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str,
        durability: str = "wal",
        page_size: int = PAGE_SIZE,
        buffer_capacity: int = 1024,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        fault_plan: Any = None,
    ) -> "Database":
        """Open (or create) a file-backed database at ``path``.

        The file is wrapped in a :class:`~repro.storage.wal.WalPager`:
        page writes go through a checksummed write-ahead log,
        :meth:`checkpoint`/:meth:`close` are atomic durability points, and
        reopening after a crash at *any* instant recovers the last
        checkpointed state (replaying the log and repairing torn pages).
        ``durability`` names that failure model; ``"wal"`` is its only
        value, and any other raises ``EngineError``.

        ``fault_plan`` (tests only) threads a
        :class:`~repro.storage.fault.FaultPlan` through every file the
        store opens, so crash tests can kill the simulated process at
        arbitrary write offsets and named sites.
        """
        if not isinstance(durability, str) or durability.lower() != "wal":
            raise EngineError(f"unknown durability mode {durability!r} (use 'wal')")
        opener = fault_plan.opener() if fault_plan is not None else None
        pager: Pager = FilePager(path, page_size=page_size, strict=False, opener=opener)
        try:
            pager = WalPager(pager, path + ".wal", opener=opener, fault_plan=fault_plan)
            db = cls(pager=pager, buffer_capacity=buffer_capacity, cost_model=cost_model)
            db.durability = "wal"
            db.path = path
            if pager.num_pages > 0:
                db._load_snapshot()
            else:
                # Reserve page 0 as the meta-snapshot root before any heap
                # can claim it.
                root = db.pool.allocate()
                assert root == 0
                db._meta_pages = [0]
        except FaultError:
            raise  # a simulated kill leaves its files open, as a dead process does
        except Exception:
            pager.close()  # a refused store is closed, not left to the collector
            raise
        return db

    def commit(self) -> int:
        """Durable commit; returns the commit LSN.

        Writes the meta snapshot (catalog, heap page lists, columnar
        directories and index definitions) into the page-0 chain and
        flushes the buffer pool's dirty pages.  The log is committed but
        not truncated, so a replication follower tailing it
        still sees every record up to this commit (the LSN is what a router
        waits for its follower to ack).  Nothing written depends on index
        size: indexes are rebuilt from their tables when the store opens.
        A crash before the WAL commit leaves the previous commit intact;
        after it, recovery completes this one.
        """
        if self.path is None:
            raise EngineError(
                "commit() and checkpoint() require a file-backed database"
            )
        self._write_meta_chain(encode_row(self._build_snapshot()))
        self.pool.flush()
        return self.pager.commit()

    def checkpoint(self) -> None:
        """:meth:`commit`, then write the log back into the main file and
        truncate it, so the main file holds exactly this state."""
        self.commit()
        self.pager.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Close the database, checkpointing first if file-backed."""
        if self.path is not None and checkpoint:
            self.checkpoint()
        self.pager.close()

    def storage_stats(self) -> Dict[str, Any]:
        """Storage counters for monitoring (the server's stats endpoint)."""
        stats: Dict[str, Any] = {
            "durability": self.durability,
            "num_pages": self.pager.num_pages,
            "page_size": self.pager.page_size,
            "physical_reads": self.pager.stats.reads,
            "physical_writes": self.pager.stats.writes,
            "buffer_hit_ratio": round(self.pool.stats.hit_ratio, 4),
            "prefetches": self.pool.stats.prefetches,
            "prefetch_hits": self.pool.stats.prefetch_hits,
            "wal_bytes": 0,
            "recovered_pages": 0,
        }
        segments = [
            t.columnar for t in self._tables.values() if t.columnar is not None
        ]
        stats["columnar_segments"] = len(segments)
        stats["columnar_chunks"] = sum(len(s.chunks) for s in segments)
        stats["columnar_pages"] = sum(s.page_count for s in segments)
        stats["columnar_journal_rows"] = sum(s.journal_size() for s in segments)
        stats["columnar_zone_prunes"] = sum(s.zone_prunes for s in segments)
        extra = getattr(self.pager, "storage_stats", None)
        if extra is not None:
            stats.update(extra())
        return stats

    # -- snapshot construction -----------------------------------------
    def _build_snapshot(self) -> Tuple[Any, ...]:
        from repro.storage.columnar import segment_snapshot

        tables = []
        for meta in self.catalog.tables():
            table = self.table(meta.name)
            pages, row_count = table.heap.pages_snapshot()
            columns = tuple((c.name, c.type_tag) for c in meta.columns)
            seg_snap = (
                segment_snapshot(table.columnar)
                if table.columnar is not None
                else None
            )
            tables.append((meta.name, columns, pages, row_count, seg_snap))
        indexes = tuple(
            (
                imeta.name,
                imeta.table_name,
                imeta.column_name,
                imeta.index_kind,
                imeta.parallel_degree,
                tuple(sorted(imeta.parameters.items())),
            )
            for imeta in self.catalog.indexes()
        )
        return (_SNAP_VERSION, tuple(tables), indexes)

    def _load_snapshot(self) -> None:
        blob = self._read_meta_chain()
        if blob is None:
            # A store that was created but never checkpointed.
            self._meta_pages = [0] if self.pager.num_pages > 0 else []
            if not self._meta_pages:
                self.pool.allocate()
                self._meta_pages = [0]
            return
        record = decode_row(blob)
        if not record or record[0] != _SNAP_VERSION:
            raise StorageError(
                f"meta snapshot has unknown version {record[0] if record else '?'!r}"
            )
        _version, tables, indexes = record
        for name, columns, pages, row_count, seg_snap in tables:
            meta = TableMeta(
                name=name,
                columns=[ColumnMeta(cname, ctype) for cname, ctype in columns],
                heap_name=f"{name}_heap",
            )
            self.catalog.register_table(meta)
            heap = HeapFile(self.pool, name=meta.heap_name)
            heap.restore_pages(pages, row_count)
            table = Table(meta, heap)
            if seg_snap is not None:
                from repro.storage.columnar import segment_from_snapshot

                table.columnar = segment_from_snapshot(self.pool, seg_snap)
            self._tables[name.upper()] = table
        # Indexes are derived state: rebuild each from its table, at its
        # recorded degree on simulated workers (opening never forks).
        with trace.span("database.rebuild_indexes", indexes=len(indexes)):
            for iname, tname, column, kind, degree, params in indexes:
                self.create_spatial_index(
                    iname, tname, column, kind=kind, parallel=degree, **dict(params)
                )

    # -- meta page chain -----------------------------------------------
    def _write_meta_chain(self, blob: bytes) -> None:
        page_size = self.pool.page_size
        capacity = page_size - _META_HDR.size
        chunks = [blob[i : i + capacity] for i in range(0, len(blob), capacity)] or [b""]
        while len(self._meta_pages) < len(chunks):
            self._meta_pages.append(self.pool.allocate())
        # Extra pages from a previously larger snapshot are simply orphaned
        # (the repo's storage layer reclaims no space anywhere).
        self._meta_pages = self._meta_pages[: len(chunks)]
        if not self._meta_pages or self._meta_pages[0] != 0:
            raise StorageError("meta snapshot chain must be rooted at page 0")
        for i, chunk in enumerate(chunks):
            next_page = self._meta_pages[i + 1] if i + 1 < len(chunks) else _META_NO_PAGE
            page = bytearray(page_size)
            _META_HDR.pack_into(
                page, 0, _META_MAGIC, next_page, len(chunk), mask_crc(crc32c(chunk))
            )
            page[_META_HDR.size : _META_HDR.size + len(chunk)] = chunk
            self.pool.put(self._meta_pages[i], bytes(page))

    def _read_meta_chain(self) -> Optional[bytes]:
        blob = bytearray()
        page_id = 0
        chain: List[int] = []
        seen: set = set()
        while page_id != _META_NO_PAGE:
            # A corrupted next-pointer can form a loop of pages whose magic
            # and checksums are individually valid; without a guard, open()
            # would spin forever instead of reporting the corruption.
            if page_id in seen or len(chain) >= self.pool.pager.num_pages:
                raise StorageError(
                    f"meta snapshot chain is cyclic or overlong at page {page_id}"
                )
            seen.add(page_id)
            page = self.pool.get(page_id)
            magic, next_page, chunk_len, chunk_crc = _META_HDR.unpack_from(page, 0)
            if magic != _META_MAGIC:
                if not chain:
                    return None  # page 0 never checkpointed: empty store
                raise StorageError(
                    f"meta snapshot chain broken at page {page_id} (bad magic)"
                )
            chunk = bytes(page[_META_HDR.size : _META_HDR.size + chunk_len])
            if mask_crc(crc32c(chunk)) != chunk_crc:
                raise StorageError(
                    f"meta snapshot page {page_id} failed its checksum"
                )
            chain.append(page_id)
            blob += chunk
            page_id = next_page
        self._meta_pages = chain
        return bytes(blob)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def analyze(self, table_name: str):
        """Compute optimizer statistics for a table (full scan)."""
        from repro.engine.stats import analyze_table

        stats = analyze_table(self.table(table_name))
        self._stats[table_name.upper()] = stats
        return stats

    def table_stats(self, table_name: str):
        """Previously computed stats, or None (EXPLAIN degrades gracefully)."""
        return self._stats.get(table_name.upper())

    # ------------------------------------------------------------------
    # SQL front-end
    # ------------------------------------------------------------------
    def sql(self, statement: str) -> "SqlResultLike":
        """Execute a SQL statement (see :mod:`repro.engine.sql`)."""
        from repro.engine.sql.executor import execute_sql

        return execute_sql(self, statement)


# Documentation-only aliases for forward references in signatures.
BuildReportLike = object
JoinResultLike = object
SqlResultLike = object
