"""Sharded multi-node query service.

The cluster layer scales the single-node server of :mod:`repro.server`
out to N shard processes behind one **router**:

* :mod:`repro.cluster.partition` — placement.  A single *global*
  :class:`~repro.core.grid_partition.GridSpec` tiles the data domain;
  each shard owns a contiguous block of tile ids, every row lives on the
  shard owning its MBR's low-corner (primary) tile and is *halo
  replicated* to any other shard whose owned tiles its MBR — expanded by
  the configured halo distance — overlaps.  A hash partitioner covers
  non-spatial keys.
* :mod:`repro.cluster.router` — scatter-gather.  One router session fans
  a query out as per-shard sub-sessions (window / knn / sql /
  spatial_join), streams the gathered rows back through the ordinary
  paged wire protocol, applies per-shard deadlines, and surfaces shard
  loss as typed errors or (opt-in) partial results.
* :mod:`repro.cluster.replication` — availability.  A follower tails the
  leader shard's page-image WAL over the wire, acknowledges by LSN, and
  can be promoted to a serving replacement when the leader dies.
* :mod:`repro.cluster.local` — process harness: fork shard servers,
  load/DDL broadcast, kill-the-leader chaos, failover.

Correctness of distributed joins leans on the same two-layer
canonical-tile rule the parallel grid join uses (every result pair is
emitted in exactly one tile, and every tile has exactly one owner), so
shard outputs partition the single-node result with **zero** cross-shard
duplicates and no dedup pass.
"""

from repro.cluster.local import LocalCluster, ShardProcess
from repro.cluster.partition import ClusterError, GridPartitioner
from repro.cluster.replication import ReplicationError, WalFollower
from repro.cluster.router import RouterServer, RouterService, ShardFailed

__all__ = [
    "ClusterError",
    "GridPartitioner",
    "LocalCluster",
    "ReplicationError",
    "RouterServer",
    "RouterService",
    "ShardFailed",
    "ShardProcess",
    "WalFollower",
]
