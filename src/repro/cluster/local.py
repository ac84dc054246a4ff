"""Local cluster harness: forked shard processes behind one router.

Real process isolation (the failover test must be able to ``SIGKILL`` a
leader and watch the follower take over) on one machine:

* :class:`ShardProcess` — ``fork`` one single-node
  :class:`~repro.server.app.SpatialQueryServer` over its own database
  (in-memory, or file+WAL for durable shards) and report the bound port
  back through a pipe.
* :class:`LocalCluster` — the whole topology: N shard processes, the
  in-process :class:`~repro.cluster.router.RouterServer`, and (when
  ``replicated``) a :class:`~repro.cluster.replication.WalFollower`
  tailing the leader.  DDL broadcast, batched loading through the
  router's ``put``, kill-the-leader, and :meth:`failover` (promote the
  follower to an in-process replacement leader).

Resilience wiring (all opt-in):

* ``chaos_plan`` — a :class:`~repro.cluster.chaos.NetFaultPlan`; every
  shard connection is routed through a :class:`~repro.cluster.chaos
  .ChaosProxy` so the plan's resets/latency/partitions/drips hit real
  TCP traffic.  The proxies' stable ports double as the indirection
  layer failover repoints (a promoted or restarted shard slots in
  behind the same proxy address).
* ``durable`` — every shard (not just the replicated leader) runs
  file+WAL-backed, which is what makes :meth:`restart_shard` possible:
  a SIGKILLed non-leader comes back via ordinary WAL crash recovery.
* ``auto_heal`` — a :class:`~repro.cluster.health.HealthMonitor`
  heartbeats every shard and a :class:`~repro.cluster.health
  .FailoverCoordinator` runs the recovery policy on DOWN: the
  replicated leader is **promoted** (the PR 7 manual ``failover()``,
  now automatic and idempotent), durable non-leaders are **restarted**
  from their WAL, in-memory non-leaders are left to the router's
  breaker + partial-results degradation (there is nothing to restart
  from).

Process hygiene: the initial shards are forked **before** any thread
starts in this process (the router server, follower, monitor and chaos
proxies all run threads), because forking a threaded process clones
locks in unknown states.  ``start()`` enforces that ordering; the one
exception, :meth:`restart_shard`, must create a process *after* threads
exist and therefore uses the ``spawn`` context (fresh interpreter, no
inherited locks) at the cost of a slower start.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.chaos import ChaosFleet, NetFaultPlan
from repro.cluster.health import FailoverCoordinator, HealthMonitor
from repro.cluster.partition import ClusterError, GridPartitioner
from repro.cluster.replication import WalFollower
from repro.cluster.router import RouterServer, RouterService, ShardHandle
from repro.geometry.mbr import MBR
from repro.server.client import QueryClient

__all__ = ["ShardProcess", "LocalCluster", "DEFAULT_DDL"]

DEFAULT_DDL = (
    "create table {table} (id number, geom sdo_geometry)",
    "create index {table}_sidx on {table}(geom) "
    "indextype is spatial_index parameters ('kind=RTREE')",
)


def _shard_main(conn, shard_id: int, path: Optional[str], server_kwargs) -> None:
    """Child-process entry: serve one shard until SIGTERM drains it."""
    import asyncio
    import faulthandler
    import signal

    from repro.engine.database import Database
    from repro.server.app import SpatialQueryServer

    # `kill -USR1 <shard pid>` dumps every thread's stack to stderr —
    # the first question a wedged-shard investigation asks.
    faulthandler.register(signal.SIGUSR1)

    db = Database() if path is None else Database.open(path)

    async def main() -> None:
        server = SpatialQueryServer(db, shard_id=shard_id, **server_kwargs)
        await server.start()
        conn.send(server.port)
        conn.close()
        server.install_signal_handlers()
        await server.wait_closed()
        db.close()

    asyncio.run(main())


class ShardProcess:
    """One forked shard server; knows how to die politely or violently.

    ``mp_context`` picks the multiprocessing start method: ``fork`` for
    the initial fleet (started before any thread exists), ``spawn`` for
    mid-life restarts — a fork from a threaded parent clones lock state,
    a spawn starts clean.
    """

    def __init__(
        self,
        shard_id: int,
        path: Optional[str] = None,
        mp_context: str = "fork",
        **server_kwargs: Any,
    ):
        self.shard_id = shard_id
        self.path = path
        self.mp_context = mp_context
        self.server_kwargs = server_kwargs
        self.port: Optional[int] = None
        self._proc: Optional[multiprocessing.Process] = None

    def start(self) -> "ShardProcess":
        ctx = multiprocessing.get_context(self.mp_context)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=_shard_main,
            args=(child_conn, self.shard_id, self.path, self.server_kwargs),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        if not parent_conn.poll(15.0):
            self.kill()
            raise ClusterError(
                f"shard {self.shard_id} did not report a port within 15s"
            )
        self.port = parent_conn.recv()
        parent_conn.close()
        return self

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def kill(self) -> None:
        """SIGKILL — the chaos path; no drain, no flush, no goodbye."""
        if self._proc is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=5.0)

    def stop(self) -> None:
        """SIGTERM — the polite path; the server drains live sessions."""
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=10.0)
            if self._proc.is_alive():
                self.kill()


class LocalCluster:
    """N forked shards + router + optional replicated leader, on one box.

    ``box`` is the data domain the global grid tiles (the benchmarks and
    tests know their domain up front — exactly like the paper's
    tessellation levels are configured per dataset); ``halo`` bounds the
    largest within-distance join the cluster will accept.
    """

    def __init__(
        self,
        nshards: int,
        box: MBR,
        n_entries_hint: int = 10_000,
        halo: float = 0.0,
        replicated: bool = False,
        allow_partial: bool = False,
        durable: bool = False,
        chaos_plan: Optional[NetFaultPlan] = None,
        auto_heal: bool = False,
        health_check: bool = False,
        health_kwargs: Optional[Dict[str, Any]] = None,
        obs_plane: bool = False,
        obs_interval: float = 0.25,
        obs_slos: Optional[Sequence[Any]] = None,
        obs_kwargs: Optional[Dict[str, Any]] = None,
        client_timeout: float = 30.0,
        workdir: Optional[str] = None,
        leader: int = 0,
        shard_kwargs: Optional[Dict[str, Any]] = None,
        router_host: str = "127.0.0.1",
        router_port: int = 0,
        **router_kwargs: Any,
    ):
        self.router_host = router_host
        self.router_port = router_port
        self.nshards = nshards
        self.partitioner = GridPartitioner.build(box, nshards, n_entries_hint, halo)
        self.replicated = replicated
        self.allow_partial = allow_partial
        self.durable = durable
        self.chaos_plan = chaos_plan
        self.auto_heal = auto_heal
        self.health_check = health_check or auto_heal
        self.health_kwargs = dict(health_kwargs or {})
        self.obs_plane = obs_plane
        self.obs_interval = obs_interval
        self.obs_slos = obs_slos
        self.obs_kwargs = dict(obs_kwargs or {})
        self.plane = None  # ObservabilityPlane when obs_plane is on
        self.client_timeout = client_timeout
        self.leader = leader
        self.shard_kwargs = shard_kwargs or {}
        self.router_kwargs = router_kwargs
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if workdir is None and (replicated or durable):
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            workdir = self._tmpdir.name
        self.workdir = workdir
        self.procs: List[ShardProcess] = []
        self.handles: List[ShardHandle] = []
        self.follower: Optional[WalFollower] = None
        self.router: Optional[RouterService] = None
        self.server = None  # BackgroundServer running the RouterServer
        self.port: Optional[int] = None
        self.chaos: Optional[ChaosFleet] = None
        self.monitor: Optional[HealthMonitor] = None
        self.coordinator: Optional[FailoverCoordinator] = None
        self.events: List[Dict[str, Any]] = []  # failover/restart timeline
        self._promoted = []  # in-process replacement leaders (failover)
        self._failover_lock = threading.Lock()
        self._failed_over = False

    # ------------------------------------------------------------------
    def _shard_path(self, shard: int) -> Optional[str]:
        if self.durable or (self.replicated and shard == self.leader):
            return os.path.join(self.workdir, f"shard{shard}.db")
        return None

    def endpoint_port(self, shard: int) -> int:
        """The port the router/monitor should dial for ``shard``: the
        chaos proxy when one is wired, the shard itself otherwise."""
        if self.chaos is not None:
            return self.chaos.port_of(shard)
        return self.procs[shard].port

    def _event(self, kind: str, **detail: Any) -> None:
        self.events.append(
            dict(kind=kind, t_wall=time.time(), t_mono=time.monotonic(), **detail)
        )

    # ------------------------------------------------------------------
    def start(self) -> "LocalCluster":
        from repro.server.app import BackgroundServer

        # Fork every shard before any thread exists in this process.
        for shard in range(self.nshards):
            self.procs.append(
                ShardProcess(
                    shard, path=self._shard_path(shard), **self.shard_kwargs
                ).start()
            )
        if self.chaos_plan is not None:
            self.chaos = ChaosFleet(
                [("127.0.0.1", proc.port) for proc in self.procs],
                self.chaos_plan,
            )
        self.handles = [
            ShardHandle(
                proc.shard_id,
                QueryClient(
                    port=self.endpoint_port(proc.shard_id),
                    retries=5,
                    timeout=self.client_timeout,
                ),
            )
            for proc in self.procs
        ]
        if self.replicated:
            # Replication tails the leader *directly* (not through the
            # chaos proxy): the query path is what the chaos gate stresses,
            # and the follower-reconnect tests wrap their own proxy.
            self.follower = WalFollower(
                QueryClient(port=self.procs[self.leader].port, retries=5),
                os.path.join(self.workdir, "replica.db"),
            ).start()
        if self.health_check:
            self.monitor = HealthMonitor(
                {
                    shard: ("127.0.0.1", self.endpoint_port(shard))
                    for shard in range(self.nshards)
                },
                **self.health_kwargs,
            )
        commit_shards = frozenset(
            shard
            for shard in range(self.nshards)
            if self.procs[shard].path is not None
        )
        self.router = RouterService(
            self.handles,
            self.partitioner,
            leader=self.leader,
            follower=self.follower,
            replicated=self.replicated,
            allow_partial=self.allow_partial,
            health=self.monitor,
            commit_shards=commit_shards or None,
            **self.router_kwargs,
        )
        if self.obs_plane:
            # The plane pulls: its one collector reads the router
            # server's registry, added below once that server exists.
            from repro.obs.plane import (
                ObservabilityPlane,
                default_cluster_slos,
                registry_collector,
            )

            self.plane = ObservabilityPlane(
                slos=default_cluster_slos()
                if self.obs_slos is None
                else list(self.obs_slos),
                interval=self.obs_interval,
                **self.obs_kwargs,
            )
        self.server = BackgroundServer(
            None,
            server_factory=RouterServer,
            router=self.router,
            host=self.router_host,
            port=self.router_port,
            plane=self.plane,
        ).start()
        self.port = self.server.port
        metrics = self.server.server.metrics
        self._declare_cluster_gauges(metrics)
        if self.plane is not None:
            self.plane.add_collector(
                registry_collector(metrics, self.plane.engine.slos), name="router"
            )
            self.plane.start()
        if self.monitor is not None:
            if self.auto_heal:
                actions: Dict[int, Any] = {}
                for shard in range(self.nshards):
                    if shard == self.leader and self.replicated:
                        actions[shard] = self._heal_leader
                    elif self.procs[shard].path is not None:
                        actions[shard] = self.restart_shard
                    # else: in-memory non-leader — nothing to restart from;
                    # breaker + partial-results mode degrade around it
                self.coordinator = FailoverCoordinator(self.monitor, actions)
            self.monitor.start()
        return self

    # ------------------------------------------------------------------
    def _declare_cluster_gauges(self, metrics) -> None:
        """State only the cluster harness can see — replication lag,
        scatter fan-out, deadline misses, breakers, chaos faults, shard
        health — as live families on the router's registry, so /metrics,
        the plane and the dashboard all read them."""
        breaker_code = {"closed": 0, "open": 1, "half_open": 2}

        def live(attr, read):
            # Read at collect time; no samples while ``self.<attr>`` is
            # None (the follower after a failover, an unset monitor/plan).
            def collect():
                source = getattr(self, attr)
                return [] if source is None else read(source)
            return collect

        def breakers(read):
            return live("router", lambda router: [
                ((shard,), read(breaker.status()))
                for shard, breaker in router.breakers.items()
            ])

        for name, kind, help_text, labels, collect in (
            ("replication_lag_lsn", "gauge",
             "WAL records the follower is behind the leader.", (),
             live("follower", lambda f: [((), float(f.lag_lsn))])),
            ("replication_lag_seconds", "gauge",
             "Seconds since the follower was last caught up with the leader.", (),
             live("follower", lambda f: [((), float(f.lag_seconds))])),
            ("scatter_fanout", "gauge", "Shards the most recent scatter touched.",
             (), live("router", lambda router: [((), router.last_fanout)])),
            ("deadline_misses_total", "counter",
             "Shard responses that missed the per-shard deadline.", ("shard",),
             live("router", lambda router: [
                 ((shard,), n)
                 for shard, n in sorted(dict(router.deadline_misses).items())
             ])),
            ("breaker_state", "gauge",
             "Circuit breaker per shard: 0 closed, 1 open, 2 half-open.", ("shard",),
             breakers(lambda status: breaker_code.get(status["state"], -1))),
            ("breaker_opens_total", "counter", "Times each shard's breaker opened.",
             ("shard",), breakers(lambda status: status["opens"])),
            ("breaker_open_seconds_total", "counter",
             "Seconds each shard's breaker has spent open.", ("shard",),
             breakers(lambda status: status["open_seconds_total"])),
            ("chaos_faults", "gauge",
             "Network faults the chaos plan has active, by kind.", ("fault",),
             live("chaos_plan", lambda plan: [
                 ((fault,), n) for fault, n in plan.active_fault_counts().items()
             ])),
            ("shard_up", "gauge",
             "1 while the health monitor sees the shard up, else 0.", ("shard",),
             live("monitor", lambda monitor: [
                 ((shard,), int(health["state"] == "up"))
                 for shard, health in monitor.status().items()
             ])),
        ):
            metrics.declare(
                f"repro_cluster_{name}", kind, help_text, labels, collect=collect
            )

    # ------------------------------------------------------------------
    def client(self, **kwargs: Any) -> QueryClient:
        """A fresh connection to the router."""
        return QueryClient(port=self.port, retries=5, **kwargs)

    def ddl(self, statements: Sequence[str]) -> None:
        """Broadcast DDL to every shard (runs each statement everywhere)."""
        with self.client() as client:
            for statement in statements:
                client.start("sql", {"statement": statement}).all()

    def create_spatial_table(self, table: str) -> None:
        self.ddl([s.format(table=table) for s in DEFAULT_DDL])

    def load(self, table: str, rows: Iterable[Any], batch: int = 256) -> Dict[str, Any]:
        """Route ``[id, wkt]`` rows through the router's ``put`` op."""
        totals = {"placed": 0, "replicas": 0, "lsn": None}
        pending: List[Any] = []
        with self.client() as client:
            def flush() -> None:
                if not pending:
                    return
                response = client.request("put", table=table, rows=pending)
                totals["placed"] += response["placed"]
                totals["replicas"] += response["replicas"]
                totals["lsn"] = response.get("lsn")
                pending.clear()

            for row in rows:
                pending.append(row)
                if len(pending) >= batch:
                    flush()
            flush()
        return totals

    # ------------------------------------------------------------------
    # Chaos / failover
    # ------------------------------------------------------------------
    def kill_leader(self) -> None:
        self.procs[self.leader].kill()

    def kill_shard(self, shard: int) -> None:
        self.procs[shard].kill()

    def failover(self) -> Tuple[str, int]:
        """Promote the follower to a serving leader and rewire the router.

        The replica file already holds every acked commit; promotion
        seals it, opens it as an ordinary WAL-backed database, serves it
        from an in-process server, and atomically swaps the leader's
        shard handle to the new port (behind the chaos proxy when one is
        wired, so plan sites keep matching).  Queries in flight against
        the dead leader fail typed (``SHARD_FAILED``) — or are resumed
        transparently by the router's re-scatter layer; queries started
        after this returns hit the promoted replica.  Idempotent: the
        health monitor and a human operator racing each other promote
        exactly once.
        """
        with self._failover_lock:
            if self._failed_over:
                return ("127.0.0.1", self.endpoint_port(self.leader))
            if self.follower is None:
                raise ClusterError("failover() needs a replicated cluster")
            from repro.engine.database import Database
            from repro.server.app import BackgroundServer

            self._event("failover_started", shard=self.leader)
            path = self.follower.promote()
            db = Database.open(path)
            promoted = BackgroundServer(db, shard_id=self.leader).start()
            self._promoted.append((promoted, db))
            port = promoted.port
            if self.chaos is not None:
                self.chaos.retarget(self.leader, port)
                port = self.chaos.port_of(self.leader)
            self.handles[self.leader].replace(
                QueryClient(port=port, retries=5, timeout=self.client_timeout)
            )
            self.router.reset_breaker(self.leader)
            # The WAL that was being tailed died with the old leader; the
            # promoted node serves unreplicated until a new follower
            # attaches.
            self.router.follower = None
            self.router.replicated = False
            self.follower = None
            self._failed_over = True
            self.router._bump("failovers")
            self._event("failover_done", shard=self.leader, port=port)
            return ("127.0.0.1", port)

    def _heal_leader(self, shard: int) -> Tuple[str, int]:
        """Coordinator action for a DOWN leader: promote the follower."""
        return self.failover()

    def restart_shard(self, shard: int) -> Tuple[str, int]:
        """Bring a durable shard back from its on-disk state (WAL recovery).

        Uses the ``spawn`` start method — the parent is threaded by now —
        and repoints the chaos proxy / shard handle at the new port.  The
        stable proxy address means in-flight retry loops find the
        restarted shard without topology changes.
        """
        proc = self.procs[shard]
        if proc.path is None:
            raise ClusterError(
                f"shard {shard} is in-memory; only durable shards restart"
            )
        self._event("restart_started", shard=shard)
        proc.kill()  # ensure the old process is fully gone first
        replacement = ShardProcess(
            shard, path=proc.path, mp_context="spawn", **self.shard_kwargs
        ).start()
        self.procs[shard] = replacement
        port = replacement.port
        if self.chaos is not None:
            self.chaos.retarget(shard, port)
            port = self.chaos.port_of(shard)
        self.handles[shard].replace(
            QueryClient(port=port, retries=5, timeout=self.client_timeout)
        )
        if self.router is not None:
            self.router.reset_breaker(shard)
            self.router._bump("restarts")
        self._event("restart_done", shard=shard, port=port)
        return ("127.0.0.1", port)

    def resilience_events(self) -> List[Dict[str, Any]]:
        """The merged failure/recovery timeline, ordered by monotonic time.

        Combines chaos-plan injections, health transitions, coordinator
        recoveries and cluster failover/restart events — this is the
        trace the CI network-chaos job uploads and the MTTR bench mines.
        """
        merged: List[Dict[str, Any]] = list(self.events)
        if self.chaos_plan is not None:
            merged.extend(self.chaos_plan.events)
        if self.monitor is not None:
            merged.extend(self.monitor.events)
        if self.coordinator is not None:
            merged.extend(self.coordinator.events)
        return sorted(merged, key=lambda e: e.get("t_mono", 0.0))

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if self.plane is not None:
            self.plane.stop()
            self.plane = None
        if self.monitor is not None:
            self.monitor.stop()
        if self.coordinator is not None:
            self.coordinator.wait_idle(timeout=5.0)
            self.coordinator = None
        if self.follower is not None:
            self.follower.close()
            self.follower = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        for handle in self.handles:
            try:
                handle.client.close()
            except OSError:
                pass
        self.handles = []
        for promoted, db in self._promoted:
            promoted.stop()
            try:
                db.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        self._promoted = []
        for proc in self.procs:
            proc.stop()
        self.procs = []
        if self.chaos is not None:
            self.chaos.close()
            self.chaos = None
        self.monitor = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
