"""Fault-injection harness for the durability layer.

Crash recovery is only as good as the crashes it has been tested against,
so this module simulates the failure modes a real disk and kernel expose:

* **torn writes** — a ``write()`` persists only a prefix of its bytes and
  the "process" dies (:class:`CrashPoint`);
* **lost fsyncs** — writes sit in a simulated OS cache and an fsync that
  was dropped means a later crash discards them, exactly the
  write-back-cache lie real hardware tells;
* **read errors** — ``EIO`` surfacing as :class:`InjectedIOError`;
* **crash points** — named sites inside :class:`~repro.storage.wal.WalPager`
  (commit, checkpoint phases) where the plan can kill the process.

Everything is driven by a :class:`FaultPlan`: a seeded, deterministic
script of faults shared by every file the plan opens, so a failing chaos
run is reproducible from its seed alone.  Once a plan *trips* (its crash
fires), every file it governs goes dead — subsequent I/O raises
:class:`CrashPoint`, modelling a killed process whose file descriptors
are gone.  The test then "reboots" by reopening the store with no plan.

The *network* counterpart lives in :mod:`repro.cluster.chaos`: its
:class:`~repro.cluster.chaos.NetFaultPlan` speaks the same dialect —
named sites with per-site countdowns, a recorded seed, an event log —
but scripts TCP-level failures (resets, latency, partitions, slow
drips) against a live proxy instead of file I/O.  Together the two
plans cover the full failure surface the self-healing cluster tests
exercise: disks that lie below a shard, networks that lie between them.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultError

__all__ = [
    "CrashPoint",
    "InjectedIOError",
    "FaultPlan",
    "FaultyFile",
    "classify_path",
]


class CrashPoint(FaultError):
    """The simulated process was killed at this point."""


class InjectedIOError(FaultError):
    """A simulated device-level I/O error (EIO)."""


def classify_path(path: str) -> str:
    """Map a file path to a fault tag: 'wal', 'chk' or 'data'."""
    name = os.path.basename(path)
    if name.endswith(".wal"):
        return "wal"
    if name.endswith(".chk") or name.endswith(".chk.tmp"):
        return "chk"
    return "data"


class FaultPlan:
    """A deterministic script of faults, shared across a store's files.

    Parameters
    ----------
    seed:
        Only recorded for reproduction messages; randomised plans are
        built via :meth:`random`.
    torn_write:
        ``(tag, call_index, keep_bytes)`` — the ``call_index``-th write to
        a file with that tag persists only ``keep_bytes`` bytes, then the
        plan trips.  Write calls are counted per tag from 0.
    crash_after_writes:
        ``(tag, n)`` — trip *before* the n-th write to that tag (a clean
        kill between writes, no torn bytes).
    drop_fsync:
        Tags whose files run in write-back-cache mode with ``sync()`` as a
        silent no-op: nothing written since the last real sync survives a
        later crash.
    cache_tags:
        Tags whose files run in write-back-cache mode but whose syncs
        *work* (used to prove the cache model itself is sound).
    eio_reads:
        ``(tag, call_index)`` pairs: that read call raises
        :class:`InjectedIOError` (the plan does not trip — EIO is
        survivable).
    crash_sites:
        Named :class:`~repro.storage.wal.WalPager` sites that trip the
        plan, with an optional per-site countdown: ``{"checkpoint.begin": 0}``
        trips on the first visit, ``1`` on the second, and so on.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        torn_write: Optional[Tuple[str, int, int]] = None,
        crash_after_writes: Optional[Tuple[str, int]] = None,
        drop_fsync: Tuple[str, ...] = (),
        cache_tags: Tuple[str, ...] = (),
        eio_reads: Tuple[Tuple[str, int], ...] = (),
        crash_sites: Optional[Dict[str, int]] = None,
    ):
        self.seed = seed
        self.torn_write = torn_write
        self.crash_after_writes = crash_after_writes
        self.drop_fsync = frozenset(drop_fsync)
        self.cache_tags = frozenset(cache_tags) | self.drop_fsync
        self.eio_reads = set(eio_reads)
        self.crash_sites = dict(crash_sites or {})
        self.tripped = False
        self.write_calls: Dict[str, int] = {}
        self.read_calls: Dict[str, int] = {}
        self.site_visits: Dict[str, int] = {}
        self.events: List[str] = []

    @classmethod
    def counting(cls) -> "FaultPlan":
        """A plan that injects nothing but counts calls (probe runs)."""
        return cls()

    @classmethod
    def random(cls, seed: int) -> "FaultPlan":
        """A seeded random plan: one crash, somewhere plausible."""
        rng = random.Random(seed)
        choice = rng.randrange(4)
        tag = rng.choice(["wal", "wal", "wal", "data", "chk"])
        if choice == 0:
            return cls(seed, torn_write=(tag, rng.randrange(64), rng.randrange(0, 256)))
        if choice == 1:
            return cls(seed, crash_after_writes=(tag, rng.randrange(64)))
        if choice == 2:
            sites = [
                "wal.commit.before_fsync",
                "wal.commit.after_fsync",
                "checkpoint.begin",
                "checkpoint.page_written",
                "checkpoint.after_writeback",
                "checkpoint.before_truncate",
                "checkpoint.end",
            ]
            return cls(seed, crash_sites={rng.choice(sites): rng.randrange(3)})
        return cls(
            seed,
            drop_fsync=("wal",),
            crash_sites={"checkpoint.begin": rng.randrange(2)},
        )

    # ------------------------------------------------------------------
    def opener(self):
        """An ``open(path, mode)`` substitute wiring files into the plan."""

        def open_faulty(path: str, mode: str):
            tag = classify_path(path)
            return FaultyFile(path, mode, self, tag)

        return open_faulty

    def trip(self, why: str) -> None:
        self.tripped = True
        self.events.append(why)

    def check_alive(self) -> None:
        if self.tripped:
            raise CrashPoint(
                f"process is dead (plan seed={self.seed}: {self.events[-1] if self.events else '?'})"
            )

    def reached(self, site: str) -> None:
        """Called by WalPager at named crash sites."""
        self.check_alive()
        visit = self.site_visits.get(site, 0)
        self.site_visits[site] = visit + 1
        if site in self.crash_sites and visit == self.crash_sites[site]:
            self.trip(f"crash at site {site!r} visit {visit}")
            raise CrashPoint(f"killed at site {site!r} (seed={self.seed})")

    # -- file-level hooks ----------------------------------------------
    def on_write(self, tag: str, nbytes: int) -> Tuple[int, bool]:
        """Returns ``(bytes_to_keep, crash_now)`` for one write call."""
        self.check_alive()
        call = self.write_calls.get(tag, 0)
        self.write_calls[tag] = call + 1
        if self.crash_after_writes is not None:
            ctag, cn = self.crash_after_writes
            if tag == ctag and call == cn:
                self.trip(f"crash before write {call} to {tag}")
                return 0, True
        if self.torn_write is not None:
            ttag, tcall, keep = self.torn_write
            if tag == ttag and call == tcall:
                self.trip(f"torn write {call} to {tag}: kept {keep}/{nbytes}")
                return min(keep, nbytes), True
        return nbytes, False

    def on_read(self, tag: str) -> None:
        self.check_alive()
        call = self.read_calls.get(tag, 0)
        self.read_calls[tag] = call + 1
        if (tag, call) in self.eio_reads:
            raise InjectedIOError(f"injected EIO on read {call} of {tag}")

    def on_sync(self, tag: str) -> bool:
        """True if the fsync should actually run."""
        self.check_alive()
        return tag not in self.drop_fsync


class FaultyFile:
    """A file whose writes can tear, whose fsyncs can lie.

    Two modes, chosen by the plan:

    * **direct** — unbuffered write-through; a crash keeps everything
      already written (torn writes keep the prefix of the final write);
    * **cache** (tags in ``plan.cache_tags``) — writes land in an
      in-memory shadow of the file, ``sync()`` flushes the shadow to the
      real file; a crash discards the shadow, so anything "written" after
      a dropped fsync is lost, as with a real write-back cache.
    """

    def __init__(self, path: str, mode: str, plan: FaultPlan, tag: str):
        self.path = path
        self.tag = tag
        self._plan = plan
        self._inner = open(path, mode, buffering=0)
        self._cached = tag in plan.cache_tags
        self._shadow: Optional[bytearray] = None
        if self._cached:
            self._inner.seek(0, os.SEEK_END)
            size = self._inner.tell()
            self._inner.seek(0)
            self._shadow = bytearray(self._inner.read(size))
        self._pos = 0

    # ------------------------------------------------------------------
    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._plan.check_alive()
        if self._cached:
            if whence == os.SEEK_SET:
                self._pos = offset
            elif whence == os.SEEK_CUR:
                self._pos += offset
            else:
                self._pos = len(self._shadow) + offset
            return self._pos
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        if self._cached:
            return self._pos
        return self._inner.tell()

    def read(self, n: int = -1) -> bytes:
        self._plan.on_read(self.tag)
        if self._cached:
            end = len(self._shadow) if n < 0 else min(self._pos + n, len(self._shadow))
            data = bytes(self._shadow[self._pos : end])
            self._pos = end
            return data
        return self._inner.read(n)

    def write(self, data: bytes) -> int:
        keep, crash = self._plan.on_write(self.tag, len(data))
        kept = bytes(data[:keep])
        if self._cached:
            pos = self._pos
            if pos > len(self._shadow):
                self._shadow.extend(bytes(pos - len(self._shadow)))
            self._shadow[pos : pos + len(kept)] = kept
            self._pos = pos + len(kept)
        elif kept:
            self._inner.write(kept)
        if crash:
            raise CrashPoint(
                f"killed mid-write to {self.tag} (seed={self._plan.seed})"
            )
        return len(data)

    def truncate(self, size: int) -> int:
        self._plan.check_alive()
        if self._cached:
            del self._shadow[size:]
            return size
        return self._inner.truncate(size)

    def flush(self) -> None:
        self._plan.check_alive()

    def sync(self) -> None:
        """fsync: in cache mode, flush the shadow to the real file."""
        if not self._plan.on_sync(self.tag):
            return  # the lying write-back cache: claims durable, is not
        if self._cached:
            self._inner.seek(0)
            self._inner.write(bytes(self._shadow))
            self._inner.truncate(len(self._shadow))
        self._inner.flush()
        os.fsync(self._inner.fileno())

    def close(self) -> None:
        # A clean close (no crash) eventually hits the platter even
        # without fsync — model that by flushing the shadow on close of an
        # untripped cache-mode file.
        if self._cached and not self._plan.tripped:
            self._inner.seek(0)
            self._inner.write(bytes(self._shadow))
            self._inner.truncate(len(self._shadow))
        self._inner.close()

    def fileno(self) -> int:
        return self._inner.fileno()
