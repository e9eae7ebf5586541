"""``resync`` / ``resync-source``: kill a node of a cascading replica chain
at its k-th progress event; the chain must heal itself.

A leader → r1 → r2 chain (r1 cascades: it serves r2 from its own WAL),
fully in-process and single-threaded: every supervision step, shipped
frame and installed base-backup chunk happens inside a driver call, so
the k-th eligible event of every run is the event count mode saw, and a
kill at it is exactly reproducible.

``resync`` power-fails the node that just made progress (applied a
frame, installed a backup chunk — so every frame *and* every mid-backup
installer crash is swept).  ``resync-source`` power-fails the *upstream*
node at every installed chunk: the source of an in-flight base backup
dies mid-image.  The victim is recovered, re-wired and must converge
through its :class:`FollowerSupervisor` alone — reconnect, automatic
full resync, re-bootstrap — until every node holds the root's exact
state, with recorded replica reads passing the SI checker.

The run itself forces both bootstrap paths: r1 is detached while
history ships past it and the root's WAL is truncated (so it must
rejoin through the root's online base backup), and r2 joins behind a
truncated r1 (so it can only join through a *cascading* backup).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.client.pool import RetryPolicy
from repro.db.database import Database
from repro.db.recovery import crash, recover
from repro.experiments.si_check import RecordingDatabase
from repro.experiments.sweeps.harness import (
    Run,
    Scenario,
    SweepInvariantError,
    accounts_db,
    check_state,
    confirmed_transfer,
    recorded_read,
    seed_accounts,
)
from repro.replication import FollowerSupervisor, ReplicationHub, WalFollower

#: records per shipped frame; tiny so kills straddle transactions
BATCH_LIMIT = 2
#: image records per backup chunk; tiny so kills land mid-image
BACKUP_CHUNK_RECORDS = 3
#: transfers shipped while r1 is detached, so the forced full resync
#: bootstraps over real missed history
LAG_TRANSFERS = 3
#: supervision-step ceiling before a run is declared wedged
MAX_STEPS = 600


class _Killed(Exception):
    """Raised by the kill point right after power-failing its victim."""

    def __init__(self, node: "Node") -> None:
        super().__init__(f"killed {node.name}")
        self.node = node


@dataclass
class Node:
    """One member of the chain."""

    name: str
    db: Database
    upstream: "Node | None" = None
    cascade: bool = False
    #: what this node serves: a ReplicationHub at the root, the current
    #: WalFollower elsewhere (replaced wholesale on every restart)
    serving: object = None
    sup: FollowerSupervisor | None = None
    down: bool = False
    #: resyncs completed by follower objects a restart already replaced
    resyncs_done: int = 0

    @property
    def resyncs(self) -> int:
        return self.resyncs_done + self.serving.resyncs


class _Link:
    """The transport to an upstream node: whatever that node *currently*
    serves (its hub, or the follower that replaced a crashed one), and
    ``ConnectionError`` while it is down — a crashed process answers
    nothing."""

    def __init__(self, node: Node) -> None:
        self._node = node

    def __getattr__(self, name: str):
        if self._node.down:
            raise ConnectionError(f"node {self._node.name} is down")
        return getattr(self._node.serving, name)


class Chain:
    """The chain, its kill plan (``victim``: ``"follower"``, ``"source"``
    or None) and the workload steps the scenarios compose."""

    def __init__(self, run: Run, victim: str | None,
                 retention_budget: int | None = None) -> None:
        self.run = run
        self.victim = victim
        self.steps = 0
        self.restarts = 0
        self.leader = Node("leader", accounts_db())
        self.leader.serving = ReplicationHub(
            self.leader.db, backup_chunk_records=BACKUP_CHUNK_RECORDS,
            max_retained_records=retention_budget)
        self.r1 = Node("r1", accounts_db(), upstream=self.leader, cascade=True)
        self._attach(self.r1)
        self.r2: Node | None = None
        self.writer = RecordingDatabase(self.leader.db, run.history,
                                        session="w0")
        self.readers = {"r1": RecordingDatabase(self.r1.db, run.history,
                                                session="read-r1")}
        #: leader closed_ts after seeding — replica reads below it would
        #: predate the initial rows and carry no checker obligation
        self.floor = 0

    # -- wiring and the kill plan --------------------------------------------

    def _attach(self, node: Node) -> None:
        """Give ``node`` a fresh supervised follower over its upstream."""
        follower = WalFollower(node.db, _Link(node.upstream),
                               follower_id=node.name,
                               batch_limit=BATCH_LIMIT, cascade=node.cascade)
        if follower.hub is not None:
            follower.hub.backup_chunk_records = BACKUP_CHUNK_RECORDS
        follower.on_resync_chunk = lambda _f, _i: self._event("chunk", node)
        node.serving = follower
        node.sup = FollowerSupervisor(
            follower, sleep=lambda _s: None,
            retry=RetryPolicy(base_delay_sec=0.0, max_delay_sec=0.0,
                              jitter=False),
            on_frame=lambda _f: self._event("frame", node))

    def _event(self, kind: str, node: Node) -> None:
        if self.victim is None or (self.victim == "source"
                                   and kind != "chunk"):
            return
        self.run.events += 1
        if self.run.tripped or self.run.events != self.run.at:
            return
        self.run.tripped = True
        victim = node if self.victim == "follower" else node.upstream
        victim.down = True
        crash(victim.db)
        raise _Killed(victim)

    def _restart(self, node: Node) -> None:
        """Power the victim back on: recover, re-wire, resume."""
        self.restarts += 1
        recover(node.db)
        if node.upstream is None:
            # a restarted backup source forgets its in-flight jobs; a
            # mid-install client is refused and begins a new backup
            node.serving = ReplicationHub(
                node.db, backup_chunk_records=BACKUP_CHUNK_RECORDS)
        else:
            node.resyncs_done += node.serving.resyncs
            self._attach(node)
        node.down = False

    def crank(self, node: Node) -> None:
        """One supervision step of ``node``."""
        try:
            node.sup.step()
        except _Killed as exc:
            self._restart(exc.node)

    def converge(self, what: str) -> None:
        """Supervise the chain until every replica's watermark reached
        the root's present closed timestamp (or declare it wedged) —
        every failure mode must heal without driver help."""
        target = self.leader.db.closed_ts()
        replicas = [n for n in (self.r1, self.r2) if n is not None]
        while any(n.serving.watermark < target for n in replicas):
            self.steps += 1
            if self.steps > MAX_STEPS:
                raise SweepInvariantError(
                    f"chain wedged while {what}: {MAX_STEPS} supervision "
                    f"steps without converging")
            for node in replicas:
                self.crank(node)

    # -- workload steps ------------------------------------------------------

    def seed(self) -> None:
        seed_accounts(self.run, self.leader.db)
        self.floor = self.leader.db.closed_ts()
        self.converge("streaming the seed rows to r1")

    def transfer(self) -> None:
        """One confirmed transfer at the root (the root never dies with
        a write in flight here — ``failover`` owns that)."""
        confirmed_transfer(self.run, self.writer)

    def force_root_resync(self) -> None:
        """Detach r1, ship history past it, truncate the root's WAL: the
        next fetch is refused below base and r1 must bootstrap from the
        root's online base backup."""
        for _ in range(LAG_TRANSFERS):
            self.transfer()
        self.leader.serving.unsubscribe("r1")
        self.leader.db.checkpointer.run_now()
        self.converge("resyncing r1 from the root's base backup")

    def start_tail(self) -> None:
        """Truncate r1's WAL, then chain r2 off it: the grand-follower
        can only join through a *cascading* online base backup."""
        self.r1.db.checkpointer.run_now()
        self.r2 = Node("r2", accounts_db(), upstream=self.r1)
        self._attach(self.r2)
        self.readers["r2"] = RecordingDatabase(self.r2.db, self.run.history,
                                               session="read-r2")
        self.converge("bootstrapping r2 through the cascading backup")

    def stream_transfers(self) -> None:
        """The measured phase: each transfer ships down the chain and is
        read back, recorded, on both replicas; then the chain converges."""
        for _ in range(self.run.transfers):
            self.transfer()
            for step in (self.crank, self._replica_read):
                step(self.r1)
                step(self.r2)
        self.converge("converging the chain after the workload")

    def _replica_read(self, node: Node) -> None:
        """One recorded read-only pass, pinned at the replay watermark."""
        watermark = node.serving.watermark
        if watermark < self.floor:
            return  # freshly restarted; predates the seed rows
        recorded_read(self.readers[node.name], self.run.accounts,
                      at_ts=watermark)

    def finish(self) -> None:
        """Exactly-once oracle on all three nodes of the settled chain."""
        for node in (self.leader, self.r1, self.r2):
            check_state(node.db, self.run.mirror, who=node.name)
        self.run.facts.update(
            restarts=self.restarts,
            full_resyncs=self.r1.resyncs + self.r2.resyncs)


def _run(run: Run, victim: str) -> None:
    chain = Chain(run, victim)
    chain.seed()
    chain.force_root_resync()
    chain.start_tail()
    chain.stream_transfers()
    chain.finish()
    if run.at is None and run.facts["full_resyncs"] < 2:
        raise SweepInvariantError(
            f"count mode completed only {run.facts['full_resyncs']} "
            f"resyncs — the forced r1 bootstrap and the cascading r2 "
            f"bootstrap must both run")


def _scenario(name: str, victim: str, unit: str) -> Scenario:
    return Scenario(name, functools.partial(_run, victim=victim), unit=unit,
                    seed=29, accounts=6, transfers=8, stream="resync")


RESYNC = _scenario("resync", "follower",
                   "progress events (applied frames + installed chunks)")
RESYNC_SOURCE = _scenario("resync-source", "source",
                          "installed backup chunks")
