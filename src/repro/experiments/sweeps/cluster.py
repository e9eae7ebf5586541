"""``cluster-link`` / ``cluster-crash`` / ``cluster-canary``: break the
k-th router→shard frame of a sharded 2PC cluster.

A 2-shard thread-mode :class:`ShardSupervisor` behind a
:class:`ClusterRouter`, with the fault point on the *router's* links to
the shards — so the k-th frame of the cluster's internal conversation
dies mid-2PC (mid-PREPARE, mid-decision-push, in the lost-ack window of
either).  Seeding is excluded: frame ``k`` is the k-th frame the
workload itself moves.

``cluster-crash`` additionally power-fails shard ``k % 2`` the moment the
link fault fires (kill, WAL recovery, restart on the same port,
:meth:`ClusterRouter.resolve_in_doubt`), racing the router's own inline
recovery so the kill lands mid-2PC.

The oracle is the atomic-commit contract: exactly the confirmed
transfers are visible through the router, money is conserved across
shards, every in-doubt prepared transaction is settled exactly once
(presumed abort or the logged decision), and the cluster drains to zero
active/prepared/locked everywhere.  On top of that settled-state oracle,
a concurrent cross-shard reader races the transfers and every client
operation is recorded: the SI checker proves each *mid-flight snapshot*
was one consistent prefix of the commit order.

``cluster-canary`` runs :class:`FracturingRouter` — lazy per-shard
snapshots, a fault injected into the router — and inverts the verdict:
the sweep fails unless the checker catches fractured reads — the
reproducer and the checker keep each other honest.
"""

from __future__ import annotations

import functools
import threading

from repro.client.remote import RemoteDatabase
from repro.cluster import (
    ClusterRouter,
    RouterConfig,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.experiments.si_check import RecordingDatabase
from repro.experiments.sweeps.harness import (
    DEADLINE_MS,
    RETRY,
    Run,
    Scenario,
    SweepInvariantError,
    abandon,
    check_liveness,
    check_state,
    client,
    create_accounts,
    net_point,
    resolved_transfer,
    seed_accounts,
    txn_noise,
    wait_quiet,
)
from repro.server.chaos import ChaosPlan

SHARDS = 2
#: cluster-crash recovers a whole shard inside this window
SETTLE_SEC = 8.0


class FracturingRouter(ClusterRouter):
    """The fractured-read canary: a router with no cluster-wide read
    timestamp.  Every shard snapshots independently when a transaction
    first touches it, so a cross-shard reader racing a global commit can
    see it half-applied — the anomaly the SI checker must flag."""

    async def _begin_ts(self) -> None:
        return None


def _scanner(run: Run, address: tuple[str, int],
             transfer_done: threading.Event, stop: threading.Event) -> None:
    """Concurrent cross-shard reader: the fractured-read witness.

    Each iteration reads the shard-0 accounts, *waits for a transfer to
    commit*, then reads the shard-1 accounts — all inside one global
    transaction.  With lazy per-shard snapshots the second half begins
    on shard 1 only after newer commits landed, so a cross-shard transfer
    in the gap is seen half-applied; with the cluster-wide read
    timestamp the late BEGIN pins to the same snapshot and the reads
    stay whole.  Only a reader racing the writer can see this.

    Faults are expected company (the scanner shares the wounded router
    links): any error abandons the iteration, and an aborted transaction
    carries no checker obligation.
    """
    remote = RecordingDatabase(client(*address, failures=20), run.history,
                               session="scanner")
    # round-robin placement: account i lives on shard i % SHARDS
    first = [i for i in range(run.accounts) if i % SHARDS == 0]
    rest = [i for i in range(run.accounts) if i % SHARDS != 0]
    try:
        while not stop.is_set():
            txn = None
            try:
                txn = remote.begin()
                for i in first:
                    remote.lookup(txn, "accounts", "pk", i)
                transfer_done.clear()
                transfer_done.wait(0.05)
                for i in rest:
                    remote.lookup(txn, "accounts", "pk", i)
                remote.commit(txn)
            except Exception:
                abandon(remote, txn)
    finally:
        remote.close()


def _run(run: Run, kill_shard: bool) -> None:
    point = net_point(run.at)
    point.disarm()                      # setup frames are not under test
    sup = ShardSupervisor(SupervisorConfig(
        shards=SHARDS, idle_timeout_sec=30.0, drain_timeout_sec=2.0))
    run.cleanup.callback(sup.stop)
    sup.start()
    router_type = FracturingRouter if run.scenario.canary else ClusterRouter
    router = router_type(sup.addresses, RouterConfig(
        port=0, idle_timeout_sec=30.0, drain_timeout_sec=2.0, retry=RETRY,
        resolve_timeout_sec=SETTLE_SEC, chaos=ChaosPlan(crash_point=point)))
    run.cleanup.callback(router.stop_in_background)
    address = router.start_in_background()
    over = threading.Event()
    run.cleanup.callback(over.set)
    transfer_done = threading.Event()
    restarted = threading.Event()
    killer_error: list[Exception] = []

    def killer() -> None:
        while not point.tripped:
            if over.wait(0.001):
                return
        try:
            target = run.at % SHARDS
            sup.kill_shard(target)
            report = sup.restart_shard(target)  # in-doubt txns reinstated
            resolved = router.resolve_in_doubt()
            run.facts.update(shard_power_failures=1,
                             in_doubt_recovered=report.in_doubt_txns,
                             in_doubt_settled=resolved["committed"]
                             + resolved["aborted"])
        except Exception as exc:
            killer_error.append(exc)
        finally:
            restarted.set()

    def noise() -> list[str]:
        """Quiet means: no router session, nothing open on any shard —
        and the router reaches every shard again (a kill opens its
        per-endpoint breaker; the fan-out PING drives the half-open
        probe so the oracle's client never lands in the cooldown)."""
        noisy = [f"router: {router.sessions.count()} sessions"] \
            if router.sessions.count() else []
        for i in range(SHARDS):
            noisy += txn_noise(sup.database(i), f"shard {i}")
        if not noisy:
            try:
                with RemoteDatabase(*address, pool_size=1) as probe:
                    probe.ping()
            except Exception as exc:
                noisy.append(f"router→shard fan-out: {exc}")
        return noisy

    with RemoteDatabase(*address, pool_size=1) as clean:
        create_accounts(clean)
        seed_accounts(run, clean, bulk=False)
    point.arm()
    threads = []
    if kill_shard:
        threads.append(threading.Thread(target=killer, daemon=True,
                                        name="shard-killer"))
    if run.at is not None:  # count mode counts the workload's frames alone
        threads.append(threading.Thread(
            target=_scanner, daemon=True, name="si-scanner",
            args=(run, address, transfer_done, over)))
    for thread in threads:
        thread.start()
    # the client→router link is clean: the faults live behind the router
    with RecordingDatabase(client(*address, failures=20), run.history,
                           session="w0") as remote:
        for _ in range(run.transfers):
            resolved_transfer(run, remote, SETTLE_SEC)
            transfer_done.set()
            # a crash point loses only what the fault and the power
            # failure really hit: the next transfer waits until the shard
            # is back and its in-doubt leftovers are settled
            if kill_shard and point.tripped \
                    and not restarted.wait(SETTLE_SEC + 10.0):
                raise SweepInvariantError("shard killer wedged")
    point.disarm()
    over.set()
    for thread in threads:
        # the scanner's last call may still be draining a deadline-bounded
        # request against the just-killed shard
        thread.join(timeout=SETTLE_SEC + DEADLINE_MS / 1000.0)
        if thread.is_alive():
            raise SweepInvariantError(f"{thread.name} wedged")
    if killer_error:
        raise killer_error[0]
    resolved = router.resolve_in_doubt()
    run.facts["in_doubt_settled"] = (run.facts.get("in_doubt_settled", 0)
                                     + resolved["committed"]
                                     + resolved["aborted"])
    if router.coordinator_log.pending_decisions():
        raise SweepInvariantError(
            f"commit decisions left unpushed: "
            f"{router.coordinator_log.pending_decisions()}")
    wait_quiet(noise, SETTLE_SEC)
    with RemoteDatabase(*address, pool_size=1) as clean:
        check_liveness(clean, check_state(clean, run.mirror))
    wait_quiet(noise, SETTLE_SEC)
    if run.at is None and router.stats.commits_2pc == 0:
        raise SweepInvariantError(
            "workload never exercised 2PC — transfers are not crossing "
            "shards; the sweep would prove nothing")
    run.tripped, run.events = point.tripped, point.events_seen


def _scenario(name: str, kill_shard: bool = False,
              canary: bool = False) -> Scenario:
    return Scenario(name, functools.partial(_run, kill_shard=kill_shard),
                    unit="router→shard frames", seed=11, accounts=8,
                    transfers=30, stream="chaos", canary=canary)


CLUSTER_LINK = _scenario("cluster-link")
CLUSTER_CRASH = _scenario("cluster-crash", kill_shard=True)
CLUSTER_CANARY = _scenario("cluster-canary", canary=True)
