"""``failover``: power-fail the leader at the follower's k-th applied frame.

A WAL-shipping leader/replica pair over the wire.  The kill (server
stopped, then :func:`repro.db.recovery.crash`) fires exactly when the
follower has applied its k-th frame; the follower is promoted, the
client fails writes over, and the rest of the workload runs against the
new leader.

Commit confirmation is **semi-synchronous**: a transfer is folded into
the mirror only after its commit is acked *and* the follower has caught
up past it.  A commit whose confirmation the kill interrupted is
*uncertain*; ``TXN_STATUS`` at the promoted node resolves it — committed
there means it replicated in time and survives, anything else means it
died with the old leader, which is exactly the durability a semi-sync
ack never extended.

On top of the value oracle at the promoted node: the restarted old
leader, fenced into the dead epoch, must refuse writes (``FENCED`` on
the wire — a zombie can never ack anything again), and every recorded
read — replica reads pinned at the replay watermark before the failover,
promoted-leader reads after — passes the SI checker: snapshots spanning
the failover are stale-bounded, never fractured.
"""

from __future__ import annotations

from repro.client.pool import ConnectionPool
from repro.client.remote import RemoteDatabase
from repro.common.errors import ReplicationError
from repro.db.database import Database
from repro.db.recovery import crash, recover
from repro.experiments.si_check import RecordingDatabase
from repro.experiments.sweeps.harness import (
    DISRUPT,
    RETRY,
    Run,
    Scenario,
    SweepInvariantError,
    abandon,
    accounts_db,
    attempt,
    check_liveness,
    check_state,
    client,
    recorded_read,
    seed_accounts,
    serve,
    txn_noise,
    wait_quiet,
)
from repro.replication import RemoteSource, ReplicationHub, WalFollower

SETTLE_SEC = 5.0
#: records per shipped frame; deliberately tiny so a transaction's
#: records straddle frames and kills land mid-transaction-stream
BATCH_LIMIT = 2


class _SemiSyncRecorder(RecordingDatabase):
    """Seals a writer's fate only when replication settles it: ``commit``
    leaves the record open, and the workload seals it ``committed``
    (acked *and* caught up — enters the commit order now) or ``aborted``
    (died with the old leader — carries no checker obligation)."""

    def commit(self, txn) -> None:
        self._remote.commit(txn)

    def seal(self, txn, confirmed: bool) -> None:
        self._seal(txn.txid, "committed" if confirmed else "aborted")


def _check_fenced(run: Run, leader_db: Database) -> None:
    """Restart the dead leader fenced; it must refuse to ack a write."""
    recover(leader_db)
    zombie_hub = ReplicationHub(leader_db, epoch=1)
    zombie_hub.fence()
    address = serve(run, leader_db, zombie_hub).address
    with RemoteDatabase(*address, pool_size=1) as zombie:
        txn = zombie.begin()
        try:
            zombie.insert(txn, "accounts", (10_000, "zombie", 1.0))
        except ReplicationError:
            pass  # fenced, as required
        else:
            raise SweepInvariantError(
                "fenced old leader acked a write after the promotion")
        finally:
            abandon(zombie, txn)


def _run(run: Run) -> None:
    leader_db = accounts_db()
    leader_server = serve(run, leader_db, ReplicationHub(leader_db))
    # the replica mirrors the leader's schema in creation order: relation
    # ids are positional and DDL is not WAL-logged
    replica_db = accounts_db()
    source_pool = run.cleanup.enter_context(ConnectionPool(
        size=1, retry=RETRY, endpoints=[leader_server.address]))
    follower = WalFollower(replica_db, RemoteSource(source_pool),
                           batch_limit=BATCH_LIMIT)
    replica_server = serve(run, replica_db, follower)
    follower.connect()
    with RemoteDatabase(*leader_server.address, pool_size=1) as clean:
        seed_accounts(run, clean)
    follower.catch_up()
    # per-endpoint breakers: once the killed leader's breaker opens,
    # read-only routing falls back to the promoted node without dialing
    remote = run.cleanup.enter_context(client(
        *leader_server.address, failures=3, reset_sec=60.0,
        replicas=[replica_server.address]))
    writer = _SemiSyncRecorder(remote, run.history, session="w0")
    reader = RecordingDatabase(remote, run.history, session="replica-reader")
    #: acked commits whose confirmation the kill interrupted
    unresolved: list = []
    epoch = 0

    def on_frame(_follower: WalFollower) -> None:
        run.events += 1
        if run.events == run.at and not run.tripped:
            run.tripped = True  # power-fail: stop serving, drop all RAM
            leader_server.stop_in_background()
            crash(leader_db)

    def promote_and_fail_over() -> None:
        nonlocal epoch
        epoch = follower.promote()
        remote.failover_to(1)
        # nothing ships anymore, so the promoted node's answer is final
        for txn, t in unresolved:
            survived = remote.txn_status(txn.txid) == "committed"
            writer.seal(txn, survived)
            if survived:
                run.uncertain_committed += 1
                run.fold(t)
            else:
                run.failed += 1
        unresolved.clear()

    for _ in range(run.transfers):
        t = run.pick()
        for tries in (1, 2):
            fate, txn = attempt(writer, t)
            if fate == "acked" and follower.role != "leader":
                try:  # before the failover an ack alone confirms nothing
                    follower.catch_up(on_frame=on_frame)
                except DISRUPT:
                    fate = "uncertain"
            if fate == "acked":
                writer.seal(txn, True)
                run.fold(t)
                break
            if fate == "uncertain":  # never resend: resolve after promotion
                run.uncertain += 1
                unresolved.append((txn, t))
                break
            # lost before the commit took effect: fail over and retry the
            # transfer once against the promoted node
            if not run.tripped:
                raise SweepInvariantError(
                    "transfer lost its connection without a kill")
            if follower.role != "leader":
                promote_and_fail_over()
            elif tries == 2:
                run.failed += 1
        if run.tripped and follower.role != "leader":
            promote_and_fail_over()
        # read at the replica while it exists (pinned at the replay
        # watermark), at the promoted leader afterwards
        recorded_read(reader, run.accounts, read_only=True)
    serving = replica_db if run.tripped else leader_db
    wait_quiet(lambda: txn_noise(serving, "serving node"), SETTLE_SEC)
    check_liveness(remote, check_state(remote, run.mirror))
    if run.tripped:
        if epoch < 2:
            raise SweepInvariantError("the kill did not promote the follower")
        _check_fenced(run, leader_db)
        run.facts["leaders_killed_and_fenced"] = 1


FAILOVER = Scenario("failover", _run, unit="shipped frames", seed=23,
                    accounts=8, transfers=12, stream="failover")
