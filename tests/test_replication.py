"""WAL-shipping replication: apply, watermark, resume, fencing, slots.

In-process pairs throughout — the :class:`ReplicationHub` is handed to
the :class:`WalFollower` directly as its source (it speaks the same
``subscribe``/``fetch`` surface as the wire's ``RemoteSource``), so
these tests exercise the replication state machines without sockets.
The wire path and the full failover story are covered end to end by
the ``failover`` fault sweep (``tests/test_sweeps.py``, CI's sweeps job).
"""

from __future__ import annotations

import threading

import pytest

from repro.client.pool import ConnectionPool, RetryPolicy
from repro.common.errors import ReplicationError
from repro.db.database import Database, EngineKind
from repro.db.recovery import crash, recover
from repro.replication import (
    REPLICA_TXID_BASE,
    FollowerState,
    FollowerSupervisor,
    RemoteSource,
    ReplicationHub,
    WalFollower,
)
from repro.server import DatabaseServer, ServerConfig
from tests.conftest import make_accounts_db


def make_pair(batch_limit: int = 2) -> tuple[Database, ReplicationHub,
                                             Database, WalFollower]:
    """A leader with a hub and a connected follower over a twin schema."""
    leader = make_accounts_db(EngineKind.SIASV)
    hub = ReplicationHub(leader)
    replica = make_accounts_db(EngineKind.SIASV)
    follower = WalFollower(replica, hub, batch_limit=batch_limit)
    follower.connect()
    return leader, hub, replica, follower


def seed(leader: Database, rows: list[tuple]) -> None:
    txn = leader.begin()
    for row in rows:
        leader.insert(txn, "accounts", row)
    leader.commit(txn)


def balances(db: Database, txn) -> dict[int, float]:
    return {row[0]: row[2] for _ref, row in db.scan(txn, "accounts")}


class TestApply:
    def test_replicates_insert_update_delete(self):
        leader, _hub, replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0), (2, "b", 20.0)])
        txn = leader.begin()
        (ref1, row1), = leader.lookup(txn, "accounts", "pk", 1)
        leader.update(txn, "accounts", ref1, (1, "a", 15.0))
        (ref2, _), = leader.lookup(txn, "accounts", "pk", 2)
        leader.delete(txn, "accounts", ref2)
        leader.commit(txn)

        follower.catch_up()
        read = follower.begin_read()
        assert balances(replica, read) == {1: 15.0}
        # index entries replicate too, not just the heap
        (hit,) = replica.lookup(read, "accounts", "pk", 1)
        assert hit[1] == (1, "a", 15.0)
        assert replica.lookup(read, "accounts", "pk", 2) == []
        replica.commit(read)

    def test_local_txids_clear_of_shipped_ones(self):
        _leader, _hub, replica, follower = make_pair()
        read = follower.begin_read()
        assert read.txid >= REPLICA_TXID_BASE
        replica.commit(read)


class TestApplyVsReplicaGc:
    def test_gc_relocation_cannot_erase_an_applied_commit(self):
        """Apply runs on the follower's thread, outside the server's
        exclusive lane, so a replica GC pass can be mid-relocation of the
        very head the apply chains onto.  The relocation's entrypoint
        swing must not overwrite the applied one: apply waits on the
        item's stripe until the pass is done, then chains onto the
        relocated copy."""
        leader, _hub, replica, follower = make_pair(batch_limit=256)
        seed(leader, [(i, f"o{i}", 0.0) for i in range(40)])
        for round_no in range(1, 6):
            txn = leader.begin()
            for i in range(1, 40):
                (ref, _), = leader.lookup(txn, "accounts", "pk", i)
                leader.update(txn, "accounts", ref,
                              (i, f"o{i}", float(round_no)))
            leader.commit(txn)
        follower.catch_up()  # row 0's insert: the one live slot of page 0
        store = replica.tables["accounts"].engine.store
        store.seal_working_page()

        txn = leader.begin()
        (ref, _), = leader.lookup(txn, "accounts", "pk", 0)
        leader.update(txn, "accounts", ref, (0, "o0", 999.0))
        leader.commit(txn)

        applier = threading.Thread(target=follower.catch_up)
        append = store.append

        def first_relocation_starts_apply(record, *args, **kwargs):
            store.append = append
            applier.start()
            applier.join(timeout=1.0)  # blocks on the stripe once fixed
            return append(record, *args, **kwargs)

        store.append = first_relocation_starts_apply
        reports = replica.maintenance()
        applier.join(timeout=30.0)
        assert not applier.is_alive()
        assert reports["accounts"].records_relocated >= 1
        read = follower.begin_read()
        assert balances(replica, read)[0] == 999.0
        replica.commit(read)


class TestWatermark:
    def test_partial_transaction_never_visible(self):
        """A transaction whose records straddle frames is invisible until
        its COMMIT ships — and the watermark only then exposes it."""
        leader, _hub, replica, follower = make_pair(batch_limit=2)
        seed(leader, [(1, "a", 100.0), (2, "b", 100.0)])
        follower.catch_up()

        txn = leader.begin()
        (ref1, _), = leader.lookup(txn, "accounts", "pk", 1)
        (ref2, _), = leader.lookup(txn, "accounts", "pk", 2)
        leader.update(txn, "accounts", ref1, (1, "a", 60.0))
        leader.update(txn, "accounts", ref2, (2, "b", 140.0))
        leader.commit(txn)  # 2 UPDATEs + COMMIT: two frames at batch 2

        before = follower.watermark
        follower.catch_up(max_frames=1)  # UPDATE records only, no COMMIT
        assert follower.watermark == before
        read = follower.begin_read()
        assert balances(replica, read) == {1: 100.0, 2: 100.0}
        replica.commit(read)

        follower.catch_up()
        assert follower.watermark > before
        read = follower.begin_read()
        assert balances(replica, read) == {1: 60.0, 2: 140.0}
        replica.commit(read)


class TestRestartResume:
    def test_resume_from_marker_no_double_apply(self):
        """A restarted follower resumes at its durable marker and applies
        nothing twice — re-delivered transactions dedupe via the clog."""
        leader, hub, replica, follower = make_pair(batch_limit=2)
        seed(leader, [(1, "a", 10.0)])
        # interleave two writers so the COMMIT of one (B) lands while the
        # other (A) still has records pending: the restart marker then
        # points below B's applied COMMIT, forcing a re-delivery of it
        a = leader.begin()
        leader.insert(a, "accounts", (2, "a-row", 2.0))
        b = leader.begin()
        leader.insert(b, "accounts", (3, "b-row", 3.0))
        leader.commit(b)
        (ref, _), = leader.lookup(a, "accounts", "pk", 2)
        leader.update(a, "accounts", ref, (2, "a-row", 4.0))
        leader.commit(a)

        follower.catch_up()
        assert follower.acked_seq == follower.fetch_seq
        read = follower.begin_read()
        assert balances(replica, read) == {1: 10.0, 2: 4.0, 3: 3.0}
        replica.commit(read)

        crash(replica)
        recover(replica)
        resumed = WalFollower(replica, hub, batch_limit=2)
        assert resumed.fetch_seq > 0  # resumed from the marker, not 0
        resumed.connect()
        applied = resumed.catch_up()
        assert applied == 0  # nothing durable was left unshipped
        read = resumed.begin_read()
        assert balances(replica, read) == {1: 10.0, 2: 4.0, 3: 3.0}
        (hit,) = replica.lookup(read, "accounts", "pk", 3)
        assert hit[1] == (3, "b-row", 3.0)
        replica.commit(read)

    def test_restart_mid_pending_dedupes_redelivery(self):
        """Crash while a transaction is half-shipped: the marker anchors
        below it, so already-applied neighbours are re-delivered and must
        dedupe instead of double-applying."""
        leader, hub, replica, follower = make_pair(batch_limit=2)
        seed(leader, [(1, "a", 10.0)])
        follower.catch_up()
        a = leader.begin()
        leader.insert(a, "accounts", (2, "a-row", 2.0))
        b = leader.begin()
        leader.insert(b, "accounts", (3, "b-row", 3.0))
        leader.commit(b)
        (ref, _), = leader.lookup(a, "accounts", "pk", 2)
        leader.update(a, "accounts", ref, (2, "a-row", 4.0))
        leader.commit(a)
        # records: [A-ins, B-ins], [B-commit, A-upd], [A-commit] — stop
        # after two frames: B is applied, A is pending, marker = A's start
        follower.catch_up(max_frames=2)
        assert follower.acked_seq < follower.fetch_seq

        crash(replica)
        recover(replica)
        resumed = WalFollower(replica, hub, batch_limit=2)
        resumed.connect()
        resumed.catch_up()
        assert resumed.deduped_txns >= 1  # B arrived again, applied once
        read = resumed.begin_read()
        assert balances(replica, read) == {1: 10.0, 2: 4.0, 3: 3.0}
        (hit,) = replica.lookup(read, "accounts", "pk", 3)
        assert hit[1] == (3, "b-row", 3.0)
        replica.commit(read)


class TestFencing:
    def test_promotion_discards_pending_and_bumps_epoch(self):
        leader, _hub, replica, follower = make_pair(batch_limit=2)
        seed(leader, [(1, "a", 10.0), (2, "b", 20.0)])
        follower.catch_up()
        txn = leader.begin()
        (ref1, _), = leader.lookup(txn, "accounts", "pk", 1)
        leader.update(txn, "accounts", ref1, (1, "a", 99.0))
        (ref2, _), = leader.lookup(txn, "accounts", "pk", 2)
        leader.update(txn, "accounts", ref2, (2, "b", 99.0))
        leader.commit(txn)
        follower.catch_up(max_frames=1)  # UPDATEs shipped, COMMIT not

        epoch = follower.promote()
        assert epoch == 2
        assert follower.role == "leader"
        # the half-shipped transaction died with the old epoch
        read = follower.begin_read()
        assert balances(replica, read) == {1: 10.0, 2: 20.0}
        replica.commit(read)
        # the promoted node accepts writes and serves its own hub
        txn = replica.begin()
        (ref, _), = replica.lookup(txn, "accounts", "pk", 1)
        replica.update(txn, "accounts", ref, (1, "a", 11.0))
        replica.commit(txn)
        info = follower.subscribe("replica-2", 0)
        assert info["epoch"] == 2

    def test_zombie_leader_fetch_refused(self):
        """After promotion the old hub's epoch is dead: fetches carrying
        the new epoch are refused by the zombie, and a fenced zombie
        refuses everything."""
        leader, hub, _replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0)])
        follower.catch_up()
        follower.promote()

        with pytest.raises(ReplicationError):
            hub.fetch(follower.follower_id, follower.epoch,
                      follower.fetch_seq, follower.acked_seq)
        hub.fence()
        with pytest.raises(ReplicationError):
            hub.fetch(follower.follower_id, 1, follower.fetch_seq,
                      follower.acked_seq)
        with pytest.raises(ReplicationError):
            hub.subscribe("anyone", 0)

    def test_follower_refuses_zombie_frames(self):
        """Frames stamped with a stale epoch are refused follower-side —
        the zombie's serving path may not even know it was deposed."""
        leader, hub, _replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0)])
        follower.catch_up()

        class ZombieSource:
            def subscribe(self, follower_id, start_seq):
                return hub.subscribe(follower_id, start_seq)

            def fetch(self, follower_id, epoch, since_seq, acked_seq,
                      limit):
                frame = hub.fetch(follower_id, epoch, since_seq,
                                  acked_seq, limit)
                # a stale stamp, as a deposed leader would produce
                return (0,) + frame[1:]

        follower.source = ZombieSource()
        seed(leader, [(2, "b", 20.0)])
        with pytest.raises(ReplicationError, match="fenced"):
            follower.catch_up()


class TestSlots:
    def test_slot_clamps_checkpoint_truncation(self):
        """While a follower lags, its slot pins the log; once it acks,
        truncation may proceed and pre-base fetches are refused."""
        leader, hub, _replica, follower = make_pair()
        for i in range(10, 20):
            seed(leader, [(i, f"row-{i}", 1.0)])
        wal = leader.wal
        assert wal.slots()[follower.follower_id] == 0

        wal.log_checkpoint(wal.durable_seq())  # wants to drop everything
        records, _ = wal.records_since(0)      # slot held it all back
        assert records

        follower.catch_up()                    # acks up to the horizon
        assert wal.slots()[follower.follower_id] > 0
        wal.log_checkpoint(wal.durable_seq())
        with pytest.raises(ValueError, match="truncated"):
            wal.records_since(0)

    def test_subscribe_below_base_requires_resync(self):
        leader, hub, _replica, _follower = make_pair()
        for i in range(10, 20):
            seed(leader, [(i, f"row-{i}", 1.0)])
        hub.unsubscribe("replica-1")
        leader.wal.log_checkpoint(leader.wal.durable_seq())
        with pytest.raises(ReplicationError, match="resync"):
            hub.subscribe("late-joiner", 0)


class TestResync:
    def test_below_base_subscribe_over_wire_typed_refusal(self):
        """A WAL_SUBSCRIBE below the retained base round-trips over the
        real wire as a *typed* ReplicationError naming the fix."""
        leader = make_accounts_db(EngineKind.SIASV)
        hub = ReplicationHub(leader)
        server = DatabaseServer(
            leader, ServerConfig(port=0, idle_timeout_sec=30.0),
            replication=hub)
        host, port = server.start_in_background()
        pool = ConnectionPool(size=1, endpoints=[(host, port)])
        try:
            for i in range(10, 20):
                seed(leader, [(i, f"row-{i}", 1.0)])
            leader.wal.log_checkpoint(leader.wal.durable_seq())
            with pytest.raises(ReplicationError, match="resync"):
                RemoteSource(pool).subscribe("late-joiner", 0)
        finally:
            pool.close()
            server.stop_in_background()

    def test_watermark_monotone_across_auto_resync(self):
        """An evicted follower heals through a full resync — and its
        watermark only ever ratchets forward while doing so."""
        leader, _hub, replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0)])
        follower.catch_up()
        before = follower.watermark
        assert before > 0

        leader.wal.max_retained_records = 4
        for i in range(2, 12):
            seed(leader, [(i, f"row-{i}", 1.0)])
        leader.wal.log_checkpoint(leader.wal.durable_seq())

        follower.catch_up()  # fetch below base -> automatic resync
        assert follower.resyncs == 1
        assert follower.watermark > before
        read = follower.begin_read()
        state = balances(replica, read)
        assert state == {1: 10.0, **{i: 1.0 for i in range(2, 12)}}
        replica.commit(read)

    def test_bootstrap_from_scratch_below_base(self):
        """connect() itself auto-resyncs when the subscribe point is
        already below the base — a brand-new replica joining late."""
        leader = make_accounts_db(EngineKind.SIASV)
        hub = ReplicationHub(leader)
        for i in range(10, 20):
            seed(leader, [(i, f"row-{i}", 1.0)])
        leader.wal.log_checkpoint(leader.wal.durable_seq())

        replica = make_accounts_db(EngineKind.SIASV)
        follower = WalFollower(replica, hub, follower_id="late-joiner")
        follower.connect()
        assert follower.resyncs == 1
        follower.catch_up()
        read = follower.begin_read()
        assert balances(replica, read) == {i: 1.0 for i in range(10, 20)}
        replica.commit(read)


class TestSupervisor:
    @staticmethod
    def _supervise(follower) -> FollowerSupervisor:
        return FollowerSupervisor(
            follower,
            retry=RetryPolicy(base_delay_sec=0.0, max_delay_sec=0.0),
            sleep=lambda _s: None)

    def test_eviction_resubscribe_lands_in_resyncing(self):
        """A follower whose slot was evicted under the retention budget
        passes through RESYNCING on its next supervised step — the
        supervisor never crashes, and the step ends streaming again."""
        leader, _hub, replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0)])
        supervisor = self._supervise(follower)
        assert supervisor.step() is FollowerState.STREAMING

        leader.wal.max_retained_records = 4
        for i in range(2, 12):
            seed(leader, [(i, f"row-{i}", 1.0)])
        leader.wal.log_checkpoint(leader.wal.durable_seq())
        assert follower.follower_id not in leader.wal.slots()  # evicted

        assert supervisor.step() is FollowerState.STREAMING
        assert supervisor.resyncs_observed == 1  # passed through RESYNCING
        assert supervisor.failures == 0
        read = follower.begin_read()
        assert len(balances(replica, read)) == 11
        replica.commit(read)

    def test_transport_error_backs_off_then_recovers(self):
        """An unreachable upstream sets DISCONNECTED with a recorded
        error; once it answers again the loop resumes streaming."""
        leader, hub, _replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0)])
        supervisor = self._supervise(follower)
        assert supervisor.step() is FollowerState.STREAMING

        class DeadSource:
            def __getattr__(self, _name):
                raise ConnectionError("upstream unreachable")

        follower.source = DeadSource()
        assert supervisor.step() is FollowerState.DISCONNECTED
        assert supervisor.disconnects == 1
        assert "unreachable" in (supervisor.last_error or "")

        follower.source = hub
        seed(leader, [(2, "b", 20.0)])
        assert supervisor.step() is FollowerState.STREAMING
        assert supervisor.failures == 0


class TestMarkerPersistence:
    def test_watermark_and_epoch_survive_crash(self):
        """The restart marker carries watermark + epoch, so a recovered
        replica's fresh follower resumes with all three — its cascade
        hub never serves closed_ts=0 to a downstream bootstrap."""
        leader, hub, replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0), (2, "b", 20.0)])
        follower.catch_up()
        watermark, epoch = follower.watermark, follower.epoch
        assert watermark > 0

        crash(replica)
        recover(replica)
        resumed = WalFollower(replica, hub)
        assert resumed.watermark == watermark  # before any reconnect
        assert resumed.epoch == epoch

    def test_marker_survives_local_checkpoint(self):
        """A replica-local checkpoint truncates the replica's own WAL —
        the marker must be re-armed after it, or a later crash would
        resume from seq 0 with a zero watermark."""
        leader, hub, replica, follower = make_pair()
        seed(leader, [(1, "a", 10.0)])
        follower.catch_up()
        watermark, acked = follower.watermark, follower.acked_seq

        replica.checkpointer.run_now()  # truncates, then re-marks
        crash(replica)
        recover(replica)
        resumed = WalFollower(replica, hub)
        assert resumed.watermark == watermark
        assert resumed.acked_seq == acked


class TestEngineGate:
    def test_si_baseline_refuses_replication(self):
        """Only SIAS-V relations replicate: the SI baseline has no
        record-redo apply path for the follower to ride."""
        leader = make_accounts_db(EngineKind.SI)
        hub = ReplicationHub(leader)
        replica = make_accounts_db(EngineKind.SI)
        follower = WalFollower(replica, hub)
        follower.connect()
        seed(leader, [(1, "a", 10.0)])
        with pytest.raises(ReplicationError, match="SI baseline"):
            follower.catch_up()
