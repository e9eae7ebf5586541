"""Cluster tests: shard map properties, 2PC recovery edges, router e2e.

Covers the acceptance contract for the VID-range sharded cluster:

* hypothesis properties on :class:`ShardMap` — every global VID has
  exactly one owner, ``(shard_of, to_local)`` / ``to_global`` is a
  bijection, per-shard local order is global order, and ``split_range``
  covers ``[lo, hi)`` exactly (no gap, no overlap, nothing outside);
* a participant crashing *after* PREPARE: the in-doubt transaction is
  reinstated from the WAL, presumed abort restores the old version and
  its index entry, a commit decision finalises the new one;
* a coordinator crashing *after* logging its commit decision: a
  successor router with the same durable log re-pushes the decision on
  start, and its gtxid allocator stays above the logged watermark —
  with no logged decision the prepared leftover is presumed aborted;
* unmodified ``RemoteDatabase`` / ``TpccDriver`` against the router on a
  2-shard cluster, cross-shard transfers going through real 2PC;
* a multi-endpoint :class:`ConnectionPool` keeping one dead endpoint's
  breaker from opening the circuit for its healthy peer;
* a router→shard link lost mid-LOOKUP relayed as a plain ambiguous
  failure, never as an uncertain commit (the shard-fault sweeps
  themselves run from ``tests/test_sweeps.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import RemoteDatabase
from repro.client.pool import CircuitBreaker, ConnectionPool, RetryPolicy
from repro.cluster import (
    ClusterRouter,
    CoordinatorLog,
    RouterConfig,
    ShardMap,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.common import units
from repro.common.errors import CircuitOpenError
from repro.db.database import EngineKind
from repro.db.recovery import crash, recover
from repro.experiments.sweeps.cluster import FracturingRouter
from repro.server.chaos import NetFaultKind
from repro.server.protocol import Command
from tests.conftest import make_accounts_db

# --- strategies ---------------------------------------------------------------

shard_counts = st.integers(1, 7)
range_sizes = st.sampled_from([1, 2, 3, 64, 1024])
gvids = st.integers(0, 2**40)


# --- shard map properties -----------------------------------------------------

class TestShardMapProperties:
    @given(shard_counts, range_sizes, gvids)
    @settings(max_examples=200, deadline=None)
    def test_global_local_bijection(self, shards, range_size, gvid):
        """(shard_of, to_local) and to_global invert each other."""
        smap = ShardMap(shards, range_size=range_size)
        shard, local = smap.shard_of(gvid), smap.to_local(gvid)
        assert 0 <= shard < shards
        assert local >= 0
        assert smap.to_global(shard, local) == gvid

    @given(shard_counts, range_sizes, st.integers(0, 6),
           st.integers(0, 2**30))
    @settings(max_examples=200, deadline=None)
    def test_local_global_bijection(self, shards, range_size, shard, lvid):
        """to_global lands back on the shard and local VID it came from."""
        shard = shard % shards
        smap = ShardMap(shards, range_size=range_size)
        gvid = smap.to_global(shard, lvid)
        assert smap.shard_of(gvid) == shard
        assert smap.to_local(gvid) == lvid

    @given(shard_counts, range_sizes, st.integers(0, 2**30),
           st.integers(1, 2**12))
    @settings(max_examples=100, deadline=None)
    def test_to_global_monotonic_per_shard(self, shards, range_size,
                                           lvid, step):
        """A shard's local VID order is global VID order on that shard."""
        smap = ShardMap(shards, range_size=range_size)
        for shard in range(shards):
            assert (smap.to_global(shard, lvid)
                    < smap.to_global(shard, lvid + step))

    @given(shard_counts, st.sampled_from([1, 2, 3, 8]),
           st.integers(0, 200), st.integers(0, 80))
    @settings(max_examples=150, deadline=None)
    def test_split_range_covers_exactly(self, shards, range_size, lo, span):
        """split_range partitions [lo, hi): every VID in exactly one
        triple's local range, and nothing outside [lo, hi) covered."""
        smap = ShardMap(shards, range_size=range_size)
        hi = lo + span
        covered: list[int] = []
        for shard, local_lo, local_hi in smap.split_range(lo, hi):
            assert local_lo < local_hi
            for lvid in range(local_lo, local_hi):
                covered.append(smap.to_global(shard, lvid))
        assert sorted(covered) == list(range(lo, hi))

    def test_place_round_robin(self):
        smap = ShardMap(3)
        assert [smap.place() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        smap = ShardMap(2)
        with pytest.raises(ValueError):
            smap.shard_of(-1)
        with pytest.raises(ValueError):
            smap.to_global(2, 0)
        with pytest.raises(ValueError):
            smap.split_range(5, 4)


# --- participant crash after PREPARE (engine-level) ---------------------------

def _pk_lookup(db, key: int) -> list[tuple]:
    txn = db.begin()
    rows = [row for _ref, row in db.lookup(txn, "accounts", "pk", key)]
    db.commit(txn)
    return rows


class TestParticipantCrashAfterPrepare:
    def test_prepared_insert_survives_crash_and_commits(self):
        db = make_accounts_db(EngineKind.SIASV)
        txn = db.begin()
        db.insert(txn, "accounts", (1, "alice", 10.0))
        db.prepare(txn, gtxid=41)
        crash(db)
        report = recover(db)
        assert report.in_doubt_txns == 1
        (ltxid, gtxid), = db.txn_mgr.in_doubt()
        assert gtxid == 41
        assert db.commit_prepared(ltxid)
        assert _pk_lookup(db, 1) == [(1, "alice", 10.0)]

    def test_prepared_update_presumed_abort_keeps_old_version(self):
        """Regression: an in-doubt UPDATE that keeps its key must not
        claim the committed version's index entry during recovery — its
        abort-undo would otherwise strip the committed row."""
        db = make_accounts_db(EngineKind.SIASV)
        txn = db.begin()
        ref = db.insert(txn, "accounts", (0, "acct-0", 100.0))
        db.commit(txn)
        txn = db.begin()
        db.update(txn, "accounts", ref, (0, "acct-0", 95.0))
        db.prepare(txn, gtxid=77)
        crash(db)
        report = recover(db)
        assert report.in_doubt_txns == 1
        (ltxid, gtxid), = db.txn_mgr.in_doubt()
        assert gtxid == 77
        assert db.abort_prepared(ltxid)
        assert _pk_lookup(db, 0) == [(0, "acct-0", 100.0)]

    def test_prepared_update_commit_decision_after_recovery(self):
        db = make_accounts_db(EngineKind.SIASV)
        txn = db.begin()
        ref = db.insert(txn, "accounts", (0, "acct-0", 100.0))
        db.commit(txn)
        txn = db.begin()
        db.update(txn, "accounts", ref, (0, "acct-0", 95.0))
        db.prepare(txn, gtxid=78)
        crash(db)
        recover(db)
        (ltxid, _gtxid), = db.txn_mgr.in_doubt()
        assert db.commit_prepared(ltxid)
        assert _pk_lookup(db, 0) == [(0, "acct-0", 95.0)]
        assert len(db.txn_mgr.prepared) == 0

    def test_unprepared_txn_is_rolled_back_not_reinstated(self):
        db = make_accounts_db(EngineKind.SIASV)
        txn = db.begin()
        db.insert(txn, "accounts", (9, "bob", 1.0))
        # no prepare, no commit: just power loss
        crash(db)
        report = recover(db)
        assert report.in_doubt_txns == 0
        assert _pk_lookup(db, 9) == []


# --- coordinator crash after decision (cluster-level) -------------------------

@pytest.fixture
def two_shards():
    """Two thread-mode shards, no router (tests bring their own)."""
    sup = ShardSupervisor(SupervisorConfig(
        shards=2, idle_timeout_sec=30.0, drain_timeout_sec=2.0))
    sup.start()
    yield sup
    sup.stop()


def _seed_shard_account(db) -> object:
    """One committed accounts row directly on a shard's database."""
    from repro.db.catalog import IndexDef
    from tests.conftest import ACCOUNTS

    db.create_table("accounts", ACCOUNTS,
                    indexes=[IndexDef("pk", ("id",), unique=True)])
    txn = db.begin()
    ref = db.insert(txn, "accounts", (0, "acct-0", 100.0))
    db.commit(txn)
    return ref


class TestCoordinatorCrashAfterDecision:
    def test_successor_pushes_logged_decision(self, two_shards):
        """Decision durably logged, coordinator dies before phase 2: a
        successor router with the same log commits the participant."""
        db0 = two_shards.database(0)
        ref = _seed_shard_account(db0)
        txn = db0.begin()
        db0.update(txn, "accounts", ref, (0, "acct-0", 55.0))
        db0.prepare(txn, gtxid=6)
        log = CoordinatorLog()
        log.log_commit(6, [(0, txn.txid)])
        assert log.pending_decisions() == {6: [(0, txn.txid)]}

        router = ClusterRouter(two_shards.addresses,
                               RouterConfig(port=0), coordinator_log=log)
        try:
            host, port = router.start_in_background()
            assert log.pending_decisions() == {}
            assert len(db0.txn_mgr.prepared) == 0
            assert _pk_lookup(db0, 0) == [(0, "acct-0", 55.0)]
            assert router.stats.in_doubt_resolved >= 1
            # the allocator must stay above the logged watermark
            with RemoteDatabase(host, port, pool_size=1) as remote:
                txn = remote.begin()
                assert txn.txid > 6
                remote.commit(txn)
        finally:
            router.stop_in_background()

    def test_no_logged_decision_is_presumed_abort(self, two_shards):
        db0 = two_shards.database(0)
        ref = _seed_shard_account(db0)
        txn = db0.begin()
        db0.update(txn, "accounts", ref, (0, "acct-0", 55.0))
        db0.prepare(txn, gtxid=9)

        router = ClusterRouter(two_shards.addresses, RouterConfig(port=0),
                               coordinator_log=CoordinatorLog())
        try:
            router.start_in_background()
            assert len(db0.txn_mgr.prepared) == 0
            assert _pk_lookup(db0, 0) == [(0, "acct-0", 100.0)]
            assert router.stats.presumed_aborts >= 1
        finally:
            router.stop_in_background()


# --- router end to end --------------------------------------------------------

@pytest.fixture
def cluster(two_shards):
    """Two shards behind a background router."""
    router = ClusterRouter(two_shards.addresses, RouterConfig(
        port=0, idle_timeout_sec=30.0, drain_timeout_sec=2.0))
    host, port = router.start_in_background()
    yield two_shards, router, host, port
    router.stop_in_background()


class TestRouterEndToEnd:
    def test_cross_shard_transfer_uses_two_phase_commit(self, cluster):
        sup, router, host, port = cluster
        from repro.db.catalog import IndexDef
        from tests.conftest import ACCOUNTS

        with RemoteDatabase(host, port, pool_size=2) as remote:
            remote.create_table("accounts", ACCOUNTS, indexes=[
                IndexDef("pk", ("id",), unique=True)])
            txn = remote.begin()
            # one row per INSERT: round-robin placement stripes the
            # accounts across both shards
            refs = [remote.insert(txn, "accounts", (i, f"a{i}", 100.0))
                    for i in range(4)]
            remote.commit(txn)
            assert {router.shard_map.shard_of(r) for r in refs} == {0, 1}

            txn = remote.begin()
            remote.update(txn, "accounts", refs[0], (0, "a0", 75.0))
            remote.update(txn, "accounts", refs[1], (1, "a1", 125.0))
            remote.commit(txn)
            assert router.stats.commits_2pc >= 1

            txn = remote.begin()
            balances = {row[0]: row[2]
                        for _ref, row in remote.scan(txn, "accounts")}
            remote.commit(txn)
            assert balances == {0: 75.0, 1: 125.0, 2: 100.0, 3: 100.0}
            assert sum(balances.values()) == 400.0
            assert router.stats.commits_readonly >= 1

    def test_abort_leaves_both_shards_untouched(self, cluster):
        _sup, router, host, port = cluster
        from repro.db.catalog import IndexDef
        from tests.conftest import ACCOUNTS

        with RemoteDatabase(host, port, pool_size=2) as remote:
            remote.create_table("accounts", ACCOUNTS, indexes=[
                IndexDef("pk", ("id",), unique=True)])
            txn = remote.begin()
            refs = [remote.insert(txn, "accounts", (i, f"a{i}", 100.0))
                    for i in range(2)]
            remote.commit(txn)

            txn = remote.begin()
            remote.update(txn, "accounts", refs[0], (0, "a0", 0.0))
            remote.update(txn, "accounts", refs[1], (1, "a1", 200.0))
            remote.abort(txn)

            txn = remote.begin()
            balances = sorted(row[2] for _ref, row
                              in remote.scan(txn, "accounts"))
            remote.commit(txn)
            assert balances == [100.0, 100.0]
            assert router.stats.aborts >= 1

    def test_unmodified_tpcc_driver_through_router(self, cluster):
        from repro.workload.driver import DriverConfig, TpccDriver
        from repro.workload.tpcc_data import TpccLoader
        from repro.workload.tpcc_schema import TpccScale, create_tpcc_tables

        _sup, router, host, port = cluster
        scale = TpccScale(districts_per_warehouse=2,
                          customers_per_district=4, items=10,
                          stock_per_warehouse=10,
                          initial_orders_per_district=2)
        with RemoteDatabase(host, port, pool_size=4) as remote:
            create_tpcc_tables(remote)
            TpccLoader(remote, scale=scale).load(warehouses=1)
            driver = TpccDriver(
                remote, warehouses=1, scale=scale,
                config=DriverConfig(
                    clients=2,
                    maintenance_interval_usec=3600 * units.SEC))
            summary = driver.run_transactions(20).summary()
        assert summary.commits > 0
        assert router.sessions.in_flight_txns() == 0
        assert (router.stats.commits_1pc + router.stats.commits_2pc
                + router.stats.commits_readonly) >= summary.commits


# --- cluster-wide consistent snapshots ----------------------------------------

def _striped_accounts(remote, router, count: int = 2) -> list:
    """``count`` committed accounts, one per shard (round-robin)."""
    from repro.db.catalog import IndexDef
    from tests.conftest import ACCOUNTS

    remote.create_table("accounts", ACCOUNTS, indexes=[
        IndexDef("pk", ("id",), unique=True)])
    txn = remote.begin()
    refs = [remote.insert(txn, "accounts", (i, f"a{i}", 100.0))
            for i in range(count)]
    remote.commit(txn)
    assert {router.shard_map.shard_of(r) for r in refs} == {0, 1}
    return refs


def _fractured_read_probe(remote, refs) -> float:
    """The deterministic anomaly shape: a scanner reads account 0, a
    cross-shard transfer commits, the scanner reads account 1.  Returns
    the sum the scanner observed (200.0 = consistent cut)."""
    scan = remote.begin()
    row0 = remote.read(scan, "accounts", refs[0])
    txn = remote.begin()
    remote.update(txn, "accounts", refs[0], (0, "a0", 75.0))
    remote.update(txn, "accounts", refs[1], (1, "a1", 125.0))
    remote.commit(txn)
    row1 = remote.read(scan, "accounts", refs[1])
    remote.commit(scan)
    return row0[2] + row1[2]


class TestClusterWideSnapshots:
    def test_legacy_per_shard_snapshots_fracture(self, two_shards):
        """Reproducer: with per-shard first-touch snapshots the scanner
        sees the credit but not the debit of one committed transfer."""
        router = FracturingRouter(two_shards.addresses, RouterConfig(
            port=0, idle_timeout_sec=30.0, drain_timeout_sec=2.0))
        host, port = router.start_in_background()
        try:
            with RemoteDatabase(host, port, pool_size=2) as remote:
                refs = _striped_accounts(remote, router)
                # shard 0 snapshots at the first read (pre-transfer),
                # shard 1 at the second (post-transfer): money appears
                assert _fractured_read_probe(remote, refs) == 225.0
        finally:
            router.stop_in_background()

    def test_global_read_timestamp_closes_the_fracture(self, cluster):
        """Same interleaving, default mode: every shard is pinned to the
        BEGIN-time global timestamp, so the cut stays consistent."""
        _sup, router, host, port = cluster
        with RemoteDatabase(host, port, pool_size=2) as remote:
            refs = _striped_accounts(remote, router)
            assert _fractured_read_probe(remote, refs) == 200.0
            # read-your-writes: a begin after the commit ack must see
            # the transfer (the router's commit floor forces a refresh)
            txn = remote.begin()
            balances = sorted(row[2] for _ref, row
                              in remote.scan(txn, "accounts"))
            remote.commit(txn)
            assert balances == [75.0, 125.0]
            assert router.stats.begins_at_ts >= 3

    def test_serializable_rejected_at_begin(self, cluster):
        """Satellite: SSI is per-engine; the router refuses rather than
        silently downgrading to snapshot isolation."""
        from repro.common.errors import ProtocolError

        _sup, _router, host, port = cluster
        with RemoteDatabase(host, port, pool_size=1) as remote:
            with pytest.raises(ProtocolError, match="serializable"):
                remote.begin(serializable=True)

    def test_stats_expose_cluster_snapshot_fields(self, cluster):
        _sup, router, host, port = cluster
        with RemoteDatabase(host, port, pool_size=2) as remote:
            refs = _striped_accounts(remote, router)
            txn = remote.begin()
            remote.scan(txn, "accounts")
            remote.commit(txn)
            stats = remote.server_stats()
        section = stats["cluster"]
        # the per-shard-snapshot canary is a test subclass, not a mode
        assert "per_shard_snapshots" not in section
        for key in ("snapshot_ts", "commit_floor", "straddle_windows",
                    "in_doubt_1pc", "pending_decisions"):
            assert isinstance(section[key], int), key
        assert section["commit_floor"] > 0  # the seeding commit raised it
        for shard in section["shards"]:
            assert shard["alive"]
            assert shard["closed_ts"] >= 0
            # pinned BEGINs reached both shards (scan fans out)
            assert shard["txns"]["begin_at"] >= 1

    def test_wire_begin_at_ts_pins_single_shard_snapshot(self, two_shards):
        """The at_ts operand end to end against one shard server."""
        from repro.db.catalog import IndexDef
        from tests.conftest import ACCOUNTS

        host, port = two_shards.addresses[0]
        with RemoteDatabase(host, port, pool_size=2) as remote:
            remote.create_table("accounts", ACCOUNTS, indexes=[
                IndexDef("pk", ("id",), unique=True)])
            txn = remote.begin()
            ref = remote.insert(txn, "accounts", (0, "acct-0", 100.0))
            remote.commit(txn)
            ts = remote.closed_ts()
            pinned = remote.begin(at_ts=ts)
            writer = remote.begin()
            remote.update(writer, "accounts", ref, (0, "acct-0", 42.0))
            remote.commit(writer)
            # frozen verdicts: the commit after pinning stays invisible
            assert remote.read(pinned, "accounts", ref) == (
                0, "acct-0", 100.0)
            remote.commit(pinned)
            fresh = remote.begin()
            assert remote.read(fresh, "accounts", ref) == (
                0, "acct-0", 42.0)
            remote.commit(fresh)


# --- multi-endpoint pool ------------------------------------------------------

class TestMultiEndpointPool:
    def test_dead_endpoint_breaker_is_isolated(self, two_shards):
        import socket

        # a port that is certainly not listening
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()
        pool = ConnectionPool(
            endpoints=[two_shards.addresses[0], dead],
            size=2,
            retry=RetryPolicy(max_attempts=2, base_delay_sec=0.001,
                              max_delay_sec=0.01, jitter=False),
            breaker=CircuitBreaker(failure_threshold=2,
                                   reset_timeout_sec=60.0))
        try:
            assert pool.call(Command.PING, endpoint=0) == "pong"
            # two failed dials (retry budget) trip endpoint 1's breaker;
            # the next attempt fails fast without touching the network
            with pytest.raises(ConnectionError):
                pool.call(Command.PING, endpoint=1)
            with pytest.raises(CircuitOpenError):
                pool.call(Command.PING, endpoint=1)
            health = pool.endpoints_health()
            assert len(health) == 2
            assert health[1]["state"] == "open"
            assert health[0]["state"] == "closed"
            # the healthy endpoint still serves, pinned or unpinned
            assert pool.call(Command.PING, endpoint=0) == "pong"
            assert pool.call(Command.PING) == "pong"
        finally:
            pool.close()


# --- relayed ambiguity --------------------------------------------------------

class TestRelayedAmbiguity:
    def test_lost_shard_link_on_lookup_is_not_an_uncertain_commit(
            self, two_shards):
        """A router that loses its shard link mid-LOOKUP relays
        ``Status.AMBIGUOUS``.  Only COMMIT may turn that into
        ``CommitUncertainError``; on any other command the caller just
        sees the call fail and aborts — nothing to resolve, no txid -1
        to poll ``TXN_STATUS`` for."""
        from repro.common.errors import (
            AmbiguousResultError,
            CommitUncertainError,
        )
        from repro.server.chaos import ChaosPlan, NetCrashPoint

        point = NetCrashPoint(kind=NetFaultKind.RESET_AFTER)
        point.disarm()
        router = ClusterRouter(two_shards.addresses, RouterConfig(
            port=0, idle_timeout_sec=30.0, drain_timeout_sec=2.0,
            chaos=ChaosPlan(crash_point=point)))
        host, port = router.start_in_background()
        try:
            with RemoteDatabase(host, port, pool_size=2) as remote:
                _seed_shard_account(remote)
                txn = remote.begin()
                assert len(remote.lookup(txn, "accounts", "pk", 0)) == 1
                # the very next router→shard frame dies after it was sent
                point.at_event = point.events_seen + 1
                point.arm()
                with pytest.raises(AmbiguousResultError) as caught:
                    remote.lookup(txn, "accounts", "pk", 0)
                assert not isinstance(caught.value, CommitUncertainError)
                assert point.tripped
                assert remote.pool.stats.uncertain_commits == 0
                remote.abort(txn)
                # the cluster is still live for the next transaction
                txn = remote.begin()
                assert len(remote.lookup(txn, "accounts", "pk", 0)) == 1
                remote.commit(txn)
        finally:
            router.stop_in_background()
