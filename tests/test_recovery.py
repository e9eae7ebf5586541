"""Crash-recovery tests: durability semantics after simulated power loss.

The contract: everything a *committed* transaction wrote survives a crash
(commit forces the WAL); uncommitted work disappears; the SIAS-V in-memory
structures (VIDmap, working page, index trees) are fully rebuilt from the
immutable sealed pages plus WAL redo.
"""

from __future__ import annotations

import pytest

from repro.db.database import EngineKind
from repro.db.recovery import crash, recover
from repro.wal.records import WalRecordType
from tests.conftest import make_accounts_db


def _rows(db) -> dict[int, tuple]:
    txn = db.begin()
    state = {row[0]: row for _ref, row in db.scan(txn, "accounts")}
    db.commit(txn)
    return state


class TestWalDurability:
    def test_commit_makes_records_durable(self, sias_db):
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (1, "a", 1.0))
        assert all(r.type is not WalRecordType.INSERT
                   for r in sias_db.wal.durable_records())
        sias_db.commit(txn)
        durable = sias_db.wal.durable_records()
        assert any(r.type is WalRecordType.INSERT for r in durable)
        assert any(r.type is WalRecordType.COMMIT for r in durable)

    def test_uncommitted_tail_not_durable(self, sias_db):
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (1, "a", 1.0))
        # no commit: the INSERT sits in the volatile tail
        tail = [r for r in sias_db.wal.replay()
                if r.type is WalRecordType.INSERT]
        assert tail and tail[0] not in sias_db.wal.durable_records()

    def test_records_carry_relation_id(self, sias_db):
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (1, "a", 1.0))
        sias_db.commit(txn)
        inserts = [r for r in sias_db.wal.durable_records()
                   if r.type is WalRecordType.INSERT]
        assert inserts[0].relation_id == \
            sias_db.table("accounts").relation_id


class TestSiasRecovery:
    def test_committed_data_survives(self, sias_db):
        txn = sias_db.begin()
        for i in range(30):
            sias_db.insert(txn, "accounts", (i, f"u{i}", float(i)))
        sias_db.commit(txn)
        before = _rows(sias_db)
        crash(sias_db)
        report = recover(sias_db)
        assert _rows(sias_db) == before
        assert report.index_entries_rebuilt > 0

    def test_working_page_versions_redone_from_wal(self, sias_db):
        """Versions that never reached a sealed page come back via redo."""
        txn = sias_db.begin()
        refs = [sias_db.insert(txn, "accounts", (i, "u", float(i)))
                for i in range(5)]
        sias_db.commit(txn)
        engine = sias_db.table("accounts").engine
        assert engine.store.stats.sealed_pages == 0  # all in working page
        before = _rows(sias_db)
        crash(sias_db)
        report = recover(sias_db)
        assert _rows(sias_db) == before
        assert report.engine_reports["accounts"].redo_applied >= 5

    def test_uncommitted_work_disappears(self, sias_db):
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (1, "committed", 1.0))
        sias_db.commit(txn)
        doomed = sias_db.begin()
        sias_db.insert(doomed, "accounts", (2, "phantom", 2.0))
        hits = sias_db.lookup(doomed, "accounts", "pk", 1)
        sias_db.update(doomed, "accounts", hits[0][0],
                       (1, "mutated", 9.0))
        crash(sias_db)  # doomed never committed
        recover(sias_db)
        state = _rows(sias_db)
        assert state == {1: (1, "committed", 1.0)}

    def test_updates_recover_to_newest_committed(self, sias_db):
        txn = sias_db.begin()
        ref = sias_db.insert(txn, "accounts", (1, "v0", 0.0))
        sias_db.commit(txn)
        for i in range(1, 6):
            txn = sias_db.begin()
            sias_db.update(txn, "accounts", ref, (1, f"v{i}", float(i)))
            sias_db.commit(txn)
        crash(sias_db)
        recover(sias_db)
        assert _rows(sias_db)[1] == (1, "v5", 5.0)

    def test_deletes_survive(self, sias_db):
        txn = sias_db.begin()
        keep = sias_db.insert(txn, "accounts", (1, "keep", 0.0))
        gone = sias_db.insert(txn, "accounts", (2, "gone", 0.0))
        sias_db.commit(txn)
        txn = sias_db.begin()
        sias_db.delete(txn, "accounts", gone)
        sias_db.commit(txn)
        crash(sias_db)
        recover(sias_db)
        assert set(_rows(sias_db)) == {1}

    def test_recovery_after_gc_and_page_recycling(self, sias_db):
        txn = sias_db.begin()
        refs = [sias_db.insert(txn, "accounts", (i, "x" * 60, 0.0))
                for i in range(10)]
        sias_db.commit(txn)
        for round_ in range(15):
            txn = sias_db.begin()
            for ref in refs:
                row = sias_db.read(txn, "accounts", ref)
                sias_db.update(txn, "accounts", ref,
                               (row[0], "x" * 60, row[2] + 1))
            sias_db.commit(txn)
            if round_ % 4 == 3:
                sias_db.maintenance()
        before = _rows(sias_db)
        crash(sias_db)
        report = recover(sias_db)
        assert _rows(sias_db) == before
        assert report.engine_reports["accounts"].pages_reusable >= 0

    @pytest.mark.xfail(strict=True, reason=(
        "core/gc.py::_sweep_pages relocates live records into the volatile "
        "working page without logging them and reclaims the victim page at "
        "once: a crash before that working page seals loses committed rows "
        "(CHANGES.md PR 11, defect 1; the fix moves write amplification)"))
    def test_gc_relocated_rows_survive_a_crash(self, sias_db):
        txn = sias_db.begin()
        refs = {i: sias_db.insert(txn, "accounts", (i, "u" * 30, float(i)))
                for i in range(400)}
        sias_db.commit(txn)
        # every row but one in ten goes dead three times over, so GC finds
        # pages worth reclaiming that still hold a few live records
        for round_ in range(3):
            for i, ref in refs.items():
                if i % 10 != 3:
                    txn = sias_db.begin()
                    sias_db.update(txn, "accounts", ref,
                                   (i, "u" * 30, float(i + round_ + 1)))
                    sias_db.commit(txn)
        sias_db.checkpointer.run_now()  # the WAL no longer covers them
        report = sias_db.maintenance()["accounts"]
        assert report.pages_reclaimed > 0 and report.records_relocated > 0
        crash(sias_db)
        recover(sias_db)
        assert set(_rows(sias_db)) == set(refs)

    def test_new_inserts_work_after_recovery(self, sias_db):
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (1, "old", 0.0))
        sias_db.commit(txn)
        crash(sias_db)
        recover(sias_db)
        txn = sias_db.begin()
        ref = sias_db.insert(txn, "accounts", (2, "new", 1.0))
        sias_db.commit(txn)
        txn = sias_db.begin()
        # VID allocation resumed above recovered items: no collision
        assert len(sias_db.lookup(txn, "accounts", "pk", 1)) == 1
        assert len(sias_db.lookup(txn, "accounts", "pk", 2)) == 1
        sias_db.commit(txn)

    def test_index_lookups_after_recovery(self, sias_db):
        txn = sias_db.begin()
        for i in range(20):
            sias_db.insert(txn, "accounts", (i, f"grp{i % 4}", float(i)))
        sias_db.commit(txn)
        crash(sias_db)
        recover(sias_db)
        txn = sias_db.begin()
        hits = sias_db.lookup(txn, "accounts", "by_owner", "grp2")
        assert sorted(r[0] for _x, r in hits) == [2, 6, 10, 14, 18]
        sias_db.commit(txn)

    def test_double_crash_recover(self, sias_db):
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (1, "a", 1.0))
        sias_db.commit(txn)
        crash(sias_db)
        recover(sias_db)
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (2, "b", 2.0))
        sias_db.commit(txn)
        crash(sias_db)
        recover(sias_db)
        assert set(_rows(sias_db)) == {1, 2}


class TestSiRecovery:
    def test_checkpoint_consistent_recovery(self, si_db):
        txn = si_db.begin()
        for i in range(15):
            si_db.insert(txn, "accounts", (i, "u", float(i)))
        si_db.commit(txn)
        si_db.checkpointer.run_now()  # make the heap durable
        before = _rows(si_db)
        crash(si_db)
        report = recover(si_db)
        assert _rows(si_db) == before
        assert report.heap_pages_recovered["accounts"] >= 1

    def test_unflushed_heap_mutations_lost_without_checkpoint(self, si_db):
        txn = si_db.begin()
        si_db.insert(txn, "accounts", (1, "a", 1.0))
        si_db.commit(txn)
        # no checkpoint: dirty heap pages die with the buffer pool
        crash(si_db)
        recover(si_db)
        assert _rows(si_db) == {}

    def test_post_checkpoint_updates_lost_but_consistent(self, si_db):
        txn = si_db.begin()
        ref = si_db.insert(txn, "accounts", (1, "v0", 0.0))
        si_db.commit(txn)
        si_db.checkpointer.run_now()
        txn = si_db.begin()
        si_db.update(txn, "accounts", ref, (1, "v1", 1.0))
        si_db.commit(txn)
        crash(si_db)  # the update only lived in the buffer pool
        recover(si_db)
        assert _rows(si_db)[1] == (1, "v0", 0.0)  # checkpoint-consistent

class TestCrashDiscards:
    def test_lock_config_survives_crash(self, any_db):
        any_db.txn_mgr.locks.wait_timeout_sec = 0.25
        txn = any_db.begin()
        any_db.insert(txn, "accounts", (1, "a", 1.0))
        any_db.commit(txn)
        crash(any_db)
        recover(any_db)
        assert any_db.txn_mgr.locks.wait_timeout_sec == 0.25
        assert any_db.txn_mgr.locks.held_count() == 0

    def test_unforced_records_die_with_wal_tail(self, sias_db):
        txn = sias_db.begin()
        sias_db.insert(txn, "accounts", (1, "a", 1.0))
        # no commit: the INSERT was appended but never forced
        crash(sias_db)
        assert all(r.txid != txn.txid for r in sias_db.wal.replay())

    def test_fate_split_aborted_vs_rolled_back(self, any_db):
        # B settles (aborts) before the crash; A commits; C is in flight
        b = any_db.begin()
        any_db.insert(b, "accounts", (2, "b", 2.0))
        any_db.abort(b)
        a = any_db.begin()
        any_db.insert(a, "accounts", (1, "a", 1.0))
        any_db.commit(a)  # forces the WAL, making B's trail durable too
        c = any_db.begin()
        any_db.insert(c, "accounts", (3, "c", 3.0))
        crash(any_db)
        report = recover(any_db)
        assert report.committed_txns == 1
        assert report.aborted_txns == 1
        assert report.rolled_back_txns == 1


class TestHeapOutOfOrderFlush:
    def _fill_pages(self, si_db, pages: int) -> None:
        """Commit rows until the heap spans at least ``pages`` pages."""
        engine = si_db.table("accounts").engine
        i = 0
        while engine.heap.fsm.page_count < pages:
            txn = si_db.begin()
            for _ in range(20):
                si_db.insert(txn, "accounts", (i, "u" * 40, float(i)))
                i += 1
            si_db.commit(txn)

    def test_gap_pages_recovered_not_truncated(self, si_db):
        """Out-of-order flushing must not hide later-flushed pages.

        The bgwriter flushes whatever the clock sweep hands it, so page 7
        can reach the device while page 3 is still dirty.  Recovery used
        to stop at the first unwritten page, silently dropping every
        flushed page after the gap.
        """
        self._fill_pages(si_db, 10)
        engine = si_db.table("accounts").engine
        heap_file = engine.heap.file_id
        # flush only the upper half: pages 0..4 stay dirty (the gap)
        flushed = si_db.buffer.flush_batch(
            [(heap_file, page_no) for page_no in range(5, 10)])
        assert flushed == 5
        crash(si_db)
        report = recover(si_db)
        assert report.heap_pages_recovered["accounts"] == 5
        assert report.heap_pages_lost["accounts"] == 5
        assert engine.heap.fsm.page_count == 10
        rows = _rows(si_db)
        assert rows  # the flushed pages' rows survived the gap
        # the re-registered gap pages accept new inserts
        txn = si_db.begin()
        si_db.insert(txn, "accounts", (100000, "fresh", 1.0))
        si_db.commit(txn)
        assert 100000 in _rows(si_db)
