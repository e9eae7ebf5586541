"""The ``crash`` sweep scenario: recovery invariants at injected crash points.

The full sweep (every write of a long workload) runs from the CLI / CI
(``repro sweep crash``); these tests run reduced sweeps plus targeted
single-point scenarios, including a torn append-page seal.
"""

from __future__ import annotations

import pytest

from repro.common.config import PageLayout
from repro.db.database import Database, EngineKind
from repro.db.recovery import crash, recover
from repro.experiments.sweeps import SCENARIOS, run_point, sweep
from repro.experiments.sweeps.harness import accounts_db

SMALL = dict(accounts=6, transfers=12)

LAYOUTS = pytest.mark.parametrize(
    "layout", [PageLayout.VECTOR, PageLayout.NSM],
    ids=["vector", "nsm"])


def make_layout_db(layout: PageLayout) -> Database:
    """A SIAS-V accounts database with an explicit append-page layout."""
    return accounts_db(EngineKind.SIASV, layout)


CRASH = SCENARIOS["crash"]


def count_writes(**params) -> int:
    """Count mode: device writes of one fault-free run."""
    return run_point(CRASH, None, **SMALL, **params).events


class TestSweep:
    @LAYOUTS
    def test_siasv_sweep_holds_invariants(self, layout):
        """The full value oracle holds for both append-page layouts."""
        report = sweep(CRASH, stride=5, engine=EngineKind.SIASV,
                       layout=layout, **SMALL)
        assert len(report.outcomes) >= 3
        assert report.sum("tripped") == len(report.outcomes)

    def test_layouts_recover_identically_past_end(self):
        """Same workload run to completion under both layouts: identical
        committed-transfer and recovered-row counts.  (Mid-run crash
        points are layout-relative — the layouts seal at different write
        counts — so the sweep's value oracle covers those per layout.)"""
        outcomes = {}
        for layout in (PageLayout.VECTOR, PageLayout.NSM):
            outcome = run_point(CRASH, count_writes(layout=layout) + 100,
                                layout=layout, **SMALL)
            outcomes[layout] = (outcome.confirmed,
                                outcome.facts["recovered_rows"])
        assert outcomes[PageLayout.VECTOR] == outcomes[PageLayout.NSM]
        assert outcomes[PageLayout.VECTOR] == (SMALL["transfers"],
                                               SMALL["accounts"])

    def test_si_sweep_holds_invariants(self):
        report = sweep(CRASH, stride=5, engine=EngineKind.SI, **SMALL)
        assert len(report.outcomes) >= 3

    def test_count_mode_is_deterministic(self):
        assert count_writes() == count_writes()

    def test_crash_past_end_recovers_complete_run(self):
        """A crash point beyond the run's writes: clean shutdown, full
        recovery of every transfer."""
        outcome = run_point(CRASH, count_writes() + 100, **SMALL)
        assert not outcome.tripped
        assert outcome.confirmed == SMALL["transfers"]
        assert outcome.facts["recovered_rows"] == SMALL["accounts"]

    def test_first_write_crash_recovers_empty(self):
        outcome = run_point(CRASH, 1, **SMALL)
        assert outcome.tripped
        assert outcome.confirmed == 0
        assert outcome.facts["recovered_rows"] == 0


class TestTornSealRecovery:
    @LAYOUTS
    def test_torn_tail_page_reported_and_reused(self, layout):
        """A sealed append page half-written at the crash is detected by
        its checksum, reported, made reusable — and its committed
        versions come back through WAL redo.  Identical behaviour for
        both append-page layouts."""
        sias_db = make_layout_db(layout)
        txn = sias_db.begin()
        for i in range(400):  # enough to seal several append pages
            sias_db.insert(txn, "accounts", (i, "u" * 30, float(i)))
        sias_db.commit(txn)
        engine = sias_db.table("accounts").engine
        store = engine.store
        assert all(p.layout is layout for p in store._open.values())
        sealed = list(store.sealed)
        assert sealed, "workload did not seal any append page"
        victim = max(sealed)
        tablespace = store.buffer.tablespace
        lba = tablespace.lba_of(store.file_id, victim)
        raw = tablespace.device.read_page(lba)
        half = len(raw) // 2
        tablespace.device.write_page(lba, raw[:half] + b"\x00" * half)
        crash(sias_db)
        report = recover(sias_db)
        engine_report = report.engine_reports["accounts"]
        assert engine_report.pages_torn == 1
        assert engine_report.pages_reusable >= 1
        # the torn page's address went back to the free pool — and may
        # already have been taken again by WAL redo's re-appends
        reusable = set(store._free_page_nos)
        reoccupied = set(store.sealed) | set(store._open)
        assert victim in (reusable | reoccupied)
        # no committed row was lost: redo replayed the torn versions
        txn = sias_db.begin()
        rows = {row[0] for _ref, row in sias_db.scan(txn, "accounts")}
        sias_db.commit(txn)
        assert rows == set(range(400))

    @LAYOUTS
    def test_double_crash_after_torn_seal(self, layout):
        sias_db = make_layout_db(layout)
        txn = sias_db.begin()
        for i in range(400):
            sias_db.insert(txn, "accounts", (i, "u" * 30, float(i)))
        sias_db.commit(txn)
        store = sias_db.table("accounts").engine.store
        victim = max(store.sealed)
        tablespace = store.buffer.tablespace
        lba = tablespace.lba_of(store.file_id, victim)
        raw = tablespace.device.read_page(lba)
        tablespace.device.write_page(
            lba, raw[:len(raw) // 2] + b"\x00" * (len(raw) // 2))
        crash(sias_db)
        recover(sias_db)
        crash(sias_db)  # recovery's own state must itself be recoverable
        recover(sias_db)
        txn = sias_db.begin()
        rows = {row[0] for _ref, row in sias_db.scan(txn, "accounts")}
        sias_db.commit(txn)
        assert rows == set(range(400))
