"""``crash``: power-fail the engine at the k-th device write, recover.

The recovery subsystem's adversary.  Data and WAL devices share one
:class:`~repro.storage.faults.CrashPoint`, so every write the system
issues — WAL forces, page seals, heap flushes, checkpoint work, even the
seeding inserts — is a candidate crash site.  Every even-numbered point
is *torn*: the fatal write persists only a prefix of the page, leaving a
checksum-failing partial page for recovery to detect.

After the crash :func:`repro.db.recovery.recover` runs and the recovered
state meets the oracle:

* **SIAS-V** — the full value oracle.  Exactly the transfers whose
  ``commit()`` returned are visible (commit forces the WAL, so a returned
  commit is durable; the one in-flight transaction is not).
* **SI baseline** — the structural oracle.  The baseline is recovered
  checkpoint-consistent (heap mutations after a page's last flush are
  lost by design — the paper's asymmetry result), so value equality is
  *not* asserted; recovery must complete, produce a well-formed scan,
  agree with its own indexes, and accept further committed work.
"""

from __future__ import annotations

from repro.common import units
from repro.common.clock import SimClock
from repro.common.config import (
    BufferConfig,
    EngineConfig,
    FlashConfig,
    SystemConfig,
)
from repro.db.database import Database, EngineKind
from repro.db.recovery import crash, recover
from repro.experiments.sweeps.harness import (
    Run,
    Scenario,
    SweepInvariantError,
    check_index,
    check_liveness,
    check_state,
    confirmed_transfer,
    create_accounts,
    scan_accounts,
    seed_accounts,
)
from repro.storage.faults import CrashPoint, FaultyDevice, SimulatedCrash
from repro.storage.flash import FlashDevice

#: one-page WAL ceiling so ``tick()`` fires real checkpoints mid-run and
#: the sweep exercises checkpoint-anchored (bounded) redo
MAX_WAL_BYTES = 8 * units.KIB


def _build_db(run: Run, point: CrashPoint) -> Database:
    system = SystemConfig(
        flash=FlashConfig(capacity_bytes=64 * units.MIB),
        buffer=BufferConfig(pool_pages=128, max_wal_bytes=MAX_WAL_BYTES),
        engine=EngineConfig(layout=run.layout),
        extent_pages=16,
    )
    clock = SimClock()
    data, wal = (FaultyDevice(FlashDevice(clock, system.flash, name=name),
                              seed=run.seed, crash_point=point)
                 for name in ("data-ssd", "wal-ssd"))
    db = Database(run.engine, data, wal, system)
    create_accounts(db)
    return db


def _check_structure(db: Database, run: Run) -> dict[int, tuple]:
    """The SI baseline's oracle: well-formed, not value-equal."""
    txn = db.begin()
    rows = scan_accounts(db, txn)
    if not set(rows) <= set(range(run.accounts)):
        raise SweepInvariantError(f"unknown account ids: {sorted(rows)}")
    for acct_id, row in rows.items():
        if row[1] != f"acct-{acct_id}":
            raise SweepInvariantError(
                f"mangled row for id {acct_id}: {row!r}")
    check_index(db, txn, rows)
    db.commit(txn)
    return rows


def _run(run: Run) -> None:
    k = run.at or 0
    point = CrashPoint(at_write=k, torn=k > 0 and k % 2 == 0)
    db = _build_db(run, point)
    try:
        # attempt() begins and commits explicitly, so a crash
        # mid-transaction leaves the victim genuinely unfinished
        seed_accounts(run, db, bulk=False)
        for _ in range(run.transfers):
            confirmed_transfer(run, db)
            db.tick()  # lets the checkpointer truncate the WAL mid-run
        db.shutdown()
    except SimulatedCrash:
        pass
    point.disarm()  # the machine is dead; recovery may touch the device
    crash(db)
    report = recover(db)
    rows = (check_state(db, run.mirror) if run.engine is EngineKind.SIASV
            else _check_structure(db, run))
    check_liveness(db, rows)
    run.tripped, run.events = point.tripped, point.writes_seen
    run.facts = {
        "torn_pages_detected": sum(r.pages_torn
                                   for r in report.engine_reports.values()),
        "rolled_back_txns": report.rolled_back_txns,
        "recovered_rows": len(rows),
    }


CRASH = Scenario("crash", _run, unit="device writes", seed=7, accounts=20,
                 transfers=120, stream="crash", engines=True)
