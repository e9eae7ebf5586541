"""Database-level crash simulation and recovery.

``crash(db)`` throws away everything a power loss would: the buffer pool,
in-flight transactions, the WAL tail (both the unflushed byte buffer *and*
the unforced record history — a record the leader never forced is not
durable), all in-memory index trees, and the engines' volatile structures
(VIDmap, working pages, FSM).  ``recover(db)`` brings the database back:

* transaction fates re-derived from the durable WAL prefix (a COMMIT record
  is the durability point; anything else is treated as aborted).  The
  report distinguishes transactions that *settled before* the crash
  (``aborted_txns`` — the application saw the abort) from those the crash
  interrupted and recovery rolled back (``rolled_back_txns`` — the
  application may have seen nothing, or a hang),
* **SIAS-V** relations run the full engine recovery of
  :mod:`repro.core.recovery` — device rescan (tolerating torn page seals),
  VIDmap rebuild, WAL redo of versions lost with the working page,
* **SI baseline** relations rebuild their FSM from the surviving heap
  pages.  Heap mutations since the last flush of each page are lost: the
  baseline is recovered *checkpoint-consistent* (PostgreSQL would replay
  physical page images from its WAL; reproducing ARIES physical redo is out
  of scope and orthogonal to the paper — run a checkpoint before crashing
  to make the baseline lose nothing).  The asymmetry is itself a result:
  SIAS-V needs no page images because sealed pages are immutable.
* all index trees rebuilt by scanning the recovered relations.

Redo is bounded: :meth:`~repro.wal.log.WriteAheadLog.durable_records`
starts at the last durable CHECKPOINT record, so recovery work is
proportional to activity since the last checkpoint, not to history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baseline.engine import SiEngine
from repro.core.engine import SiasVEngine
from repro.core.recovery import (
    SiasRecoveryReport,
    crash_engine,
    recover_engine,
)
from repro.common.errors import PageCorruptError, ReadUnwrittenError
from repro.db.database import Database
from repro.pages.base import Page
from repro.pages.slotted import SlottedHeapPage
from repro.txn.commitlog import CommitLog, TxnState
from repro.wal.records import WalRecordType


@dataclass
class RecoveryReport:
    """Outcome of one database recovery."""

    committed_txns: int = 0
    #: settled *before* the crash: a durable record trail but the clog
    #: already said ABORTED (first-updater-wins losers, explicit rollbacks)
    aborted_txns: int = 0
    #: interrupted by the crash and settled *by recovery* (no durable
    #: COMMIT record — includes committed-but-not-forced transactions)
    rolled_back_txns: int = 0
    #: reinstated in-doubt (prepared, undecided) transactions awaiting
    #: their coordinator's decision
    in_doubt_txns: int = 0
    #: WAL data records re-applied for in-doubt transactions
    prepared_redo: int = 0
    engine_reports: dict[str, SiasRecoveryReport] = field(
        default_factory=dict)
    heap_pages_recovered: dict[str, int] = field(default_factory=dict)
    #: heap pages whose flush never completed (gap or torn) — re-registered
    #: empty; their rows are lost, the baseline's by-design asymmetry
    heap_pages_lost: dict[str, int] = field(default_factory=dict)
    index_entries_rebuilt: int = 0


def crash(db: Database) -> None:
    """Simulate a power loss: drop every volatile structure."""
    db.buffer.invalidate_all()  # dirty pages die with the page cache
    db.wal.lose_tail()          # unforced WAL records die with their buffer
    for relation in db.tables.values():
        # index structures are in-memory: recreate them empty
        for index_name, (definition, _tree) in list(
                relation.indexes.items()):
            del relation.indexes[index_name]
            relation.add_index(definition)
        if isinstance(relation.engine, SiasVEngine):
            crash_engine(relation.engine)
    # Empty the lock table but keep its configuration — a fresh LockTable()
    # would silently discard wait_timeout_sec and demote a multi-worker
    # server back to immediate first-updater-wins aborts after recovery.
    db.txn_mgr.locks.clear()
    db.txn_mgr._active.clear()
    # prepared-txn handles (undo chains, locks) are volatile too; recovery
    # reinstates them from the durable PREPARE records
    db.txn_mgr.prepared.clear()


def recover(db: Database) -> RecoveryReport:
    """Bring a crashed database back to a consistent, queryable state."""
    report = RecoveryReport()
    durable = db.wal.durable_records()
    in_doubt = _settle_transaction_fates(db.txn_mgr.clog, durable, report)
    for name, relation in db.tables.items():
        if isinstance(relation.engine, SiasVEngine):
            mine = [r for r in durable
                    if r.relation_id == relation.relation_id
                    and r.type in (WalRecordType.INSERT,
                                   WalRecordType.UPDATE,
                                   WalRecordType.DELETE)]
            report.engine_reports[name] = recover_engine(relation.engine,
                                                         mine)
        else:
            recovered, lost = _recover_heap(relation.engine)
            report.heap_pages_recovered[name] = recovered
            report.heap_pages_lost[name] = lost
    # Index rebuild must precede prepared-txn reinstatement: the rebuild
    # scan sees committed state only, and an in-doubt update that kept its
    # key must find the committed ``(key, vid)`` entry already present —
    # otherwise reinstatement would claim it, and its abort-undo would
    # strip the committed row from the index.
    report.index_entries_rebuilt = _rebuild_indexes(db)
    _reinstate_prepared(db, durable, in_doubt, report)
    return report


def _settle_transaction_fates(clog: CommitLog, durable,
                              report) -> dict[int, int]:
    """Settle fates; returns in-doubt ``{txid: gtxid}`` left undecided.

    A durable PREPARE record with no durable decision leaves its
    transaction *in doubt*: recovery must neither commit nor abort it —
    that call belongs to the coordinator (presumed abort: no coordinator
    decision on record means abort, but only the coordinator says so).
    """
    committed = {r.txid for r in durable
                 if r.type is WalRecordType.COMMIT}
    aborted = {r.txid for r in durable
               if r.type is WalRecordType.ABORT}
    prepared = {r.txid: r.item_id for r in durable
                if r.type is WalRecordType.PREPARE}
    in_doubt: dict[int, int] = {}
    # CHECKPOINT records carry txid -1 (no transaction); keep them out of
    # the fate bookkeeping.
    seen = {r.txid for r in durable if r.txid >= 0}
    for txid in seen | set(clog._states):
        state = clog._states.get(txid)
        if state is TxnState.IN_PROGRESS:
            if txid in committed:
                # forced COMMIT record but the clog flip was lost: the
                # transaction *was* durably committed — finish the flip.
                clog.set_committed(txid)
            elif txid in prepared and txid not in aborted:
                # durable vote, no durable decision: back in doubt (the
                # clog flip to PREPARED was lost with the crash)
                clog.set_prepared(txid)
                in_doubt[txid] = prepared[txid]
            else:
                # in flight at the crash with no durable COMMIT: recovery
                # settles its fate now.
                clog.set_aborted(txid)
                report.rolled_back_txns += 1
        elif state is TxnState.PREPARED:
            if txid in committed:
                clog.set_committed(txid)
            elif txid in aborted:
                clog.set_aborted(txid)
                report.rolled_back_txns += 1
            else:
                in_doubt[txid] = prepared.get(txid, -1)
        elif state is TxnState.ABORTED and txid in seen:
            # settled before the crash; counted separately from rollbacks
            report.aborted_txns += 1
        if txid in committed:
            report.committed_txns += 1
    report.in_doubt_txns = len(in_doubt)
    return in_doubt


def _reinstate_prepared(db: Database, durable, in_doubt: dict[int, int],
                        report: RecoveryReport) -> None:
    """Rebuild in-doubt transactions: versions, entrypoints, locks, undo.

    The committed redo pass deliberately skips prepared transactions'
    records (they are not committed), so their versions — lost with the
    working page — are re-appended here, entrypoints swung to them with
    undo actions that swing back on an abort decision, item locks
    re-acquired (first-updater-wins must keep holding off conflicting
    writers while the fate is undecided), and index entries re-inserted
    with undo.  The rebuilt :class:`~repro.txn.manager.Transaction`
    handles land back in the manager's active + prepared registries, which
    keeps the GC horizon and checkpoint anchor pinned below their
    versions until the coordinator's decision arrives.

    Versions are re-appended unconditionally (even if the original copy
    made it onto a sealed page): the old copy is unreferenced garbage for
    the next GC pass, exactly like an aborted version, and redo stays
    independent of where the crash fell relative to the page seal.
    """
    if not in_doubt:
        return
    from repro.txn.manager import Transaction, TxnPhase
    from repro.txn.snapshot import Snapshot

    mgr = db.txn_mgr
    by_rel = {rel.relation_id: rel for rel in db.tables.values()}
    txns = {
        txid: Transaction(
            txid=txid,
            snapshot=Snapshot(txid=txid, concurrent=frozenset()),
            gtxid=(gtxid if gtxid >= 0 else None))
        for txid, gtxid in in_doubt.items()}
    for record in durable:
        if record.type not in (WalRecordType.INSERT, WalRecordType.UPDATE,
                               WalRecordType.DELETE):
            continue
        txn = txns.get(record.txid)
        if txn is None:
            continue
        relation = by_rel.get(record.relation_id)
        if relation is None or not isinstance(relation.engine, SiasVEngine):
            continue
        engine = relation.engine
        vid = record.item_id
        mgr.locks.acquire((relation.relation_id, vid), txn.txid)
        tombstone = record.type is WalRecordType.DELETE
        prior_tid, _new_tid = engine.redo(vid, record.txid, tombstone,
                                          record.payload)
        txn.register_undo(
            lambda e=engine, v=vid, t=prior_tid: e._undo_entrypoint(v, t))
        if not tombstone:
            row = relation.codec.decode(record.payload)
            for tree, key in relation.index_missing(vid, row):
                txn.register_undo(lambda t=tree, k=key, r=vid: t.delete(k, r))
        txn.writes += 1
        report.prepared_redo += 1
    for txn in txns.values():
        txn.phase = TxnPhase.PREPARED
        mgr._active[txn.txid] = txn
        mgr.prepared[txn.txid] = txn


def _recover_heap(engine: SiEngine) -> tuple[int, int]:
    """Rebuild the FSM (and page cache) from surviving heap pages.

    Pages are classified up to the high-water mark — the greatest page
    number with *any* device content.  Below it, an unwritten gap (the
    background writer flushes out of order, so page 7 can hit the device
    before page 3) or a torn flush is a real page whose content is lost:
    it is re-registered as a fresh empty page so the FSM can place rows
    there again.  Above the high-water mark lie never-used extent-tail
    addresses, which stay unregistered.

    Returns ``(recovered, lost)`` page counts.
    """
    heap = engine.heap
    tablespace = heap.buffer.tablespace
    allocated = tablespace.file_pages(heap.file_id)
    heap.fsm = type(heap.fsm)()
    survivors: dict[int, SlottedHeapPage] = {}
    high = -1
    for page_no in range(allocated):
        lba = tablespace.lba_of(heap.file_id, page_no)
        try:
            raw = tablespace.read_page(lba)
        except ReadUnwrittenError:
            continue  # gap: flushed out of order, or never flushed
        try:
            page = Page.from_bytes(raw)
        except PageCorruptError:
            high = max(high, page_no)  # torn flush: content present, lost
            continue
        assert isinstance(page, SlottedHeapPage)
        survivors[page_no] = page
        high = max(high, page_no)
    recovered = 0
    lost = 0
    for page_no in range(high + 1):
        page = survivors.get(page_no)
        if page is not None:
            heap.buffer.put_clean(heap.file_id, page_no, page)
            recovered += 1
        else:
            page = SlottedHeapPage(page_no, heap.config.page_size)
            heap.buffer.put_dirty(heap.file_id, page_no, page)
            lost += 1
        heap.fsm.register_page(page_no, page.free_bytes())
    return recovered, lost


def _rebuild_indexes(db: Database) -> int:
    """Repopulate every index tree from a committed-state scan.

    Runs before :func:`_reinstate_prepared` (see :func:`recover`), so the
    scan sees the last committed version of every item and in-doubt
    entries are layered on top with their abort-undo hooks.
    """
    rebuilt = 0
    txn = db.begin()
    for name, relation in db.tables.items():
        for ref, row in db.scan(txn, name):
            rebuilt += len(relation.index_missing(ref, row))
    db.commit(txn)
    return rebuilt
