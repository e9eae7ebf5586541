"""Crash recovery for a SIAS-V engine.

The SIAS-V recovery story is deliberately simple — a direct consequence of
the append-only design the paper emphasises: *"all information that is
required for a reconstruction is stored on each tuple version"*.

What is volatile and lost at a crash:

* the **VIDmap** (in-memory vector, persisted only at clean shutdown),
* the **working append page** (versions not yet sealed to the device),
* the append store's bookkeeping (sealed-page set, free page numbers),
* the chain-severed markers.

What survives: every *sealed* append page (written exactly once, never
dirty in the buffer) and the forced prefix of the WAL.

Recovery therefore proceeds in three steps:

1. **Rescan** the relation's file: every readable page rebuilds the
   sealed-page set; trimmed (GC-reclaimed) pages read back as unwritten and
   become reusable page numbers.
2. **Rebuild the VIDmap**: for every VID, the committed version with the
   greatest creation timestamp is the entrypoint.  Versions created by
   transactions without a COMMIT record are treated as aborted.
3. **Redo from the WAL**: committed modifications whose versions lived in
   the lost working page are re-appended in log order (the WAL carries the
   VID and the full payload).

There is no undo phase: aborted/unfinished transactions' versions are
simply never referenced again and the next GC pass discards them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import (PageCorruptError, ReadUnwrittenError,
                                 ReproError)
from repro.core.engine import SiasVEngine
from repro.pages.append_page import AppendPage
from repro.pages.base import Page
from repro.pages.layout import Tid, VersionRecord
from repro.wal.records import WalRecord, WalRecordType


@dataclass
class SiasRecoveryReport:
    """What one engine's recovery pass did."""

    pages_rescanned: int = 0
    pages_reusable: int = 0
    pages_torn: int = 0  # checksum-failing (partially written) pages
    items_mapped: int = 0
    redo_applied: int = 0
    redo_skipped: int = 0  # already present on a sealed page


def crash_engine(engine: SiasVEngine) -> None:
    """Discard the engine's volatile state, as a power loss would."""
    engine.vidmap._buckets.clear()
    engine.chain_severed.clear()
    engine.store._open.clear()
    engine.store._current.clear()
    engine.store._idle_page_nos.clear()
    engine.store.sealed.clear()
    engine.store._free_page_nos.clear()
    engine.store._next_page_no = 0


def recover_engine(engine: SiasVEngine,
                   wal_records: list[WalRecord]) -> SiasRecoveryReport:
    """Rebuild an engine from device pages plus the durable WAL prefix.

    ``wal_records`` must be the *durable* WAL prefix, already filtered to
    this engine's relation, in log order.  The commit log is consulted for
    transaction fates (recovery marks unfinished transactions aborted
    before calling this).
    """
    report = SiasRecoveryReport()
    _rescan_pages(engine, report)
    _rebuild_vidmap(engine, report)
    _redo_from_wal(engine, wal_records, report)
    return report


def _rescan_pages(engine: SiasVEngine, report: SiasRecoveryReport) -> None:
    from repro.core.append_store import _SealedPageInfo

    store = engine.store
    tablespace = store.buffer.tablespace
    allocated = tablespace.file_pages(store.file_id)
    for page_no in range(allocated):
        lba = tablespace.lba_of(store.file_id, page_no)
        try:
            raw = tablespace.read_page(lba)
        except ReadUnwrittenError:
            # never written, or trimmed by GC: reusable address space
            store._free_page_nos.append(page_no)
            report.pages_reusable += 1
            continue
        try:
            page = Page.from_bytes(raw)
        except PageCorruptError:
            # torn write: the crash interrupted this page's seal, so its
            # checksum fails.  Its versions were not durable — any
            # committed ones come back via WAL redo (a seal in flight at
            # the crash postdates the last completed checkpoint, so its
            # records were never truncated).  The address is reusable.
            # Trim the half-written content so any surviving pred pointer
            # into this page faults as *unwritten* (the signal every chain
            # walk already tolerates) instead of as a checksum failure.
            tablespace.trim_page(store.file_id, page_no)
            store._free_page_nos.append(page_no)
            report.pages_torn += 1
            report.pages_reusable += 1
            continue
        if not isinstance(page, AppendPage):
            continue  # e.g. persisted VIDmap buckets share no file, skip
        store.buffer.put_clean(store.file_id, page_no, page)
        store.sealed[page_no] = _SealedPageInfo(page.record_count)
        report.pages_rescanned += 1
    store._next_page_no = allocated
    import heapq
    heapq.heapify(store._free_page_nos)


def _rebuild_vidmap(engine: SiasVEngine,
                    report: SiasRecoveryReport) -> None:
    clog = engine.txn_mgr.clog
    best: dict[int, tuple[int, Tid]] = {}
    max_vid = -1
    for page_no in engine.store.sealed_page_nos():
        page = engine.store.buffer.get_page(engine.store.file_id, page_no)
        assert isinstance(page, AppendPage)
        for slot, record in page.records():
            max_vid = max(max_vid, record.vid)
            if not clog.is_committed(record.create_ts):
                continue
            current = best.get(record.vid)
            if current is None or record.create_ts > current[0]:
                best[record.vid] = (record.create_ts, Tid(page_no, slot))
    for vid, (_ts, tid) in best.items():
        engine.vidmap.set(vid, tid)
    report.items_mapped = len(best)
    # VID allocation must resume above everything ever assigned
    engine.allocator.reserve_through(max_vid)


def _durable_depth(engine: SiasVEngine, tid: Tid, txid: int) -> int:
    """How many of ``txid``'s versions head the durable chain at ``tid``.

    A transaction that wrote the same item more than once left a run of
    equal-``create_ts`` versions at the head of the chain; redo must skip
    exactly that many of its WAL records and apply the remainder.  A
    faulting pred (torn page below the head) ends the count early, which
    at worst re-appends a version identical to an unreadable durable one.
    """
    depth = 0
    next_tid: Tid | None = tid
    while next_tid is not None:
        try:
            record = engine.store.read(next_tid)
        except ReproError:
            break
        if record.create_ts != txid:
            break
        depth += 1
        next_tid = record.pred
    return depth


def _redo_from_wal(engine: SiasVEngine, wal_records: list[WalRecord],
                   report: SiasRecoveryReport) -> None:
    clog = engine.txn_mgr.clog
    seen: dict[tuple[int, int], int] = {}
    pre_depth: dict[tuple[int, int], int] = {}

    def durable(head_tid: Tid, head: VersionRecord) -> bool:
        """Skip rule for the loop's current ``record`` (``key``, ``index``):
        a newer head, or this write is already durable."""
        if head.create_ts != record.txid:
            # a later committed change supersedes this one
            return head.create_ts > record.txid
        # the transaction's own versions head the chain: its first
        # ``depth`` records are already durable, any further writes it
        # made to this item are not
        if key not in pre_depth:
            pre_depth[key] = _durable_depth(engine, head_tid, record.txid)
        return index < pre_depth[key]

    for record in wal_records:
        if record.type not in (WalRecordType.INSERT, WalRecordType.UPDATE,
                               WalRecordType.DELETE):
            continue
        if not clog.is_committed(record.txid):
            continue
        key = (record.txid, record.item_id)
        index = seen.get(key, 0)
        seen[key] = index + 1
        if engine.redo(record.item_id, record.txid,
                       record.type is WalRecordType.DELETE, record.payload,
                       durable) is None:
            report.redo_skipped += 1
        else:
            report.redo_applied += 1
