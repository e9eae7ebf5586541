"""The SIAS-V storage engine: one relation, versioned by appends.

Mutation model (the paper's Algorithms 2/3 re-expressed):

* **Insert** allocates a fresh VID, appends version ``X₀`` with
  ``pred = NULL`` and points the VIDmap at it.
* **Update** appends a successor version whose ``pred`` is the current
  entrypoint and swings the VIDmap pointer.  *Nothing* is written to the old
  version — its invalidation is implicit in the successor's existence.  The
  first-updater-wins rule is enforced with a transactional lock per
  ``(relation, VID)`` plus an entrypoint-visibility check: an updater that
  cannot see the current entrypoint lost a race to a committed-concurrent
  writer and aborts with a serialization error.
* **Delete** appends a *tombstone* version — required as long as running
  transactions may still view older versions of the item.
* **Read** descends from the entrypoint through predecessor references and
  returns the first version visible under the transaction's snapshot.

On abort, registered undo actions swing VIDmap entrypoints back, so aborted
versions become unreachable garbage for the page GC.

**Redo** (:meth:`SiasVEngine.redo`) replays a logged version: crash
recovery, in-doubt 2PC reinstatement, replica stream apply and resync
install all go through it.  Every write — transactional or replayed —
ends in the same latched append-and-swing (:meth:`SiasVEngine._append_head`),
so a GC pass (which holds every stripe) can never interleave with one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.buffer.manager import BufferManager
from repro.common.config import Colocation, EngineConfig
from repro.common.errors import (
    NoSuchItemError,
    SerializationError,
    TombstoneError,
)
from repro.common.latch import LatchStripes
from repro.core.append_store import AppendStore
from repro.core.vid import VidAllocator
from repro.core.vidmap import VidMap
from repro.pages.append_page import AppendPage
from repro.pages.layout import Tid, VersionRecord
from repro.txn.manager import Transaction, TransactionManager
from repro.wal.records import WalRecord, WalRecordType


@dataclass
class SiasVStats:
    """Read-path behaviour counters.

    Updated only through :meth:`add`, which folds a whole operation's
    deltas in under an internal mutex — scans and resolutions run on
    several dispatcher workers concurrently, and a bare ``+=`` on these
    fields is a lost-update race.  Same atomic-read-and-update discipline
    as :meth:`repro.txn.manager.TransactionManager.counters`.
    """

    resolves: int = 0      # visible-version resolutions
    chain_hops: int = 0    # predecessor fetches beyond the entrypoint
    max_chain_hops: int = 0
    tombstone_hits: int = 0
    scan_descents_saved: int = 0  # chain descents skipped via scan caching

    def __post_init__(self) -> None:
        # Not a dataclass field: the lock is identity state, not a counter,
        # and must stay out of comparisons and replace().
        self._mu = threading.Lock()

    def add(self, *, resolves: int = 0, chain_hops: int = 0,
            tombstone_hits: int = 0, scan_descents_saved: int = 0,
            observed_depth: int = -1) -> None:
        """Atomically fold one operation's counter deltas in.

        ``observed_depth`` is the chain depth a resolution was found at
        (-1 for none); it only ever raises ``max_chain_hops``.
        """
        with self._mu:
            self.resolves += resolves
            self.chain_hops += chain_hops
            self.tombstone_hits += tombstone_hits
            self.scan_descents_saved += scan_descents_saved
            if observed_depth > self.max_chain_hops:
                self.max_chain_hops = observed_depth


class SiasVEngine:
    """Append-storage MVCC engine for one relation."""

    def __init__(self, relation_id: int, buffer: BufferManager,
                 file_id: int, config: EngineConfig,
                 txn_mgr: TransactionManager) -> None:
        self.relation_id = relation_id
        self.config = config
        self.txn_mgr = txn_mgr
        self.vidmap = VidMap(config.vidmap_slots_per_bucket, config.page_size)
        self.allocator = VidAllocator()
        self.store = AppendStore(buffer, file_id, config)
        self.stats = SiasVStats()
        #: striped latches keyed by ``(relation_id, vid)``: each write path
        #: holds exactly one stripe around its append + entrypoint swing,
        #: so unrelated items proceed in parallel; GC quiesces writers by
        #: holding all stripes (``holding_all``)
        self.latches = LatchStripes(64)
        #: vid → TID whose pred pointer is severed: GC discarded the chain
        #: tail below this record, so walks must not follow its pred (the
        #: target pages may have been reclaimed and recycled).  In-memory
        #: like the VIDmap; rebuilt trivially on recovery (a missing pred
        #: target means severed).
        self.chain_severed: dict[int, Tid] = {}

    # -- write path --------------------------------------------------------------

    def _group(self, txn: Transaction) -> object:
        """Co-location group for this transaction's appends."""
        if self.config.colocation is Colocation.TRANSACTION:
            return txn.txid
        return None

    def on_txn_finished(self, txid: int) -> None:
        """Release the transaction's co-location page (SI-CV policy)."""
        self.store.release_group(txid)

    def _append_head(self, vid: int, create_ts: int, pred: Tid | None,
                     tombstone: bool, payload: bytes,
                     group: object = None) -> Tid:
        """Append a version of ``vid`` and swing its entrypoint to it.

        The one write tail: both run under the item's stripe, so a GC
        pass (all stripes held) sees either none or both.  Stripes are
        reentrant — :meth:`redo` calls this already holding it.
        """
        record = VersionRecord(create_ts=create_ts, vid=vid, pred=pred,
                               tombstone=tombstone, payload=payload)
        with self.latches.of((self.relation_id, vid)):
            tid = self.store.append(record, group=group)
            self.vidmap.set(vid, tid)
        return tid

    def insert(self, txn: Transaction, payload: bytes) -> int:
        """Create a new data item; returns its VID."""
        vid = self.allocator.allocate()
        self.txn_mgr.locks.acquire((self.relation_id, vid), txn.txid)
        self._append_head(vid, txn.txid, None, False, payload,
                          self._group(txn))
        txn.register_undo(lambda: self._undo_entrypoint(vid, None))
        self._log(txn, WalRecordType.INSERT, vid, payload)
        txn.writes += 1
        return vid

    def bulk_insert(self, txn: Transaction,
                    payloads: list[bytes]) -> range:
        """Page-wise bulk load: N items with one VID block reservation.

        The paper's VIDmap section calls this out explicitly: "pre-loading
        and bulk-loading can be supported, e.g. new VIDs can be generated
        in a page-wise manner".  One lock acquisition covers the whole
        block (the VIDs are fresh, nobody else can address them), one undo
        action clears it, and one WAL record per row is still written so
        crash recovery replays losslessly.
        """
        vids = self.allocator.allocate_block(len(payloads))
        self.txn_mgr.locks.acquire((self.relation_id, ("bulk", vids.start)),
                                   txn.txid)
        group = self._group(txn)
        for vid, payload in zip(vids, payloads):
            self._append_head(vid, txn.txid, None, False, payload, group)
            self._log(txn, WalRecordType.INSERT, vid, payload)
        txn.register_undo(
            lambda: [self._undo_entrypoint(vid, None) for vid in vids])
        txn.writes += len(payloads)
        return vids

    def update(self, txn: Transaction, vid: int, payload: bytes) -> None:
        """Append a successor version of ``vid`` (implicit invalidation).

        The item lock is taken *before* the visibility check: with lock
        waiting enabled (multi-worker server) a second updater blocks here
        until the holder finishes, then re-validates the entrypoint — if
        the holder committed a conflicting version, the check aborts the
        waiter (first-updater-wins); if the holder aborted, the waiter
        proceeds.  That is PostgreSQL's wait-then-recheck discipline.
        """
        self.txn_mgr.locks.acquire((self.relation_id, vid), txn.txid)
        entry_tid = self._check_updatable(txn, vid)
        self._append_head(vid, txn.txid, entry_tid, False, payload,
                          self._group(txn))
        txn.register_undo(lambda: self._undo_entrypoint(vid, entry_tid))
        self._log(txn, WalRecordType.UPDATE, vid, payload)
        txn.writes += 1

    def delete(self, txn: Transaction, vid: int) -> None:
        """Append a tombstone version of ``vid``."""
        self.txn_mgr.locks.acquire((self.relation_id, vid), txn.txid)
        entry_tid = self._check_updatable(txn, vid)
        self._append_head(vid, txn.txid, entry_tid, True, b"",
                          self._group(txn))
        txn.register_undo(lambda: self._undo_entrypoint(vid, entry_tid))
        self._log(txn, WalRecordType.DELETE, vid, b"")
        txn.writes += 1

    def redo(self, vid: int, create_ts: int, tombstone: bool,
             payload: bytes,
             skip: Callable[[Tid, VersionRecord], bool] | None = None,
             ) -> tuple[Tid | None, Tid] | None:
        """Replay one logged version on top of ``vid``'s current head.

        Under the item's stripe: read the head, let ``skip(head_tid,
        head)`` veto the replay (each replayer has its own rule for "the
        head already has it"; never asked without a head), append the
        version chained to the head, swing the entrypoint, and raise
        the VID high-water mark past ``vid``.  Holding the stripe
        across read-chain-swing is what keeps a GC relocation from
        overwriting the swing.  Returns ``(prior_head, new_tid)``, or
        None when skipped.
        """
        with self.latches.of((self.relation_id, vid)):
            head_tid = self.vidmap.get(vid)
            if (head_tid is not None and skip is not None
                    and skip(head_tid, self.store.read(head_tid))):
                return None
            new_tid = self._append_head(vid, create_ts, head_tid,
                                        tombstone, payload)
            self.allocator.reserve_through(vid)
        return head_tid, new_tid

    def _undo_entrypoint(self, vid: int, entry_tid: Tid | None) -> None:
        """Abort path: swing the entrypoint back under the item's stripe."""
        with self.latches.of((self.relation_id, vid)):
            self.vidmap.set(vid, entry_tid)

    def _check_updatable(self, txn: Transaction, vid: int) -> Tid:
        """Algorithm-3 precondition: the entrypoint must be visible to us.

        Returns the entrypoint TID the new version will chain to.
        """
        entry_tid = self.vidmap.get(vid)
        if entry_tid is None:
            raise NoSuchItemError(
                f"relation {self.relation_id}: VID {vid} does not exist")
        entry = self.store.read(entry_tid)
        if not txn.snapshot.sees_ts(entry.create_ts, self.txn_mgr.clog):
            # A newer version exists that we cannot see: either its writer
            # is still running (lock conflict) or it committed after our
            # snapshot (first-updater-wins loss).  Both abort us.
            raise SerializationError(
                f"concurrent update of VID {vid}: entrypoint created by "
                f"txn {entry.create_ts} is invisible to txn {txn.txid}")
        if entry.tombstone:
            raise TombstoneError(
                f"relation {self.relation_id}: VID {vid} was deleted")
        return entry_tid

    def _log(self, txn: Transaction, rtype: WalRecordType, vid: int,
             payload: bytes) -> None:
        if self.txn_mgr.wal is not None:
            self.txn_mgr.wal.append(WalRecord(rtype, txn.txid, vid, payload,
                                              self.relation_id))

    # -- read path -----------------------------------------------------------------

    def resolve_visible(self, txn: Transaction,
                        vid: int) -> tuple[VersionRecord, Tid] | None:
        """First visible version of ``vid``, walking entrypoint → preds.

        Returns None for unknown VIDs and items with no visible version.
        Tombstones are *returned* (callers distinguish deleted-and-visible
        from never-visible).
        """
        tid = self.vidmap.get(vid)
        if tid is None:
            return None
        hops = 0
        while True:
            record = self.store.read(tid)
            if txn.snapshot.sees_ts(record.create_ts, self.txn_mgr.clog):
                self.stats.add(resolves=1, chain_hops=hops,
                               observed_depth=hops)
                return record, tid
            if record.pred is None:
                self.stats.add(resolves=1, chain_hops=hops)
                return None
            tid = record.pred
            hops += 1

    def descend_visible_batch(
            self, txn: Transaction, entries: list[Tid | None],
    ) -> tuple[list[tuple[VersionRecord, Tid] | None], list[int], int]:
        """Batched chain descent: one ``read_many`` per chain *level*.

        All entrypoints are fetched together; the not-yet-visible survivors
        of each level descend to their predecessors with another batched
        fetch — so chain hops ride the device's channel parallelism exactly
        like the entrypoint fetches do, instead of serialising one read per
        hop.  TIDs repeated within a level are fetched once.

        Returns ``(resolutions, depths, total_hops)``: per-entry visible
        ``(record, tid)`` or None, the chain depth each resolution was found
        at, and the total predecessor hops taken (for stats, which the
        callers update exactly as the serial walk did).
        """
        clog = self.txn_mgr.clog
        sees = txn.snapshot.sees_ts
        results: list[tuple[VersionRecord, Tid] | None] = [None] * len(entries)
        depths = [0] * len(entries)
        pending = [(i, tid) for i, tid in enumerate(entries)
                   if tid is not None]
        depth = 0
        total_hops = 0
        while pending:
            unique = list(dict.fromkeys(tid for _i, tid in pending))
            fetched = dict(zip(unique, self.store.read_many(unique)))
            descended: list[tuple[int, Tid]] = []
            for i, tid in pending:
                record = fetched[tid]
                if sees(record.create_ts, clog):
                    results[i] = (record, tid)
                    depths[i] = depth
                elif record.pred is not None:
                    descended.append((i, record.pred))
                    total_hops += 1
                # else: chain exhausted with nothing visible → stays None
            pending = descended
            depth += 1
        return results, depths, total_hops

    def resolve_visible_many(
            self, txn: Transaction,
            vids: list[int]) -> list[tuple[VersionRecord, Tid] | None]:
        """Batched :meth:`resolve_visible` with identical stats accounting."""
        entries: list[Tid | None] = []
        resolves = 0
        for vid in vids:
            tid = self.vidmap.get(vid)
            if tid is not None:
                resolves += 1
            entries.append(tid)
        results, depths, hops = self.descend_visible_batch(txn, entries)
        deepest = max((found_depth for result, found_depth
                       in zip(results, depths) if result is not None),
                      default=-1)
        self.stats.add(resolves=resolves, chain_hops=hops,
                       observed_depth=deepest)
        return results

    def read(self, txn: Transaction, vid: int) -> bytes | None:
        """Visible payload of ``vid`` (None if absent, invisible or deleted)."""
        resolved = self.resolve_visible(txn, vid)
        txn.reads += 1
        if resolved is None:
            return None
        record, _tid = resolved
        if record.tombstone:
            self.stats.add(tombstone_hits=1)
            return None
        return record.payload

    def read_many(self, txn: Transaction,
                  vids: list[int]) -> list[bytes | None]:
        """Batched :meth:`read` — the index-lookup fast path."""
        resolved = self.resolve_visible_many(txn, vids)
        txn.reads += len(vids)
        out: list[bytes | None] = []
        for item in resolved:
            if item is None:
                out.append(None)
                continue
            record, _tid = item
            if record.tombstone:
                self.stats.add(tombstone_hits=1)
                out.append(None)
            else:
                out.append(record.payload)
        return out

    def exists(self, txn: Transaction, vid: int) -> bool:
        """Whether ``vid`` has a visible non-tombstone version."""
        return self.read(txn, vid) is not None

    # -- recovery -----------------------------------------------------------------------

    def reconstruct_vidmap(self) -> VidMap:
        """Rebuild the VIDmap from the version data alone.

        All information required for reconstruction is stored on each tuple
        version: for every VID the entrypoint is its committed version with
        the greatest creation timestamp.  (Versions of uncommitted or
        aborted transactions are skipped.)  Used by the recovery tests to
        show the in-memory VIDmap is redundant state.
        """
        best: dict[int, tuple[int, Tid]] = {}
        clog = self.txn_mgr.clog

        def _consider(record: VersionRecord, tid: Tid) -> None:
            if not clog.is_committed(record.create_ts):
                return
            current = best.get(record.vid)
            if current is None or record.create_ts > current[0]:
                best[record.vid] = (record.create_ts, tid)

        for page_no in self.store.sealed_page_nos():
            page = self.store.buffer.get_page(self.store.file_id, page_no)
            assert isinstance(page, AppendPage)
            for slot, record in page.records():
                _consider(record, Tid(page_no, slot))
        for page_no in self.store.open_page_nos():
            open_page = self.store.open_page(page_no)
            assert open_page is not None
            for slot, record in open_page.records():
                _consider(record, Tid(page_no, slot))
        rebuilt = VidMap(self.config.vidmap_slots_per_bucket,
                         self.config.page_size)
        for vid, (_ts, tid) in best.items():
            rebuilt.set(vid, tid)
        return rebuilt
