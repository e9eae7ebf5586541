"""Follower side of WAL shipping: continuous redo, watermark reads.

A :class:`WalFollower` drives a replica database.  It fetches the
leader's durable log tail in frames (in-process through a
:class:`~repro.replication.leader.ReplicationHub`, or over the wire
through :class:`RemoteSource`), buffers each transaction's data records
until its COMMIT arrives, and then applies the whole transaction through
the engine's one redo routine (:meth:`repro.core.engine.SiasVEngine.redo`,
shared with crash recovery): under the item's stripe latch, append the
version, swing the VIDmap entrypoint, bump the allocator; then insert
the missing index entries.  The latch matters here: apply runs on the
follower's own thread, outside the server's exclusive lane, so only the
stripe keeps a replica GC pass from relocating a head over an applied
swing.  Versions land **before** the commit-log flip, so a replica
reader can never observe a half-applied transaction.

Reads are pinned at the **replay watermark**: the leader's closed
timestamp as of a frame the follower has fully caught up to.  Because
the leader samples ``closed_ts`` before taking the records
(:meth:`~repro.replication.leader.ReplicationHub.fetch`), every
transaction at or below the watermark is either fully applied here or
was aborted — a snapshot at the watermark is stale-bounded but never
fractured.

Restart resume: after each applied frame the follower appends a small
control record to its *own* WAL (``CHECKPOINT`` carrying the restart
sequence in ``item_id``, with a payload tagging it ``b"REPL"`` and
carrying the replay watermark and adopted epoch) and forces it.  On
restart, stock crash recovery rebuilds the replica state from its own
durable log, the last control record names where to resume, which
timestamp pinned reads (and a cascade hub's backup cut) may trust, and
which epoch fences deposed upstreams; re-delivered records are
deduplicated against the commit log and the engine's version chains.
The marker must survive the replica's *own* checkpoints: local WAL
truncation re-arms it (:meth:`WalFollower._remark_after_checkpoint`),
and a cascade node additionally pins truncation at the watermark's redo
anchor so records of transactions above the backup cut stay shippable
(they are in neither an image at the watermark nor a stream resumed
past them).

Full resync: a follower refused with "full resync required" (its
restart point fell below the leader's retained WAL base — its slot was
dropped or evicted) bootstraps itself through :meth:`WalFollower.resync`:
it pulls a consistent base-backup image from the leader
(``BACKUP_BEGIN``/``BACKUP_FETCH``/``BACKUP_END``), installs it as
ordinary committed transactions in its own WAL, and rejoins the stream
at the handle's resume point.  ``connect`` and ``catch_up`` trigger the
resync automatically.  Crash-mid-resync is safe by construction: each
installed chunk is a durable, fate-settled WAL prefix, the resume
marker is written only after the whole image is in, so a restart lands
below base again and simply restarts the resync — re-installation
dedupes against version chains and the commit log.  Stock recovery
never sees a half-installed image as anything but a prefix of committed
transactions.

Cascading: a follower built with ``cascade=True`` attaches a
:class:`~repro.replication.leader.ReplicationHub` over its *own* WAL —
the shipped records already land there — so grand-followers can chain
replica-of-replica.  The cascade hub advertises the follower's replay
watermark as its closed timestamp (the replica's own ``closed_ts()``
counts replica-local read txids and would overshoot what is actually
applied).  Epoch fencing propagates down the chain: when the upstream
is promoted, this follower adopts the higher epoch on reconnect and
stamps it onto its cascade hub, which fences every grand-follower into
the same reconnect-and-adopt step.

Only SIAS-V relations replicate: the SI baseline's recovery is
checkpoint-consistent rather than record-redo (see
:mod:`repro.db.recovery`), so it has no per-record apply path to ride.
"""

from __future__ import annotations

import struct

from repro.common.errors import ReplicationError
from repro.core.engine import SiasVEngine
from repro.db.database import Database
from repro.txn.commitlog import TxnState
from repro.wal.records import WalRecord, WalRecordType

#: Follower-local txids start here, far above any leader txid the stream
#: can ship, so a local read transaction's commit-log registration can
#: never collide with a shipped transaction's.
REPLICA_TXID_BASE = 1 << 40

#: payload tag of the follower's restart-resume control records
_REPL_MARKER = b"REPL"

#: substring of the typed refusal that triggers an automatic resync
_RESYNC_NEEDLE = "full resync required"


def _replay(relation, vid: int, create_ts: int, tombstone: bool,
            payload: bytes, skip) -> bool:
    """Redo one shipped version plus its missing index entries."""
    engine = relation.engine
    if not isinstance(engine, SiasVEngine):
        raise ReplicationError(
            f"relation {relation.name!r} runs the SI baseline "
            f"engine, which has no record-redo apply path")
    if engine.redo(vid, create_ts, tombstone, payload, skip) is None:
        return False
    if not tombstone:
        relation.index_missing(vid, relation.codec.decode(payload))
    return True


class RemoteSource:
    """Fetches a leader's WAL over the wire protocol.

    Wraps a :class:`~repro.client.pool.ConnectionPool` aimed at the
    leader and speaks ``WAL_SUBSCRIBE`` / ``WAL_FETCH`` plus the
    ``BACKUP_BEGIN`` / ``BACKUP_FETCH`` / ``BACKUP_END`` bootstrap
    commands.
    """

    def __init__(self, pool) -> None:
        self.pool = pool

    def subscribe(self, follower_id: str, start_seq: int) -> dict:
        from repro.server.protocol import Command
        epoch, durable_seq = self.pool.call(
            Command.WAL_SUBSCRIBE, follower_id, start_seq)
        return {"epoch": epoch, "durable_seq": durable_seq}

    def unsubscribe(self, follower_id: str) -> None:
        from repro.server.protocol import Command
        self.pool.call(Command.WAL_UNSUBSCRIBE, follower_id)

    def fetch(self, follower_id: str, epoch: int, since_seq: int,
              acked_seq: int,
              limit: int) -> tuple[int, int, bytes, int, int]:
        from repro.server.protocol import Command
        result = self.pool.call(Command.WAL_FETCH, follower_id, epoch,
                                since_seq, acked_seq, limit)
        return tuple(result)  # type: ignore[return-value]

    def backup_begin(self, follower_id: str) -> dict:
        from repro.server.protocol import Command
        return self.pool.call(Command.BACKUP_BEGIN, follower_id)

    def backup_fetch(self, backup_id: str, epoch: int,
                     chunk_index: int) -> list[tuple]:
        from repro.server.protocol import Command
        entries = self.pool.call(Command.BACKUP_FETCH, backup_id, epoch,
                                 chunk_index)
        return [tuple(entry) for entry in entries]

    def backup_end(self, backup_id: str) -> None:
        from repro.server.protocol import Command
        self.pool.call(Command.BACKUP_END, backup_id)


class WalFollower:
    """Continuously applies a leader's log to a replica database.

    ``db`` must be provisioned with the same tables in the same creation
    order as the leader (relation ids are assigned by creation order and
    DDL is not WAL-logged).  ``cascade=True`` attaches a replication hub
    over the replica's own WAL so further replicas can chain off it.
    """

    def __init__(self, db: Database, source, follower_id: str = "replica-1",
                 batch_limit: int = 256, cascade: bool = False) -> None:
        self.db = db
        self.source = source
        self.follower_id = follower_id
        self.batch_limit = batch_limit
        # keep local txids (read transactions, recovery's index-rebuild
        # scan) clear of the shipped leader txid space
        db.txn_mgr.advance_to(REPLICA_TXID_BASE)
        resume_seq, resume_watermark, resume_epoch = self._resume_state()
        #: next global seq to fetch from the leader
        self.fetch_seq = resume_seq
        #: durable restart point (last forced control record)
        self.acked_seq = self.fetch_seq
        #: replica read timestamp: leader closed_ts as of a frame this
        #: follower has fully applied — recovered from the durable
        #: marker, so a restarted cascade node never advertises a cut
        #: below data its commit log already holds
        self.watermark = resume_watermark
        self.epoch = resume_epoch
        self.role = "replica"
        self.leader_durable_seq = self.fetch_seq
        self.hub = None
        #: set by an attached FollowerSupervisor (resync notifications)
        self.supervisor = None
        #: default per-chunk hook for resyncs triggered *internally*
        #: (connect / catch_up auto-resync) — the chaos sweep's
        #: mid-backup kill points ride this
        self.on_resync_chunk = None
        #: data records of transactions whose COMMIT has not arrived yet
        self._pending: dict[int, list[WalRecord]] = {}
        #: first global seq of each pending transaction (restart anchor)
        self._pending_seq: dict[int, int] = {}
        #: True when _apply_commit appended records since the last force —
        #: the commit log (which survives crashes) may only run ahead of
        #: the durable WAL until the next marker force, never across one
        self._wal_dirty = False
        self.frames = 0
        self.applied_txns = 0
        self.applied_records = 0
        self.deduped_txns = 0
        self.resyncs = 0
        self.resync_records = 0
        self.marker_skips = 0
        #: last durably marked (restart seq, watermark, epoch) — a frame
        #: that moved none of them and appended nothing skips the force
        self._marked = (self.acked_seq, self.watermark, self.epoch)
        if cascade:
            from repro.replication.leader import ReplicationHub
            self.hub = ReplicationHub(self.db, epoch=self.epoch,
                                      closed_ts_fn=lambda: self.watermark)
        # Latest follower wins the db's checkpoint hooks: a restarted
        # node builds a fresh WalFollower over the same recovered
        # Database, and a superseded follower's hooks must not stamp
        # stale markers over the new one's.
        db._wal_follower = self
        db.checkpointer.subscribe(self._pin_watermark_anchor)
        db.checkpointer.subscribe_post(self._remark_after_checkpoint)

    # -- lifecycle ----------------------------------------------------------

    def connect(self) -> dict:
        """Subscribe at the restart point; adopt the leader's epoch.

        A restart point below the leader's retained base triggers an
        automatic full resync, after which the subscription is retried
        at the fresh resume point.
        """
        try:
            info = self.source.subscribe(self.follower_id, self.acked_seq)
        except ReplicationError as exc:
            if _RESYNC_NEEDLE not in str(exc):
                raise
            self.resync()
            info = self.source.subscribe(self.follower_id, self.acked_seq)
        self._adopt_epoch(int(info["epoch"]))
        self.leader_durable_seq = int(info["durable_seq"])
        return info

    def catch_up(self, max_frames: int | None = None,
                 on_frame=None) -> int:
        """Fetch and apply until the leader's durable horizon is reached.

        Returns the number of records applied.  ``on_frame`` (if given)
        is invoked after each applied frame — the chaos sweep's kill
        points count these.  ``max_frames`` bounds the loop for
        incremental draining.  A fetch refused below the retained base
        (the slot was evicted mid-stream) auto-resyncs and continues.
        """
        applied = 0
        while True:
            try:
                frame = self.source.fetch(self.follower_id, self.epoch,
                                          self.fetch_seq, self.acked_seq,
                                          self.batch_limit)
            except ReplicationError as exc:
                if _RESYNC_NEEDLE not in str(exc):
                    raise
                self.resync()
                continue
            epoch, start_seq, blob, durable_seq, closed_ts = frame
            if epoch != self.epoch:
                raise ReplicationError(
                    f"frame carries epoch {epoch}, follower is at "
                    f"{self.epoch}: refusing a fenced leader's records")
            if start_seq != self.fetch_seq:
                raise ReplicationError(
                    f"frame starts at seq {start_seq}, expected "
                    f"{self.fetch_seq}: the shipped stream gapped")
            records = self._unpack(blob)
            for offset, record in enumerate(records):
                self._apply(record, start_seq + offset)
            self.fetch_seq = start_seq + len(records)
            applied += len(records)
            self.leader_durable_seq = durable_seq
            if self.fetch_seq >= durable_seq:
                # everything durable at closed_ts-sample time is applied:
                # the watermark may ratchet to that closed timestamp.
                # Ratchet *before* marking progress so the forced marker
                # carries it — a restart then resumes with a watermark
                # covering everything the marker's force made durable.
                self.watermark = max(self.watermark, closed_ts)
            self._mark_progress()
            self.frames += 1
            if on_frame is not None:
                on_frame(self)
            if self.fetch_seq >= durable_seq:
                return applied
            if max_frames is not None:
                max_frames -= 1
                if max_frames <= 0:
                    return applied

    def promote(self) -> int:
        """Leader failover: fence the old epoch and start leading.

        Incomplete shipped transactions (data records without a durable
        COMMIT from the old leader) are discarded — their fate is abort
        by omission, exactly as crash recovery would settle them.  The
        epoch bump fences the old leader: its frames and fetches are
        refused everywhere from now on, and a cascade hub re-stamped
        with the new epoch fences every grand-follower into adopting it.
        """
        from repro.replication.leader import ReplicationHub
        self._pending.clear()
        self._pending_seq.clear()
        self.epoch += 1
        self.role = "leader"
        # the watermark pin served downstream bootstraps cut at the
        # replay watermark; a leader cuts at its own closed_ts instead
        self.db.wal.drop_slot("~watermark")
        # Write txids minted after promotion must never collide with any
        # downstream follower's *local* read txids (those live in
        # [REPLICA_TXID_BASE, ...) and are registered in each replica's
        # commit log — a shipped txn reusing one would be silently
        # deduped there).  Stratify by epoch: epoch-E leaders mint from
        # E * REPLICA_TXID_BASE, always a full band above local reads.
        self.db.txn_mgr.advance_to(REPLICA_TXID_BASE * self.epoch)
        if self.hub is None:
            self.hub = ReplicationHub(self.db, epoch=self.epoch)
        else:
            # a cascade hub graduates: new epoch, and the closed
            # timestamp now comes from the node's own transactions
            # (the watermark stops advancing once nothing ships in)
            self.hub.epoch = self.epoch
            self.hub._closed_ts_fn = self.db.closed_ts
        return self.epoch

    # -- full resync --------------------------------------------------------

    def resync(self, on_chunk=None) -> dict:
        """Bootstrap from a leader base backup, then rejoin the stream.

        Installs the image as ordinary committed transactions in the
        replica's own WAL (each chunk forced before its versions become
        visible), sweeps stale rows the image no longer contains, and
        only then writes the restart marker at the handle's resume
        point.  ``on_chunk`` (if given) runs after each installed chunk
        — the chaos sweep's mid-backup kill points count these.
        """
        if self.supervisor is not None:
            self.supervisor.note_resync()
        if on_chunk is None:
            on_chunk = self.on_resync_chunk
        handle = self.source.backup_begin(self.follower_id)
        self._adopt_epoch(int(handle["epoch"]))
        # drop half-shipped transactions from before the gap: everything
        # above the cut is re-delivered by the resumed stream
        self._pending.clear()
        self._pending_seq.clear()
        closed_ts = int(handle["closed_ts"])
        image_vids: dict[str, set[int]] = {name: set()
                                           for name in self.db.tables}
        # one COMMIT per image txid, appended only after the *last*
        # chunk: an image fragments a transaction across chunks (it is
        # keyed by vid, not txid), and a per-chunk COMMIT would make a
        # grand-follower streaming this WAL settle the transaction on
        # its first fragment and dedupe the rest as re-delivery
        txids: list[int] = []
        seen: set[int] = set()
        for index in range(int(handle["chunks"])):
            entries = self.source.backup_fetch(handle["backup_id"],
                                               self.epoch, index)
            self._install_chunk(entries, image_vids, txids, seen)
            if on_chunk is not None:
                on_chunk(self, index)
        self.source.backup_end(handle["backup_id"])
        self._sweep_absent(image_vids, closed_ts, txids, seen)
        if txids:
            wal = self.db.wal
            for txid in txids:
                wal.append(WalRecord(WalRecordType.COMMIT, txid, 0))
            wal.force()
        self.fetch_seq = int(handle["resume_seq"])
        self.leader_durable_seq = int(handle["durable_seq"])
        self.watermark = max(self.watermark, closed_ts)
        # the durable restart point moves only now, once the whole image
        # is in: a crash anywhere above resumes below base and restarts
        # the resync cleanly instead of trusting a half-installed image
        self._mark_progress()
        self.resyncs += 1
        return handle

    def _adopt_epoch(self, new_epoch: int) -> None:
        """Monotone epoch adoption — the fencing-propagation step.

        Epochs only grow.  A higher epoch means the lineage changed
        upstream: half-shipped transactions of the deposed lineage are
        dropped, and a cascade hub is re-stamped so every grand-follower
        is fenced into the same adoption on its next fetch.  A *lower*
        epoch means this source is a deposed zombie — refuse it.
        """
        if new_epoch < self.epoch:
            raise ReplicationError(
                f"upstream serves epoch {new_epoch}, follower already "
                f"adopted {self.epoch}: refusing a deposed lineage")
        if new_epoch > self.epoch:
            self._pending.clear()
            self._pending_seq.clear()
            self.epoch = new_epoch
            if self.hub is not None and self.role != "leader":
                self.hub.epoch = new_epoch

    def _install_chunk(self, entries: list[tuple],
                       image_vids: dict[str, set[int]],
                       txids: list[int], seen: set[int]) -> None:
        """Install one backup chunk of the image.

        Data records land in the replica's own WAL and are forced, and
        the commit-log fate is settled, *before* any version becomes
        visible — but the matching WAL COMMIT records are the caller's
        (``resync``'s), appended once per txid after the final chunk.
        A crash mid-install therefore leaves data records whose clog
        fate is COMMITTED but whose COMMIT record is absent: recovery
        keeps the clog verdict and redoes them, and the unmoved restart
        marker re-runs the whole resync anyway.  Versions already at or
        past an entry's timestamp are skipped — that is what makes a
        restarted resync idempotent.
        """
        wal = self.db.wal
        clog = self.db.txn_mgr.clog
        staged: list[tuple] = []
        fresh: list[int] = []
        for name, vid, create_ts, tombstone, payload in entries:
            bucket = image_vids.get(name)
            if bucket is None:
                raise ReplicationError(
                    f"backup image names relation {name!r}, which this "
                    f"replica does not have: schema mismatch")
            bucket.add(vid)
            relation = self.db.tables[name]
            engine = relation.engine
            head_tid = engine.vidmap.get(vid)
            if head_tid is not None:
                head = engine.store.read(head_tid)
                # at or past this image version already: a restarted
                # resync re-installing, or a transaction above the cut
                # this replica had applied before it fell behind
                if head.create_ts >= create_ts:
                    continue
            kind = (WalRecordType.DELETE if tombstone
                    else WalRecordType.INSERT)
            wal.append(WalRecord(kind, create_ts, vid, payload=payload,
                                 relation_id=relation.relation_id))
            if create_ts not in seen:
                seen.add(create_ts)
                txids.append(create_ts)
                fresh.append(create_ts)
            staged.append((relation, vid, create_ts, tombstone, payload))
        wal.force()
        for relation, vid, create_ts, tombstone, payload in staged:
            self._install_version(relation, vid, create_ts, tombstone,
                                  payload)
        for txid in fresh:
            self._force_committed(clog, txid)

    def _install_version(self, relation, vid: int, create_ts: int,
                         tombstone: bool, payload: bytes) -> None:
        # skip a head at or past the image version (restarted resync)
        if _replay(relation, vid, create_ts, tombstone, payload,
                   lambda _tid, head: head.create_ts >= create_ts):
            self.resync_records += 1

    def _sweep_absent(self, image_vids: dict[str, set[int]],
                      closed_ts: int, txids: list[int],
                      seen: set[int]) -> None:
        """Tombstone live local rows the image no longer contains.

        A vid with a locally visible live version at or below the cut
        that is absent from the image can only mean the leader deleted
        it and fully reclaimed the chain (the tombstone itself was
        GC'd).  Heads *above* the cut belong to the re-shipped stream
        region and are left alone.  The tombstones commit at the cut
        timestamp through the caller's single deferred COMMIT batch —
        the cut may coincide with an image txid, and two COMMIT records
        for one txid would make a grand-follower dedupe the second's
        records as re-delivery.
        """
        clog = self.db.txn_mgr.clog
        for name, relation in self.db.tables.items():
            engine = relation.engine
            present = image_vids.get(name, set())
            doomed: list[int] = []
            for vid in range(engine.allocator.high_water):
                if vid in present:
                    continue
                head = self._visible_head(engine, vid, closed_ts, clog)
                if head is not None and not head.tombstone:
                    doomed.append(vid)
            if not doomed:
                continue
            wal = self.db.wal
            for vid in doomed:
                wal.append(WalRecord(WalRecordType.DELETE, closed_ts, vid,
                                     relation_id=relation.relation_id))
            wal.force()
            if closed_ts not in seen:
                seen.add(closed_ts)
                txids.append(closed_ts)
            for vid in doomed:
                self._install_version(relation, vid, closed_ts, True, b"")
            self._force_committed(clog, closed_ts)

    @staticmethod
    def _visible_head(engine, vid: int, ts: int, clog):
        tid = engine.vidmap.get(vid)
        while tid is not None:
            version = engine.store.read(tid)
            if (version.create_ts <= ts
                    and clog.is_committed(version.create_ts)):
                return version
            tid = version.pred
        return None

    @staticmethod
    def _force_committed(clog, txid: int) -> None:
        """Settle ``txid`` COMMITTED regardless of its local state.

        Image transactions are committed on the leader by construction
        (they are visible at the cut).  Locally the txid may be unknown,
        or ABORTED because a pre-resync crash settled a half-shipped
        delivery by omission — the leader's durable verdict wins.
        """
        state = clog._states.get(txid)
        if state is TxnState.COMMITTED:
            return
        if state is None:
            clog.register(txid)
            clog.set_committed(txid)
        else:
            clog._states[txid] = TxnState.COMMITTED

    # -- reads --------------------------------------------------------------

    def read_ts(self) -> int:
        """The snapshot timestamp replica reads are pinned at."""
        return self.watermark

    def begin_read(self):
        """A snapshot transaction pinned at the replay watermark."""
        return self.db.begin(at_ts=self.watermark)

    # -- hub surface (promoted leader, or cascading replica) ----------------

    def subscribe(self, follower_id: str, start_seq: int) -> dict:
        """Serve a subscription (promoted, or cascading)."""
        self._require_hub()
        return self.hub.subscribe(follower_id, start_seq)

    def unsubscribe(self, follower_id: str) -> None:
        """Drop a downstream follower's slot (promoted, or cascading)."""
        self._require_hub()
        self.hub.unsubscribe(follower_id)

    def fetch(self, follower_id: str, epoch: int, since_seq: int,
              acked_seq: int, limit: int = 256):
        """Serve a fetch (promoted, or cascading)."""
        self._require_hub()
        return self.hub.fetch(follower_id, epoch, since_seq, acked_seq,
                              limit)

    def backup_begin(self, follower_id: str) -> dict:
        """Serve a base backup (promoted, or cascading)."""
        self._require_hub()
        return self.hub.backup_begin(follower_id)

    def backup_fetch(self, backup_id: str, epoch: int,
                     chunk_index: int) -> list[tuple]:
        self._require_hub()
        return self.hub.backup_fetch(backup_id, epoch, chunk_index)

    def backup_end(self, backup_id: str) -> None:
        self._require_hub()
        self.hub.backup_end(backup_id)

    def _require_hub(self) -> None:
        if self.hub is None:
            raise ReplicationError(
                f"node is a non-cascading {self.role}: it serves no "
                f"replication hub")

    # -- applying -----------------------------------------------------------

    @staticmethod
    def _unpack(blob: bytes) -> list[WalRecord]:
        records: list[WalRecord] = []
        offset = 0
        while offset < len(blob):
            record, offset = WalRecord.unpack(blob, offset)
            records.append(record)
        return records

    def _apply(self, record: WalRecord, seq: int) -> None:
        kind = record.type
        if kind in (WalRecordType.INSERT, WalRecordType.UPDATE,
                    WalRecordType.DELETE):
            self._pending.setdefault(record.txid, []).append(record)
            self._pending_seq.setdefault(record.txid, seq)
        elif kind is WalRecordType.COMMIT:
            data = self._pending.pop(record.txid, [])
            self._pending_seq.pop(record.txid, None)
            self._apply_commit(record.txid, data)
        elif kind is WalRecordType.ABORT:
            self._pending.pop(record.txid, None)
            self._pending_seq.pop(record.txid, None)
        # CHECKPOINT: leader-local truncation bookkeeping, nothing to
        # apply.  PREPARE: the decision arrives later as COMMIT/ABORT;
        # the data records simply stay pending until then.

    def _apply_commit(self, txid: int, data: list[WalRecord]) -> None:
        clog = self.db.txn_mgr.clog
        state = clog._states.get(txid)
        if state is TxnState.COMMITTED:
            # restart re-delivery of a transaction whose COMMIT already
            # made it into our own durable log
            self.deduped_txns += 1
            return
        # our own WAL first, so a follower crash replays this transaction
        # through the stock recovery path; the per-frame control-record
        # force covers these appends
        wal = self.db.wal
        for record in data:
            wal.append(record)
        wal.append(WalRecord(WalRecordType.COMMIT, txid, 0))
        self._wal_dirty = True
        by_rel = {relation.relation_id: relation
                  for relation in self.db.tables.values()}
        for record in data:
            self._redo(by_rel, record)
        # versions are in place — only now may readers learn the fate
        if state is None:
            clog.register(txid)
            clog.set_committed(txid)
        elif state is TxnState.ABORTED:
            # a restart's recovery rolled this half-shipped transaction
            # back locally; the leader's durable COMMIT wins — flip the
            # fate directly, the redo above restored the versions
            clog._states[txid] = TxnState.COMMITTED
        else:
            clog.set_committed(txid)
        self.applied_txns += 1

    def _redo(self, by_rel: dict, record: WalRecord) -> None:
        relation = by_rel.get(record.relation_id)
        if relation is None:
            raise ReplicationError(
                f"shipped record names relation {record.relation_id}, "
                f"which this replica does not have: schema mismatch")
        # strictly newer heads only: an equal create_ts is this same
        # transaction's *earlier* write to the vid (insert then update),
        # whose successor must still be appended — whole re-delivered
        # transactions are deduped via the commit log before this point
        if _replay(relation, record.item_id, record.txid,
                   record.type is WalRecordType.DELETE, record.payload,
                   lambda _tid, head: head.create_ts > record.txid):
            self.applied_records += 1

    # -- restart resume -----------------------------------------------------

    def _mark_progress(self) -> None:
        """Force a control record naming where a restart must resume.

        The restart point is the earliest first-seq among still-pending
        transactions (their data records must be re-delivered), or the
        fetch cursor when nothing is pending.  Forcing the marker also
        makes every record appended by :meth:`_apply_commit` since the
        last frame durable.

        A frame that applied nothing and left the restart point unmoved
        is skipped entirely: an idle poll (or a frame that only grew a
        still-pending transaction) must not burn a WAL append plus a
        force per fetch — everything newer than the unchanged marker is
        re-delivered after a crash anyway.  A frame that *did* apply
        records must always force, even with an unmoved marker: the
        commit-log flips it made are crash-durable, so the matching WAL
        records must be too, or re-delivery would dedupe a transaction
        whose versions died with the crash.
        """
        marker = (min(self._pending_seq.values())
                  if self._pending_seq else self.fetch_seq)
        state = (marker, self.watermark, self.epoch)
        if state == self._marked and not self._wal_dirty:
            self.marker_skips += 1
            return
        if state != self._marked:
            self.db.wal.append(WalRecord(WalRecordType.CHECKPOINT, -1,
                                         marker,
                                         payload=self._marker_payload()))
        self.db.wal.force()
        self._wal_dirty = False
        self.acked_seq = marker
        self._marked = state

    def _marker_payload(self) -> bytes:
        """Marker payload: tag plus the durable watermark and epoch."""
        return _REPL_MARKER + struct.pack("<qq", self.watermark,
                                          self.epoch)

    def _resume_state(self) -> tuple[int, int, int]:
        """Recover ``(resume_seq, watermark, epoch)`` from the last
        durable restart marker (all zero without one)."""
        for record in reversed(self.db.wal.durable_records()):
            if (record.type is WalRecordType.CHECKPOINT
                    and record.payload.startswith(_REPL_MARKER)):
                watermark, epoch = struct.unpack_from(
                    "<qq", record.payload, len(_REPL_MARKER))
                return record.item_id, watermark, epoch
        return 0, 0, 0

    # -- local checkpoints ---------------------------------------------------

    def _pin_watermark_anchor(self) -> None:
        """Pre-checkpoint: pin local truncation at the backup cut.

        A cascade node serves base backups cut at its watermark, and a
        resumed stream starts at ``redo_anchor_seq(watermark)`` — so
        records of transactions *above* the watermark must survive this
        node's own checkpoints or a downstream bootstrap would miss
        them (they are in neither the image nor the resumed stream).
        The pin rides the ordinary slot-retention floor.
        """
        db = self.db
        if getattr(db, "_wal_follower", None) is not self:
            return  # superseded by a restarted follower on the same db
        if self.hub is None or self.role == "leader":
            # nothing chains off this node's WAL through a watermark
            # cut; a promoted leader's hub cuts at its own closed_ts,
            # which begin_checkpoint's active-txn anchor already covers
            return
        db.wal.register_slot("~watermark",
                             db.wal.redo_anchor_seq(self.watermark))

    def _remark_after_checkpoint(self) -> None:
        """Post-checkpoint: re-arm the restart marker.

        Local WAL truncation drops old control records (their txid -1
        never holds the redo anchor back).  Without a durable marker a
        restarted follower would resume at seq 0 with watermark 0 — and
        a restarted *cascade* node would advertise closed timestamp 0,
        silently serving empty backup images below data its commit log
        already holds.  One forced control record per checkpoint keeps
        the marker exactly as durable as the data it vouches for.
        """
        db = self.db
        if getattr(db, "_wal_follower", None) is not self:
            return
        db.wal.append(WalRecord(WalRecordType.CHECKPOINT, -1,
                                self.acked_seq,
                                payload=self._marker_payload()))
        db.wal.force()
        self._wal_dirty = False
        self._marked = (self.acked_seq, self.watermark, self.epoch)

    # -- introspection ------------------------------------------------------

    def status(self) -> dict:
        """Replication facts for STATS / SNAPSHOT surfacing."""
        out = {
            "role": self.role,
            "epoch": self.epoch,
            "fetch_seq": self.fetch_seq,
            "acked_seq": self.acked_seq,
            "watermark": self.watermark,
            "lag_records": max(0, self.leader_durable_seq - self.fetch_seq),
            "frames": self.frames,
            "applied_txns": self.applied_txns,
            "applied_records": self.applied_records,
            "deduped_txns": self.deduped_txns,
            "resyncs": self.resyncs,
            "resync_records": self.resync_records,
            "marker_skips": self.marker_skips,
        }
        if self.hub is not None:
            out["slots"] = self.db.wal.slots()
            out["cascade"] = self.role != "leader"
        if self.supervisor is not None:
            out["supervisor"] = self.supervisor.status()
        return out
