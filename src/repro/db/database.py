"""The database facade: the library's primary public API.

A :class:`Database` wires together one storage algorithm (SIAS-V or the SI
baseline), the shared substrates (device, tablespace, buffer pool, WAL,
transaction manager, background writer, checkpointer) and per-relation
indexes.  The two engine kinds are interchangeable behind this facade —
identical workloads run against both, which is how every experiment isolates
the storage algorithm.

Typical use::

    from repro.db import Database, EngineKind, IndexDef
    from repro.db.schema import Schema, ColType

    db = Database.on_flash(EngineKind.SIASV)
    schema = Schema.of(("id", ColType.INT), ("balance", ColType.FLOAT))
    db.create_table("accounts", schema,
                    indexes=[IndexDef("pk", ("id",), unique=True)])
    txn = db.begin()
    ref = db.insert(txn, "accounts", (1, 100.0))
    db.commit(txn)
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from repro.baseline.engine import SiEngine
from repro.baseline.vacuum import Vacuum, VacuumReport
from repro.buffer.background_writer import BackgroundWriter
from repro.buffer.checkpointer import Checkpointer
from repro.buffer.manager import BufferManager
from repro.common.clock import SimClock
from repro.common.config import FlushThreshold, SystemConfig
from repro.common.errors import SchemaError
from repro.core.engine import SiasVEngine
from repro.core.gc import GarbageCollector, GcReport
from repro.core.vecscan import (
    AGGREGATE_OPS,
    fold_values,
    row_matcher,
    row_projection,
    vec_aggregate,
    vec_scan,
    vec_scan_batch,
)
from repro.db.catalog import IndexDef, Relation
from repro.db.row import RowCodec
from repro.db.schema import Schema
from repro.pages.layout import Tid
from repro.storage.device import BlockDevice
from repro.storage.flash import FlashDevice
from repro.storage.tablespace import Tablespace
from repro.storage.trace import TraceRecorder
from repro.txn.manager import Transaction, TransactionManager
from repro.wal.log import WriteAheadLog

#: Item handle: a VID (int) under SIAS-V, a Tid under the SI baseline.
ItemRef = int | Tid


class EngineKind(Enum):
    """Which storage algorithm a database instance runs."""

    SIASV = "sias-v"
    SI = "si"


@dataclass
class SpaceReport:
    """Per-table device-space breakdown (experiment T2)."""

    table: str
    data_bytes: int
    vidmap_bytes: int  # 0 for the SI baseline

    @property
    def total_bytes(self) -> int:
        """Data plus mapping footprint."""
        return self.data_bytes + self.vidmap_bytes


class Database:
    """One database instance bound to a storage algorithm and a device."""

    def __init__(self, kind: EngineKind, data_device: BlockDevice,
                 wal_device: BlockDevice,
                 config: SystemConfig | None = None) -> None:
        self.kind = kind
        self.config = config or SystemConfig()
        self.config.validate()
        self.clock: SimClock = data_device.clock
        self.data_device = data_device
        self.tablespace = Tablespace(data_device,
                                     extent_pages=self.config.extent_pages)
        self.buffer = BufferManager(self.tablespace,
                                    self.config.buffer.pool_pages)
        self.wal = WriteAheadLog(wal_device, self.config.buffer.page_size)
        self.txn_mgr = TransactionManager(wal=self.wal)
        self.bgwriter = BackgroundWriter(
            self.buffer, self.clock,
            self.config.buffer.bgwriter_interval_usec,
            self.config.buffer.bgwriter_batch_pages)
        self.checkpointer = Checkpointer(
            self.buffer, self.clock,
            self.config.buffer.checkpoint_interval_usec)
        # Checkpoint-anchored WAL truncation.  The pre-flush hook (first
        # in line, registered before any table's seal hook) snapshots the
        # redo anchor: the earliest record still needed once everything
        # the checkpoint flushes is durable.  The post hook appends a
        # CHECKPOINT record and truncates history + device behind the
        # anchor — recovery redo then starts at the last durable
        # checkpoint instead of the beginning of time, and neither the
        # log device nor the in-memory history grows without bound.
        self._ckpt_redo_index = 0
        self.checkpointer.subscribe(self._begin_wal_checkpoint)
        self.checkpointer.subscribe_post(self._complete_wal_checkpoint)
        self.tables: dict[str, Relation] = {}
        self._shut_down = False
        self._vidmap_file_ids: dict[str, int] = {}
        # DDL mutex: relation-id assignment and catalog insertion are
        # check-then-act over ``self.tables``
        self._schema_mu = threading.Lock()

    # -- constructors -------------------------------------------------------------

    @classmethod
    def on_flash(cls, kind: EngineKind, config: SystemConfig | None = None,
                 trace: TraceRecorder | None = None) -> "Database":
        """Database on a single simulated flash SSD (+ separate WAL SSD)."""
        config = config or SystemConfig()
        clock = SimClock()
        data = FlashDevice(clock, config.flash, trace=trace, name="data-ssd")
        wal = FlashDevice(clock, config.flash, name="wal-ssd")
        return cls(kind, data, wal, config)

    # -- schema -------------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema,
                     indexes: list[IndexDef] | None = None) -> Relation:
        """Create a relation with its own storage file and indexes."""
        with self._schema_mu:
            if name in self.tables:
                raise SchemaError(f"table {name!r} already exists")
            relation_id = len(self.tables)
            file_id = self.tablespace.create_file(f"rel.{name}")
            engine: SiasVEngine | SiEngine
            if self.kind is EngineKind.SIASV:
                engine = SiasVEngine(relation_id, self.buffer, file_id,
                                     self.config.engine, self.txn_mgr)
                if self.config.engine.flush_threshold is FlushThreshold.T1:
                    self.bgwriter.subscribe(engine.store.seal_working_page)
                self.checkpointer.subscribe(engine.store.seal_working_page)
            else:
                engine = SiEngine(relation_id, self.buffer, file_id,
                                  self.config.engine, self.txn_mgr)
            relation = Relation(relation_id=relation_id, name=name,
                                schema=schema, codec=RowCodec(schema),
                                engine=engine)
            for definition in indexes or []:
                relation.add_index(definition)
            self.tables[name] = relation
            return relation

    def table(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    # -- transactions ----------------------------------------------------------------------

    def begin(self, serializable: bool = False,
              at_ts: int | None = None) -> Transaction:
        """Start a transaction (snapshot isolation; SSI if requested).

        ``at_ts`` pins the snapshot to an externally supplied *closed*
        read timestamp — the cluster router's cluster-wide snapshot hook
        (see :meth:`repro.txn.manager.TransactionManager.begin`).
        """
        return self.txn_mgr.begin(serializable=serializable, at_ts=at_ts)

    def commit(self, txn: Transaction) -> None:
        """Commit (forces the WAL) and release per-txn resources."""
        self.txn_mgr.commit(txn)
        self._release_txn_pages(txn)

    def abort(self, txn: Transaction) -> None:
        """Roll back: undo actions run, locks release."""
        self.txn_mgr.abort(txn)
        self._release_txn_pages(txn)

    def prepare(self, txn: Transaction, gtxid: int) -> None:
        """2PC phase 1: durably prepare ``txn`` under global id ``gtxid``.

        Per-txn working pages are released here (the data records are
        already in the WAL, which the forced prepare covers), so a shard
        holds no page resources for an in-doubt transaction — only its
        locks and undo chain, released by the decision.
        """
        self.txn_mgr.prepare(txn, gtxid)
        self._release_txn_pages(txn)

    def commit_prepared(self, txid: int) -> bool:
        """2PC phase 2: apply a commit decision (idempotent)."""
        return self.txn_mgr.commit_prepared(txid)

    def abort_prepared(self, txid: int) -> bool:
        """2PC phase 2: apply an abort decision (idempotent)."""
        return self.txn_mgr.abort_prepared(txid)

    def closed_ts(self) -> int:
        """This engine's closed-timestamp watermark (see
        :meth:`repro.txn.manager.TransactionManager.closed_ts`)."""
        return self.txn_mgr.closed_ts()

    def advance_to(self, ts: int) -> int:
        """Ratchet the txid space to ``ts``; returns the new watermark."""
        return self.txn_mgr.advance_to(ts)

    def _release_txn_pages(self, txn: Transaction) -> None:
        if self.kind is not EngineKind.SIASV:
            return
        for relation in self.tables.values():
            relation.engine.on_txn_finished(txn.txid)

    def run_in_txn(self, fn: Callable[[Transaction], object],
                   serializable: bool = False) -> object:
        """Run ``fn`` in a transaction, committing on success.

        ``serializable=True`` runs under SSI instead of plain snapshot
        isolation (same passthrough as :meth:`begin`).
        """
        txn = self.begin(serializable=serializable)
        try:
            result = fn(txn)
            self.commit(txn)
        except BaseException:
            # commit itself can raise (an SSI commit-time doom); the
            # transaction must still release its locks and undo chain
            if txn.phase.value == "active":
                self.abort(txn)
            raise
        return result

    # -- data operations ----------------------------------------------------------------------

    def insert(self, txn: Transaction, table: str, row: tuple) -> ItemRef:
        """Insert a row; returns its item handle (VID or TID)."""
        relation = self.table(table)
        payload = relation.codec.encode(row)
        ref = relation.engine.insert(txn, payload)
        if txn.serializable:
            self.txn_mgr.ssi.on_write(txn, (relation.relation_id, ref))
        for definition, tree in relation.indexes.values():
            key = definition.key_of(relation.schema, row)
            tree.insert(key, ref)
            if self.kind is EngineKind.SIASV:
                # The VIDmap undo makes the VID unreachable; the index entry
                # must go with it or it would dangle forever.
                txn.register_undo(
                    lambda t=tree, k=key, r=ref: t.delete(k, r))
        return ref

    def bulk_insert(self, txn: Transaction, table: str,
                    rows: list[tuple]) -> list[ItemRef]:
        """Load many rows at once (page-wise VID blocks under SIAS-V)."""
        if not rows:
            return []
        relation = self.table(table)
        payloads = [relation.codec.encode(row) for row in rows]
        if self.kind is EngineKind.SIASV:
            refs: list[ItemRef] = list(
                relation.engine.bulk_insert(txn, payloads))
        else:
            refs = [relation.engine.insert(txn, payload)
                    for payload in payloads]
        for definition, tree in relation.indexes.values():
            for row, ref in zip(rows, refs):
                key = definition.key_of(relation.schema, row)
                tree.insert(key, ref)
                if self.kind is EngineKind.SIASV:
                    txn.register_undo(
                        lambda t=tree, k=key, r=ref: t.delete(k, r))
        return refs

    def scan_vid_range(self, txn: Transaction, table: str, lo: int,
                       hi: int) -> list[tuple[int, tuple]]:
        """Visible rows with ``lo <= VID < hi`` (SIAS-V only).

        VID-range queries fall out of the VIDmap's sequential bucket
        layout ("queries on VID ranges are also facilitated"); items whose
        visible version is a tombstone are skipped.
        """
        relation = self.table(table)
        if self.kind is not EngineKind.SIASV:
            raise SchemaError("VID-range scans need the SIAS-V engine")
        out: list[tuple[int, tuple]] = []
        for vid, _entry in relation.engine.vidmap.vid_range(lo, hi):
            payload = relation.engine.read(txn, vid)
            if payload is not None:
                out.append((vid, relation.codec.decode(payload)))
        return out

    def read(self, txn: Transaction, table: str,
             ref: ItemRef) -> tuple | None:
        """Visible row of an item handle (None if invisible or deleted)."""
        relation = self.table(table)
        payload = relation.engine.read(txn, ref)
        if payload is None:
            return None
        if txn.serializable:
            self.txn_mgr.ssi.on_read(txn, (relation.relation_id, ref))
        return relation.codec.decode(payload)

    def update(self, txn: Transaction, table: str, ref: ItemRef,
               row: tuple) -> ItemRef:
        """Replace an item's row; returns the (possibly new) handle.

        Under SIAS-V the handle (VID) is stable and only key-changing
        updates touch indexes.  Under SI every update yields a new TID and
        every index gains an entry for it.
        """
        relation = self.table(table)
        old_row = self.read(txn, table, ref)
        payload = relation.codec.encode(row)
        if txn.serializable:
            self.txn_mgr.ssi.on_write(txn, (relation.relation_id, ref))
        if self.kind is EngineKind.SIASV:
            relation.engine.update(txn, ref, payload)
            for definition, tree in relation.indexes.values():
                new_key = definition.key_of(relation.schema, row)
                old_key = (None if old_row is None
                           else definition.key_of(relation.schema, old_row))
                if old_key != new_key and not tree.contains(new_key, ref):
                    tree.insert(new_key, ref)
                    txn.register_undo(
                        lambda t=tree, k=new_key, r=ref: t.delete(k, r))
            return ref
        new_tid = relation.engine.update(txn, ref, payload)
        for definition, tree in relation.indexes.values():
            tree.insert(definition.key_of(relation.schema, row), new_tid)
        return new_tid

    def delete(self, txn: Transaction, table: str, ref: ItemRef) -> None:
        """Delete an item (tombstone under SIAS-V, xmax stamp under SI).

        Index entries stay until maintenance (GC / VACUUM) prunes them;
        lookups re-verify visibility so stale entries are harmless.
        """
        relation = self.table(table)
        if txn.serializable:
            self.txn_mgr.ssi.on_write(txn, (relation.relation_id, ref))
        relation.engine.delete(txn, ref)

    # -- index access -----------------------------------------------------------------------------

    def lookup(self, txn: Transaction, table: str, index_name: str,
               key) -> list[tuple[ItemRef, tuple]]:
        """Exact-match index lookup, visibility-checked and key-verified.

        Under the SI baseline, entries whose version is dead to every
        snapshot are removed on the way (PostgreSQL's LP_DEAD kill bits) —
        without this, hot keys accumulate one dead entry per update between
        VACUUMs and every lookup re-reads them all.
        """
        relation = self.table(table)
        definition, tree = relation.index(index_name)
        out: list[tuple[ItemRef, tuple]] = []
        refs = list(tree.search(key))
        if self.kind is EngineKind.SIASV and len(refs) > 1:
            # batched resolution: all candidates' chains descend with one
            # parallel device round-trip per chain level
            payloads = relation.engine.read_many(txn, refs)
            for ref, payload in zip(refs, payloads):
                if payload is None:
                    continue
                if txn.serializable:
                    self.txn_mgr.ssi.on_read(txn,
                                             (relation.relation_id, ref))
                row = relation.codec.decode(payload)
                if definition.key_of(relation.schema, row) != key:
                    continue  # stale entry: visible version has another key
                out.append((ref, row))
            return out
        kill: list[ItemRef] = []
        for ref in refs:
            row = self.read(txn, table, ref)
            if row is None:
                if (self.kind is EngineKind.SI
                        and relation.engine.is_dead_to_all(ref)):
                    kill.append(ref)
                continue
            if definition.key_of(relation.schema, row) != key:
                continue  # stale entry: the visible version has another key
            out.append((ref, row))
        for ref in kill:
            tree.delete(key, ref)
        return out

    def range_lookup(self, txn: Transaction, table: str, index_name: str,
                     lo, hi) -> list[tuple[ItemRef, tuple]]:
        """Range index lookup (inclusive bounds), visibility-checked."""
        relation = self.table(table)
        definition, tree = relation.index(index_name)
        out: list[tuple[ItemRef, tuple]] = []
        seen: set[object] = set()
        kill: list[tuple[object, ItemRef]] = []
        for found_key, ref in tree.range(lo, hi):
            if ref in seen:
                continue
            row = self.read(txn, table, ref)
            if row is None:
                if (self.kind is EngineKind.SI
                        and relation.engine.is_dead_to_all(ref)):
                    kill.append((found_key, ref))
                continue
            actual = definition.key_of(relation.schema, row)
            if actual != found_key:
                continue
            seen.add(ref)
            out.append((ref, row))
        for found_key, ref in kill:
            tree.delete(found_key, ref)
        return out

    def scan(self, txn: Transaction, table: str,
             columns: list[str] | None = None,
             where: tuple | None = None,
             ) -> Iterator[tuple[ItemRef, tuple]]:
        """Visible-rows scan (vectorized page kernels under SIAS-V).

        ``columns`` projects the yielded rows to the named columns;
        ``where`` is a ``(column, op, value)`` predicate with ``op`` one
        of ``== != < <= > >=``.  Under SIAS-V both are pushed into the
        VECTOR-page kernels, so filtered-out and invisible versions are
        never decoded; the SI baseline filters decoded rows.
        """
        relation = self.table(table)
        ssi = self.txn_mgr.ssi if txn.serializable else None
        if self.kind is EngineKind.SIASV:
            for vid, row in vec_scan(relation.engine, relation.codec, txn,
                                     columns=columns, where=where):
                if ssi is not None:
                    ssi.on_read(txn, (relation.relation_id, vid))
                yield vid, row
        else:
            matches = row_matcher(relation.codec, where)
            project = row_projection(relation.codec, columns)
            for tid, payload in relation.engine.scan(txn):
                row = relation.codec.decode(payload)
                if matches is not None and not matches(row):
                    continue
                if ssi is not None:
                    ssi.on_read(txn, (relation.relation_id, tid))
                yield tid, row if project is None else project(row)

    def scan_batch(self, txn: Transaction, table: str,
                   columns: list[str] | None = None,
                   where: tuple | None = None,
                   after: ItemRef | None = None, limit: int = 256,
                   ) -> tuple[list[tuple[ItemRef, tuple]], ItemRef | None]:
        """One cursored page of :meth:`scan`: ``(rows, next_cursor)``.

        Pass ``next_cursor`` back as ``after`` for the following page;
        None means the scan is exhausted.  Under SIAS-V the cursor is the
        last emitted VID and resumption seeks the VIDmap directly; the SI
        baseline uses a plain row offset into its deterministic scan
        order.  This is the unit the SCAN_BATCH wire command streams.
        """
        if limit <= 0:
            raise SchemaError(
                f"scan batch limit must be positive, got {limit}")
        relation = self.table(table)
        if self.kind is EngineKind.SIASV:
            ssi = self.txn_mgr.ssi if txn.serializable else None
            rows, cursor = vec_scan_batch(
                relation.engine, relation.codec, txn,
                columns=columns, where=where, after_vid=after, limit=limit)
            if ssi is not None:
                for vid, _row in rows:
                    ssi.on_read(txn, (relation.relation_id, vid))
            return rows, cursor
        start = 0 if after is None else int(after)  # type: ignore[arg-type]
        rows = list(itertools.islice(
            self.scan(txn, table, columns=columns, where=where),
            start, start + limit))
        return rows, (start + limit if len(rows) == limit else None)

    def aggregate(self, txn: Transaction, table: str, op: str,
                  column: str | None = None,
                  where: tuple | None = None) -> object:
        """``count``/``sum``/``min``/``max`` over the visible rows.

        Under SIAS-V this never materialises rows on VECTOR pages: a
        ``count`` touches only the metadata vectors and the other folds
        probe one fixed-width field per surviving version.
        """
        relation = self.table(table)
        if self.kind is EngineKind.SIASV:
            return vec_aggregate(relation.engine, relation.codec, txn,
                                 op, column=column, where=where)
        if op == "count":
            return sum(1 for _ in self.scan(txn, table, where=where))
        if op not in AGGREGATE_OPS:
            raise SchemaError(
                f"unknown aggregate {op!r} "
                f"(expected one of {AGGREGATE_OPS})")
        if column is None:
            raise SchemaError(f"aggregate {op!r} needs a column")
        values = (row[0] for _ref, row
                  in self.scan(txn, table, columns=[column], where=where))
        return fold_values(op, values)

    # -- background machinery ------------------------------------------------------------------------

    def _begin_wal_checkpoint(self) -> None:
        """Checkpoint pre-hook: pin the redo anchor before any flushing."""
        self._ckpt_redo_index = self.wal.begin_checkpoint(
            self.txn_mgr.active_txids)

    def _complete_wal_checkpoint(self) -> None:
        """Checkpoint post-hook: log CHECKPOINT, truncate behind the anchor."""
        self.wal.log_checkpoint(self._ckpt_redo_index)

    def tick(self) -> None:
        """Advance bgwriter/checkpointer to the current simulated time.

        The workload driver calls this between transactions.  Besides the
        timed checkpoints, a checkpoint also triggers when the WAL exceeds
        its size budget (PostgreSQL's ``max_wal_size``), which both bounds
        recovery work and recycles log segments.
        """
        self.bgwriter.maybe_run()
        self.checkpointer.maybe_run()
        if self.wal.device_bytes() >= self.config.buffer.max_wal_bytes:
            self.checkpointer.run_now()

    def maintenance(self) -> dict[str, object]:
        """Run GC (SIAS-V) or VACUUM (SI) on every table; prune indexes."""
        reports: dict[str, object] = {}
        for name, relation in self.tables.items():
            if self.kind is EngineKind.SIASV:
                report = GarbageCollector(relation.engine).collect()
                self._prune_after_gc(relation, report)
            else:
                report = Vacuum(relation.engine).run()
                self._prune_after_vacuum(relation, report)
            reports[name] = report
        return reports

    def _prune_after_gc(self, relation: Relation, report: GcReport) -> None:
        for outcome in report.items.values():
            for definition, tree in relation.indexes.values():
                live_keys = {
                    definition.key_of(relation.schema,
                                      relation.codec.decode(p))
                    for p in outcome.live_payloads}
                for payload in outcome.dead_payloads:
                    key = definition.key_of(relation.schema,
                                            relation.codec.decode(payload))
                    if key not in live_keys:
                        tree.delete(key, outcome.vid)

    def _prune_after_vacuum(self, relation: Relation,
                            report: VacuumReport) -> None:
        for tid, payload in report.killed:
            row = relation.codec.decode(payload)
            for definition, tree in relation.indexes.values():
                tree.delete(definition.key_of(relation.schema, row), tid)

    def shutdown(self) -> None:
        """Clean shutdown: seal working pages, checkpoint, persist VIDmaps.

        Idempotent: a repeated call is a no-op.  (Without the guard a
        second call would re-create duplicate ``vidmap.<table>`` tablespace
        files and re-run sealing against already-sealed stores.)
        """
        if self._shut_down:
            return
        if self.kind is EngineKind.SIASV:
            for relation in self.tables.values():
                relation.engine.store.seal_working_page()
        self.checkpointer.run_now()
        self.wal.force()
        if self.kind is EngineKind.SIASV:
            for relation in self.tables.values():
                file_id = self._vidmap_file_ids.get(relation.name)
                if file_id is None:
                    file_id = self.tablespace.create_file(
                        f"vidmap.{relation.name}")
                    self._vidmap_file_ids[relation.name] = file_id
                relation.engine.vidmap.persist(self.buffer, file_id)
        self._shut_down = True

    # -- reporting ---------------------------------------------------------------------------------------

    def space_reports(self) -> list[SpaceReport]:
        """Per-table device-space footprint."""
        out = []
        for name, relation in self.tables.items():
            if self.kind is EngineKind.SIASV:
                data = relation.engine.store.space_bytes()
                vidmap = relation.engine.vidmap.memory_bytes()
            else:
                data = relation.engine.heap.space_bytes()
                vidmap = 0
            out.append(SpaceReport(table=name, data_bytes=data,
                                   vidmap_bytes=vidmap))
        return out

    def total_space_bytes(self) -> int:
        """Whole-database data footprint."""
        return sum(r.total_bytes for r in self.space_reports())
