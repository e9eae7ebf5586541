"""``RemoteDatabase``: the :class:`Database` facade over a live socket.

Method-for-method compatible with the in-process
:class:`~repro.db.database.Database` surface the workloads use —
``begin/commit/abort``, ``insert/bulk_insert/read/update/delete``,
``lookup/range_lookup/scan/scan_vid_range``, ``tick/maintenance``,
``run_in_txn`` and a ``clock`` — so :class:`~repro.workload.driver.
TpccDriver`, :class:`~repro.workload.tpcc_data.TpccLoader` and
``create_tpcc_tables`` run unchanged against a server.

Transactions are pinned to one pooled connection for their whole life:
server-side transaction state is per-session (per-connection), and the pin
is also what makes the server's disconnect semantics meaningful — if this
process dies, the connection dies, and the server aborts the transaction.
Non-transactional commands (clock, tick, snapshot, stats, DDL) use any
pooled connection.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

from repro.common.errors import (
    AmbiguousResultError,
    CircuitOpenError,
    CommitUncertainError,
)
from repro.client.connection import ClientConnection
from repro.client.pool import CircuitBreaker, ConnectionPool, RetryPolicy
from repro.db.catalog import IndexDef
from repro.db.schema import Schema
from repro.server.protocol import Command
from repro.txn.manager import TxnPhase


class RemoteTransaction:
    """Client-side handle of one server-side transaction.

    Mirrors the :class:`~repro.txn.manager.Transaction` attributes the
    workloads touch (``txid``, ``serializable``, ``phase``); the pinned
    connection is an implementation detail of the pin-per-txn contract.
    """

    __slots__ = ("txid", "serializable", "phase", "_conn")

    def __init__(self, txid: int, serializable: bool,
                 conn: ClientConnection) -> None:
        self.txid = txid
        self.serializable = serializable
        self.phase = TxnPhase.ACTIVE
        self._conn = conn

    def __repr__(self) -> str:
        return (f"RemoteTransaction(txid={self.txid}, "
                f"phase={self.phase.value})")


def _schema_wire(schema: Schema) -> tuple:
    return tuple((c.name, c.type.value) for c in schema.columns)


def _indexes_wire(indexes: list[IndexDef] | None) -> tuple:
    return tuple((d.name, d.columns, d.unique, d.kind.value)
                 for d in indexes or [])


class RemoteClock:
    """Proxy of the server's simulated clock (the driver's timebase)."""

    def __init__(self, call) -> None:
        self._call = call

    @property
    def now(self) -> int:
        """Server-side simulated time in microseconds."""
        return self._call(Command.CLOCK_NOW)

    @property
    def now_sec(self) -> float:
        """Server-side simulated time in seconds."""
        return self.now / 1_000_000

    def advance(self, usec: int) -> int:
        """Advance the server's simulated clock; returns the new time."""
        return self._call(Command.CLOCK_ADVANCE, usec)

    def advance_to(self, usec: int) -> int:
        """Advance the server's clock to at least ``usec``."""
        return self._call(Command.CLOCK_ADVANCE_TO, usec)


class RemoteDatabase:
    """A pooled, retrying client presenting the ``Database`` facade."""

    def __init__(self, host: str, port: int, pool_size: int = 4,
                 retry: RetryPolicy | None = None,
                 request_timeout_sec: float = 60.0,
                 breaker: CircuitBreaker | None = None,
                 deadline_ms: int | None = None,
                 chaos: object | None = None,
                 replicas: list[tuple[str, int]] | None = None) -> None:
        endpoints = [(host, port)] + list(replicas or [])
        self.pool = ConnectionPool(size=pool_size, retry=retry,
                                   request_timeout_sec=request_timeout_sec,
                                   breaker=breaker, deadline_ms=deadline_ms,
                                   chaos=chaos, endpoints=endpoints)
        #: endpoint index writes and control-plane calls are pinned to;
        #: :meth:`failover_to` repoints it after a promotion
        self._primary = 0
        self._replica_rr = 0
        self.clock = RemoteClock(self._call)

    def _call(self, command: Command, *args: object, **kwargs) -> object:
        """A pooled one-shot call pinned to the primary endpoint."""
        return self.pool.call(command, *args, endpoint=self._primary,
                              **kwargs)

    # -- replica routing / failover ------------------------------------------

    @property
    def replica_endpoints(self) -> list[int]:
        """Endpoint indexes currently acting as read replicas."""
        return [i for i in range(len(self.pool.endpoints))
                if i != self._primary]

    def failover_to(self, endpoint_index: int) -> None:
        """Repoint writes at a promoted replica's endpoint.

        The old primary's endpoint becomes a (presumed dead or fenced)
        replica entry; its circuit breaker keeps it from being retried
        aggressively.
        """
        if not 0 <= endpoint_index < len(self.pool.endpoints):
            raise ValueError(
                f"endpoint index {endpoint_index} out of range "
                f"(have {len(self.pool.endpoints)})")
        self._primary = endpoint_index

    def _read_endpoint(self) -> int:
        """Round-robin over the replica endpoints (primary if none)."""
        replicas = self.replica_endpoints
        if not replicas:
            return self._primary
        self._replica_rr = (self._replica_rr + 1) % len(replicas)
        return replicas[self._replica_rr]

    @classmethod
    def connect(cls, host: str, port: int,
                ready_timeout_sec: float = 10.0,
                **kwargs) -> "RemoteDatabase":
        """Build a client and block until the server answers a ping."""
        remote = cls(host, port, **kwargs)
        remote.wait_ready(ready_timeout_sec)
        return remote

    def wait_ready(self, timeout_sec: float = 10.0) -> None:
        """Ping until the server answers (it may still be booting)."""
        deadline = time.monotonic() + timeout_sec
        while True:
            try:
                self.ping()
                return
            except (ConnectionError, OSError, CircuitOpenError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    # -- transactions --------------------------------------------------------

    def begin(self, serializable: bool = False,
              at_ts: int | None = None,
              read_only: bool = False) -> RemoteTransaction:
        """Start a server-side transaction pinned to one connection.

        ``at_ts`` pins the snapshot to an externally supplied *closed*
        read timestamp (see :meth:`closed_ts`); the wire request only
        grows the extra operand when one is given, so an old server
        keeps working as long as the feature is unused.

        ``read_only=True`` routes the transaction to a read replica when
        the client was built with ``replicas=`` (round-robin; falls back
        to the primary when none is reachable).  A replica pins the
        snapshot at its replay watermark — stale-bounded but never
        fractured — and refuses any write with the ``FENCED`` status.
        """
        endpoint = self._read_endpoint() if read_only else self._primary
        try:
            conn = self.pool.acquire(endpoint=endpoint)
        except (ConnectionError, OSError, CircuitOpenError):
            if endpoint == self._primary:
                raise
            # the chosen replica is unreachable: serve the read-only
            # transaction from the primary instead
            conn = self.pool.acquire(endpoint=self._primary)
        try:
            if at_ts is None:
                txid = self.pool.request(conn, Command.BEGIN, serializable)
            else:
                txid = self.pool.request(conn, Command.BEGIN, serializable,
                                         at_ts)
        except BaseException:
            self.pool.release(conn)
            raise
        return RemoteTransaction(txid, serializable, conn)

    def commit(self, txn: RemoteTransaction) -> None:
        """Commit; the pinned connection returns to the pool.

        If the connection dies after the commit request may have been
        sent, the outcome is genuinely unknown — the server may have
        committed and the ack was lost.  That is surfaced as
        :class:`~repro.common.errors.CommitUncertainError` (never blindly
        retried: a resend could double-apply); resolve the fate with
        :meth:`resolve_commit` on a fresh connection.
        """
        try:
            self.pool.request(txn._conn, Command.COMMIT, txn.txid)
            txn.phase = TxnPhase.COMMITTED
        except AmbiguousResultError as exc:
            # the ack was lost on this link, or a router relayed
            # Status.AMBIGUOUS for a shard it lost mid-commit
            self.pool.stats.uncertain_commits += 1
            raise CommitUncertainError(
                f"commit of txn {txn.txid} is uncertain: {exc}",
                txid=txn.txid) from exc
        except BaseException:
            # server-side commit failure (e.g. SSI abort) rolled it back
            txn.phase = TxnPhase.ABORTED
            raise
        finally:
            self._unpin(txn)

    def abort(self, txn: RemoteTransaction) -> None:
        """Roll back; the pinned connection returns to the pool.

        A transaction whose pinned connection is already gone (or dead)
        is settled locally: the server aborts the orphan itself on
        disconnect, and resending ``ABORT`` over a fresh connection would
        only hit a session that no longer owns the transaction.
        """
        if txn._conn is None or not txn._conn.connected:
            txn.phase = TxnPhase.ABORTED
            self._unpin(txn)
            return
        try:
            self.pool.request(txn._conn, Command.ABORT, txn.txid)
        finally:
            txn.phase = TxnPhase.ABORTED
            self._unpin(txn)

    def txn_status(self, txid: int) -> str:
        """The server-side fate of ``txid``.

        One of ``"committed"``, ``"aborted"``, ``"active"`` (still open
        somewhere) or ``"unknown"`` (never allocated).  Runs on a fresh
        pooled connection, so it works precisely when the transaction's
        own connection is dead.
        """
        return self._call(Command.TXN_STATUS, txid)

    def resolve_commit(self, txid: int, timeout_sec: float = 5.0,
                       poll_interval_sec: float = 0.02) -> str:
        """Resolve an uncertain commit to its final fate.

        ``"active"`` is transient after a dead connection — the server
        aborts the orphan when it notices the disconnect.  ``"unknown"``
        is transient too when the far side is a cluster router: a commit
        parked in doubt (its shard crashed mid-ack) resolves as soon as
        the shard's WAL recovery answers.  Both are polled through until
        the fate is final or ``timeout_sec`` elapses (returning the last
        observed status in that case).
        """
        deadline = time.monotonic() + timeout_sec
        while True:
            status = self.txn_status(txid)
            if (status not in ("active", "unknown")
                    or time.monotonic() >= deadline):
                return status
            time.sleep(poll_interval_sec)

    def _unpin(self, txn: RemoteTransaction) -> None:
        conn, txn._conn = txn._conn, None  # type: ignore[assignment]
        if conn is not None:
            self.pool.release(conn)

    def _txn_call(self, txn: RemoteTransaction, command: Command,
                  *args: object) -> object:
        if txn.phase is not TxnPhase.ACTIVE or txn._conn is None:
            raise ValueError(
                f"txn {txn.txid} is {txn.phase.value}, expected active")
        return self.pool.request(txn._conn, command, txn.txid, *args)

    def run_in_txn(self, fn: Callable[[RemoteTransaction], object],
                   serializable: bool = False) -> object:
        """Run ``fn`` in a remote transaction, committing on success."""
        txn = self.begin(serializable=serializable)
        try:
            result = fn(txn)
        except BaseException:
            if txn.phase is TxnPhase.ACTIVE:
                self.abort(txn)
            raise
        self.commit(txn)
        return result

    # -- schema --------------------------------------------------------------

    def create_table(self, name: str, schema: Schema,
                     indexes: list[IndexDef] | None = None) -> None:
        """Create a relation (accepts the same ``Schema``/``IndexDef``)."""
        self._call(Command.CREATE_TABLE, name, _schema_wire(schema),
                       _indexes_wire(indexes))

    # -- data operations -----------------------------------------------------

    def insert(self, txn: RemoteTransaction, table: str,
               row: tuple) -> object:
        """Insert a row; returns its item handle (VID or TID)."""
        return self._txn_call(txn, Command.INSERT, table, row)

    def bulk_insert(self, txn: RemoteTransaction, table: str,
                    rows: list[tuple]) -> list:
        """Load many rows in one round trip."""
        return list(self._txn_call(txn, Command.BULK_INSERT, table,
                                   tuple(rows)))

    def read(self, txn: RemoteTransaction, table: str,
             ref: object) -> tuple | None:
        """Visible row of an item handle (None if invisible or deleted)."""
        return self._txn_call(txn, Command.READ, table, ref)

    def update(self, txn: RemoteTransaction, table: str, ref: object,
               row: tuple) -> object:
        """Replace an item's row; returns the (possibly new) handle."""
        return self._txn_call(txn, Command.UPDATE, table, ref, row)

    def delete(self, txn: RemoteTransaction, table: str,
               ref: object) -> None:
        """Delete an item."""
        self._txn_call(txn, Command.DELETE, table, ref)

    def lookup(self, txn: RemoteTransaction, table: str, index_name: str,
               key: object) -> list[tuple]:
        """Exact-match index lookup."""
        return list(self._txn_call(txn, Command.LOOKUP, table, index_name,
                                   key))

    def range_lookup(self, txn: RemoteTransaction, table: str,
                     index_name: str, lo: object,
                     hi: object) -> list[tuple]:
        """Range index lookup (inclusive bounds)."""
        return list(self._txn_call(txn, Command.RANGE_LOOKUP, table,
                                   index_name, lo, hi))

    def scan(self, txn: RemoteTransaction, table: str,
             columns: list[str] | None = None,
             where: tuple | None = None,
             batch_size: int = 256) -> Iterator[tuple]:
        """Visible-rows scan, streamed in bitmap-filtered batches.

        ``columns``/``where`` push projection and a ``(column, op, value)``
        predicate to the server, which evaluates them in the vectorized
        page kernels — only surviving rows travel over the wire, at most
        ``batch_size`` per SCAN_BATCH frame.
        """
        cols = None if columns is None else tuple(columns)
        pred = None if where is None else tuple(where)
        cursor: object = None
        while True:
            rows, cursor = self._txn_call(txn, Command.SCAN_BATCH, table,
                                          cols, pred, cursor, batch_size)
            yield from rows
            if cursor is None:
                return

    def aggregate(self, txn: RemoteTransaction, table: str, op: str,
                  column: str | None = None,
                  where: tuple | None = None) -> object:
        """``count``/``sum``/``min``/``max``, folded server-side."""
        pred = None if where is None else tuple(where)
        return self._txn_call(txn, Command.AGGREGATE, table, op, column,
                              pred)

    def scan_vid_range(self, txn: RemoteTransaction, table: str, lo: int,
                       hi: int) -> list[tuple]:
        """Visible rows with ``lo <= VID < hi`` (SIAS-V only)."""
        return list(self._txn_call(txn, Command.SCAN_VID_RANGE, table, lo,
                                   hi))

    # -- background machinery / monitoring -----------------------------------

    def tick(self) -> None:
        """Advance the server's bgwriter/checkpointer."""
        self._call(Command.TICK)

    def maintenance(self) -> dict:
        """Run GC / VACUUM on every table; returns per-table summaries."""
        return self._call(Command.MAINTENANCE)

    def monitor_snapshot(self) -> dict:
        """The server's full :func:`repro.db.monitor.snapshot` as a dict."""
        return self._call(Command.SNAPSHOT)

    def server_stats(self) -> dict:
        """Admission-control, session and per-command service counters."""
        return self._call(Command.STATS)

    def closed_ts(self, ratchet_to: int | None = None) -> int:
        """The server's closed-timestamp watermark.

        Every timestamp at or below it is settled, so it is a valid
        ``at_ts`` for :meth:`begin`.  ``ratchet_to`` additionally pushes
        the server's txid space forward (never backwards) before reading
        the watermark — the cluster router's shard-side ratchet.
        """
        if ratchet_to is None:
            return self._call(Command.CLOSED_TS)
        return self._call(Command.CLOSED_TS, ratchet_to)

    def ping(self) -> str:
        """Liveness probe."""
        return self._call(Command.PING)

    def shutdown_server(self) -> None:
        """Ask the server to stop cleanly (it answers, then winds down)."""
        self._call(Command.SHUTDOWN)

    def close(self) -> None:
        """Close every pooled connection."""
        self.pool.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
