"""The asyncio TCP server exposing a :class:`Database` over the wire.

One :class:`DatabaseServer` binds one database instance to a listening
socket.  Each accepted connection gets a :class:`~repro.server.session.
Session`; each request frame is decoded, checked against the command
registry (:data:`~repro.server.protocol.COMMANDS`), admission-checked and
executed on the engine executor by the
:class:`~repro.server.dispatch.Dispatcher`; the response frame echoes the
client's request id with a status code.

The connection loop itself — sessions, operand validation, deadlines,
drain, idle reaping, foreground/background lifecycle — is
:class:`WireService`, shared with the cluster router
(:class:`repro.cluster.router.ClusterRouter`), which differs only in how a
command runs.

Lifecycle contracts:

* a connection's transactions never outlive it — disconnect, reset and
  idle timeout all abort the session's in-flight transactions (undo runs,
  locks release) before the session is forgotten;
* overload never kills the server — excess load is shed per-command with
  the retryable ``OVERLOADED`` status while commit/abort, clock and stats
  commands stay admissible;
* expired work never reaches the engine — a request carrying a deadline
  that has already passed (or that lapses while queued) is rejected with
  the retryable ``DEADLINE_EXCEEDED`` status;
* ``SHUTDOWN`` (or SIGINT/SIGTERM under :meth:`WireService.run`) puts
  the server into **graceful drain**: new sessions are refused with
  ``SHUTTING_DOWN``, existing sessions may finish their in-flight
  transactions (and nothing else) until ``drain_timeout_sec``, stragglers
  are aborted (locks release), and only then do the sockets close.

The server can run in the foreground (:meth:`WireService.run`, used by
``repro serve``) or on a background thread with its own event loop
(:meth:`WireService.start_in_background`, used by tests and the networked
example).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import signal
import threading
import time
from dataclasses import dataclass

from repro.common.errors import (
    ProtocolError,
    ReplicationError,
    TxnStateError,
)
from repro.db.catalog import IndexDef, IndexKind
from repro.db.database import Database
from repro.db.monitor import CommandStat, snapshot
from repro.db.schema import ColType, Schema
from repro.server.dispatch import Dispatcher, DispatchStats
from repro.server.protocol import (
    COMMANDS,
    Command,
    CommandSpec,
    Status,
    as_int,
    as_str,
    decode_request,
    encode_response,
    error_payload,
    frame_length,
    status_for_exception,
)
from repro.server.session import Session, SessionManager
from repro.txn.commitlog import TxnState
from repro.txn.manager import Transaction, TxnPhase


@dataclass(frozen=True)
class ServerConfig:
    """Service-layer knobs (the engine's own config lives on the Database).

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`DatabaseServer.address` after start.  ``idle_timeout_sec <= 0``
    disables idle reaping.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_in_flight: int = 8
    max_queue_depth: int = 64
    #: engine worker threads; 0 means auto (``min(4, cpu_count)``)
    executor_workers: int = 0
    idle_timeout_sec: float = 60.0
    reaper_interval_sec: float = 1.0
    #: how long a writer blocks on a held item lock before aborting with
    #: ``SerializationError``; applied when more than one worker runs
    lock_wait_timeout_sec: float = 0.2
    #: run crash recovery on the attached database before serving — for
    #: databases whose device state outlived an unclean stop
    recover_on_start: bool = False
    #: how long a stopping server lets in-flight transactions finish
    #: before aborting them (0 = abort stragglers immediately)
    drain_timeout_sec: float = 5.0
    #: a :class:`repro.server.chaos.ChaosPlan` faulting *response* frames;
    #: None (the default) installs no wrapper — the fault-free fast path
    #: is the plain asyncio stream code
    chaos: object | None = None

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.executor_workers < 0:
            raise ValueError("executor_workers must be >= 0")
        if self.lock_wait_timeout_sec < 0:
            raise ValueError("lock_wait_timeout_sec must be >= 0")
        if self.drain_timeout_sec < 0:
            raise ValueError("drain_timeout_sec must be >= 0")


class WireService:
    """One listening socket speaking the wire protocol, one session per
    connection: the loop :class:`DatabaseServer` and the cluster router
    share.

    Per request it decodes the frame, validates the operands against the
    command registry, honours the caller's deadline, applies role-based
    fencing and the drain rule, and calls the endpoint's
    ``_cmd_<name>`` handler (a missing one is ``BAD_REQUEST``).  A
    subclass sets :attr:`counters` and provides ``executing`` (commands
    running now), :meth:`_abort_orphan` and :meth:`_on_stop`; it may
    override :meth:`_on_start`, :meth:`_call`, :meth:`_end_session` and
    :meth:`_banner`.
    """

    #: how the endpoint names itself in refusals, its thread and banner
    role = "server"
    #: per-command counters (:meth:`command_stats`) and arrival-deadline
    #: rejections
    counters: DispatchStats
    #: the node's replication role holder (a leader hub or a follower),
    #: None when standalone: a non-leader refuses the registry's
    #: ``leader_only`` commands, a fenced leader ``fenced_refused`` ones
    replication: object | None = None

    def __init__(self, config, response_chaos: object | None = None) -> None:
        config.validate()
        self.config = config
        #: a :class:`repro.server.chaos.ChaosPlan` wrapping response writers
        self.response_chaos = response_chaos
        self.sessions = SessionManager(config.idle_timeout_sec)
        self.address: tuple[str, int] | None = None
        self._server: asyncio.Server | None = None
        self._stop_event: asyncio.Event | None = None
        #: drain phase: refuse new sessions, let in-flight txns finish
        self._draining = False
        #: final teardown: connection loops exit, sockets close
        self._closing = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._reaper_task: asyncio.Task | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._handler_tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self._started_monotonic = 0.0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listening socket; returns the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_monotonic = time.monotonic()
        await self._on_start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        self._reaper_task = asyncio.create_task(self._reaper())
        return self.address

    async def _on_start(self) -> None:
        """Endpoint start-up work, before the socket binds."""

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (safe from the loop thread).

        Flips the endpoint into the *draining* phase immediately: new
        sessions are refused, existing ones may only finish what they
        started.  The actual teardown happens in :meth:`stop`.
        """
        self._draining = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop`, then tear everything down."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Drain gracefully, abort stragglers, then close everything.

        The listener stays **open** during the drain so a late-arriving
        client gets a ``SHUTTING_DOWN`` wire status (a signal it can act
        on) instead of a bare connection refusal.
        """
        if self._server is None:
            return
        self.request_stop()
        await self._drain()
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper_task
            self._reaper_task = None
        for writer in list(self._writers.values()):
            writer.close()
        if self._handler_tasks:
            # handlers abort their orphaned transactions on the way out
            await asyncio.wait(self._handler_tasks, timeout=5.0)
        self._on_stop()

    async def _drain(self) -> None:
        """Wait for in-flight transactions to finish; abort the rest.

        "In flight" means both open transactions (a session may be
        between commands of one) and commands currently executing.  The
        wait is bounded by ``drain_timeout_sec``; whatever remains is
        aborted so locks release and undo runs before the sockets close.
        """
        deadline = time.monotonic() + self.config.drain_timeout_sec
        while time.monotonic() < deadline:
            if self.sessions.in_flight_txns() == 0 and self.executing == 0:
                return
            await asyncio.sleep(0.02)
        for session in list(self.sessions):
            if session.txns:
                self.sessions.stats.drain_aborts += len(session.txns)
                writer = self._writers.pop(session.session_id, None)
                if writer is not None:
                    writer.close()
                await self._end_session(session)

    def _banner(self) -> str:
        host, port = self.address  # type: ignore[misc]
        return f"repro {self.role} listening on {host}:{port}"

    def run(self) -> int:
        """Foreground serve loop (``repro serve``, ``repro cluster
        start``); returns 0 on clean stop."""
        async def main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(signum, self.request_stop)
            print(self._banner(), flush=True)
            await self.serve_until_stopped()

        asyncio.run(main())
        return 0

    def start_in_background(self) -> tuple[str, int]:
        """Serve from a dedicated thread; returns once the port is bound.

        For embedding (tests, examples): the caller's thread stays free to
        run clients against :attr:`address`.  Pair with
        :meth:`stop_in_background`.
        """
        ready = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            async def main() -> None:
                await self.start()
                ready.set()
                await self.serve_until_stopped()
            try:
                asyncio.run(main())
            except BaseException as exc:  # surfaced to the caller below
                failure.append(exc)
            finally:
                ready.set()

        self._thread = threading.Thread(target=runner,
                                        name=f"repro-{self.role}",
                                        daemon=True)
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise TimeoutError(f"{self.role} did not start within 10s")
        if failure:
            raise failure[0]
        assert self.address is not None
        return self.address

    def stop_in_background(self, timeout: float = 10.0) -> None:
        """Stop a :meth:`start_in_background` endpoint, join its thread."""
        if self._thread is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.request_stop)
        self._thread.join(timeout)
        self._thread = None

    def command_stats(self) -> tuple:
        """Per-command counters in :mod:`repro.db.monitor` shape."""
        return tuple(
            CommandStat(command=name, calls=c.calls, ok=c.ok,
                        errors=c.errors, shed=c.shed,
                        mean_wall_usec=round(c.mean_wall_sec * 1e6, 1),
                        max_wall_usec=round(c.max_wall_sec * 1e6, 1))
            for name, c in sorted(self.counters.commands.items()))

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        if self._draining:
            await self._refuse_connection(reader, writer)
            if task is not None:
                self._handler_tasks.discard(task)
            return
        if self.response_chaos is not None:
            writer = self.response_chaos.wrap_stream_writer(writer)
        peer = writer.get_extra_info("peername")
        session = self.sessions.open(str(peer), time.monotonic())
        self._writers[session.session_id] = writer
        try:
            await self._serve_connection(session, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-frame: treated as a disconnect
        finally:
            self._writers.pop(session.session_id, None)
            await self._end_session(session)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            if task is not None:
                self._handler_tasks.discard(task)

    async def _refuse_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Tell a client arriving during drain to go away, politely.

        Reads the first frame (briefly) so the refusal can echo its
        request id — giving the client pool a typed, retryable-elsewhere
        ``SHUTTING_DOWN`` instead of a connection reset.
        """
        self.sessions.stats.drain_refused += 1
        request_id = 0
        with contextlib.suppress(ConnectionError, ProtocolError,
                                 asyncio.IncompleteReadError,
                                 asyncio.TimeoutError):
            payload = await asyncio.wait_for(self._read_frame(reader),
                                             timeout=1.0)
            if payload is not None:
                request_id = decode_request(payload)[0]
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(encode_response(request_id, Status.SHUTTING_DOWN,
                                         f"{self.role} is draining"))
            await writer.drain()
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()

    async def _serve_connection(self, session: Session,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while not self._closing:
            payload = await self._read_frame(reader)
            if payload is None:
                return
            now = time.monotonic()
            try:
                request_id, command, args, deadline_ms = (
                    decode_request(payload))
            except ProtocolError as exc:
                writer.write(encode_response(0, Status.BAD_REQUEST,
                                             error_payload(exc)))
                await writer.drain()
                return  # a desynchronised stream cannot be resumed
            # One request at a time per connection, so the session can
            # carry the in-flight command's absolute deadline.
            session.deadline = (None if deadline_ms is None
                                else now + deadline_ms / 1000.0)
            session.begin_command(now)
            try:
                status, result = await self._execute(session, command, args)
            finally:
                session.end_command(time.monotonic())
                session.deadline = None
            writer.write(encode_response(request_id, status, result))
            await writer.drain()
            if command == Command.SHUTDOWN and status == Status.OK:
                self.request_stop()
                return
            if self._draining and not session.txns:
                # drained: this session has nothing left to finish
                return

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> bytes | None:
        """One frame payload, or None on clean EOF between frames."""
        try:
            header = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        return await reader.readexactly(frame_length(header))

    async def _execute(self, session: Session, command: int,
                       args: tuple) -> tuple[Status, object]:
        spec = COMMANDS.get(command)
        handler = None if spec is None else getattr(self, spec.handler, None)
        if handler is None:
            return Status.BAD_REQUEST, f"unknown command {command}"
        try:
            spec.check(args)
        except ProtocolError as exc:
            return Status.BAD_REQUEST, error_payload(exc)
        if (session.deadline is not None
                and time.monotonic() >= session.deadline):
            # Checked here — not only inside the dispatcher — so commands
            # that never reach a worker slot (PING, STATS) still honour
            # the caller's budget.
            self.counters.deadline_rejected += 1
            return (Status.DEADLINE_EXCEEDED,
                    f"{spec.name}: deadline passed on arrival")
        repl = self.replication
        if repl is not None and repl.role != "leader" and (
                spec.leader_only
                or (repl.role == "fenced" and spec.fenced_refused)):
            # role-based write fencing: a replica serves reads only; a
            # fenced (deposed) leader may not ack anything that could
            # make a write durable — not even a commit of older work
            return Status.FENCED, error_payload(ReplicationError(
                f"{spec.name} refused: node role is {repl.role} "
                f"(epoch {repl.epoch}), not leader"))
        if (self._draining and not spec.drain_ok
                and not (spec.txn_scoped and args[0] in session.txns)):
            # a command against a transaction this session already has
            # in flight may still run — "finish what you started"
            return Status.SHUTTING_DOWN, f"{self.role} is draining"
        return await self._call(spec, handler, session, args)

    async def _call(self, spec: CommandSpec, handler, session: Session,
                    args: tuple) -> tuple[Status, object]:
        """Run an admitted command's handler; failures become statuses."""
        try:
            return Status.OK, await handler(session, args)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            return status_for_exception(exc), error_payload(exc)

    async def _end_session(self, session: Session) -> None:
        """Retire a session and abort its in-flight transactions."""
        await self._abort_orphans(self.sessions.close(session))

    async def _abort_orphans(self, orphans: list) -> None:
        """Abort a closed session's in-flight transactions."""
        for txn in orphans:
            with contextlib.suppress(Exception):
                if await self._abort_orphan(txn):
                    self.sessions.stats.orphans_aborted += 1

    async def _reaper(self) -> None:
        """Close sessions that out-idled the timeout (aborting their txns)."""
        interval = self.config.reaper_interval_sec
        if self.config.idle_timeout_sec > 0:
            interval = min(interval, self.config.idle_timeout_sec / 4)
        interval = max(interval, 0.02)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for session in self.sessions.idle_sessions(now):
                self.sessions.stats.idle_closed += 1
                await self._end_session(session)
                writer = self._writers.pop(session.session_id, None)
                if writer is not None:
                    writer.close()

    async def _cmd_shutdown(self, _session: Session, _args: tuple) -> None:
        return None


class DatabaseServer(WireService):
    """Serves one :class:`Database` over length-prefixed TCP frames."""

    def __init__(self, db: Database, config: ServerConfig | None = None,
                 replication: object | None = None) -> None:
        config = config or ServerConfig()
        super().__init__(config, response_chaos=config.chaos)
        self.db = db
        #: a :class:`repro.replication.leader.ReplicationHub` or
        #: :class:`repro.replication.follower.WalFollower` (or None for a
        #: standalone node).  Drives role-based write fencing, replica
        #: read pinning and the WAL_SUBSCRIBE/WAL_FETCH commands.
        self.replication = replication
        self.dispatch = Dispatcher(self.config.max_in_flight,
                                   self.config.max_queue_depth,
                                   self.config.executor_workers or None)
        self.counters = self.dispatch.stats
        # With several engine workers, writers contending for the same
        # item wait (bounded) instead of aborting on first touch — the
        # single-worker default (0.0: immediate first-updater-wins abort)
        # stays untouched so embedded/one-worker behaviour is unchanged.
        if (self.dispatch.executor_workers > 1
                and db.txn_mgr.locks.wait_timeout_sec <= 0):
            db.txn_mgr.locks.wait_timeout_sec = (
                self.config.lock_wait_timeout_sec)
        #: set when ``recover_on_start`` ran: what recovery found/redid
        self.recovery_report = None
        if self.config.recover_on_start:
            from repro.db.recovery import crash, recover
            # Re-derive every volatile structure from durable state, as a
            # restart after power loss would: drop whatever in-memory
            # state the handed-in Database object carries, then recover.
            crash(db)
            self.recovery_report = recover(db)

    @property
    def executing(self) -> int:
        """Commands currently running on the engine executor."""
        return self.dispatch.executing

    def _on_stop(self) -> None:
        self.dispatch.close()

    # -- monitoring ----------------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``STATS`` command's response body."""
        return {
            "uptime_sec": round(time.monotonic() - self._started_monotonic,
                                3),
            "in_flight": self.dispatch.executing,
            "queued": self.dispatch.queued,
            "admitted": self.dispatch.stats.admitted,
            "shed_total": self.dispatch.stats.shed_total,
            "deadline_rejected": self.dispatch.stats.deadline_rejected,
            "deadline_shed": self.dispatch.stats.deadline_shed,
            "draining": self._draining,
            "max_in_flight": self.config.max_in_flight,
            "max_queue_depth": self.config.max_queue_depth,
            "executor_workers": self.dispatch.executor_workers,
            "exclusive_runs": self.dispatch.stats.exclusive_runs,
            "sessions": {"live": self.sessions.count(),
                         "in_flight_txns": self.sessions.in_flight_txns(),
                         **self.sessions.stats.as_dict()},
            "engine": self._engine_payload(),
            "replication": (self.replication.status()
                            if self.replication is not None else {}),
            "commands": self.dispatch.stats.per_command(),
        }

    def _engine_payload(self) -> dict:
        """Engine-core counters (txn + lock table) for ``STATS``.

        Lets clients and the CI smoke assert engine invariants over the
        wire — e.g. that the lock table drained after a workload.
        """
        commits, aborts, active = self.db.txn_mgr.counters()
        locks = self.db.txn_mgr.locks
        mgr = self.db.txn_mgr
        return {
            "txns": {"commits": commits, "aborts": aborts,
                     "active": active,
                     "prepares": mgr.prepares,
                     "prepared_commits": mgr.prepared_commits,
                     "prepared_aborts": mgr.prepared_aborts,
                     "in_doubt": len(mgr.prepared),
                     "in_doubt_txns": tuple(mgr.in_doubt()),
                     "closed_ts": mgr.closed_ts(),
                     "begin_at": mgr.begin_at},
            "locks": {"held": locks.held_count(),
                      "acquired": locks.stats.acquired,
                      "conflicts": locks.stats.conflicts,
                      "waits": locks.stats.waits,
                      "wait_timeouts": locks.stats.wait_timeouts},
        }

    # -- per-endpoint hooks --------------------------------------------------

    async def _run(self, session: Session, command: Command, fn) -> object:
        spec = COMMANDS[command]
        return await self.dispatch.run(spec.name, fn, exempt=spec.exempt,
                                       exclusive=spec.exclusive,
                                       deadline=session.deadline)

    async def _end_session(self, session: Session) -> None:
        self._drop_follower_slots(session)
        await super()._end_session(session)

    async def _abort_orphan(self, txn: Transaction) -> bool:
        """Abort one orphaned transaction on the engine."""
        def work() -> bool:
            if txn.phase is TxnPhase.ACTIVE:
                self.db.abort(txn)
                return True
            return False
        return await self.dispatch.run("ABORT_ORPHAN", work, exempt=True)

    # -- command handlers (operands already validated against COMMANDS) ------

    async def _cmd_ping(self, _session: Session, _args: tuple) -> str:
        return "pong"

    async def _cmd_begin(self, session: Session, args: tuple) -> int:
        """Start a transaction.  Wire-compatible arity growth: the
        original single-operand form ``(serializable,)`` keeps today's
        behaviour; a second operand pins the snapshot to an externally
        supplied closed read timestamp (``None`` ⇒ fresh snapshot)."""
        serializable = args[0]
        at_ts = args[1] if len(args) > 1 else None
        repl = self.replication
        if repl is not None and repl.role == "replica" and at_ts is None:
            if serializable:
                raise ReplicationError(
                    "replica reads are snapshot-pinned; serializable "
                    "transactions must run on the leader")
            # pin the snapshot at the replay watermark: stale-bounded,
            # never fractured (see repro.replication.follower)
            at_ts = repl.read_ts()
        txn = await self._run(
            session, Command.BEGIN,
            lambda: self.db.begin(serializable=bool(serializable),
                                  at_ts=at_ts))
        session.register(txn)
        return txn.txid

    async def _cmd_commit(self, session: Session, args: tuple) -> None:
        txn = session.claim(args[0])

        def work() -> None:
            try:
                self.db.commit(txn)
            except BaseException:
                # an SSI commit-time abort must still release locks
                if txn.phase is TxnPhase.ACTIVE:
                    self.db.abort(txn)
                raise
        try:
            await self._run(session, Command.COMMIT, work)
        finally:
            if txn.phase is not TxnPhase.ACTIVE:
                session.forget(txn.txid)

    async def _cmd_abort(self, session: Session, args: tuple) -> None:
        txn = session.claim(args[0])
        try:
            await self._run(session, Command.ABORT, lambda: self.db.abort(txn))
        finally:
            if txn.phase is not TxnPhase.ACTIVE:
                session.forget(txn.txid)

    async def _cmd_create_table(self, session: Session,
                                args: tuple) -> None:
        table, columns, indexes = args
        try:
            schema = Schema.of(*[(as_str(cn, "column"), ColType(ct))
                                 for cn, ct in columns])
            defs = [IndexDef(as_str(iname, "index"), tuple(cols),
                             bool(unique),
                             IndexKind(kind))
                    for iname, cols, unique, kind in indexes]
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"bad table definition: {exc}") from None
        await self._run(
            session, Command.CREATE_TABLE,
            lambda: self.db.create_table(table, schema, indexes=defs))

    async def _cmd_insert(self, session: Session, args: tuple) -> object:
        txid, table, row = args
        txn = session.claim(txid)
        return await self._run(session, Command.INSERT,
                               lambda: self.db.insert(txn, table, row))

    async def _cmd_bulk_insert(self, session: Session,
                               args: tuple) -> tuple:
        txid, table, rows = args
        txn = session.claim(txid)
        return tuple(await self._run(
            session, Command.BULK_INSERT,
            lambda: self.db.bulk_insert(txn, table, list(rows))))

    async def _cmd_read(self, session: Session, args: tuple) -> object:
        txid, table, ref = args
        txn = session.claim(txid)
        return await self._run(session, Command.READ,
                               lambda: self.db.read(txn, table, ref))

    async def _cmd_update(self, session: Session, args: tuple) -> object:
        txid, table, ref, row = args
        txn = session.claim(txid)
        return await self._run(session, Command.UPDATE,
                               lambda: self.db.update(txn, table, ref, row))

    async def _cmd_delete(self, session: Session, args: tuple) -> None:
        txid, table, ref = args
        txn = session.claim(txid)
        await self._run(session, Command.DELETE,
                        lambda: self.db.delete(txn, table, ref))

    async def _cmd_lookup(self, session: Session, args: tuple) -> tuple:
        txid, table, index, key = args
        txn = session.claim(txid)
        return tuple(await self._run(
            session, Command.LOOKUP,
            lambda: self.db.lookup(txn, table, index, key)))

    async def _cmd_range_lookup(self, session: Session,
                                args: tuple) -> tuple:
        txid, table, index, lo, hi = args
        txn = session.claim(txid)
        return tuple(await self._run(
            session, Command.RANGE_LOOKUP,
            lambda: self.db.range_lookup(txn, table, index, lo, hi)))

    async def _cmd_scan(self, session: Session, args: tuple) -> tuple:
        txid, table = args
        txn = session.claim(txid)
        return tuple(await self._run(
            session, Command.SCAN, lambda: list(self.db.scan(txn, table))))

    async def _cmd_scan_batch(self, session: Session, args: tuple) -> tuple:
        txid, table, columns, where, after, limit = args
        txn = session.claim(txid)
        # this endpoint's cursor is the engine's own: a VID or row offset
        cursor = None if after is None else as_int(after, "cursor")

        def work() -> tuple:
            rows, next_cursor = self.db.scan_batch(
                txn, table, where=where, after=cursor, limit=limit,
                columns=None if columns is None else list(columns))
            return tuple(rows), next_cursor
        return await self._run(session, Command.SCAN_BATCH, work)

    async def _cmd_aggregate(self, session: Session, args: tuple) -> object:
        txid, table, op, column, where = args
        txn = session.claim(txid)
        return await self._run(
            session, Command.AGGREGATE,
            lambda: self.db.aggregate(txn, table, op, column=column,
                                      where=where))

    async def _cmd_scan_vid_range(self, session: Session,
                                  args: tuple) -> tuple:
        txid, table, lo, hi = args
        txn = session.claim(txid)
        return tuple(await self._run(
            session, Command.SCAN_VID_RANGE,
            lambda: self.db.scan_vid_range(txn, table, lo, hi)))

    async def _cmd_tick(self, session: Session, _args: tuple) -> None:
        await self._run(session, Command.TICK, self.db.tick)

    async def _cmd_maintenance(self, session: Session,
                               _args: tuple) -> dict:
        def work() -> dict:
            out: dict[str, dict[str, int]] = {}
            for table, report in self.db.maintenance().items():
                summary: dict[str, int] = {}
                for attr in ("records_discarded", "pages_reclaimed"):
                    if hasattr(report, attr):
                        summary[attr] = int(getattr(report, attr))
                if hasattr(report, "killed"):
                    summary["killed"] = len(report.killed)
                out[table] = summary
            return out
        return await self._run(session, Command.MAINTENANCE, work)

    async def _cmd_snapshot(self, session: Session, _args: tuple) -> dict:
        return await self._run(
            session, Command.SNAPSHOT,
            lambda: dataclasses.asdict(snapshot(self.db, server=self)))

    async def _cmd_stats(self, _session: Session, _args: tuple) -> dict:
        return self.stats_payload()

    async def _cmd_clock_now(self, session: Session, _args: tuple) -> int:
        return await self._run(session, Command.CLOCK_NOW,
                               lambda: self.db.clock.now)

    async def _cmd_clock_advance(self, session: Session,
                                 args: tuple) -> int:
        def work() -> int:
            self.db.clock.advance(args[0])
            return self.db.clock.now
        return await self._run(session, Command.CLOCK_ADVANCE, work)

    async def _cmd_clock_advance_to(self, session: Session,
                                    args: tuple) -> int:
        def work() -> int:
            self.db.clock.advance_to(args[0])
            return self.db.clock.now
        return await self._run(session, Command.CLOCK_ADVANCE_TO, work)

    async def _cmd_txn_status(self, session: Session, args: tuple) -> str:
        """The authoritative fate of a txid — how an ambiguous commit
        (acked-but-unread, see ``AmbiguousResultError``) is resolved.

        ``"committed"``/``"aborted"`` are final; ``"active"`` means the
        transaction is still open somewhere (its owning session may not
        have noticed its client died yet); ``"unknown"`` means the txid
        was never allocated.
        """
        def work() -> str:
            try:
                state = self.db.txn_mgr.state_of(args[0])
            except TxnStateError:
                return "unknown"
            if state is TxnState.COMMITTED:
                return "committed"
            if state is TxnState.ABORTED:
                return "aborted"
            if state is TxnState.PREPARED:
                return "prepared"
            return "active"
        return await self._run(session, Command.TXN_STATUS, work)

    async def _cmd_prepare_txn(self, session: Session, args: tuple) -> None:
        """2PC phase 1: durably prepare a session-owned transaction.

        On success the session *forgets* the transaction: a prepared txn
        must survive its client's disconnect (the router may crash between
        phases) — only the coordinator's decision, delivered over any
        session via COMMIT_PREPARED/ABORT_PREPARED, settles it.  A failed
        prepare aborts, exactly like a failed COMMIT.
        """
        txid, gtxid = args
        txn = session.claim(txid)

        def work() -> None:
            try:
                self.db.prepare(txn, gtxid)
            except BaseException:
                if txn.phase is TxnPhase.ACTIVE:
                    self.db.abort(txn)
                raise
        try:
            await self._run(session, Command.PREPARE_TXN, work)
        finally:
            if txn.phase is not TxnPhase.ACTIVE:
                session.forget(txn.txid)

    async def _cmd_commit_prepared(self, session: Session,
                                   args: tuple) -> bool:
        """2PC phase 2, commit decision (idempotent, session-free)."""
        return await self._run(session, Command.COMMIT_PREPARED,
                               lambda: self.db.commit_prepared(args[0]))

    async def _cmd_abort_prepared(self, session: Session,
                                  args: tuple) -> bool:
        """2PC phase 2, abort decision (idempotent, session-free)."""
        return await self._run(session, Command.ABORT_PREPARED,
                               lambda: self.db.abort_prepared(args[0]))

    async def _cmd_closed_ts(self, session: Session, args: tuple) -> int:
        """The closed-timestamp watermark, optionally ratcheting first.

        With no operand, returns the engine's current watermark.  With a
        timestamp operand, ratchets the txid space forward to it (a no-op
        when already past — the :meth:`SimClock.advance_to` contract) and
        returns the resulting watermark.  The cluster router uses the
        ratcheting form while refreshing its cluster-wide read timestamp,
        so a quiet shard cannot drag the global minimum into the past.
        """
        repl = self.replication
        if not args:
            if repl is not None and repl.role == "replica":
                # a replica's closed timestamp is its replay watermark:
                # the highest snapshot it can serve without fracturing
                return await self._run(session, Command.CLOSED_TS,
                                       repl.read_ts)
            return await self._run(session, Command.CLOSED_TS,
                                   self.db.closed_ts)
        return await self._run(session, Command.CLOSED_TS,
                               lambda: self.db.advance_to(args[0]))

    async def _cmd_wal_subscribe(self, session: Session,
                                 args: tuple) -> tuple:
        """Register a follower's replication slot; returns
        ``(epoch, durable_seq)``."""
        fid, seq = args

        def work() -> tuple:
            info = self._replication_source().subscribe(fid, seq)
            # the slot now belongs to this connection: when the session
            # dies (disconnect, idle reap) the slot dies with it instead
            # of pinning WAL retention until process death
            session.slots.add(fid)
            return info["epoch"], info["durable_seq"]
        return await self._run(session, Command.WAL_SUBSCRIBE, work)

    async def _cmd_wal_unsubscribe(self, session: Session,
                                   args: tuple) -> None:
        """Drop a follower's replication slot (releases its retention)."""
        fid = args[0]

        def work() -> None:
            self._replication_source().unsubscribe(fid)
            session.slots.discard(fid)
        return await self._run(session, Command.WAL_UNSUBSCRIBE, work)

    async def _cmd_backup_begin(self, session: Session,
                                args: tuple) -> dict:
        """Cut an online base backup; returns the backup handle."""
        fid = args[0]

        def work() -> dict:
            handle = self._replication_source().backup_begin(fid)
            session.slots.add(fid)
            session.backups.add(handle["backup_id"])
            return handle
        return await self._run(session, Command.BACKUP_BEGIN, work)

    async def _cmd_backup_fetch(self, session: Session,
                                args: tuple) -> list:
        """One backup image chunk."""
        return await self._run(
            session, Command.BACKUP_FETCH,
            lambda: self._replication_source().backup_fetch(*args))

    async def _cmd_backup_end(self, session: Session, args: tuple) -> None:
        """Release a backup handle."""
        bid = args[0]

        def work() -> None:
            self._replication_source().backup_end(bid)
            session.backups.discard(bid)
        return await self._run(session, Command.BACKUP_END, work)

    async def _cmd_wal_fetch(self, session: Session, args: tuple) -> tuple:
        """One shipped WAL frame:
        ``(epoch, since_seq, blob, durable_seq, closed_ts)``."""
        return await self._run(
            session, Command.WAL_FETCH,
            lambda: self._replication_source().fetch(*args))

    def _replication_source(self):
        if self.replication is None:
            raise ReplicationError(
                "this node has no replication hub attached")
        return self.replication

    def _drop_follower_slots(self, session: Session) -> None:
        """Release slots and backup handles owned by a dying session.

        A follower that vanishes without ``WAL_UNSUBSCRIBE`` must not
        pin WAL retention (or a materialized backup image) until process
        death — the session is the slot's lease.
        """
        if self.replication is None:
            return
        if not session.slots and not session.backups:
            return
        for backup_id in list(session.backups):
            with contextlib.suppress(Exception):
                self.replication.backup_end(backup_id)
        session.backups.clear()
        for follower_id in list(session.slots):
            with contextlib.suppress(Exception):
                self.replication.unsubscribe(follower_id)
            self.sessions.stats.slots_dropped += 1
        session.slots.clear()
