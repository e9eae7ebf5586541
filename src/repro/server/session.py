"""Per-connection sessions: transaction ownership and idle reaping.

A *session* is the server-side shadow of one client connection.  It owns
every transaction the connection began and has not yet finished, so the
server can uphold the contract a crashing client cannot: **no transaction
outlives its connection**.  On disconnect (clean close, reset, or idle
timeout) the server aborts the session's in-flight transactions, which runs
their undo actions and releases their locks — exactly what PostgreSQL does
when a backend loses its client.

All bookkeeping here runs on the event-loop thread; only the actual aborts
go through the executor (see :mod:`repro.server.dispatch`), so no locking
is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import SessionError
from repro.txn.manager import Transaction


@dataclass
class SessionStats:
    """Counters the ``STATS`` command reports for the session layer."""

    opened: int = 0
    closed: int = 0
    idle_closed: int = 0
    orphans_aborted: int = 0
    #: sessions refused because the server was draining
    drain_refused: int = 0
    #: transactions aborted because the drain timeout expired on them
    drain_aborts: int = 0
    #: replication slots dropped because their owning session went away
    #: (disconnect or idle reap) — the leader-side slot-leak fix
    slots_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        """Wire-friendly view."""
        return {"opened": self.opened, "closed": self.closed,
                "idle_closed": self.idle_closed,
                "orphans_aborted": self.orphans_aborted,
                "drain_refused": self.drain_refused,
                "drain_aborts": self.drain_aborts,
                "slots_dropped": self.slots_dropped}


@dataclass
class Session:
    """One connection's server-side state."""

    session_id: int
    peer: str
    last_active: float
    txns: dict[int, Transaction] = field(default_factory=dict)
    closed: bool = False
    #: commands this session currently has executing (or queued) in the
    #: dispatcher — the idle reaper must not close the session under them
    in_flight: int = 0
    #: the in-flight command's absolute monotonic deadline (None = none);
    #: valid because a connection processes one request at a time
    deadline: float | None = None
    #: replication slots registered through this connection — dropped on
    #: disconnect / idle reap so a vanished follower cannot pin the
    #: leader's WAL retention forever
    slots: set[str] = field(default_factory=set)
    #: base-backup handles opened through this connection — released with
    #: the session for the same reason
    backups: set[str] = field(default_factory=set)

    def begin_command(self, now: float) -> None:
        """A command arrived and is about to execute."""
        self.last_active = now
        self.in_flight += 1

    def end_command(self, now: float) -> None:
        """A command finished; the idle clock restarts *now*.

        Touching on completion (not only on arrival) is what keeps a
        long-running command's session alive: idleness is measured from
        the last time the server finished work for the connection, not
        from when the work was requested.
        """
        self.in_flight -= 1
        self.last_active = now

    def register(self, txn: Transaction) -> None:
        """Adopt a transaction this session began."""
        self.txns[txn.txid] = txn

    def claim(self, txid: int) -> Transaction:
        """The session's transaction with ``txid`` (raises if not owned)."""
        try:
            return self.txns[txid]
        except KeyError:
            raise SessionError(
                f"txn {txid} is not owned by session {self.session_id}"
            ) from None

    def forget(self, txid: int) -> None:
        """Drop a finished transaction (no-op if already gone)."""
        self.txns.pop(txid, None)


class SessionManager:
    """Owns every live session and decides which ones have gone idle."""

    def __init__(self, idle_timeout_sec: float) -> None:
        self.idle_timeout_sec = idle_timeout_sec
        self.stats = SessionStats()
        self._sessions: dict[int, Session] = {}
        self._next_id = 1

    def open(self, peer: str, now: float) -> Session:
        """Create the session for a freshly accepted connection."""
        session = Session(session_id=self._next_id, peer=peer,
                          last_active=now)
        self._next_id += 1
        self._sessions[session.session_id] = session
        self.stats.opened += 1
        return session

    def close(self, session: Session) -> list[Transaction]:
        """Retire a session; returns its orphaned (still-active) txns.

        Idempotent: the idle reaper and the connection handler may both
        try to close the same session, and only the first call collects
        the orphans.
        """
        if session.closed:
            return []
        session.closed = True
        self._sessions.pop(session.session_id, None)
        self.stats.closed += 1
        orphans = list(session.txns.values())
        session.txns.clear()
        return orphans

    def idle_sessions(self, now: float) -> list[Session]:
        """Sessions whose idle time exceeded the timeout.

        A session with a command in flight is never idle, however long
        the command takes: reaping it would abort a transaction the
        dispatcher is actively working on.
        """
        if self.idle_timeout_sec <= 0:
            return []
        return [s for s in self._sessions.values()
                if s.in_flight == 0
                and now - s.last_active > self.idle_timeout_sec]

    def __iter__(self) -> Iterator[Session]:
        return iter(list(self._sessions.values()))

    def count(self) -> int:
        """Number of live sessions."""
        return len(self._sessions)

    def in_flight_txns(self) -> int:
        """Transactions currently owned by any session."""
        return sum(len(s.txns) for s in self._sessions.values())
