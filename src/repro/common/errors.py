"""Exception hierarchy for the SIAS-V reproduction.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the engine can catch one base class.  Sub-hierarchies mirror
the package layout: storage devices, buffer manager, transactions, pages,
indexes and the workload driver each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class ConfigError(ReproError):
    """Invalid or inconsistent configuration value."""


# ---------------------------------------------------------------------------
# storage devices
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for device-level failures."""


class OutOfSpaceError(StorageError):
    """The device (or FTL over-provisioning pool) has no free space left."""


class InvalidAddressError(StorageError):
    """A logical or physical address is outside the device's range."""


class ReadUnwrittenError(StorageError):
    """A logical page was read before it was ever written."""


class WornOutError(StorageError):
    """A flash block exceeded its erase endurance budget."""


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------

class PageError(ReproError):
    """Base class for page-format violations."""


class PageFullError(PageError):
    """No room left in the page for the requested record."""


class PageCorruptError(PageError):
    """A page failed checksum or structural validation on deserialisation."""


class SlotError(PageError):
    """A slot number is invalid, dead, or out of range for the page."""


# ---------------------------------------------------------------------------
# buffer manager
# ---------------------------------------------------------------------------

class BufferError_(ReproError):
    """Base class for buffer-manager failures.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`BufferError`.
    """


class NoFreeFrameError(BufferError_):
    """Every frame in the buffer pool is pinned; eviction is impossible."""


class PinError(BufferError_):
    """Unpin without a matching pin, or eviction of a pinned frame."""


# ---------------------------------------------------------------------------
# transactions
# ---------------------------------------------------------------------------

class TxnError(ReproError):
    """Base class for transaction-layer failures."""


class TxnStateError(TxnError):
    """Operation invalid for the transaction's current state."""


class SerializationError(TxnError):
    """First-updater-wins conflict: concurrent update of the same item.

    Mirrors PostgreSQL's ``could not serialize access due to concurrent
    update`` error under snapshot isolation.
    """


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

class EngineError(ReproError):
    """Base class for storage-engine level failures."""


class NoSuchItemError(EngineError):
    """A VID / TID does not name a live data item."""


class TombstoneError(EngineError):
    """The data item was deleted (its entrypoint is a tombstone)."""


class IndexError_(ReproError):
    """Base class for index failures (trailing underscore: builtin clash)."""


class DuplicateKeyError(IndexError_):
    """A unique index rejected a duplicate key."""


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------

class WorkloadError(ReproError):
    """Base class for workload generator / driver failures."""


class SchemaError(WorkloadError):
    """A row does not match its relation's declared schema."""


# ---------------------------------------------------------------------------
# service layer (repro.server / repro.client)
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for wire-protocol service failures."""


class ProtocolError(ServiceError):
    """Malformed frame, unknown command, or a codec violation."""


class OverloadedError(ServiceError):
    """The server shed this request (admission control).

    Retryable by contract: the command was rejected *before* execution, so
    a client may safely resend it after backing off.
    """


class SessionError(ServiceError):
    """A command referenced a transaction its session does not own, or the
    session was closed (idle timeout / server shutdown)."""


class RemoteError(ServiceError):
    """An unexpected server-side failure relayed to the client."""


class DeadlineExceededError(ServiceError):
    """The command's deadline passed before the server executed it.

    Retryable by contract: the server rejects expired work *before* it
    touches the engine (on arrival, or while still queued for a worker),
    so resending with a fresh budget can never double-execute.
    """


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open for this endpoint.

    Raised without any network I/O: the endpoint failed enough consecutive
    times that the breaker fast-fails calls until a half-open probe
    succeeds.  Carries the breaker so callers can inspect state.
    """

    def __init__(self, message: str, breaker: object | None = None) -> None:
        super().__init__(message)
        self.breaker = breaker


class AmbiguousResultError(ServiceError, ConnectionError):
    """The connection died after the request was (possibly) sent.

    The server may or may not have executed the command — the classic
    lost-ack window.  Subclasses :class:`ConnectionError` so existing
    disconnect handling still applies, but stays distinguishable: a
    command that provably never left the client raises a plain
    :class:`ConnectionError` instead and is safe to resend.
    """


class ReplicationError(ServiceError):
    """A replication-protocol violation: epoch fencing or a gapped log.

    Raised when a shipped batch carries a stale epoch token (a fenced or
    zombie leader), when a write reaches a node that is not the current
    leader, or when a follower asks for records the leader no longer
    retains.  Deliberately **not** retryable: retrying a fenced request
    against the same node can only re-fail — the caller must fail over.
    """


class CommitUncertainError(ServiceError):
    """A ``COMMIT``'s ack was lost: the transaction's fate is unknown.

    Never blindly retried — a resent commit could double-apply.  Carries
    the txid so the caller can resolve the fate with ``TXN_STATUS``
    (:meth:`repro.client.remote.RemoteDatabase.txn_status`).
    """

    def __init__(self, message: str, txid: int) -> None:
        super().__init__(message)
        self.txid = txid
