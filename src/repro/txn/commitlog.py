"""Commit log (clog): the fate of every transaction id.

Visibility checks need to know whether a creation timestamp belongs to a
committed, aborted or still-running transaction — PostgreSQL keeps this in
``pg_xact``; here it is an in-memory map with the same three states.  The
bootstrap txid (initial load) is always committed.
"""

from __future__ import annotations

from enum import Enum

from repro.common.errors import TxnStateError
from repro.txn.ids import BOOTSTRAP_TXID


class TxnState(Enum):
    """Fate of a transaction id."""

    IN_PROGRESS = "in_progress"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class CommitLog:
    """Tracks the state of every allocated transaction id."""

    def __init__(self) -> None:
        self._states: dict[int, TxnState] = {
            BOOTSTRAP_TXID: TxnState.COMMITTED}

    def register(self, txid: int) -> None:
        """Record a newly started transaction."""
        if txid in self._states:
            raise TxnStateError(f"txid {txid} already registered")
        self._states[txid] = TxnState.IN_PROGRESS

    def state_of(self, txid: int) -> TxnState:
        """Current state of ``txid`` (unknown ids raise)."""
        try:
            return self._states[txid]
        except KeyError:
            raise TxnStateError(f"unknown txid {txid}") from None

    def set_prepared(self, txid: int) -> None:
        """Transition IN_PROGRESS → PREPARED (two-phase commit phase 1).

        A PREPARED transaction is still *not committed* for visibility —
        ``is_committed`` stays False, so no snapshot can see its versions
        until the coordinator's decision lands.
        """
        current = self.state_of(txid)
        if current is not TxnState.IN_PROGRESS:
            raise TxnStateError(
                f"txid {txid} is {current.value}, cannot become prepared")
        self._states[txid] = TxnState.PREPARED

    def set_committed(self, txid: int) -> None:
        """Transition IN_PROGRESS or PREPARED → COMMITTED."""
        self._transition(txid, TxnState.COMMITTED)

    def set_aborted(self, txid: int) -> None:
        """Transition IN_PROGRESS or PREPARED → ABORTED."""
        self._transition(txid, TxnState.ABORTED)

    def _transition(self, txid: int, target: TxnState) -> None:
        current = self.state_of(txid)
        if current not in (TxnState.IN_PROGRESS, TxnState.PREPARED):
            raise TxnStateError(
                f"txid {txid} is {current.value}, cannot become "
                f"{target.value}")
        self._states[txid] = target

    def is_committed(self, txid: int) -> bool:
        """True iff the transaction committed."""
        return self._states.get(txid) is TxnState.COMMITTED

    def is_aborted(self, txid: int) -> bool:
        """True iff the transaction aborted."""
        return self._states.get(txid) is TxnState.ABORTED
