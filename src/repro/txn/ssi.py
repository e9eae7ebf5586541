"""Serializable Snapshot Isolation (SSI) — optional isolation level.

Plain SI permits *write skew*; the paper points to Cahill et al. (SIGMOD
2008) and the PostgreSQL implementation by Ports & Grittner (VLDB 2012) for
the fix: track read/write **rw-antidependencies** between concurrent
snapshot transactions and abort one of them whenever a transaction ends up
with both an inbound and an outbound rw-edge (the *pivot* of a dangerous
structure); every SI anomaly contains such a pivot.

This implementation follows the Cahill design:

* every read by a serializable transaction takes a **SIREAD** marker on the
  data item (``(relation_id, item)`` — the same identity the engines lock);
* a write checks SIREAD markers of concurrent serializable transactions and
  raises the rw-edges ``reader --rw--> writer``; a read checks writes of
  concurrent transactions for the converse edge;
* when a transaction ends up with both an inbound and an outbound rw-edge
  it is the pivot of a dangerous structure and somebody must die: the
  pivot if it is still active, else the still-active neighbour;
* the victim is marked **doomed** and the serialization failure is raised
  in the *victim's own* next operation or commit — never in whichever
  innocent transaction happened to complete the structure (aborting the
  bystander would leave the pivot running and the anomaly live);
* edges contributed by an aborted transaction are dropped when it
  finishes, so its half-built structures cannot doom survivors later;
* markers of committed transactions are retained until no running
  serializable transaction overlaps them (they can still form edges).

Like the original paper (and unlike full PostgreSQL SSI) this tracks item
granularity only — predicate (phantom) protection via index-range locks is
out of scope and documented as such (see docs/CONCURRENCY.md).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.common.errors import SerializationError
from repro.txn.manager import Transaction, TxnPhase


@dataclass
class _SsiState:
    """Per-transaction dependency bookkeeping.

    Edges are kept as txid *sets* rather than the two booleans of the
    original sketch: knowing **who** contributed an edge is what lets an
    aborted neighbour's edges be withdrawn, and a flag alone cannot be
    un-set when one of several contributors goes away.
    """

    txn: Transaction
    reads: set = field(default_factory=set)
    writes: set = field(default_factory=set)
    #: txids with an rw-edge INTO me (they read what I overwrote)
    in_edges: set = field(default_factory=set)
    #: txids I have an rw-edge OUT to (I read what they overwrote)
    out_edges: set = field(default_factory=set)
    #: sentenced to death by victim selection; the sentence is executed
    #: (SerializationError) by this transaction's own next op or commit
    doomed: bool = False

    @property
    def in_conflict(self) -> bool:
        return bool(self.in_edges)

    @property
    def out_conflict(self) -> bool:
        return bool(self.out_edges)

    @property
    def finished(self) -> bool:
        return self.txn.phase is not TxnPhase.ACTIVE

    @property
    def committed(self) -> bool:
        return self.txn.phase is TxnPhase.COMMITTED


class SsiTracker:
    """Tracks rw-antidependencies among serializable transactions.

    Thread-safe: one internal mutex covers the whole dependency graph —
    edges connect arbitrary transaction pairs, so finer locking would buy
    nothing.  The mutex is a leaf in the lock hierarchy: no SSI method
    calls back into the manager, engines or WAL.
    """

    def __init__(self) -> None:
        self._states: dict[int, _SsiState] = {}
        self.aborts_prevented_anomalies = 0
        self._mu = threading.RLock()

    # -- lifecycle ---------------------------------------------------------------

    def register(self, txn: Transaction) -> None:
        """Start tracking a serializable transaction."""
        with self._mu:
            self._states[txn.txid] = _SsiState(txn=txn)

    def before_commit(self, txn: Transaction) -> None:
        """Commit-time gate: a doomed transaction dies here at the latest.

        Called by the transaction manager *before* the COMMIT record is
        logged, so a doomed transaction can never become durable.
        """
        with self._mu:
            state = self._states.get(txn.txid)
            if state is not None and state.doomed:
                raise SerializationError(
                    f"txn {txn.txid}: pivot of a dangerous "
                    "rw-antidependency structure; aborting at commit to "
                    "preserve serializability")

    def on_finish(self, txn: Transaction) -> None:
        """Called after commit/abort: drop markers nobody can conflict with.

        A committed transaction's SIREAD markers must outlive it while any
        running serializable transaction overlaps it.  An *aborted*
        transaction never committed anything anybody could depend on: its
        state is dropped immediately and — crucially — the edges it
        contributed are withdrawn from every survivor, so a half-built
        dangerous structure cannot cause spurious aborts later.
        """
        with self._mu:
            state = self._states.get(txn.txid)
            if state is not None and txn.phase is TxnPhase.ABORTED:
                del self._states[txn.txid]
                for other in self._states.values():
                    other.in_edges.discard(txn.txid)
                    other.out_edges.discard(txn.txid)
            self._garbage_collect()

    def _garbage_collect(self) -> None:
        active = [s for s in self._states.values() if not s.finished]
        keep: set[int] = {s.txn.txid for s in active}
        for state in self._states.values():
            if not state.committed:
                continue
            if any(a.txn.snapshot.overlaps(state.txn.snapshot)
                   for a in active):
                keep.add(state.txn.txid)
        self._states = {txid: s for txid, s in self._states.items()
                        if txid in keep}

    # -- dependency hooks ----------------------------------------------------------

    def on_read(self, txn: Transaction, key: object) -> None:
        """Record a read and raise the ``me --rw--> writer`` edges."""
        with self._mu:
            me = self._states.get(txn.txid)
            if me is None:
                return
            self._execute_doom(me)
            me.reads.add(key)
            for other in list(self._states.values()):
                if other.txn.txid == txn.txid or key not in other.writes:
                    continue
                if other.txn.phase is TxnPhase.ABORTED:
                    continue
                if not txn.snapshot.overlaps(other.txn.snapshot):
                    continue
                # I read a version that `other` concurrently overwrote:
                # me --rw--> other
                self._raise_edge(reader=me, writer=other, acting=me)
            self._execute_doom(me)

    def on_write(self, txn: Transaction, key: object) -> None:
        """Record a write and raise the ``reader --rw--> me`` edges."""
        with self._mu:
            me = self._states.get(txn.txid)
            if me is None:
                return
            self._execute_doom(me)
            me.writes.add(key)
            for other in list(self._states.values()):
                if other.txn.txid == txn.txid or key not in other.reads:
                    continue
                if other.txn.phase is TxnPhase.ABORTED:
                    continue
                if not txn.snapshot.overlaps(other.txn.snapshot):
                    continue
                # `other` read the version I am overwriting: other --rw--> me
                self._raise_edge(reader=other, writer=me, acting=me)
            self._execute_doom(me)

    def _raise_edge(self, reader: _SsiState, writer: _SsiState,
                    acting: _SsiState) -> None:
        reader.out_edges.add(writer.txn.txid)
        writer.in_edges.add(reader.txn.txid)
        for state, other in ((reader, writer), (writer, reader)):
            if not (state.in_conflict and state.out_conflict):
                continue
            # `state` is the pivot of a dangerous structure.  Doom it if
            # it is still active; if it already committed, the structure
            # can only be broken by killing the still-active neighbour.
            victim = state if not state.finished else (
                other if not other.finished else None)
            if victim is not None and not victim.doomed:
                victim.doomed = True
                self.aborts_prevented_anomalies += 1
        # the sentence is executed in the victim's own thread: here only
        # if the acting transaction itself was selected (``_execute_doom``
        # at the call sites covers victims doomed by *other* threads)

    def _execute_doom(self, state: _SsiState) -> None:
        if state.doomed:
            raise SerializationError(
                f"txn {state.txn.txid}: pivot of a dangerous "
                "rw-antidependency structure detected; aborting to "
                "preserve serializability")
