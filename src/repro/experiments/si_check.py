"""Black-box snapshot-isolation checking from recorded client histories.

Two halves, one file:

* :class:`RecordingDatabase` — a transparent wrapper around
  :class:`~repro.client.remote.RemoteDatabase` that records every
  transaction's reads and writes (keyed ``"table/pk"``) plus its fate
  into a shared :class:`History`.  Commit acknowledgements are stamped
  with a monotonically increasing ``commit_seq`` under one lock, so the
  history carries the *client-observed* commit order.
* :func:`check_history` — a polynomial black-box checker for the two
  anomalies snapshot isolation rules out and a reader can witness:
  **fractured reads** (a transaction's reads fit no single prefix of
  the commit order — the signature of per-shard snapshots) and **lost
  updates** (a committed writer whose snapshot predates a conflicting
  committed write to one of its own write keys).

The checker is deliberately weaker than full serializability checking
(write skew on disjoint keys is *allowed* — that is SI's documented
anomaly) and runs in polynomial time by exploiting what SI promises:
every transaction reads from one *prefix* of the commit order.  For
each committed or read-only transaction it computes, per read, the set
of prefixes compatible with the observed value, and intersects them:

* empty intersection over the reads → **fractured read**;
* no surviving prefix *after* the conflict floor (the latest other
  committed write to any of the transaction's own write keys) →
  **lost update** (first-updater-wins was violated).

Soundness caveats, inherent to black-box checking:

* ``commit_seq`` is the *ack* order.  For histories where writers of
  overlapping keys are sequential (one writer session, or externally
  ordered), ack order equals commit order and the checker is exact.
  Concurrent overlapping writers could have their acks reordered, which
  can only produce false *positives* never false negatives; the chaos
  sweeps use a single writer session, so the oracle is exact there.
* scans record only the rows they returned — a row a scan *missed* does
  not constrain the snapshot.  The sweeps read fixed key sets via
  ``lookup``, which records misses as reads of ``None``.

History files are JSON Lines: an optional ``{"type": "initial",
"state": {...}}`` header (the pre-history database state), then one
``{"type": "txn", ...}`` record per transaction::

    {"type": "txn", "txn": 17, "session": "w0", "status": "committed",
     "commit_seq": 4, "ops": [["r", "accounts/0", [0, "acct-0", 100.0]],
                              ["w", "accounts/0", [0, "acct-0", 93.0]]]}

Replay a file from the command line (also ``repro si-check``)::

    python -m repro.experiments.si_check history.jsonl
    python -m repro.experiments.si_check legacy.jsonl --expect-anomaly
"""

from __future__ import annotations

import argparse
import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.common.errors import CommitUncertainError

#: sentinel for "key absent" in timelines (distinct from any row value)
MISSING = ("__missing__",)


def _freeze(value: object) -> object:
    """Hashable, order-stable form of a row value for equality tests.

    JSON round-trips turn tuples into lists; freezing both sides to
    nested tuples makes live-recorded and file-loaded histories compare
    identically.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _default_key(table: str, row: tuple) -> str:
    """Default item key: ``table/pk`` with the primary key in column 0."""
    return f"{table}/{row[0]}"


# -- recording ----------------------------------------------------------------


@dataclass
class _TxnRecord:
    """One transaction's observed behaviour, as the client saw it."""

    txn: int
    session: str
    status: str = "active"         # active|committed|aborted|uncertain
    commit_seq: int | None = None
    ops: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"type": "txn", "txn": self.txn, "session": self.session,
                "status": self.status, "commit_seq": self.commit_seq,
                "ops": self.ops}


class History:
    """Thread-safe shared history: many recording clients, one order.

    All :class:`RecordingDatabase` wrappers that should appear in the
    same commit order must share one ``History`` — the ``commit_seq``
    counter is the single clock that orders their acknowledgements.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._seq = 0
        self._records: list[_TxnRecord] = []
        self._initial: dict[str, object] = {}

    def record_initial(self, key: str, value: object) -> None:
        """Declare pre-history state (rows loaded outside recording)."""
        with self._mu:
            self._initial[key] = value

    def open_txn(self, txid: int, session: str) -> _TxnRecord:
        rec = _TxnRecord(txn=txid, session=session)
        with self._mu:
            self._records.append(rec)
        return rec

    def seal(self, rec: _TxnRecord, status: str) -> None:
        """Stamp a final fate; committed fates take the next seq."""
        with self._mu:
            rec.status = status
            if status == "committed":
                self._seq += 1
                rec.commit_seq = self._seq

    def to_records(self) -> list[dict]:
        """Plain-dict view, ready for :func:`check_history`."""
        with self._mu:
            out: list[dict] = []
            if self._initial:
                out.append({"type": "initial",
                            "state": dict(self._initial)})
            out.extend(rec.to_json() for rec in self._records)
            return out

    def dump(self, path: str) -> None:
        """Write the history as JSON Lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.to_records():
                fh.write(json.dumps(rec) + "\n")


def load_history(path: str) -> list[dict]:
    """Read a JSONL history file back into checker records."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class RecordingDatabase:
    """Wrap a :class:`RemoteDatabase`, recording reads/writes per txn.

    Only the operations the checker can key are recorded: ``lookup``
    and ``range_lookup`` hits (and lookup *misses*, as reads of
    ``None``), unprojected ``scan`` rows, ``read`` hits, and
    ``insert``/``bulk_insert``/``update`` writes.  ``aggregate`` and
    projected scans pass through unrecorded (they cannot be keyed);
    ``delete`` is unsupported here because the wire carries only the
    item handle, not the primary key.

    Everything else — pooling, retries, monitoring — delegates to the
    wrapped client untouched, so this drops into any workload that
    takes a ``RemoteDatabase``.
    """

    def __init__(self, remote, history: History, session: str = "s0",
                 key_of: Callable[[str, tuple], str] = _default_key) -> None:
        self._remote = remote
        self._history = history
        self._session = session
        self._key_of = key_of
        self._mu = threading.Lock()
        self._open: dict[int, _TxnRecord] = {}

    # -- txn lifecycle -------------------------------------------------------

    def begin(self, serializable: bool = False, at_ts: int | None = None,
              read_only: bool = False):
        if read_only:
            # only the replica-routing RemoteDatabase takes read_only;
            # growing the call keeps plain remotes working unchanged
            txn = self._remote.begin(serializable=serializable,
                                     at_ts=at_ts, read_only=True)
        else:
            txn = self._remote.begin(serializable=serializable, at_ts=at_ts)
        rec = self._history.open_txn(txn.txid, self._session)
        with self._mu:
            self._open[txn.txid] = rec
        return txn

    def commit(self, txn) -> None:
        rec = self._rec(txn.txid)
        try:
            self._remote.commit(txn)
        except CommitUncertainError:
            # keep the record open: resolve_commit will seal the true fate
            if rec is not None:
                self._history.seal(rec, "uncertain")
            raise
        except BaseException:
            self._seal(txn.txid, "aborted")
            raise
        self._seal(txn.txid, "committed")

    def abort(self, txn) -> None:
        try:
            self._remote.abort(txn)
        finally:
            self._seal(txn.txid, "aborted")

    def resolve_commit(self, txid: int, timeout_sec: float = 5.0,
                       poll_interval_sec: float = 0.02) -> str:
        """Resolve an uncertain commit and seal its record with the fate."""
        fate = self._remote.resolve_commit(
            txid, timeout_sec=timeout_sec,
            poll_interval_sec=poll_interval_sec)
        if fate in ("committed", "aborted"):
            self._seal(txid, fate)
        # an unresolved fate stays "uncertain": the checker holds such
        # transactions to no obligations instead of trusting a guess
        return fate

    def _rec(self, txid: int) -> _TxnRecord | None:
        with self._mu:
            return self._open.get(txid)

    def _seal(self, txid: int, status: str) -> None:
        with self._mu:
            rec = self._open.pop(txid, None)
        if rec is not None:
            self._history.seal(rec, status)

    def _log(self, txid: int, op: str, key: str, value: object) -> None:
        rec = self._rec(txid)
        if rec is not None:
            rec.ops.append([op, key, value])

    # -- recorded data operations --------------------------------------------

    def insert(self, txn, table: str, row: tuple):
        ref = self._remote.insert(txn, table, row)
        self._log(txn.txid, "w", self._key_of(table, row), list(row))
        return ref

    def bulk_insert(self, txn, table: str, rows: list[tuple]) -> list:
        refs = self._remote.bulk_insert(txn, table, rows)
        for row in rows:
            self._log(txn.txid, "w", self._key_of(table, row), list(row))
        return refs

    def update(self, txn, table: str, ref: object, row: tuple):
        out = self._remote.update(txn, table, ref, row)
        self._log(txn.txid, "w", self._key_of(table, row), list(row))
        return out

    def read(self, txn, table: str, ref: object):
        row = self._remote.read(txn, table, ref)
        if row is not None:
            self._log(txn.txid, "r", self._key_of(table, row), list(row))
        return row

    def lookup(self, txn, table: str, index_name: str,
               key: object) -> list[tuple]:
        hits = self._remote.lookup(txn, table, index_name, key)
        for _ref, row in hits:
            self._log(txn.txid, "r", self._key_of(table, row), list(row))
        if not hits and index_name == "pk":
            # a pk miss IS an observation: the key reads as absent
            self._log(txn.txid, "r", f"{table}/{key}", None)
        return hits

    def range_lookup(self, txn, table: str, index_name: str, lo: object,
                     hi: object) -> list[tuple]:
        hits = self._remote.range_lookup(txn, table, index_name, lo, hi)
        for _ref, row in hits:
            self._log(txn.txid, "r", self._key_of(table, row), list(row))
        return hits

    def scan(self, txn, table: str, columns: list[str] | None = None,
             where: tuple | None = None,
             batch_size: int = 256) -> Iterator[tuple]:
        for ref, row in self._remote.scan(txn, table, columns=columns,
                                          where=where,
                                          batch_size=batch_size):
            if columns is None:
                self._log(txn.txid, "r", self._key_of(table, row), list(row))
            yield ref, row

    def delete(self, txn, table: str, ref: object) -> None:
        raise NotImplementedError(
            "RecordingDatabase cannot key a delete (the wire carries the "
            "item handle, not the primary key); read-modify-write via "
            "update instead, or record through a custom wrapper")

    # -- passthrough ---------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self._remote, name)

    def __enter__(self) -> "RecordingDatabase":
        return self

    def __exit__(self, *_exc) -> None:
        self._remote.close()


# -- checking -----------------------------------------------------------------


@dataclass
class Violation:
    """One snapshot-isolation violation found in a history."""

    kind: str                  # fractured-read | lost-update |
    #                          # own-write-lost | phantom-value
    txn: int
    session: str
    detail: str

    def __str__(self) -> str:
        return (f"[{self.kind}] txn {self.txn} (session "
                f"{self.session}): {self.detail}")


def _intersect(a: list[tuple[int, int]],
               b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Intersect two sorted lists of inclusive ``(lo, hi)`` intervals."""
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _match_intervals(timeline: list[tuple[int, object]], value: object,
                     n: int) -> list[tuple[int, int]]:
    """Prefixes ``p`` (0..n) at which the key's state equals ``value``.

    ``timeline`` is ``[(prefix_index, state), ...]`` sorted ascending,
    starting at prefix 0; entry ``(p, v)`` holds until the next entry.
    """
    out: list[tuple[int, int]] = []
    for idx, (start, state) in enumerate(timeline):
        if state == value:
            end = timeline[idx + 1][0] - 1 if idx + 1 < len(timeline) else n
            if start <= end:
                out.append((start, end))
    return out


def check_history(records: list[dict],
                  max_violations: int = 50) -> list[Violation]:
    """Check a recorded history for SI violations; [] means it passed.

    Only ``committed`` transactions constrain or are constrained — an
    aborted transaction's reads carry no obligation (its snapshot may
    have been valid even if the connection died mid-flight), and an
    unresolved ``uncertain`` writer is excluded from the commit order
    (if some read *did* observe its value, that read surfaces as a
    phantom-value violation, which is exactly the right alarm).
    """
    initial: dict[str, object] = {}
    txns: list[dict] = []
    for rec in records:
        if rec.get("type") == "initial":
            for key, value in rec.get("state", {}).items():
                initial[key] = _freeze(value)
        elif rec.get("type") == "txn":
            txns.append(rec)

    committed = [t for t in txns if t["status"] == "committed"
                 and t.get("commit_seq") is not None]
    committed.sort(key=lambda t: t["commit_seq"])
    # writers enter the commit order; pure readers float over any prefix
    order = [t for t in committed
             if any(op[0] == "w" for op in t["ops"])]
    n = len(order)
    position = {t["txn"]: i + 1 for i, t in enumerate(order)}

    # per-key state timeline over prefixes 0..n of the commit order
    timelines: dict[str, list[tuple[int, object]]] = {}

    def timeline(key: str) -> list[tuple[int, object]]:
        if key not in timelines:
            timelines[key] = [(0, _freeze(initial.get(key, MISSING)))]
        return timelines[key]

    last_writer: dict[str, list[tuple[int, int]]] = {}  # key -> [(pos, txn)]
    for i, txn in enumerate(order):
        final: dict[str, object] = {}
        for op, key, value in txn["ops"]:
            if op == "w":
                final[key] = _freeze(value)
        for key, value in final.items():
            tl = timeline(key)
            if tl[-1][0] == i + 1:
                tl[-1] = (i + 1, value)
            else:
                tl.append((i + 1, value))
            last_writer.setdefault(key, []).append((i + 1, txn["txn"]))

    violations: list[Violation] = []

    def add(kind: str, txn: dict, detail: str) -> bool:
        violations.append(Violation(kind=kind, txn=txn["txn"],
                                    session=txn.get("session", "?"),
                                    detail=detail))
        return len(violations) >= max_violations

    for txn in committed:
        pos = position.get(txn["txn"])          # None for pure readers
        upper = (pos - 1) if pos is not None else n
        feasible: list[tuple[int, int]] = [(0, upper)]
        own: dict[str, object] = {}
        reads: list[tuple[str, object]] = []
        broken = False
        for op, key, value in txn["ops"]:
            frozen = _freeze(value) if value is not None else MISSING
            if op == "w":
                own[key] = _freeze(value)
                continue
            if key in own:
                if frozen != own[key]:
                    if add("own-write-lost", txn,
                           f"read {value!r} of {key} after writing "
                           f"{own[key]!r} in the same transaction"):
                        return violations
                    broken = True
                continue
            match = _match_intervals(timeline(key), frozen, n)
            if not match:
                if add("phantom-value", txn,
                       f"read {value!r} of {key}, which no committed "
                       f"transaction ever wrote"):
                    return violations
                broken = True
                continue
            reads.append((key, value))
            feasible = _intersect(feasible, match)
        if broken:
            continue
        if reads and not feasible:
            seen = ", ".join(f"{k}={v!r}" for k, v in reads)
            if add("fractured-read", txn,
                   f"no single prefix of the commit order explains its "
                   f"reads ({seen}) — a per-shard / torn snapshot"):
                return violations
            continue
        if pos is not None and own:
            floor = 0
            culprit = None
            for key in own:
                for wpos, wtxn in last_writer.get(key, []):
                    if wpos < pos and wtxn != txn["txn"] and wpos > floor:
                        floor, culprit = wpos, (wtxn, key)
            if floor and not _intersect(feasible, [(floor, upper)]):
                wtxn, key = culprit  # type: ignore[misc]
                if add("lost-update", txn,
                       f"its snapshot predates txn {wtxn}'s committed "
                       f"write to {key}, yet both committed — "
                       f"first-updater-wins was violated"):
                    return violations

    return violations


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay a recorded history through the black-box "
                    "snapshot-isolation checker")
    parser.add_argument("history", help="JSONL history file (see module "
                                        "docstring for the format)")
    parser.add_argument("--expect-anomaly", action="store_true",
                        help="invert the verdict: exit 0 only if the "
                             "history DOES violate SI (for the "
                             "fractured-read canary)")
    parser.add_argument("--max-violations", type=int, default=50,
                        help="stop after reporting this many")
    args = parser.parse_args(argv)

    records = load_history(args.history)
    txn_count = sum(1 for r in records if r.get("type") == "txn")
    violations = check_history(records, max_violations=args.max_violations)
    for v in violations:
        print(str(v))
    if args.expect_anomaly:
        if violations:
            print(f"si-check: anomaly present as expected "
                  f"({len(violations)} violation(s) in {txn_count} txns)")
            return 0
        print(f"si-check: expected an anomaly but {txn_count} txns "
              f"check clean — the reproducer lost its teeth")
        return 1
    if violations:
        print(f"si-check: {len(violations)} violation(s) in "
              f"{txn_count} txns")
        return 1
    print(f"si-check: {txn_count} txns, no SI violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
