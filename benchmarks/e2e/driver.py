"""The closed-loop driver: one client, one op at a time, every op checked.

The same :class:`Runner` drives every topology through the facade the
:class:`~topology.Topology` hands it.  Background work is count-scheduled
(``tick()`` every 64 txns, ``maintenance()`` once per cycle) — there is no
wall-clock timer on the benchmark's side, so on the embedded rungs device,
WAL and buffer counts repeat exactly for a fixed op count.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict
from typing import Iterator

from repro.db import crash, recover

from topology import Topology
from workloads import (
    INITIAL_BALANCE,
    LOAD_BATCH,
    RANGE_KEYS,
    TABLE,
    WRITE_KINDS,
    Mirror,
    Workload,
    owner_of,
    row_of,
)

TICK_EVERY = 64
PROBE_EVERY = 20
PROBE_TIMEOUT_NS = 5_000_000_000
SCAN_PHASE_AGGREGATES = 11
RECOVERY_ROUNDS = 3

now_ns = time.perf_counter_ns


class OracleError(Exception):
    """The system's state diverged from what its acknowledgements imply."""


def load(topo: Topology, mirror: Mirror, rows: int) -> None:
    """Initial rows in ``LOAD_BATCH``-row bulk inserts, one txn each."""
    db = topo.db
    for lo in range(0, rows, LOAD_BATCH):
        ids = range(lo, min(lo + LOAD_BATCH, rows))
        txn = db.begin()
        db.bulk_insert(txn, TABLE,
                       [row_of(i, INITIAL_BALANCE) for i in ids])
        db.commit(txn)
        for i in ids:
            mirror.put(i, INITIAL_BALANCE)


class Runner:
    """Executes ops against one topology and keeps the mirror in step."""

    def __init__(self, topo: Topology, workload: Workload, mirror: Mirror,
                 stream: Iterator[tuple]) -> None:
        self.topo = topo
        self.db = topo.db
        self.begin_read = topo.begin_read
        self.workload = workload
        self.mirror = mirror
        self.stream = stream
        #: a :class:`tracing.Tracer`, only while the traced half runs
        self.tracer = None
        self.shard_of = (topo.router.shard_map.shard_of
                         if topo.router is not None else None)
        #: latency samples in ns by op kind (plus visibility, commit_1pc/2pc)
        self.lat: dict[str, list[int]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.first_errors: list[str] = []
        self.writes = 0
        self.txns = 0
        self.measured_ns = 0
        #: (txns, wall ns) of every whole measured cycle
        self.cycles: list[tuple[int, int]] = []
        self.in_doubt_end = 0
        self.stall_max_ns = 0
        self.maintenance_ns: list[int] = []
        self.gc_records_discarded = 0
        self.gc_pages_reclaimed = 0
        self.lag_samples: list[int] = []
        self._open = None
        #: the reader transaction a cycle's range reads share
        self._pinned = None
        self._ops = {"read": self._read, "update": self._update,
                     "insert": self._insert, "transfer": self._transfer,
                     "range": self._range, "aggregate": self._aggregate}
        self.op_kinds = frozenset(self._ops)

    # -- one transaction per op ----------------------------------------------

    def _begin(self):
        txn = self._open = self.db.begin()
        return txn

    def _commit(self, txn) -> None:
        self.db.commit(txn)
        self._open = None

    def _read(self, op: tuple) -> bool:
        row_id = op[1]
        txn = self._open = self.begin_read()
        rows = self.db.lookup(txn, TABLE, "pk", row_id)
        self._commit(txn)
        if self.topo.reads_may_lag:
            return len(rows) <= 1
        return (len(rows) == 1 and tuple(rows[0][1])
                == row_of(row_id, self.mirror.balance[row_id]))

    def _update(self, op: tuple) -> bool:
        _kind, row_id, delta = op
        txn = self._begin()
        ((ref, row),) = self.db.lookup(txn, TABLE, "pk", row_id)
        self.db.update(txn, TABLE, ref,
                       (row[0], row[1], row[2] + delta, row[3]))
        self._commit(txn)
        want = self.mirror.balance[row_id]
        self.mirror.put(row_id, want + delta)
        return row[2] == want

    def _insert(self, op: tuple) -> bool:
        row_id = op[1]
        txn = self._begin()
        self.db.insert(txn, TABLE, row_of(row_id, INITIAL_BALANCE))
        self._commit(txn)
        self.mirror.put(row_id, INITIAL_BALANCE)
        return True

    def _transfer(self, op: tuple) -> bool:
        _kind, a, b, amount = op
        db = self.db
        txn = self._begin()
        ((ref_a, row_a),) = db.lookup(txn, TABLE, "pk", a)
        ((ref_b, row_b),) = db.lookup(txn, TABLE, "pk", b)
        db.update(txn, TABLE, ref_a,
                  (row_a[0], row_a[1], row_a[2] - amount, row_a[3]))
        db.update(txn, TABLE, ref_b,
                  (row_b[0], row_b[1], row_b[2] + amount, row_b[3]))
        t0 = now_ns()
        self._commit(txn)
        if self.shard_of is not None:
            two_phase = self.shard_of(ref_a) != self.shard_of(ref_b)
            self.lat["commit_2pc" if two_phase else "commit_1pc"].append(
                now_ns() - t0)
        want_a, want_b = self.mirror.balance[a], self.mirror.balance[b]
        self.mirror.put(a, want_a - amount)
        self.mirror.put(b, want_b + amount)
        return row_a[2] == want_a and row_b[2] == want_b

    def _range(self, op: tuple) -> bool:
        """A range read by the cycle's long reader: its snapshot dates from
        the cycle's first range read, so rows written since are resolved
        by walking their version chains back to it."""
        lo, hi = op[1], op[1] + RANGE_KEYS - 1
        if self._pinned is None:
            self._pinned = self.db.begin()
            self.mirror.pinned = {}
        rows = self.db.range_lookup(self._pinned, TABLE, "pk", lo, hi)
        return ({row[0]: row[2] for _ref, row in rows}
                == self.mirror.pinned_range(lo, hi))

    def _unpin(self) -> None:
        """End the long reader, so that GC may discard what it held."""
        if self._pinned is not None:
            txn, self._pinned = self._pinned, None
            self.mirror.pinned = None
            self.db.commit(txn)

    def _aggregate(self, op: tuple) -> bool:
        owner = owner_of(op[1])
        txn = self._begin()
        total = self.db.aggregate(txn, TABLE, "sum", "balance",
                                  where=("owner", "==", owner))
        self._commit(txn)
        return total == self.mirror.owner_sum[owner]

    def execute(self, op: tuple) -> None:
        """Run one op as one transaction; time it; count it."""
        kind = op[0]
        tracer = self.tracer
        self.attempted += 1
        if tracer is not None:
            tracer.begin_root(kind)
        t0 = now_ns()
        try:
            ok = self._ops[kind](op)
        except Exception as exc:  # the op failed: settle, count, go on
            ok = None
            self._note_error(f"{op!r}: {type(exc).__name__}: {exc}")
            txn, self._open = self._open, None
            if txn is not None and txn.phase.value == "active":
                try:
                    self.db.abort(txn)
                except Exception as abort_exc:
                    self._note_error(f"abort after {op!r}: {abort_exc!r}")
        t1 = now_ns()
        if tracer is not None:
            tracer.end_root()
        if ok:
            self.lat[kind].append(t1 - t0)
        else:
            # a failed op has no latency: it misses every limit
            self.failed += 1
            if ok is False:
                self._note_error(f"{op!r}: result disagrees with the mirror")
        if kind in WRITE_KINDS and ok:
            self.writes += 1
            if self.writes % PROBE_EVERY == 0:
                self._probe(op[1], t1)

    def _note_error(self, message: str) -> None:
        if len(self.first_errors) < 5:
            self.first_errors.append(message)

    def _probe(self, row_id: int, acked_ns: int) -> None:
        """Time from a write's ack until a fresh read transaction sees it.

        One lookup where reads and writes share a node; on the replicated
        rung it polls the replica until the write has been applied.
        """
        want = row_of(row_id, self.mirror.balance[row_id])
        self.attempted += 1
        while True:
            txn = self.begin_read()
            rows = self.db.lookup(txn, TABLE, "pk", row_id)
            self.db.commit(txn)
            if rows and tuple(rows[0][1]) == want:
                self.lat["visibility"].append(now_ns() - acked_ns)
                return
            if now_ns() - acked_ns > PROBE_TIMEOUT_NS:
                self.failed += 1
                self._note_error(f"write to id {row_id} never became "
                                 f"visible to readers")
                return

    # -- cycles --------------------------------------------------------------

    def _background(self, call) -> tuple[int, object]:
        """Run tick()/maintenance(); the client waits, so it is a stall."""
        t0 = now_ns()
        result = call()
        took = now_ns() - t0
        self.stall_max_ns = max(self.stall_max_ns, took)
        if self.topo.follower is not None:
            # the leader's durable horizon, not the follower's last view
            # of it (which its own status() reports as always caught up)
            self.lag_samples.append(max(
                0, self.topo.hub.db.wal.durable_seq()
                - self.topo.follower.fetch_seq))
        return took, result

    def run_cycle(self, ops: list[tuple], maintain: bool = True) -> None:
        """Timed: the ops, a tick every 64, then one maintenance pass."""
        execute = self.execute
        start = now_ns()
        for i, op in enumerate(ops, 1):
            execute(op)
            if i % TICK_EVERY == 0:
                self._background(self.topo.tick)
        self._unpin()
        if maintain:
            took, reports = self._background(self.topo.maintenance)
            self.maintenance_ns.append(took)
            for report in reports:
                for summary in report.values():
                    # a GcReport in process, its summary dict over the wire
                    if not isinstance(summary, dict):
                        summary = vars(summary)
                    self.gc_records_discarded += summary["records_discarded"]
                    self.gc_pages_reclaimed += summary["pages_reclaimed"]
        took = now_ns() - start
        self.measured_ns += took
        self.txns += len(ops)
        if maintain:
            self.cycles.append((len(ops), took))

    def throughput_tps(self, since: int = 0) -> float:
        """Median over whole cycles (from cycle ``since`` on) of txns per
        second — ops, ticks, probes and the GC pass; a cycle the machine
        stalled in does not move it.  A run shorter than one cycle
        (``--ops``, ``--quick``) falls back to txns / time."""
        cycles = self.cycles[since:]
        if not cycles:
            return self.txns / (self.measured_ns / 1e9)
        return statistics.median(n / (ns / 1e9) for n, ns in cycles)

    def warm_up(self) -> None:
        """Untimed prefix of the stream (its cost lands in ``setup_s``)."""
        ops = list(itertools.islice(self.stream, self.workload.warmup_txns))
        self.run_cycle(ops, maintain=False)
        self.lat.clear()
        self.attempted = self.txns = self.writes = 0
        self.measured_ns = self.stall_max_ns = 0
        self.cycles.clear()
        self.lag_samples.clear()
        if self.failed:
            raise OracleError(f"warm-up ops failed: {self.first_errors}")
        #: device bytes and user bytes written before the measured phase
        self.baseline = (device_bytes_written(self.topo),
                         self.mirror.user_bytes)

    def measure(self, seconds: float | None, ops: int | None,
                max_txns: int | None = None) -> None:
        """Whole cycles until ``seconds`` are used up — or exactly ``ops``.

        The next op batch is generated outside the timed region.  The
        time-bounded form stops at the cycle boundary nearest to the
        budget (or past ``max_txns``), so every run counts an integral
        number of GC passes.
        """
        cycle = self.workload.cycle_txns
        start_ns, start_txns, cycles = self.measured_ns, self.txns, 0
        while True:
            todo = cycle if ops is None else min(
                cycle, ops - (self.txns - start_txns))
            batch = list(itertools.islice(self.stream, todo))
            self.run_cycle(batch, maintain=todo == cycle)
            cycles += 1
            if ops is not None:
                if self.txns - start_txns >= ops:
                    return
            else:
                spent = self.measured_ns - start_ns
                if spent + spent / cycles / 2 >= seconds * 1e9 or (
                        max_txns and self.txns - start_txns >= max_txns):
                    return

    def scan_phase(self, seed: int) -> None:
        """A fixed number of filtered aggregates, outside the mix and its
        clock: one costs as much as thousands of point transactions."""
        for i in range(SCAN_PHASE_AGGREGATES):
            self.execute(("aggregate", seed + 31 * i))

    def fixed_work(self) -> None:
        """One cycle's ops and ticks plus half a tick period, so the last
        commits are acknowledged but covered by no checkpoint when the
        power goes.  No GC pass: GC moves live records to the volatile
        working page and trims their old page at once, so a power loss
        after a pass loses rows whose WAL records a checkpoint has
        recycled (a defect of ``core.gc``, see README)."""
        ops = itertools.islice(self.stream,
                               self.workload.cycle_txns + TICK_EVERY // 2)
        self.run_cycle(list(ops), maintain=False)

    # -- the oracle ----------------------------------------------------------

    def verify_live(self) -> None:
        """Full scan through the facade must match the mirror row for row;
        a replica must converge to the same rows."""
        self._check("scan through the facade",
                    read_all(self.db, self.db.begin))
        mgr = self.topo.router
        if mgr is not None:
            payload = mgr.cluster_payload()
            self.in_doubt_end = payload["in_doubt"]
            if mgr.stats.commits_2pc == 0:
                raise OracleError("sharded run committed nothing by 2PC")
            if payload["in_doubt"] or payload["pending_decisions"] \
                    or payload["in_doubt_1pc"]:
                raise OracleError(f"cluster left work in doubt: {payload}")
        if self.topo.follower is not None:
            deadline = time.monotonic() + 10.0
            while True:
                rows = read_all(self.db, self.begin_read)
                if self.mirror.first_divergence(rows) is None \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            self._check("scan at the caught-up replica", rows)

    def _check(self, what: str, rows: dict[int, tuple]) -> None:
        divergence = self.mirror.first_divergence(rows)
        if divergence is not None:
            raise OracleError(f"{what}: {divergence}")
        if sum(row[2] for row in rows.values()) \
                != sum(self.mirror.balance.values()):
            raise OracleError(f"{what}: balance sum not conserved")


def read_all(db, begin) -> dict[int, tuple]:
    """Every visible row by id, from one full scan."""
    txn = begin()
    rows = {row[0]: tuple(row) for _ref, row in db.scan(txn, TABLE)}
    db.commit(txn)
    return rows


def device_bytes_written(topo: Topology) -> int:
    """Data-device plus WAL-device write bytes, summed over every node."""
    return sum(db.data_device.stats.write_bytes
               + db.wal.device.stats.write_bytes for db in topo.nodes)


def power_loss(topo: Topology) -> tuple[int, int]:
    """``crash()`` + ``recover()`` of every node, from flushed bytes only.

    Returns the wall time in ns and the WAL records the redo passes went
    through (re-applied, or found already on a sealed page).
    """
    redo = 0
    t0 = now_ns()
    for db in topo.nodes:
        crash(db)
        for engine in recover(db).engine_reports.values():
            redo += engine.redo_applied + engine.redo_skipped
    return now_ns() - t0, redo


def verify_recovered(topo: Topology, mirror: Mirror) -> None:
    """The union of the recovered nodes must equal the mirror (a shard
    holds a slice, a replica a full copy)."""
    recovered = [read_all(db, db.begin) for db in topo.nodes]
    if topo.kind == "sharded":
        merged: dict[int, tuple] = {}
        for rows in recovered:
            merged.update(rows)
        if sum(map(len, recovered)) != len(merged):
            raise OracleError("a row id survives on two shards")
        recovered = [merged]
    for node, rows in enumerate(recovered):
        divergence = mirror.first_divergence(rows)
        if divergence is not None:
            raise OracleError(f"node {node} after crash+recover: "
                              f"{divergence}")


def recovery(topo: Topology, mirror: Mirror, rounds: int) -> dict[str, float]:
    """Power loss on the nodes as the stopped network left them.

    No node was shut down, so each recovers from its last checkpoint plus
    the WAL tail (:meth:`Runner.fixed_work` made sure there is one) —
    ``rounds`` times, each from the same durable state, for a median.
    """
    took, redo = zip(*(power_loss(topo) for _ in range(rounds)))
    verify_recovered(topo, mirror)
    if not redo[0]:
        raise OracleError("recovery found no WAL tail to redo: the crash "
                          "tested no commit newer than the checkpoint")
    return {"recover_s": statistics.median(took) / 1e9,
            "redo_records": redo[0]}


def bill(topo: Topology, runner: Runner) -> dict[str, float]:
    """Clean shutdown of every node, then what the measured phase cost:
    device bytes per user byte (the final checkpoint belongs to the bill)
    and space per live byte.  A power loss after the shutdown must lose
    nothing either."""
    mirror = runner.mirror
    for db in topo.nodes:
        db.shutdown()
    space = sum(db.total_space_bytes() for db in topo.nodes)
    written0, user0 = runner.baseline
    written = device_bytes_written(topo) - written0
    power_loss(topo)
    verify_recovered(topo, mirror)
    return {
        "device_write_bytes_per_user_byte":
            written / (mirror.user_bytes - user0),
        "space_bytes_per_live_byte": space / mirror.live_bytes,
    }
