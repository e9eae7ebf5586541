"""The fault-sweep harness: one workload, one oracle, one driver.

Every robustness claim in this repository — recovery after power loss,
exactly-once commits over a broken wire, atomic 2PC across shards,
fenced failover, self-healing replication — is held the same way: one
seeded bank-transfer run executes once fault-free (*count mode*) to
learn how many fault-eligible events it generates; the sweep then
re-executes the identical run once per grid point ``k``, injecting the
scenario's fault exactly at the k-th event, and checks the settled
system against a mirror of the transfers the client saw confirmed.

This module owns everything the scenarios share: the ``accounts``
schema and its seeding, the seeded transfer picker and transfer body,
the value oracle (ids, balances, conservation, index agreement,
liveness), the quiescence wait, the black-box SI check, and the
:func:`sweep` driver.  A scenario (see the sibling modules) is one
:class:`Scenario` value whose ``run`` function supplies only what is
its own: how the topology stands up, what the k-th event is and how it
kills, how an interrupted commit is confirmed, and any extra check.

Every failure names its point and the command that replays exactly
that point: ``repro sweep <scenario> --seed S --at K``.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.client.pool import CircuitBreaker, RetryPolicy
from repro.client.remote import RemoteDatabase
from repro.common.config import EngineConfig, PageLayout, SystemConfig
from repro.common.errors import (
    CommitUncertainError,
    SerializationError,
    ServiceError,
)
from repro.common.rng import make_rng
from repro.db.catalog import IndexDef
from repro.db.database import Database, EngineKind
from repro.db.schema import ColType, Schema
from repro.experiments.si_check import History, check_history
from repro.server.chaos import DISRUPTIVE_KINDS, NetCrashPoint
from repro.server.server import DatabaseServer, ServerConfig
from repro.txn.manager import TxnPhase

ACCOUNTS = Schema.of(("id", ColType.INT), ("owner", ColType.STR),
                     ("balance", ColType.FLOAT))
INITIAL_BALANCE = 100.0

#: what a transfer fails with when a fault (or a first-updater-wins
#: abort behind one) got in its way: dead sockets, typed wire refusals
DISRUPT = (OSError, ServiceError, SerializationError)

#: deterministic backoff: no wall-clock jitter inside a seeded sweep
RETRY = RetryPolicy(base_delay_sec=0.001, max_delay_sec=0.01, jitter=False)

#: per-call deadline of the sweep clients (generous: the sweeps test
#: faults, not deadline pressure)
DEADLINE_MS = 10_000


class SweepInvariantError(AssertionError):
    """An invariant failed at one point of a sweep.

    The message names the scenario and point and ends with the command
    line that replays exactly that point.
    """


@dataclass(frozen=True)
class Scenario:
    """One named fault sweep: the part of a sweep that is its own."""

    name: str
    #: stand the topology up (teardown goes on ``run.cleanup``), run the
    #: workload with the fault armed at ``run.at``, verify; sets
    #: ``run.tripped`` / ``run.events``
    run: Callable[["Run"], None]
    #: what the fault-eligible events are (for the summary line)
    unit: str
    seed: int
    accounts: int
    transfers: int
    #: names the transfer picker's rng stream (scenarios sharing it pick
    #: the same transfers); grid sizes are a function of it
    stream: str
    #: runs on either engine / append-page layout
    engines: bool = False
    #: the SI checker is *expected* to fire (it is the checker's canary)
    canary: bool = False


@dataclass(frozen=True)
class Transfer:
    src: int
    dst: int
    amount: float


@dataclass
class Run:
    """One execution of a scenario: the point under test plus the oracle
    state its workload maintains."""

    scenario: Scenario
    seed: int
    at: int | None              # None: count mode, the fault never fires
    accounts: int
    transfers: int
    engine: EngineKind = EngineKind.SIASV
    layout: PageLayout = PageLayout.VECTOR
    #: balances after exactly the confirmed transfers
    mirror: dict[int, float] = field(default_factory=dict)
    #: every recorded client operation, for the SI checker
    history: History = field(default_factory=History)
    confirmed: int = 0
    failed: int = 0
    uncertain: int = 0            # commits whose ack the fault ate
    uncertain_committed: int = 0  # ... that had committed after all
    events: int = 0
    tripped: bool = False
    #: scenario-specific counters, summed per key in the report
    facts: dict[str, int] = field(default_factory=dict)
    #: teardown (stop servers, join threads), unwound LIFO when the
    #: point ends, pass or fail
    cleanup: contextlib.ExitStack = field(
        default_factory=contextlib.ExitStack)

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed, f"{self.scenario.stream}-sweep",
                             "workload")

    def pick(self) -> Transfer:
        """The next seeded transfer: two distinct accounts, 1..9 units."""
        src = self._rng.randrange(self.accounts)
        dst = (src + 1 + self._rng.randrange(self.accounts - 1)) \
            % self.accounts
        return Transfer(src, dst, float(self._rng.randrange(1, 10)))

    def fold(self, t: Transfer) -> None:
        """``t`` is confirmed: only now does the oracle know about it."""
        self.mirror[t.src] -= t.amount
        self.mirror[t.dst] += t.amount
        self.confirmed += 1


# -- workload -----------------------------------------------------------------
# ``db`` below is anything speaking the Database API: an embedded
# Database, a RemoteDatabase, or a RecordingDatabase around either.


def create_accounts(db) -> None:
    db.create_table("accounts", ACCOUNTS, indexes=[
        IndexDef("pk", ("id",), unique=True),
        IndexDef("by_owner", ("owner",)),
    ])


def accounts_db(engine: EngineKind = EngineKind.SIASV,
                layout: PageLayout = PageLayout.VECTOR) -> Database:
    """An embedded flash database holding the empty ``accounts`` table."""
    db = Database.on_flash(engine, SystemConfig(
        engine=EngineConfig(layout=layout)))
    create_accounts(db)
    return db


def serve(run: Run, db: Database, replication=None) -> DatabaseServer:
    """``db`` behind a live server on an ephemeral port (stopped when the
    point ends); ``replication`` is the node's hub or follower."""
    server = DatabaseServer(db, ServerConfig(
        port=0, idle_timeout_sec=30.0, drain_timeout_sec=2.0),
        replication=replication)
    run.cleanup.callback(server.stop_in_background)
    server.start_in_background()
    return server


def seed_accounts(run: Run, db, bulk: bool = True) -> None:
    """Insert the initial balances in one transaction; the mirror and
    the checker's initial state learn them once the commit returned.
    ``bulk=False`` inserts row by row (a cluster router places single
    inserts round-robin, which is what stripes accounts across shards).
    """
    rows = [(i, f"acct-{i}", INITIAL_BALANCE) for i in range(run.accounts)]
    txn = db.begin()
    if bulk:
        db.bulk_insert(txn, "accounts", rows)
    else:
        for row in rows:
            db.insert(txn, "accounts", row)
    db.commit(txn)
    for row in rows:
        run.mirror[row[0]] = row[2]
        run.history.record_initial(f"accounts/{row[0]}", list(row))


def attempt(db, t: Transfer) -> tuple[str, object]:
    """One transfer; returns its client-side fate and the transaction.

    ``"acked"`` — commit returned.  ``"uncertain"`` — the commit's ack
    was lost; only ``COMMIT`` can end this way, and the caller must
    resolve the fate, never resend.  ``"lost"`` — a fault hit before the
    commit could take effect; the transaction is aborted (the server
    aborts the orphan itself if the connection is gone).
    """
    txn = None
    try:
        txn = db.begin()
        src_hits = db.lookup(txn, "accounts", "pk", t.src)
        dst_hits = db.lookup(txn, "accounts", "pk", t.dst)
        if len(src_hits) != 1 or len(dst_hits) != 1:
            # a snapshot too stale to hold the seed rows (a fault starved
            # the read-timestamp refresh) cannot fund a transfer
            raise ServiceError(
                f"accounts {t.src}/{t.dst} not visible: "
                f"{len(src_hits)}/{len(dst_hits)} hits")
        (src_ref, src_row), = src_hits
        (dst_ref, dst_row), = dst_hits
        db.update(txn, "accounts", src_ref,
                  (t.src, src_row[1], src_row[2] - t.amount))
        db.update(txn, "accounts", dst_ref,
                  (t.dst, dst_row[1], dst_row[2] + t.amount))
        db.commit(txn)
    except CommitUncertainError:
        return "uncertain", txn
    except DISRUPT:
        abandon(db, txn)
        return "lost", txn
    return "acked", txn


def abandon(db, txn) -> None:
    """Best-effort abort of a transaction a fault interrupted (the server
    aborts the orphan itself if the connection is already gone)."""
    if txn is not None and txn.phase is TxnPhase.ACTIVE:
        with contextlib.suppress(Exception):
            db.abort(txn)


def recorded_read(reader, accounts: int, **begin) -> None:
    """One read-only pass over every account through a recording client.
    A pass a fault interrupts is abandoned: an aborted record carries no
    checker obligation."""
    txn = None
    try:
        txn = reader.begin(**begin)
        for i in range(accounts):
            reader.lookup(txn, "accounts", "pk", i)
        reader.commit(txn)
    except DISRUPT:
        abandon(reader, txn)


def confirmed_transfer(run: Run, db) -> None:
    """A transfer with nothing in its way: the ack is the confirmation."""
    t = run.pick()
    fate, _txn = attempt(db, t)
    if fate != "acked":
        raise SweepInvariantError(
            f"{t} was {fate} with no fault between it and the engine")
    run.fold(t)


def resolved_transfer(run: Run, remote, settle_sec: float) -> None:
    """A transfer over a faulty wire: an uncertain commit is resolved via
    ``TXN_STATUS`` on a fresh connection, never blindly retried."""
    t = run.pick()
    fate, txn = attempt(remote, t)
    if fate == "uncertain":
        run.uncertain += 1
        final = remote.resolve_commit(txn.txid, timeout_sec=settle_sec)
        if final == "committed":
            run.uncertain_committed += 1
            fate = "acked"
        elif final not in ("aborted", "unknown"):
            raise SweepInvariantError(
                f"uncertain commit of txn {txn.txid} never settled: "
                f"fate {final!r}")
    if fate == "acked":
        run.fold(t)
    else:
        run.failed += 1


def net_point(at: int | None) -> NetCrashPoint:
    """The wire fault for point ``at``: kinds cycle with ``at`` through
    torn frame / reset before send / reset after send (the lost ack)."""
    k = at or 0  # 0 never fires: count mode
    return NetCrashPoint(at_event=k,
                         kind=DISRUPTIVE_KINDS[k % len(DISRUPTIVE_KINDS)])


def client(host: str, port: int, failures: int, reset_sec: float = 0.05,
           **kwargs) -> RemoteDatabase:
    """A sweep client: seeded backoff, and a breaker generous enough
    (``failures`` in a row) that one injected fault never trips the run
    into fail-fast mode."""
    return RemoteDatabase(
        host, port, pool_size=2, retry=RETRY, deadline_ms=DEADLINE_MS,
        breaker=CircuitBreaker(failure_threshold=failures,
                               reset_timeout_sec=reset_sec), **kwargs)


# -- oracle -------------------------------------------------------------------


def check_state(db, mirror: dict[int, float],
                who: str = "") -> dict[int, tuple]:
    """The value oracle: exactly the confirmed transfers are visible.

    Row ids equal the mirror's, every balance equals the mirror's (a
    lost or double-applied transfer shows here), money is conserved, and
    the primary-key index agrees with the scan.  Returns the rows.
    """
    at = f"{who}: " if who else ""
    txn = db.begin()
    rows = scan_accounts(db, txn)
    if set(rows) != set(mirror):
        raise SweepInvariantError(
            f"{at}row ids {sorted(rows)} != confirmed ids {sorted(mirror)}")
    for acct_id, expected in mirror.items():
        if rows[acct_id][2] != expected:
            raise SweepInvariantError(
                f"{at}account {acct_id}: balance {rows[acct_id][2]} != "
                f"confirmed {expected} (a transfer was lost or "
                f"double-applied)")
    total = sum(row[2] for row in rows.values())
    if total != INITIAL_BALANCE * len(mirror):
        raise SweepInvariantError(
            f"{at}money not conserved: {total} != "
            f"{INITIAL_BALANCE * len(mirror)}")
    check_index(db, txn, rows, at)
    db.commit(txn)
    return rows


def scan_accounts(db, txn) -> dict[int, tuple]:
    return {row[0]: row for _ref, row in db.scan(txn, "accounts")}


def check_index(db, txn, rows: dict[int, tuple], at: str = "") -> None:
    for acct_id, row in rows.items():
        hits = db.lookup(txn, "accounts", "pk", acct_id)
        if len(hits) != 1 or hits[0][1] != row:
            raise SweepInvariantError(
                f"{at}pk index disagrees with scan for id {acct_id}: "
                f"{hits!r} vs {row!r}")


def check_liveness(db, rows: dict[int, tuple]) -> None:
    """The settled system still accepts new committed work."""
    if len(rows) < 2:
        return
    a, b = sorted(rows)[:2]
    if attempt(db, Transfer(a, b, 1.0))[0] != "acked":
        raise SweepInvariantError("post-run transfer was not accepted")
    txn = db.begin()
    after = scan_accounts(db, txn)
    db.commit(txn)
    if after[a][2] != rows[a][2] - 1.0 or after[b][2] != rows[b][2] + 1.0:
        raise SweepInvariantError("post-run transfer did not take effect")


def txn_noise(db, who: str) -> list[str]:
    """What keeps ``db`` from being quiescent (empty: nothing does)."""
    mgr = db.txn_mgr
    _commits, _aborts, active = mgr.counters()
    locks, in_doubt = mgr.locks.held_count(), len(mgr.prepared)
    if active or locks or in_doubt:
        return [f"{who}: {active} active txns, {locks} locks held, "
                f"{in_doubt} in doubt"]
    return []


def wait_quiet(noise: Callable[[], list[str]], timeout_sec: float) -> None:
    """Every orphan the fault left behind must be settled exactly once:
    poll ``noise`` until it reports nothing, or fail with what is left."""
    deadline = time.monotonic() + timeout_sec
    while True:
        noisy = noise()
        if not noisy:
            return
        if time.monotonic() >= deadline:
            raise SweepInvariantError(
                "system did not settle: " + "; ".join(noisy))
        time.sleep(0.01)


def _check_si(run: Run) -> tuple[int, int]:
    """Replay the recorded history through the black-box SI checker."""
    records = run.history.to_records()
    txns = sum(1 for r in records if r.get("type") == "txn")
    violations = check_history(records) if txns else []
    if violations and not run.scenario.canary:
        shown = "; ".join(str(v) for v in violations[:3])
        raise SweepInvariantError(
            f"SI checker found {len(violations)} violation(s) in {txns} "
            f"recorded txns: {shown}")
    return txns, len(violations)


# -- driver -------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What happened at one point (``at=None``: the fault-free run)."""

    label: str                  # scenario[engine/layout]
    at: int | None
    tripped: bool
    events: int
    confirmed: int
    failed: int
    uncertain: int
    uncertain_committed: int
    si_txns: int
    si_violations: int
    facts: dict[str, int]


@dataclass
class Report:
    """Every point of one sweep."""

    unit: str
    #: events of the fault-free run, i.e. the stride-1 grid size (None
    #: when a single ``--at`` point ran without count mode)
    total: int | None = None
    outcomes: list[Outcome] = field(default_factory=list)
    verdict: str = "all invariants held"

    def sum(self, key: str) -> int:
        """An :class:`Outcome` field or fact, totalled over the points."""
        return sum(int(o.facts[key] if key in o.facts else getattr(o, key))
                   for o in self.outcomes)

    def summary(self) -> str:
        """One line: the grid, every counter as ``key=total``, the verdict."""
        grid = (f"point {self.outcomes[0].at} alone" if self.total is None
                else f"{len(self.outcomes)} point(s) over {self.total} "
                     f"{self.unit}")
        keys = ["tripped", "confirmed", "failed", "uncertain",
                "uncertain_committed", "si_txns", "si_violations"]
        keys += sorted({k for o in self.outcomes for k in o.facts})
        counters = " ".join(f"{key}={self.sum(key)}" for key in keys)
        return (f"{self.outcomes[0].label}: {grid}: {counters} — "
                f"{self.verdict}")


def run_point(scenario: Scenario, at: int | None, *, seed: int | None = None,
              engine: EngineKind = EngineKind.SIASV,
              layout: PageLayout = PageLayout.VECTOR,
              accounts: int | None = None, transfers: int | None = None,
              must_trip: bool = False) -> Outcome:
    """Run ``scenario`` once with its fault at the ``at``-th event
    (``None``: count mode).  Any failure is re-raised as a
    :class:`SweepInvariantError` naming the point and its replay line."""
    run = Run(scenario, scenario.seed if seed is None else seed, at,
              accounts or scenario.accounts, transfers or scenario.transfers,
              engine, layout)
    label, replay = scenario.name, f"--seed {run.seed}"
    if at is not None:
        replay += f" --at {at}"
    if scenario.engines:
        variant = engine.name.lower(), layout.name.lower()
        label += "[%s/%s]" % variant
        replay += " --engine %s --layout %s" % variant
    try:
        with run.cleanup:
            scenario.run(run)
        if at is None and (run.failed or run.uncertain):
            raise SweepInvariantError(
                f"lost transfers without a fault: {run.failed} failed, "
                f"{run.uncertain} uncertain")
        if at is None and not run.events:
            raise SweepInvariantError(
                f"saw no {scenario.unit}: there is nothing to sweep")
        if must_trip and not run.tripped:
            raise SweepInvariantError(
                "the fault never fired (the run saw fewer events than "
                "count mode)")
        si_txns, si_violations = _check_si(run)
    except Exception as exc:
        what = (exc if isinstance(exc, SweepInvariantError)
                else f"{type(exc).__name__}: {exc}")
        where = "count mode" if at is None else f"point {at}"
        raise SweepInvariantError(
            f"[{label} {where}] {what}\n"
            f"  replay: repro sweep {scenario.name} {replay}") from exc
    finally:
        # a point's topology (simulated devices, servers) is cyclic
        # garbage the generational collector is slow to notice; without
        # this a long sweep's footprint grows by tens of MiB per point
        gc.collect()
    return Outcome(label, at, run.tripped, run.events, run.confirmed,
                   run.failed, run.uncertain, run.uncertain_committed,
                   si_txns, si_violations, dict(run.facts))


def sweep(scenario: Scenario, stride: int = 1, seed: int | None = None,
          at: int | None = None, **params) -> Report:
    """Count mode, then the fault at every ``stride``-th event — or only
    the point ``at``.  ``params`` are :func:`run_point`'s.  Raises
    :class:`SweepInvariantError` at the first point that breaks an
    invariant."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    report = Report(scenario.unit)
    if at is not None:
        report.outcomes.append(run_point(scenario, at, seed=seed, **params))
        return report
    report.total = run_point(scenario, None, seed=seed, **params).events
    for k in range(1, report.total + 1, stride):
        report.outcomes.append(run_point(scenario, k, seed=seed,
                                         must_trip=True, **params))
    if scenario.canary:
        # no violation anywhere: the reproducer stopped racing or the
        # checker went blind — either way the *oracle* failed
        if not report.sum("si_violations"):
            raise SweepInvariantError(
                f"[{scenario.name}] no SI violation across "
                f"{len(report.outcomes)} points / {report.sum('si_txns')} "
                f"recorded txns: the checker or its reproducer lost its "
                f"teeth")
        report.verdict = "the checker caught the fractured reads, as expected"
    return report
