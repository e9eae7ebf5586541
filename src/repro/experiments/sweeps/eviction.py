"""``eviction``: bounded WAL retention under a lagging follower.

The same leader → r1 → r2 chain as ``resync``, but nothing is killed:
the fault is the root's slot-retention budget.  r1 stops fetching while
checkpointed transfers keep shipping, so honouring its replication slot
would exceed the budget — the slot is evicted, truncation proceeds, and
the evicted follower must rejoin through an automatic full resync
(observed by its supervisor) while r2 stays chained through it.

The one event of this scenario is that eviction, so its grid is the
single point 1.  On top of the value oracle on all three nodes and the
SI checker over the chain reads: retention stayed within the budget,
and the laggard really healed through a resync rather than by reading
truncated history.
"""

from __future__ import annotations

from repro.experiments.sweeps.chain import Chain
from repro.experiments.sweeps.harness import (
    Run,
    Scenario,
    SweepInvariantError,
)

#: WAL records the root may retain on behalf of lagging slots
RETENTION_BUDGET = 24
#: checkpointed transfers r1 may sleep through before we call it a bug
MAX_LAG_ROUNDS = 50


def _run(run: Run) -> None:
    chain = Chain(run, victim=None, retention_budget=RETENTION_BUDGET)
    chain.seed()
    chain.start_tail()
    wal = chain.leader.db.wal
    rounds = 0
    while wal.slots_evicted == 0:
        rounds += 1
        if rounds > MAX_LAG_ROUNDS:
            raise SweepInvariantError(
                f"no slot eviction after {rounds} checkpointed transfers "
                f"under budget {RETENTION_BUDGET}")
        chain.transfer()
        chain.leader.db.checkpointer.run_now()
    retained = wal.retained_records()
    if retained > RETENTION_BUDGET:
        raise SweepInvariantError(
            f"retention not bounded after eviction: {retained} records "
            f"kept under budget {RETENTION_BUDGET}")
    chain.stream_transfers()
    if chain.r1.resyncs < 1:
        raise SweepInvariantError(
            "evicted follower converged without a full resync — it must "
            "have read truncated history")
    if chain.r1.sup.resyncs_observed < 1:
        raise SweepInvariantError(
            "supervisor never observed the RESYNCING state")
    chain.finish()
    run.events, run.tripped = wal.slots_evicted, True
    run.facts.update(lagging_rounds=rounds, retained_records=retained,
                     retention_budget=RETENTION_BUDGET)


EVICTION = Scenario("eviction", _run, unit="slot evictions", seed=29,
                    accounts=6, transfers=8, stream="resync")
