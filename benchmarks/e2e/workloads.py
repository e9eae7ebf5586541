"""Inputs of the e2e ladder: the table, the two op streams, the oracle.

Everything here is *benchmark* state.  The program under test only ever
sees the generated rows and keys — never the seed, never a workload name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.db import ColType, IndexDef, RowCodec, Schema

TABLE = "accounts"
SCHEMA = Schema.of(("id", ColType.INT), ("owner", ColType.STR),
                   ("balance", ColType.FLOAT), ("pad", ColType.STR))
INDEXES = [IndexDef("pk", ("id",), unique=True),
           IndexDef("by_owner", ("owner",))]
CODEC = RowCodec(SCHEMA)

OWNERS = 97
#: sized so RowCodec.encode(row) is ~200 B
PAD = "p" * 170
INITIAL_BALANCE = 1000.0
RANGE_KEYS = 50
#: rows per bulk_insert during load: small enough that a 2-shard router
#: (which places one bulk_insert per shard, round-robin) stripes the table
LOAD_BATCH = 100

#: ops that change a row (drive the visibility probe and user-byte count)
WRITE_KINDS = frozenset({"update", "insert", "transfer"})


def owner_of(row_id: int) -> str:
    return f"owner{row_id % OWNERS:03d}"


def row_of(row_id: int, balance: float) -> tuple:
    return (row_id, owner_of(row_id), balance, PAD)


ROW_BYTES = len(CODEC.encode(row_of(0, INITIAL_BALANCE)))


# -- op streams --------------------------------------------------------------
#
# An op is a tuple whose first element is its kind.  Amounts are whole
# numbers stored as floats, so every balance and every sum is exact and the
# oracle can compare with ``==``.

def _other(rng: random.Random, a: int, n: int) -> int:
    return (a + 1 + rng.randrange(n - 1)) % n


def oltp_mix(seed: int, rows: int) -> Iterator[tuple]:
    """45 % lookup, 30 % update, 10 % insert, 15 % transfer; uniform keys."""
    rng = random.Random(seed)
    next_id = rows
    while True:
        u = rng.random()
        if u < 0.45:
            yield ("read", rng.randrange(next_id))
        elif u < 0.75:
            yield ("update", rng.randrange(next_id),
                   float(rng.randint(1, 9)))
        elif u < 0.85:
            yield ("insert", next_id)
            next_id += 1
        else:
            a = rng.randrange(next_id)
            yield ("transfer", a, _other(rng, a, next_id),
                   float(rng.randint(1, 50)))


def cold_mix(seed: int, rows: int) -> Iterator[tuple]:
    """The second stream: skewed keys, and range reads beside the writes.

    40 % lookup, 38 % update, 15 % 50-key range, 5 % insert, 2 % transfer.
    ``u**2`` key picks make low ids hot, so they collect several versions
    between GC passes.  The driver runs a cycle's range reads in one reader
    transaction that stays open beside the writes, so those reads walk the
    chains back to their snapshot (``core.chain_hops_per_resolve`` > 0).
    Filtered aggregates run after the mix, not in it
    (:meth:`driver.Runner.scan_phase`).
    """
    rng = random.Random(seed)
    next_id = rows

    def hot() -> int:
        return int(next_id * rng.random() ** 2)

    while True:
        u = rng.random()
        if u < 0.40:
            yield ("read", hot())
        elif u < 0.78:
            yield ("update", hot(), float(rng.randint(1, 9)))
        elif u < 0.93:
            yield ("range", min(hot(), next_id - RANGE_KEYS))
        elif u < 0.98:
            yield ("insert", next_id)
            next_id += 1
        else:
            a = hot()
            yield ("transfer", a, _other(rng, a, next_id),
                   float(rng.randint(1, 50)))


# -- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Fixed parameters of one rung; identical on every commit.

    ``cycle_txns`` is the count-scheduled background period: one
    ``maintenance()`` per cycle (``tick()`` runs every 64 txns), sized
    once so a cycle lasts roughly a second on a pinned 2-vCPU box.  A run
    measures whole cycles only, so GC cost is never half-counted.
    """

    topology: str
    mix: Callable[[int, int], Iterator[tuple]]
    rows: int
    cycle_txns: int
    warmup_txns: int
    #: BufferConfig overrides for nodes this benchmark builds itself
    buffer: dict


#: One scale factor (x0.5 on rows) was applied to the issue's starting
#: points so that a run (two set-ups, ~10 s measured, verification,
#: recovery) fits the driver's ~30 s per-run budget.
#:
#: The cold rung's pool is 1024 + 64 frames, not the issue's 6 % of the
#: table: a vectorized scan — and ``recover()``, whose index rebuild is
#: one — asks the buffer for every page of a 1024-VID batch at once, and
#: once updates have scattered the entrypoints that is more frames than a
#: smaller pool has (``NoFreeFrameError``; the leaked placeholders then
#: hang the next reader).  1088 frames is the smallest pool that can hold
#: any batch; the table (48 k rows, ~1500-1800 pages with its versions) is
#: the part that does not fit.
WORKLOADS: dict[str, Workload] = {
    "embedded_oltp": Workload("embedded", oltp_mix, 10_000, 16_384, 2_048,
                              {}),
    "embedded_cold": Workload("embedded", cold_mix, 48_000, 4_096, 512,
                              {"pool_pages": 1_088,
                               "max_wal_bytes": 2 * 1024 * 1024}),
    "served_oltp": Workload("served", oltp_mix, 10_000, 1_024, 256, {}),
    "sharded_oltp": Workload("sharded", oltp_mix, 10_000, 384, 128, {}),
    "replicated_oltp": Workload("replicated", oltp_mix, 10_000, 512, 128,
                                {}),
}


# -- the oracle --------------------------------------------------------------

class Mirror:
    """Client-side model of the table: what every acknowledged op implies."""

    def __init__(self) -> None:
        self.balance: dict[int, float] = {}
        self.owner_sum: dict[str, float] = {}
        #: encoded bytes of every committed inserted/updated row
        self.user_bytes = 0
        #: while a reader's snapshot is pinned: what it still sees of every
        #: row written since (None: the row did not exist yet)
        self.pinned: dict[int, float | None] | None = None

    def put(self, row_id: int, balance: float) -> None:
        owner = owner_of(row_id)
        old = self.balance.get(row_id)
        if self.pinned is not None:
            self.pinned.setdefault(row_id, old)
        self.balance[row_id] = balance
        self.owner_sum[owner] = (self.owner_sum.get(owner, 0.0) + balance
                                 - (old or 0.0))
        self.user_bytes += ROW_BYTES

    def pinned_range(self, lo: int, hi: int) -> dict[int, float]:
        """Balances of ids ``lo..hi`` as the pinned snapshot sees them."""
        seen = ((i, self.pinned.get(i, self.balance.get(i)))
                for i in range(lo, hi + 1))
        return {i: balance for i, balance in seen if balance is not None}

    @property
    def live_bytes(self) -> int:
        return len(self.balance) * ROW_BYTES

    def first_divergence(self, rows: dict[int, tuple]) -> str | None:
        """Compare a full scan (``{id: row}``) row for row; None if equal."""
        for row_id in sorted(self.balance.keys() | rows.keys()):
            want = (row_of(row_id, self.balance[row_id])
                    if row_id in self.balance else None)
            got = rows.get(row_id)
            if want != got:
                return f"id {row_id}: expected {want!r}, found {got!r}"
        return None
