"""``chaos``: break the client's connection at the k-th request frame.

The service layer's adversary, the wire twin of ``crash``: a
:class:`~repro.server.chaos.NetCrashPoint` on the client's side of a
live single-node server.  Fault kinds cycle with ``k`` through the
disruptive set — torn frame, reset before send, reset after send (the
lost-ack window) — so avoid strides divisible by three.

The *engine* never dies here, only connections do, so the full value
oracle holds for both engines: exactly the transfers whose commit was
confirmed — an acked ``COMMIT``, or an uncertain one that ``TXN_STATUS``
resolved to ``committed`` — are visible; every orphaned transaction was
settled exactly once (sessions, active transactions and the lock table
all drain to zero); and the server still serves a fresh client.
"""

from __future__ import annotations

from repro.client.remote import RemoteDatabase
from repro.experiments.sweeps.harness import (
    Run,
    Scenario,
    accounts_db,
    check_liveness,
    check_state,
    client,
    net_point,
    resolved_transfer,
    seed_accounts,
    serve,
    txn_noise,
    wait_quiet,
)
from repro.server.chaos import ChaosPlan

SETTLE_SEC = 5.0


def _run(run: Run) -> None:
    point = net_point(run.at)
    db = accounts_db(run.engine, run.layout)
    server = serve(run, db)
    host, port = server.address

    def noise() -> list[str]:
        sessions = server.sessions.count()
        return ([f"{sessions} sessions"] if sessions else []) \
            + txn_noise(db, "server")

    # seeding goes through a clean client: setup is not under test
    with RemoteDatabase(host, port, pool_size=1) as clean:
        seed_accounts(run, clean)
    with client(host, port, failures=10,
                chaos=ChaosPlan(crash_point=point)) as remote:
        for _ in range(run.transfers):
            resolved_transfer(run, remote, SETTLE_SEC)
    point.disarm()
    wait_quiet(noise, SETTLE_SEC)
    with RemoteDatabase(host, port, pool_size=1) as clean:
        check_liveness(clean, check_state(clean, run.mirror))
    wait_quiet(noise, SETTLE_SEC)  # the oracle client left cleanly too
    run.tripped, run.events = point.tripped, point.events_seen


CHAOS = Scenario("chaos", _run, unit="client frames", seed=11, accounts=8,
                 transfers=30, stream="chaos", engines=True)
