"""WAL-shipping replication: leader-side log shipping, follower apply.

A leader node attaches a :class:`~repro.replication.leader.ReplicationHub`
to its database and serves ``WAL_SUBSCRIBE`` / ``WAL_FETCH`` plus the
``BACKUP_BEGIN`` / ``BACKUP_FETCH`` / ``BACKUP_END`` bootstrap commands;
a replica runs a :class:`~repro.replication.follower.WalFollower` that
continuously fetches the durable log tail, applies committed transactions
through the same redo routine crash recovery uses, and serves snapshot
reads pinned at its replay watermark — stale-bounded, never fractured.
A follower that falls below the leader's retained WAL base bootstraps
itself through an online base backup (automatic full resync); a
:class:`~repro.replication.supervisor.FollowerSupervisor` keeps the loop
running through disconnects with full-jitter backoff; ``cascade=True``
followers serve a hub over their own WAL so replicas chain
replica-of-replica.  Promotion fences the old epoch so a zombie leader's
frames are refused everywhere — and the adopted epoch propagates down
cascading chains.
"""

from repro.replication.follower import (
    REPLICA_TXID_BASE,
    RemoteSource,
    WalFollower,
)
from repro.replication.leader import ReplicationHub
from repro.replication.supervisor import FollowerState, FollowerSupervisor

__all__ = [
    "REPLICA_TXID_BASE",
    "FollowerState",
    "FollowerSupervisor",
    "RemoteSource",
    "ReplicationHub",
    "WalFollower",
]
