"""One context manager, four ways to stand the system up.

``topology(kind, config)`` builds embedded / served / sharded / replicated
from the public API only and yields a :class:`Topology`: the facade the
driver sends writes to, where read-only transactions begin, and every
node's in-process :class:`Database` (thread-mode servers), from which the
benchmark reads the counters the layers already export.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import Database, EngineKind, SystemConfig
from repro.client import ConnectionPool, RemoteDatabase
from repro.cluster import ClusterRouter, RouterConfig, ShardSupervisor, \
    SupervisorConfig
from repro.replication import FollowerSupervisor, ReplicationHub, \
    RemoteSource, WalFollower
from repro.server import DatabaseServer, ServerConfig

from workloads import INDEXES, SCHEMA, TABLE

KINDS = ("embedded", "served", "sharded", "replicated")


@dataclass
class Topology:
    kind: str
    #: Database or RemoteDatabase: same method signatures
    db: object
    #: starts the transaction a lookup runs in (the replica, if there is
    #: one); late-bound, so the tracer's rebinding of ``db.begin`` is seen
    begin_read: Callable[[], object]
    #: every node's engine, leader/shard 0 first
    nodes: list[Database]
    #: reads may trail acknowledged writes (replica): skip value checks
    reads_may_lag: bool = False
    servers: list[DatabaseServer] = field(default_factory=list)
    router: ClusterRouter | None = None
    hub: ReplicationHub | None = None
    follower: WalFollower | None = None
    #: facades that receive tick()/maintenance(): one per independent node
    #: (the router fans out to its shards by itself)
    background: list[object] = field(default_factory=list)
    #: every client-side connection pool, by role, for the tracer
    pools: dict[str, ConnectionPool] = field(default_factory=dict)

    def tick(self) -> None:
        for facade in self.background:
            facade.tick()

    def maintenance(self) -> list[dict]:
        return [facade.maintenance() for facade in self.background]


def _new_db(config: SystemConfig) -> Database:
    db = Database.on_flash(EngineKind.SIASV, config)
    db.create_table(TABLE, SCHEMA, indexes=INDEXES)
    return db


@contextlib.contextmanager
def topology(kind: str, config: SystemConfig) -> Iterator[Topology]:
    """Build one topology; on exit stop every thread and socket it started.

    Exit shuts no node down: their ``Database`` objects then hold what a
    power loss would find, and stay usable in-process, so the caller can
    crash and recover them, shut them down and read their space.
    """
    with contextlib.ExitStack() as stack:
        if kind == "embedded":
            db = _new_db(config)
            yield Topology(kind, db, lambda: db.begin(), [db], background=[db])
        elif kind == "served":
            db = _new_db(config)
            server = DatabaseServer(db, ServerConfig(port=0))
            host, port = server.start_in_background()
            stack.callback(server.stop_in_background)
            remote = stack.enter_context(
                RemoteDatabase.connect(host, port, pool_size=1))
            yield Topology(kind, remote, lambda: remote.begin(), [db],
                           servers=[server], background=[remote],
                           pools={"client": remote.pool})
        elif kind == "sharded":
            # thread-mode shards build their own default-config engines
            sup = ShardSupervisor(SupervisorConfig(shards=2))
            addresses = sup.start()
            servers = [sup.server(i) for i in range(len(addresses))]
            for server in servers:
                # not sup.stop(), which also shuts the shards down cleanly
                stack.callback(server.stop_in_background)
            router = ClusterRouter(addresses, RouterConfig(port=0))
            host, port = router.start_in_background()
            stack.callback(router.stop_in_background)
            remote = stack.enter_context(
                RemoteDatabase.connect(host, port, pool_size=1))
            remote.create_table(TABLE, SCHEMA, indexes=INDEXES)
            yield Topology(kind, remote, lambda: remote.begin(),
                           [sup.database(i) for i in range(len(addresses))],
                           servers=servers, router=router,
                           background=[remote],
                           pools={"client": remote.pool,
                                  "router": router.pool})
        elif kind == "replicated":
            # same schema, same creation order: DDL is not WAL-shipped
            leader_db, replica_db = _new_db(config), _new_db(config)
            hub = ReplicationHub(leader_db)
            leader = DatabaseServer(leader_db, ServerConfig(port=0),
                                    replication=hub)
            lhost, lport = leader.start_in_background()
            stack.callback(leader.stop_in_background)
            source = stack.enter_context(
                ConnectionPool(size=1, endpoints=[(lhost, lport)]))
            follower = WalFollower(replica_db, RemoteSource(source))
            replica = DatabaseServer(replica_db, ServerConfig(port=0),
                                     replication=follower)
            rhost, rport = replica.start_in_background()
            stack.callback(replica.stop_in_background)
            supervisor = FollowerSupervisor(follower)
            supervisor.start()
            stack.callback(supervisor.stop)
            remote = stack.enter_context(RemoteDatabase.connect(
                lhost, lport, pool_size=1, replicas=[(rhost, rport)]))
            # the replica's own bgwriter/checkpointer/GC need driving too
            replica_admin = stack.enter_context(
                RemoteDatabase.connect(rhost, rport, pool_size=1))
            yield Topology(kind, remote,
                           lambda: remote.begin(read_only=True),
                           [leader_db, replica_db], reads_may_lag=True,
                           servers=[leader, replica], hub=hub,
                           follower=follower,
                           background=[remote, replica_admin],
                           pools={"client": remote.pool,
                                  "admin": replica_admin.pool,
                                  "follower": source})
        else:
            raise ValueError(f"unknown topology {kind!r} (one of {KINDS})")
