"""The shard supervisor: N independent engine+server shards, one handle.

Each shard is a complete single-node stack — its own simulated flash
device, WAL, transaction manager and :class:`~repro.server.DatabaseServer`
— listening on its own port.  Shards share *nothing*; the only thing
binding them into a cluster is the router's arithmetic shard map and the
2PC protocol.

Every shard runs in-process on its own background event-loop thread,
which is what makes **crash/restart** possible: :meth:`kill_shard` stops
the server and drops the shard's volatile state
(:func:`repro.db.recovery.crash`), :meth:`restart_shard` recovers the
shard from its WAL + sealed pages on the *same port*.  Prepared (2PC
in-doubt) transactions survive the round trip.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass


@dataclass(frozen=True)
class SupervisorConfig:
    """How many shards to run and how each one's server is tuned."""

    shards: int = 2
    host: str = "127.0.0.1"
    #: pre-create the nine TPC-C tables on every shard
    tpcc: bool = False
    idle_timeout_sec: float = 60.0
    drain_timeout_sec: float = 5.0
    max_in_flight: int = 8

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


class ShardSupervisor:
    """Launches, kills, restarts and stops a set of shards."""

    def __init__(self, config: SupervisorConfig | None = None) -> None:
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.addresses: list[tuple[str, int]] = []
        self._servers: list = []       # DatabaseServer, None while killed
        self._dbs: list = []           # Database
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> list[tuple[str, int]]:
        """Bring up every shard; returns their addresses in shard order."""
        if self._started:
            return self.addresses
        from repro.db.database import Database, EngineKind
        from repro.server import DatabaseServer

        for _ in range(self.config.shards):
            db = Database.on_flash(EngineKind.SIASV)
            if self.config.tpcc:
                from repro.workload.tpcc_schema import create_tpcc_tables
                create_tpcc_tables(db)
            server = DatabaseServer(db, self._server_config(port=0))
            address = server.start_in_background()
            self._dbs.append(db)
            self._servers.append(server)
            self.addresses.append(address)
        self._started = True
        return self.addresses

    def _server_config(self, port: int, recover: bool = False):
        from repro.server import ServerConfig

        return ServerConfig(
            host=self.config.host, port=port,
            max_in_flight=self.config.max_in_flight,
            idle_timeout_sec=self.config.idle_timeout_sec,
            drain_timeout_sec=self.config.drain_timeout_sec,
            recover_on_start=recover)

    def stop(self) -> None:
        """Stop every shard cleanly (graceful drain on each)."""
        for server in self._servers:
            if server is not None:
                server.stop_in_background()
        for db in self._dbs:
            with contextlib.suppress(Exception):
                db.shutdown()
        self._started = False

    # -- fault injection -----------------------------------------------------

    def kill_shard(self, shard: int) -> None:
        """Take a shard down and wipe its volatile state (power loss).

        The server stops (a shard between transactions drains instantly —
        prepared 2PC transactions are session-free and never block the
        drain), then :func:`repro.db.recovery.crash` drops every volatile
        structure, exactly as the crash fault sweep does.  Durable state
        (WAL, sealed pages) survives for :meth:`restart_shard`.
        """
        from repro.db.recovery import crash

        server = self._servers[shard]
        if server is not None:
            server.stop_in_background()
            self._servers[shard] = None
        crash(self._dbs[shard])

    def restart_shard(self, shard: int):
        """Bring a killed shard back on its old port, recovering first.

        Returns the :class:`~repro.db.recovery.RecoveryReport` so callers
        can assert on in-doubt counts.
        """
        _host, port = self.addresses[shard]
        from repro.server import DatabaseServer

        server = DatabaseServer(self._dbs[shard],
                                self._server_config(port=port,
                                                    recover=True))
        server.start_in_background()
        self._servers[shard] = server
        return server.recovery_report

    # -- direct access (tests and the sweep) ---------------------------------

    def database(self, shard: int):
        """The shard's in-process :class:`Database`."""
        return self._dbs[shard]

    def server(self, shard: int):
        """The shard's in-process server."""
        return self._servers[shard]

    def __enter__(self) -> "ShardSupervisor":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
