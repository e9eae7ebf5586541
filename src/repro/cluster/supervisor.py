"""The shard supervisor: N independent engine+server shards, one handle.

Each shard is a complete single-node stack — its own simulated flash
device, WAL, transaction manager and :class:`~repro.server.DatabaseServer`
— listening on its own port.  Shards share *nothing*; the only thing
binding them into a cluster is the router's arithmetic shard map and the
2PC protocol.

Two modes:

* ``thread`` (default) — every shard runs in-process on its own
  background event-loop thread.  This is what tests and the shard-fault
  sweep use, because it supports **crash/restart**: :meth:`kill_shard`
  stops the server and drops the shard's volatile state
  (:func:`repro.db.recovery.crash`), :meth:`restart_shard` recovers the
  shard from its WAL + sealed pages on the *same port*.  Prepared (2PC
  in-doubt) transactions survive the round trip.
* ``process`` — every shard is a ``repro serve`` subprocess
  (``repro cluster start``): real OS isolation, one GIL per shard.  The
  simulated flash device lives in the subprocess's memory, so a killed
  process loses its shard's data — process mode is for topology/load
  exploration, not crash experiments.
"""

from __future__ import annotations

import contextlib
import os
import signal as _signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class SupervisorConfig:
    """How many shards to run and how each one's server is tuned."""

    shards: int = 2
    host: str = "127.0.0.1"
    mode: str = "thread"          # "thread" | "process"
    #: pre-create the nine TPC-C tables on every shard
    tpcc: bool = False
    idle_timeout_sec: float = 60.0
    drain_timeout_sec: float = 5.0
    max_in_flight: int = 8

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.mode not in ("thread", "process"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _free_port(host: str) -> int:
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class ShardSupervisor:
    """Launches, probes, kills, restarts and stops a set of shards."""

    def __init__(self, config: SupervisorConfig | None = None) -> None:
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.addresses: list[tuple[str, int]] = []
        self._servers: list = []       # thread mode: DatabaseServer
        self._dbs: list = []           # thread mode: Database
        self._procs: list = []         # process mode: subprocess.Popen
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> list[tuple[str, int]]:
        """Bring up every shard; returns their addresses in shard order."""
        if self._started:
            return self.addresses
        if self.config.mode == "thread":
            self._start_threads()
        else:
            self._start_processes()
        self._started = True
        return self.addresses

    def _start_threads(self) -> None:
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

    def _server_config(self, port: int, recover: bool = False):
        from repro.server import ServerConfig

        return ServerConfig(
            host=self.config.host, port=port,
            max_in_flight=self.config.max_in_flight,
            idle_timeout_sec=self.config.idle_timeout_sec,
            drain_timeout_sec=self.config.drain_timeout_sec,
            recover_on_start=recover)

    def _start_processes(self) -> None:
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src_root) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        for _ in range(self.config.shards):
            port = _free_port(self.config.host)
            argv = [sys.executable, "-m", "repro", "serve",
                    "--host", self.config.host, "--port", str(port),
                    "--engine", "sias-v",
                    "--idle-timeout", str(self.config.idle_timeout_sec),
                    "--drain-timeout", str(self.config.drain_timeout_sec)]
            if self.config.tpcc:
                argv.append("--tpcc")
            proc = subprocess.Popen(argv, env=env,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            self._procs.append(proc)
            self.addresses.append((self.config.host, port))
        for shard in range(self.config.shards):
            self._wait_listening(shard)

    def _wait_listening(self, shard: int, timeout_sec: float = 15.0) -> None:
        host, port = self.addresses[shard]
        deadline = time.monotonic() + timeout_sec
        while time.monotonic() < deadline:
            if self.alive(shard):
                return
            if (self.config.mode == "process"
                    and self._procs[shard].poll() is not None):
                raise RuntimeError(
                    f"shard {shard} exited with "
                    f"{self._procs[shard].returncode} before listening")
            time.sleep(0.05)
        raise TimeoutError(f"shard {shard} ({host}:{port}) did not start")

    def stop(self) -> None:
        """Stop every shard cleanly (graceful drain on each)."""
        if self.config.mode == "thread":
            for server in self._servers:
                if server is not None:
                    server.stop_in_background()
            for db in self._dbs:
                with contextlib.suppress(Exception):
                    db.shutdown()
        else:
            for proc in self._procs:
                if proc.poll() is None:
                    proc.send_signal(_signal.SIGTERM)
            for proc in self._procs:
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.wait(timeout=10.0)
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=5.0)
        self._started = False

    # -- probing -------------------------------------------------------------

    def alive(self, shard: int) -> bool:
        """Whether the shard's port currently accepts connections."""
        host, port = self.addresses[shard]
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return True
        except OSError:
            return False

    def status(self) -> list[dict]:
        """One dict per shard: address, mode, liveness."""
        return [{"shard": i, "host": h, "port": p, "mode": self.config.mode,
                 "alive": self.alive(i)}
                for i, (h, p) in enumerate(self.addresses)]

    # -- fault injection (thread mode) ---------------------------------------

    def kill_shard(self, shard: int) -> None:
        """Take a shard down and wipe its volatile state (power loss).

        The server stops (a shard between transactions drains instantly —
        prepared 2PC transactions are session-free and never block the
        drain), then :func:`repro.db.recovery.crash` drops every volatile
        structure, exactly as the crash fault sweep does.  Durable state
        (WAL, sealed pages) survives for :meth:`restart_shard`.
        """
        if self.config.mode != "thread":
            proc = self._procs[shard]
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5.0)
            return
        from repro.db.recovery import crash

        server = self._servers[shard]
        if server is not None:
            server.stop_in_background()
            self._servers[shard] = None
        crash(self._dbs[shard])

    def restart_shard(self, shard: int):
        """Bring a killed shard back on its old port, recovering first.

        Returns the :class:`~repro.db.recovery.RecoveryReport` (thread
        mode) so callers can assert on in-doubt counts.
        """
        host, port = self.addresses[shard]
        if self.config.mode != "thread":
            self._respawn_process(shard)
            return None
        from repro.server import DatabaseServer

        server = DatabaseServer(self._dbs[shard],
                                self._server_config(port=port,
                                                    recover=True))
        server.start_in_background()
        self._servers[shard] = server
        return server.recovery_report

    def _respawn_process(self, shard: int) -> None:
        host, port = self.addresses[shard]
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src_root) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", host, "--port", str(port), "--engine", "sias-v"]
        if self.config.tpcc:
            argv.append("--tpcc")
        self._procs[shard] = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self._wait_listening(shard)

    # -- direct access (thread mode, for tests and the sweep) ----------------

    def database(self, shard: int):
        """The shard's in-process :class:`Database` (thread mode only)."""
        if self.config.mode != "thread":
            raise RuntimeError("databases are in-process only in "
                               "thread mode")
        return self._dbs[shard]

    def server(self, shard: int):
        """The shard's in-process server (thread mode only)."""
        if self.config.mode != "thread":
            raise RuntimeError("servers are in-process only in thread mode")
        return self._servers[shard]

    def __enter__(self) -> "ShardSupervisor":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
