"""Connection pooling, retry policy and circuit breaking for the client.

The pool keeps up to ``size`` idle connections warm and hands them out one
per caller; when the free list is empty it *creates* an overflow connection
instead of blocking, because a single-threaded caller (the workload driver)
legitimately holds one leased connection per in-flight transaction — a
blocking pool would deadlock it.  Overflow connections are closed on
release once the free list is full again.

Retry semantics honour the server's backpressure contract: ``OVERLOADED``
and ``DEADLINE_EXCEEDED`` responses are shed *before* execution, so they
are always safe to retry with exponential backoff — even ``COMMIT``.
Connect-time failures retry the same way (the server may still be
booting).  A connection that dies *mid-request* is NOT retried unless the
command is retry-safe (session-free and read-only, per the command
registry :data:`~repro.server.protocol.COMMANDS`) — the server may
or may not have executed it — so it surfaces as
:class:`~repro.common.errors.AmbiguousResultError` to the caller, whose
transaction is orphaned and will be aborted server-side (or, for a commit
in the lost-ack window, resolved via ``TXN_STATUS``).

The :class:`CircuitBreaker` sits in front of all of it: after
``failure_threshold`` consecutive retryable failures the endpoint is
presumed down and calls fail fast with
:class:`~repro.common.errors.CircuitOpenError` instead of burning a full
backoff schedule each; after ``reset_timeout_sec`` a single probe is let
through, and its outcome closes or re-opens the circuit.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.common.errors import (
    AmbiguousResultError,
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.client.connection import ClientConnection
from repro.server.protocol import COMMANDS, Command


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with **full jitter** for retryable failures.

    The backoff *ceiling* grows exponentially; the actual sleep is drawn
    uniformly from ``[0, ceiling]``.  Without jitter, every client shed by
    the same overload burst retries in lockstep and re-collides on every
    wave; full jitter spreads the retry storm across the whole window
    (the classic AWS "exponential backoff and jitter" result).

    ``rng`` takes any 0-arg callable returning floats in ``[0, 1)`` —
    inject ``random.Random(seed).random`` for deterministic tests, or set
    ``jitter=False`` to fall back to the bare exponential schedule.
    """

    max_attempts: int = 10
    base_delay_sec: float = 0.005
    max_delay_sec: float = 0.25
    multiplier: float = 2.0
    jitter: bool = True
    rng: Callable[[], float] = field(default=random.random, compare=False)

    def ceiling(self, attempt: int) -> float:
        """The capped exponential bound for retry number ``attempt``."""
        return min(self.max_delay_sec,
                   self.base_delay_sec * (self.multiplier ** attempt))

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        bound = self.ceiling(attempt)
        if not self.jitter:
            return bound
        return self.rng() * bound


class BreakerState(Enum):
    """Where a :class:`CircuitBreaker` currently stands."""

    CLOSED = "closed"        # healthy: calls flow
    OPEN = "open"            # presumed down: calls fail fast
    HALF_OPEN = "half_open"  # cooling off: one probe in flight


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one endpoint.

    CLOSED → OPEN after ``failure_threshold`` consecutive failures;
    OPEN → HALF_OPEN once ``reset_timeout_sec`` has passed, admitting
    exactly one probe; the probe's success closes the circuit, its
    failure re-opens it (and restarts the cooldown).  Thread-safe —
    several pool users may hit the same breaker.  ``clock`` is injectable
    (``time.monotonic``-shaped) so tests need not sleep through
    cooldowns.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_sec: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_sec < 0:
            raise ValueError("reset_timeout_sec must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_sec = reset_timeout_sec
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_out = False
        #: times the breaker tripped CLOSED/HALF_OPEN → OPEN
        self.opened_total = 0

    @property
    def state(self) -> BreakerState:
        """Current state (OPEN reports HALF_OPEN once cooled down)."""
        with self._lock:
            if (self._state is BreakerState.OPEN
                    and self._cooled_down()):
                return BreakerState.HALF_OPEN
            return self._state

    def _cooled_down(self) -> bool:
        return self._clock() - self._opened_at >= self.reset_timeout_sec

    def allow(self) -> bool:
        """May a call proceed right now?  (Claims the half-open probe.)"""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if not self._cooled_down():
                    return False
                self._state = BreakerState.HALF_OPEN
                self._probe_out = True
                return True
            # HALF_OPEN: only one probe at a time
            if self._probe_out:
                return False
            self._probe_out = True
            return True

    def record_success(self) -> None:
        """A call completed: close the circuit, reset the count."""
        with self._lock:
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probe_out = False

    def record_failure(self) -> None:
        """A call failed retryably: maybe trip the circuit open."""
        with self._lock:
            self._consecutive_failures += 1
            self._probe_out = False
            tripped = (self._state is BreakerState.HALF_OPEN
                       or self._consecutive_failures
                       >= self.failure_threshold)
            if tripped:
                if self._state is not BreakerState.OPEN:
                    self.opened_total += 1
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()

    def as_dict(self) -> dict[str, object]:
        """Wire/telemetry-friendly view."""
        return {"state": self.state.value,
                "consecutive_failures": self._consecutive_failures,
                "opened_total": self.opened_total}


@dataclass
class PoolStats:
    """Pool effectiveness, retry and resilience counters."""

    created: int = 0
    reused: int = 0
    overflow_closed: int = 0
    overload_retries: int = 0
    #: server-side DEADLINE_EXCEEDED sheds that were retried
    deadline_retries: int = 0
    connect_retries: int = 0
    broken: int = 0
    #: calls refused locally because the circuit breaker was open
    circuit_rejections: int = 0
    #: commits whose ack was lost (resolved out-of-band via TXN_STATUS)
    uncertain_commits: int = 0
    #: idempotent commands re-run on a fresh connection after an
    #: ambiguous failure (``CommandSpec.retry_safe``)
    ambiguous_retries: int = 0


class ConnectionPool:
    """Thread-safe pool of :class:`ClientConnection` with retry-on-shed.

    ``deadline_ms`` is the pool's default per-call time budget (None —
    the default — sends no deadline); per-call values override it.  The
    budget spans the *whole* retry schedule of one logical call: each
    resend tells the server only the time remaining, and once the budget
    is spent the call fails client-side without another round trip.
    """

    def __init__(self, host: str | None = None, port: int | None = None,
                 size: int = 4,
                 retry: RetryPolicy | None = None,
                 connect_timeout_sec: float = 5.0,
                 request_timeout_sec: float = 60.0,
                 breaker: CircuitBreaker | None = None,
                 deadline_ms: int | None = None,
                 chaos: object | None = None,
                 endpoints: list[tuple[str, int]] | None = None) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if endpoints is None:
            if host is None or port is None:
                raise ValueError("either host+port or endpoints required")
            endpoints = [(host, port)]
        if not endpoints:
            raise ValueError("endpoints must not be empty")
        #: all addresses this pool can lease against; endpoint *index* is
        #: the stable handle used by ``acquire(endpoint=...)``
        self.endpoints: list[tuple[str, int]] = [(h, p)
                                                 for h, p in endpoints]
        self.host, self.port = self.endpoints[0]
        self.size = size
        self.retry = retry or RetryPolicy()
        self.connect_timeout_sec = connect_timeout_sec
        self.request_timeout_sec = request_timeout_sec
        first = breaker or CircuitBreaker()
        #: one breaker per endpoint: one down shard must not open the
        #: circuit for its healthy peers.  Extra endpoints inherit the
        #: first breaker's thresholds (and its injectable clock).
        self.breakers: list[CircuitBreaker] = [first] + [
            CircuitBreaker(first.failure_threshold,
                           first.reset_timeout_sec, first._clock)
            for _ in self.endpoints[1:]]
        self.deadline_ms = deadline_ms
        #: a single plan applies to every endpoint; a ``{index: plan}``
        #: dict faults selected endpoints only (shard-fault chaos)
        self.chaos = chaos
        self.stats = PoolStats()
        self._lock = threading.Lock()
        self._free: list[list[ClientConnection]] = [
            [] for _ in self.endpoints]
        self._rr = 0
        self._closed = False

    @property
    def breaker(self) -> CircuitBreaker:
        """The first endpoint's breaker (single-endpoint compatibility)."""
        return self.breakers[0]

    def _chaos_for(self, index: int) -> object | None:
        if isinstance(self.chaos, dict):
            return self.chaos.get(index)
        return self.chaos

    def _ordered(self, endpoint: int | None) -> list[int]:
        """Candidate endpoint indexes, healthiest first.

        A pinned ``endpoint`` is the only candidate.  Otherwise endpoints
        whose breaker is not OPEN come first, rotated round-robin so load
        spreads; OPEN ones trail (their cooldown may have elapsed, which
        ``CircuitBreaker.allow`` decides at dial time).
        """
        if endpoint is not None:
            if not 0 <= endpoint < len(self.endpoints):
                raise ValueError(f"unknown endpoint index {endpoint}")
            return [endpoint]
        n = len(self.endpoints)
        with self._lock:
            start = self._rr
            self._rr = (self._rr + 1) % n
        order = [(start + i) % n for i in range(n)]
        healthy = [i for i in order
                   if self.breakers[i].state is not BreakerState.OPEN]
        return healthy + [i for i in order if i not in healthy]

    # -- leasing -------------------------------------------------------------

    def acquire(self, endpoint: int | None = None) -> ClientConnection:
        """Lease a connection (reuses an idle one, else dials a new one).

        ``endpoint`` pins the lease to one address (the router's
        shard-targeted path); None picks health-aware round-robin across
        all endpoints.  Connect failures back off and retry per the
        policy, so a client racing a still-booting server converges
        instead of failing — and an unpinned retry moves on to the next
        endpoint.  When every candidate's circuit breaker is open the
        lease fails fast with :class:`CircuitOpenError` without touching
        the network.
        """
        candidates = self._ordered(endpoint)
        with self._lock:
            if self._closed:
                raise ConnectionError("pool is closed")
            for i in candidates:
                if self._free[i]:
                    self.stats.reused += 1
                    return self._free[i].pop()
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            index = None
            for i in candidates:
                if self.breakers[i].allow():
                    index = i
                    break
            if index is None:
                with self._lock:
                    self.stats.circuit_rejections += 1
                names = ", ".join(f"{h}:{p}"
                                  for h, p in (self.endpoints[i]
                                               for i in candidates))
                raise CircuitOpenError(
                    f"circuit open for {names} "
                    f"({self.breakers[candidates[0]].as_dict()})",
                    breaker=self.breakers[candidates[0]])
            host, port = self.endpoints[index]
            try:
                conn = ClientConnection(
                    host, port,
                    connect_timeout_sec=self.connect_timeout_sec,
                    request_timeout_sec=self.request_timeout_sec,
                    chaos=self._chaos_for(index)).connect()
                conn.endpoint_index = index
                with self._lock:
                    self.stats.created += 1
                self.breakers[index].record_success()
                return conn
            except (OSError, ConnectionError) as exc:
                last_error = exc
                self.breakers[index].record_failure()
                with self._lock:
                    self.stats.connect_retries += 1
                time.sleep(self.retry.delay(attempt))
        raise ConnectionError(
            f"could not connect to {self.endpoints[candidates[0]]} after "
            f"{self.retry.max_attempts} attempts: {last_error}")

    def release(self, conn: ClientConnection) -> None:
        """Return a leased connection (broken ones are discarded)."""
        index = getattr(conn, "endpoint_index", 0)
        if not conn.connected:
            with self._lock:
                self.stats.broken += 1
            return
        with self._lock:
            if not self._closed and len(self._free[index]) < self.size:
                self._free[index].append(conn)
                return
            self.stats.overflow_closed += 1
        conn.close()

    # -- calling -------------------------------------------------------------

    def request(self, conn: ClientConnection, command: Command,
                *args: object, deadline_ms: int | None = None) -> object:
        """One command on a *leased* connection, retrying only sheds.

        ``OVERLOADED`` and ``DEADLINE_EXCEEDED`` both mean the server
        rejected the command *before* executing it, so resending after
        backoff is always safe — even for non-idempotent commands inside
        a transaction.  An :class:`AmbiguousResultError` (the connection
        died after the send began) is never retried here: the command may
        have executed, and only the caller knows whether it is idempotent.
        """
        if deadline_ms is None:
            deadline_ms = self.deadline_ms
        expires = (None if deadline_ms is None
                   else time.monotonic() + deadline_ms / 1000.0)
        for attempt in range(self.retry.max_attempts):
            remaining_ms: int | None = None
            if expires is not None:
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"{command.name}: client-side deadline "
                        f"({deadline_ms}ms) spent across retries")
                remaining_ms = max(1, int(remaining * 1000))
            breaker = self.breakers[getattr(conn, "endpoint_index", 0)]
            try:
                result = conn.request(command, *args,
                                      deadline_ms=remaining_ms)
                breaker.record_success()
                return result
            except (OverloadedError, DeadlineExceededError) as exc:
                breaker.record_failure()
                with self._lock:
                    if isinstance(exc, OverloadedError):
                        self.stats.overload_retries += 1
                    else:
                        self.stats.deadline_retries += 1
                if attempt == self.retry.max_attempts - 1:
                    raise
                delay = self.retry.delay(attempt)
                if expires is not None:
                    delay = min(delay, max(0.0,
                                           expires - time.monotonic()))
                time.sleep(delay)
            except ConnectionError:
                breaker.record_failure()
                raise
        raise AssertionError("unreachable")

    def call(self, command: Command, *args: object,
             deadline_ms: int | None = None,
             endpoint: int | None = None) -> object:
        """Lease, run one command with retry, release.

        An :class:`AmbiguousResultError` (e.g. a pooled connection the
        server closed while draining) is retried on a *fresh* connection
        — but only for the registry's retry-safe (session-free,
        read-only) commands; this is what lets ``resolve_commit`` poll
        ``TXN_STATUS`` right through the connection that just died.
        """
        for attempt in range(self.retry.max_attempts):
            conn = self.acquire(endpoint=endpoint)
            try:
                return self.request(conn, command, *args,
                                    deadline_ms=deadline_ms)
            except AmbiguousResultError:
                if (not COMMANDS[command].retry_safe
                        or attempt == self.retry.max_attempts - 1):
                    raise
                with self._lock:
                    self.stats.ambiguous_retries += 1
                time.sleep(self.retry.delay(attempt))
            finally:
                self.release(conn)
        raise AssertionError("unreachable")

    # -- lifecycle -----------------------------------------------------------

    def endpoints_health(self) -> list[dict[str, object]]:
        """Per-endpoint address + breaker view (router STATS / monitor)."""
        return [{"host": h, "port": p, **b.as_dict()}
                for (h, p), b in zip(self.endpoints, self.breakers)]

    def close(self) -> None:
        """Close every idle connection and refuse new leases."""
        with self._lock:
            self._closed = True
            free, self._free = self._free, [[] for _ in self.endpoints]
        for conns in free:
            for conn in conns:
                conn.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
