"""Fault injection: a wrapper device that corrupts or fails I/O.

Testing utility for the failure paths real storage forces on a database.
Read-side faults: bit rot (page checksums must catch it) and transient
read errors (the tablespace retries them, bounded).  Write-side faults:
torn writes (only a prefix of the page reaches the medium — the classic
partial-page write that power loss leaves behind), failed writes (the
device errors after persisting nothing or a torn prefix), and a
deterministic :class:`CrashPoint` that "cuts the power" at exactly the
k-th device write — the primitive the crash fault sweep iterates over
every write of a workload.

The wrapper delegates everything to an inner device and perturbs results
according to a deterministic seeded plan, so failing tests replay exactly.
"""

from __future__ import annotations

from repro.common.errors import StorageError
from repro.common.rng import make_rng
from repro.storage.device import BlockDevice


class TransientReadError(StorageError):
    """A read failed but may succeed on retry (injected)."""


class InjectedWriteError(StorageError):
    """A write failed after persisting nothing or a torn prefix (injected)."""


class SimulatedCrash(StorageError):
    """The process-model lost power at an injected crash point.

    Raised by the device on the crash write and on every write after it
    (a dead machine accepts no more I/O) until :meth:`CrashPoint.disarm`
    models the reboot.  The crash fault sweep catches this, simulates
    the crash at the database layer and runs recovery.
    """


class CrashPoint:
    """Deterministic crash trigger counting writes across devices.

    One :class:`CrashPoint` is shared by every :class:`FaultyDevice` of a
    database (data + WAL), so ``at_write=k`` means the k-th write the
    *system* issues, wherever it lands.  ``at_write=0`` never fires — the
    counting mode the sweep uses to size a workload's write footprint.

    ``torn=True`` persists the first half of the crash write before dying
    (a torn page the next read's checksum must catch); ``torn=False``
    loses the crash write entirely (power died before the program pulse).

    Once tripped the point stays tripped: later writes raise too, until
    :meth:`disarm` models the reboot (recovery then reads — and, once
    healed, writes — normally).
    """

    def __init__(self, at_write: int = 0, torn: bool = False) -> None:
        if at_write < 0:
            raise ValueError(f"at_write must be >= 0, got {at_write}")
        self.at_write = at_write
        self.torn = torn
        self.writes_seen = 0
        self.tripped = False
        self._armed = True

    def disarm(self) -> None:
        """Stop injecting (the reboot after the crash)."""
        self._armed = False

    def on_write(self) -> bool:
        """Count one write; returns True when this write is the crash.

        Raises :class:`SimulatedCrash` for every write *after* the crash
        write while still armed.
        """
        if not self._armed:
            return False
        if self.tripped:
            raise SimulatedCrash(
                f"device write after crash at write #{self.at_write}")
        self.writes_seen += 1
        if self.at_write and self.writes_seen == self.at_write:
            self.tripped = True
            return True
        return False


class FaultyDevice:
    """Wraps a :class:`BlockDevice`, injecting read and write faults.

    Read parameters are probabilities per page read: ``bitrot`` flips one
    byte of the returned data (the page checksum must detect it
    downstream); ``transient`` raises :class:`TransientReadError` instead
    of returning.  Write parameters are probabilities per page write:
    ``torn_write`` silently persists only a prefix of the page;
    ``failed_write`` raises :class:`InjectedWriteError` after persisting
    either nothing or a torn prefix (alternating, deterministically).
    ``crash_point`` attaches a shared :class:`CrashPoint`.

    ``retries_exhausted`` is bumped by the tablespace's bounded-retry
    read path when a transient fault outlives every retry.
    """

    def __init__(self, inner: BlockDevice, bitrot: float = 0.0,
                 transient: float = 0.0, seed: int = 42,
                 torn_write: float = 0.0, failed_write: float = 0.0,
                 crash_point: CrashPoint | None = None) -> None:
        for name, p in (("bitrot", bitrot), ("transient", transient),
                        ("torn_write", torn_write),
                        ("failed_write", failed_write)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"fault probability {name} must be in [0, 1], got {p}")
        self._inner = inner
        self.bitrot = bitrot
        self.transient = transient
        self.torn_write = torn_write
        self.failed_write = failed_write
        self.crash_point = crash_point
        self._rng = make_rng(seed, "faults", inner.name)
        self.injected_bitrot = 0
        self.injected_transient = 0
        self.injected_torn = 0
        self.injected_write_fails = 0
        self.retries_exhausted = 0

    # -- perturbed reads ----------------------------------------------------------

    def read_page(self, lba: int) -> bytes:
        """Read one page, possibly corrupted or failing."""
        data = self._inner.read_page(lba)
        return self._perturb(lba, data)

    def read_pages(self, lbas: list[int]) -> list[bytes]:
        """Batched read with per-page perturbation."""
        return [self._perturb(lba, data)
                for lba, data in zip(lbas, self._inner.read_pages(lbas))]

    def _perturb(self, lba: int, data: bytes) -> bytes:
        if self.transient and self._rng.random() < self.transient:
            self.injected_transient += 1
            raise TransientReadError(
                f"injected transient read failure at LBA {lba}")
        if self.bitrot and self._rng.random() < self.bitrot:
            self.injected_bitrot += 1
            position = self._rng.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            return bytes(corrupted)
        return data

    # -- perturbed writes ---------------------------------------------------------

    @property
    def _writes_faulty(self) -> bool:
        return bool(self.torn_write or self.failed_write
                    or (self.crash_point is not None))

    def write_page(self, lba: int, data: bytes) -> None:
        """Write one page, possibly torn, failed or crashing."""
        self._write_one(lba, data, sync=True)

    def write_page_async(self, lba: int, data: bytes) -> None:
        """Fire-and-forget write with the same fault model."""
        self._write_one(lba, data, sync=False)

    def write_pages(self, writes: list[tuple[int, bytes]]) -> None:
        """Batched write; a mid-batch crash persists the batch prefix.

        With no write faults configured the whole batch delegates to the
        inner device (keeping its channel-parallel timing); under fault
        injection pages are applied one at a time so a crash at the k-th
        write leaves exactly k-1 of them on the medium — the torn batch a
        real power loss produces.
        """
        if not self._writes_faulty:
            self._inner.write_pages(writes)
            return
        for lba, data in writes:
            self._write_one(lba, data, sync=True)

    def _write_one(self, lba: int, data: bytes, sync: bool) -> None:
        if self.crash_point is not None and self.crash_point.on_write():
            if self.crash_point.torn:
                self.injected_torn += 1
                self._persist_torn(lba, data, cut=len(data) // 2)
            raise SimulatedCrash(
                f"power lost on write #{self.crash_point.writes_seen} "
                f"(LBA {lba} of {self._inner.name})")
        if self.failed_write and self._rng.random() < self.failed_write:
            self.injected_write_fails += 1
            # alternate deterministically between zero and partial
            # persistence — both failure shapes stay covered
            if self.injected_write_fails % 2 == 0:
                self._persist_torn(lba, data,
                                   cut=self._rng.randrange(1, len(data)))
            raise InjectedWriteError(
                f"injected write failure at LBA {lba}")
        if self.torn_write and self._rng.random() < self.torn_write:
            self.injected_torn += 1
            self._persist_torn(lba, data,
                               cut=self._rng.randrange(1, len(data)))
            return
        if sync:
            self._inner.write_page(lba, data)
        else:
            self._inner.write_page_async(lba, data)

    def _persist_torn(self, lba: int, data: bytes, cut: int) -> None:
        """Persist ``data[:cut]`` over whatever the LBA held before.

        The tail keeps the old content (an in-place rewrite interrupted
        mid-page) or zeros (a never-written page) — either way the page
        checksum no longer matches and the next read must reject it.
        """
        from repro.common.errors import ReadUnwrittenError
        try:
            old = self._inner.read_page(lba)
        except ReadUnwrittenError:
            old = b"\x00" * len(data)
        self._inner.write_page(lba, data[:cut] + old[cut:])

    # -- passthrough --------------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
