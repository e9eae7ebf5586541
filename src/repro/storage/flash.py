"""Simulated flash SSD: asymmetric latencies, FTL, channels, wear.

The device combines the channel-parallel request scheduler from
:class:`~repro.storage.device.BlockDevice` with the page-mapped FTL of
:mod:`repro.storage.ftl`.  The properties the paper exploits are all present:

* **Read/write asymmetry** — page reads are ~8× cheaper than programs.
* **Erase-before-write** — overwrites program new pages; reclaiming space
  needs block erases with valid-page relocation (foreground GC stalls).
* **I/O parallelism** — batched requests spread over channels.
* **Endurance** — per-block erase counters; a block can wear out.

Logical page *contents* are stored in a plain dict keyed by LBA so that data
correctness is independent of FTL placement decisions.
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.common.config import FlashConfig
from repro.common.errors import ReadUnwrittenError
from repro.storage.device import BlockDevice
from repro.storage.ftl import PageMappedFtl
from repro.storage.trace import TraceOp, TraceRecorder


class FlashDevice(BlockDevice):
    """A flash SSD simulator with a page-mapped FTL."""

    def __init__(self, clock: SimClock, config: FlashConfig | None = None,
                 trace: TraceRecorder | None = None,
                 name: str = "ssd0") -> None:
        self.config = config or FlashConfig()
        self.config.validate()
        super().__init__(
            clock=clock,
            total_pages=self.config.total_pages,
            page_size=self.config.page_size,
            channels=self.config.channels,
            name=name,
            trace=trace,
        )
        self.ftl = PageMappedFtl(self.config)
        self._data: dict[int, bytes] = {}

    # -- BlockDevice hooks ------------------------------------------------------

    def _service_read(self, lba: int) -> int:
        return self.ftl.host_read(lba)

    def _service_write(self, lba: int) -> int:
        erases_before = self.ftl.stats.erases
        cost = self.ftl.host_write(lba)
        erases_done = self.ftl.stats.erases - erases_before
        if erases_done and self.trace is not None:
            self.trace.record(self.clock.now, TraceOp.ERASE, lba, erases_done)
        return cost

    def _store(self, lba: int, data: bytes) -> None:
        self._data[lba] = data

    def _load(self, lba: int) -> bytes:
        try:
            return self._data[lba]
        except KeyError:
            raise ReadUnwrittenError(
                f"{self.name}: LBA {lba} read before first write") from None

    def _discard(self, lba: int) -> None:
        self.ftl.host_trim(lba)
        self._data.pop(lba, None)

    # -- flash-specific inspection -----------------------------------------------

    @property
    def write_amplification(self) -> float:
        """Physical programs per host write (device-internal view)."""
        return self.ftl.stats.write_amplification

    def wear_stats(self) -> tuple[int, int, float]:
        """``(min, max, mean)`` per-block erase counts."""
        return self.ftl.wear_stats()

    def live_pages(self) -> int:
        """Host-visible pages currently holding valid data.

        The device's own view of occupancy: written pages minus everything
        superseded or trimmed — the fair space metric across engines.
        """
        return sum(self.ftl.valid_pages_in(block)
                   for block in range(self.ftl.n_blocks))
