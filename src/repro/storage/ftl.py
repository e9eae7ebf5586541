"""Page-mapped Flash Translation Layer model.

The FTL is what turns host-visible page writes into flash *programs* and
*erases*.  Flash cannot overwrite in place: a logical overwrite programs a new
physical page and invalidates the old one; reclaiming invalidated pages needs
a whole-block erase, preceded by relocating the block's still-valid pages
(garbage collection).  This is precisely why the paper's small in-place
timestamp updates are so expensive — an 8 KiB page rewrite for a 32-bit
timestamp, later amplified again by GC relocation.

The model tracks, per host operation, the *device-internal* cost in
microseconds (programs + any foreground GC it triggered), plus cumulative
counters from which write amplification and wear statistics are derived.
Data contents are **not** stored here — the owning device keeps the logical
page store; the FTL is purely a placement/cost/wear model, which keeps data
correctness independent of placement policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import FlashConfig
from repro.common.errors import OutOfSpaceError, WornOutError

#: Reverse-map sentinel: physical page holds no valid logical page.
_INVALID = -1
#: Reverse-map sentinel: physical page is erased and programmable.
_FREE = -2


@dataclass
class FtlStats:
    """Cumulative FTL counters."""

    host_writes: int = 0       # host-visible page writes
    programs: int = 0          # physical page programs (host + GC relocation)
    erases: int = 0            # block erases
    gc_runs: int = 0           # foreground GC invocations
    gc_relocated: int = 0      # valid pages moved by GC
    trims: int = 0

    @property
    def write_amplification(self) -> float:
        """Physical programs per host write (1.0 = no amplification)."""
        if self.host_writes == 0:
            return 1.0
        return self.programs / self.host_writes


class PageMappedFtl:
    """Greedy page-mapped FTL with foreground garbage collection.

    Placement policy: all programs go to a single *active* block filled
    sequentially; when it fills, the next block comes from the free pool.
    GC triggers when the free pool drops to the configured low watermark and
    greedily picks the victim with the fewest valid pages (never the active
    block).  Erase counts per block feed the wear/endurance experiment.
    """

    def __init__(self, config: FlashConfig) -> None:
        config.validate()
        self.config = config
        logical_blocks = config.total_pages // config.pages_per_block
        extra = int(logical_blocks * config.overprovision_ratio)
        self.n_blocks = logical_blocks + max(1, extra)
        self.pages_per_block = config.pages_per_block
        total_phys = self.n_blocks * self.pages_per_block
        self._l2p: dict[int, int] = {}
        self._p2l: list[int] = [_FREE] * total_phys
        self._valid_count: list[int] = [0] * self.n_blocks
        self.erase_counts: list[int] = [0] * self.n_blocks
        self._free_blocks: list[int] = list(range(self.n_blocks - 1, 0, -1))
        self._active_block: int = 0
        self._active_next_page: int = 0
        self.stats = FtlStats()

    # -- inspection -----------------------------------------------------------

    def physical_of(self, lpn: int) -> int | None:
        """Physical page currently mapped to ``lpn`` (None if unmapped)."""
        return self._l2p.get(lpn)

    def valid_pages_in(self, block: int) -> int:
        """Valid (live) physical pages in ``block``."""
        return self._valid_count[block]

    def wear_stats(self) -> tuple[int, int, float]:
        """``(min, max, mean)`` erase counts across blocks."""
        counts = self.erase_counts
        return min(counts), max(counts), sum(counts) / len(counts)

    # -- host operations --------------------------------------------------------

    def host_write(self, lpn: int) -> int:
        """Account one host page write; return internal cost in microseconds.

        Cost = one program, plus — if the write triggered foreground GC —
        the GC's relocation programs and block erase.
        """
        self.stats.host_writes += 1
        cost = 0
        old = self._l2p.get(lpn)
        if old is not None:
            self._invalidate(old)
        cost += self._program(lpn)
        cost += self._maybe_collect()
        return cost

    def host_read(self, lpn: int) -> int:
        """Account one host page read; return cost in microseconds."""
        return self.config.read_latency_usec

    def host_trim(self, lpn: int) -> None:
        """Drop the mapping for ``lpn`` — the page is dead to the host.

        Trimmed pages cost nothing now and make future GC cheaper, which is
        how the database-driven space reclamation of the paper transfers
        control over erase behaviour to the DBMS.
        """
        self.stats.trims += 1
        old = self._l2p.pop(lpn, None)
        if old is not None:
            self._invalidate(old)

    # -- internals ----------------------------------------------------------------

    def _invalidate(self, ppn: int) -> None:
        block = ppn // self.pages_per_block
        if self._p2l[ppn] == _INVALID:
            return
        self._p2l[ppn] = _INVALID
        self._valid_count[block] -= 1

    def _program(self, lpn: int) -> int:
        """Program ``lpn`` into the active block; return program cost."""
        if self._active_next_page >= self.pages_per_block:
            self._advance_active_block()
        ppn = (self._active_block * self.pages_per_block
               + self._active_next_page)
        self._active_next_page += 1
        self._p2l[ppn] = lpn
        self._l2p[lpn] = ppn
        self._valid_count[self._active_block] += 1
        self.stats.programs += 1
        return self.config.program_latency_usec

    def _advance_active_block(self) -> None:
        if not self._free_blocks:
            raise OutOfSpaceError(
                "FTL has no free blocks left (device over-full; GC starved)")
        self._active_block = self._free_blocks.pop()
        self._active_next_page = 0

    def _maybe_collect(self) -> int:
        """Run foreground GC while the free pool is at the low watermark."""
        cost = 0
        while len(self._free_blocks) < self.config.gc_free_block_low_watermark:
            cost += self._collect_once()
        return cost

    def _collect_once(self) -> int:
        victim = self._pick_victim()
        if victim is None:
            raise OutOfSpaceError(
                "FTL GC found no victim block (all space is live data)")
        cost = 0
        self.stats.gc_runs += 1
        base = victim * self.pages_per_block
        for offset in range(self.pages_per_block):
            lpn = self._p2l[base + offset]
            if lpn >= 0:  # still valid: relocate
                self._invalidate(base + offset)
                cost += self._program(lpn)
                self.stats.gc_relocated += 1
        cost += self._erase(victim)
        return cost

    def _pick_victim(self) -> int | None:
        """Greedy: the non-active, non-free block with fewest valid pages.

        Returns None only if no block can yield space (every page of every
        candidate is valid) — the device is genuinely full.
        """
        free = set(self._free_blocks)
        best: int | None = None
        best_valid = self.pages_per_block + 1
        for block in range(self.n_blocks):
            if block == self._active_block or block in free:
                continue
            valid = self._valid_count[block]
            if valid < best_valid:
                best, best_valid = block, valid
        if best is None or best_valid >= self.pages_per_block:
            return None
        return best

    def _erase(self, block: int) -> int:
        self.erase_counts[block] += 1
        if self.erase_counts[block] > self.config.erase_endurance:
            raise WornOutError(
                f"flash block {block} exceeded endurance "
                f"({self.config.erase_endurance} erases)")
        base = block * self.pages_per_block
        for offset in range(self.pages_per_block):
            self._p2l[base + offset] = _FREE
        self._valid_count[block] = 0
        self._free_blocks.insert(0, block)
        self.stats.erases += 1
        return self.config.erase_latency_usec
