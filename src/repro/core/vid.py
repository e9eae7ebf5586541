"""Virtual ID allocation.

Every data item of a relation receives a *virtual ID* at insertion: a
monotonically increasing positive number shared by all of the item's tuple
versions.  Sequential assignment is what makes the VIDmap a dense vector —
bucket and slot positions are pure arithmetic — and enables page-wise
(bulk) allocation for loads.
"""

from __future__ import annotations

import threading


class VidAllocator:
    """Hands out sequential VIDs, with bulk reservation for loading.

    Thread-safe: allocation is read-modify-write, so concurrent inserters
    serialise on a mutex — two workers can never receive the same VID.
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"VIDs start at 0, got {start}")
        self._next = start
        self._mu = threading.Lock()

    def allocate(self) -> int:
        """Return a fresh VID."""
        with self._mu:
            vid = self._next
            self._next += 1
            return vid

    def allocate_block(self, count: int) -> range:
        """Reserve ``count`` consecutive VIDs (bulk-load path)."""
        if count < 1:
            raise ValueError(f"block size must be >= 1, got {count}")
        with self._mu:
            block = range(self._next, self._next + count)
            self._next += count
            return block

    def reserve_through(self, vid: int) -> None:
        """Raise the high-water mark past ``vid`` (redo of a logged VID)."""
        with self._mu:
            self._next = max(self._next, vid + 1)

    @property
    def high_water(self) -> int:
        """One past the largest VID handed out so far."""
        return self._next
