"""The VIDmap: VID → entrypoint-TID mapping vector.

One VIDmap exists per relation and serves **all** access paths (scans and
every index).  It is the hashtable variant of the paper's Section on data
structures: page-sized buckets of fixed slot count, bucket number =
``VID // slots_per_bucket``, slot = ``VID % slots_per_bucket`` — exact-match
lookups in O(1), no overflow buckets (each VID has exactly one TID record),
VID-range queries walk buckets sequentially.

Following the prototype ("the SIAS data structures are only persisted during
shutdown; all information required for reconstruction is stored on each
tuple version"), the VIDmap lives in memory during normal operation — its
updates cost **no device I/O**, which is precisely why moving the entrypoint
pointer on every update is cheap.  :meth:`VidMap.persist` writes the buckets
through a tablespace file at shutdown and :meth:`VidMap.load` restores them;
crash recovery instead rebuilds the map from the append pages (see
``SiasVEngine.reconstruct_vidmap``).
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.buffer.manager import BufferManager
from repro.common import units
from repro.common.errors import NoSuchItemError
from repro.pages.layout import Tid
from repro.pages.vidmap_page import VidMapPage


class VidMap:
    """In-memory bucketed vector of entrypoint TIDs."""

    def __init__(self, slots_per_bucket: int = 1024,
                 page_size: int = units.DB_PAGE_SIZE) -> None:
        self.slots_per_bucket = slots_per_bucket
        self.page_size = page_size
        self._buckets: list[VidMapPage] = []
        self.lookups = 0
        self.updates = 0
        # Growth-only mutex: appending new buckets is check-then-append and
        # must not race (two workers would misnumber buckets).  Slot get/set
        # on existing buckets stays lock-free — single list/array element
        # reads and writes are atomic under the GIL, and per-item stripe
        # latches in the engine already serialise same-VID writers.
        self._grow_mu = threading.Lock()

    # -- position arithmetic (the paper's DIFF / MOD operations) ----------------

    def bucket_of(self, vid: int) -> int:
        """``BucketNr = VID // slots_per_bucket``."""
        return vid // self.slots_per_bucket

    def slot_of(self, vid: int) -> int:
        """``TID_pos = VID mod slots_per_bucket``."""
        return vid % self.slots_per_bucket

    # -- access -------------------------------------------------------------------

    def get(self, vid: int) -> Tid | None:
        """Entrypoint TID of ``vid`` (None for never-set or cleared slots)."""
        if vid < 0:
            raise NoSuchItemError(f"negative VID {vid}")
        self.lookups += 1
        bucket = self.bucket_of(vid)
        if bucket >= len(self._buckets):
            return None
        return self._buckets[bucket].get(self.slot_of(vid))

    def set(self, vid: int, tid: Tid | None) -> None:
        """Move the entrypoint of ``vid`` (allocating buckets on demand).

        A new bucket is allocated after each ``slots_per_bucket`` consecutive
        VIDs; since VIDs are assigned sequentially the buckets fill in order.
        """
        if vid < 0:
            raise NoSuchItemError(f"negative VID {vid}")
        self.updates += 1
        bucket = self.bucket_of(vid)
        if bucket >= len(self._buckets):
            with self._grow_mu:
                while bucket >= len(self._buckets):
                    self._buckets.append(
                        VidMapPage(len(self._buckets), self.slots_per_bucket,
                                   self.page_size))
        self._buckets[bucket].set(self.slot_of(vid), tid)

    def entries(self) -> Iterator[tuple[int, Tid]]:
        """All ``(vid, entrypoint)`` pairs in VID order — the scan path.

        Walks each bucket's occupied slots in one batched pass
        (:meth:`VidMapPage.items`) rather than probing every slot through
        the bounds-checked ``get``.
        """
        for bucket_no, bucket in enumerate(self._buckets):
            base = bucket_no * self.slots_per_bucket
            for slot, tid in bucket.items():
                yield base + slot, tid

    def entry_batches(self, start: int,
                      size: int) -> Iterator[list[tuple[int, Tid]]]:
        """``(vid, entrypoint)`` pairs with ``vid >= start`` in lists of up
        to ``size`` — the vectorized scan's feed.  Each bucket contributes
        one batched comprehension instead of a per-slot generator resume.
        """
        start = max(0, start)
        batch: list[tuple[int, Tid]] = []
        for bucket_no in range(self.bucket_of(start), len(self._buckets)):
            bucket = self._buckets[bucket_no]
            base = bucket_no * self.slots_per_bucket
            first = start - base
            if first > 0:
                batch.extend([(base + slot, tid)
                              for slot, tid in bucket.items()
                              if slot >= first])
            else:
                batch.extend([(base + slot, tid)
                              for slot, tid in bucket.items()])
            while len(batch) >= size:
                yield batch[:size]
                batch = batch[size:]
        if batch:
            yield batch

    def vid_range(self, lo: int, hi: int) -> Iterator[tuple[int, Tid]]:
        """``(vid, entrypoint)`` pairs with lo ≤ vid < hi (range query)."""
        for vid in range(max(0, lo), hi):
            tid = self.get(vid)
            if tid is not None:
                yield vid, tid

    # -- size accounting -------------------------------------------------------------

    @property
    def bucket_count(self) -> int:
        """Number of allocated buckets."""
        return len(self._buckets)

    def memory_bytes(self) -> int:
        """Resident footprint modelled as bucket pages."""
        return len(self._buckets) * self.page_size

    def item_count(self) -> int:
        """Number of live (non-cleared) VID slots."""
        return sum(bucket.occupied() for bucket in self._buckets)

    # -- persistence (shutdown path) ----------------------------------------------------

    def persist(self, buffer: BufferManager, file_id: int) -> int:
        """Write every bucket to ``file_id`` pages; returns pages written."""
        for bucket in self._buckets:
            buffer.tablespace.ensure_page(file_id, bucket.page_no)
            buffer.put_dirty(file_id, bucket.page_no, bucket)
        return buffer.flush_batch(
            [(file_id, b.page_no) for b in self._buckets])

    @classmethod
    def load(cls, buffer: BufferManager, file_id: int, bucket_count: int,
             slots_per_bucket: int = 1024,
             page_size: int = units.DB_PAGE_SIZE) -> "VidMap":
        """Read ``bucket_count`` buckets back from a tablespace file."""
        vidmap = cls(slots_per_bucket, page_size)
        pages = buffer.get_pages(file_id, list(range(bucket_count)))
        for page in pages:
            if not isinstance(page, VidMapPage):
                raise NoSuchItemError(
                    f"page {page.page_no} in VIDmap file is {type(page)}")
            vidmap._buckets.append(page)
        return vidmap
