"""Buffer manager: clock-sweep page cache over a tablespace.

Both engines run on the same buffer manager, so every performance delta in
the experiments comes from the storage *algorithm*, not from cache tuning.
Frames hold deserialised :class:`~repro.pages.base.Page` objects; dirty
frames are written back on eviction, by the background writer, or at
checkpoints.  The eviction policy is the clock-sweep second-chance algorithm
PostgreSQL uses.

A note on the paper's "simplified buffer management" claim: SIAS-V pages are
immutable once flushed, so the buffer never needs to write back a SIAS-V data
page a second time — only the baseline's heap pages cycle through the dirty
state repeatedly.  This falls out naturally here: the SIAS-V engine inserts
sealed append pages as *clean* frames via :meth:`BufferManager.put_clean`.

Hot-path engineering (all behaviour-preserving):

* **O(1) clock sweep** — frames carry intrusive prev/next links forming a
  circular sweep order; install, drop and eviction are pointer splices
  instead of list shifts, and stale keys never linger in the order.
* **O(1) dirty bookkeeping** — an incrementally maintained dirty set
  replaces the full-pool scan the background writer and checkpointer used
  to pay per tick.
* **Sealed-page byte cache** — clean frames remember their encoded page
  image (the bytes read from, or just written to, the device).  Because
  sealed SIAS-V pages and persisted VIDmap buckets never change, their
  ``to_bytes`` on writeback is free; the cache is invalidated the moment a
  frame is dirtied.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.common.errors import NoFreeFrameError, PinError
from repro.pages.base import Page
from repro.storage.tablespace import Tablespace

#: Buffer key: (file_id, page_no).
PageKey = tuple[int, int]


@dataclass
class BufferStats:
    """Cache effectiveness and writeback counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits per lookup (1.0 when everything was cached)."""
        total = self.hits + self.misses
        return 1.0 if total == 0 else self.hits / total


@dataclass
class _Frame:
    #: None while the frame is a *placeholder* — installed by the thread
    #: that took the miss, holding ``latch`` for the duration of the read.
    page: Page | None
    dirty: bool = False
    pins: int = 0
    referenced: bool = True
    #: encoded page image while the frame is clean (None once dirtied)
    raw: bytes | None = None
    #: intrusive circular clock links (keys of the sweep-order neighbours)
    key: PageKey = field(default=(0, 0))
    prev: PageKey = field(default=(0, 0))
    next: PageKey = field(default=(0, 0))
    #: frame latch, held across the miss I/O; a second thread faulting the
    #: same page blocks here instead of issuing a duplicate device read
    latch: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)


class BufferManager:
    """Fixed-capacity page cache with clock-sweep eviction.

    Thread-safe: one pool mutex guards the frame table, clock order and
    dirty set; it is held for bookkeeping and eviction writeback but
    **not** across miss I/O.  A miss installs an io-pinned *placeholder*
    frame whose per-frame latch is held while the device read runs, so two
    workers faulting *different* pages read concurrently, while a worker
    faulting the *same* page blocks on the frame latch instead of issuing
    a duplicate read.  The clock sweep is pin-count-aware: placeholders
    are io-pinned and therefore never evicted mid-load.

    The *hit* path takes no lock at all: a frame lookup is one GIL-atomic
    dict read, and the page it returns stays valid even if the sweep
    evicts the frame concurrently (eviction writes dirty pages back but
    never mutates the page object).  The referenced-bit store and the hit
    counter are benign races — the former only biases the sweep, the
    latter is monitoring.
    """

    def __init__(self, tablespace: Tablespace, pool_pages: int) -> None:
        if pool_pages < 1:
            raise NoFreeFrameError(f"pool needs frames, got {pool_pages}")
        self.tablespace = tablespace
        self.pool_pages = pool_pages
        self._frames: dict[PageKey, _Frame] = {}
        #: clock hand: key of the next frame the sweep will examine
        self._hand: PageKey | None = None
        #: incrementally maintained dirty set (insertion-ordered)
        self._dirty: dict[PageKey, None] = {}
        self.stats = BufferStats()
        # Plain (non-reentrant) mutex: no locked method calls another
        # locked method, and a plain Lock's fast path is cheaper on the
        # install/evict/flush paths that do take it.
        self._mu = threading.Lock()

    # -- lookups -----------------------------------------------------------------

    def get_page(self, file_id: int, page_no: int) -> Page:
        """Return the page, reading it from the device on a miss."""
        key = (file_id, page_no)
        # Lock-free hit: one dict read plus a `page is not None` check.
        # An in-flight placeholder (page still None) and a miss both fall
        # through to the locked slow path, which re-checks under the mutex.
        frame = self._frames.get(key)
        if frame is not None:
            page = frame.page
            if page is not None:
                frame.referenced = True
                self.stats.hits += 1
                return page
        while True:
            with self._mu:
                frame = self._frames.get(key)
                if frame is not None and frame.page is not None:
                    self.stats.hits += 1
                    frame.referenced = True
                    return frame.page
                if frame is None:
                    self.stats.misses += 1
                    placeholder = self._install_placeholder(key)
                    break
            # another thread is mid-read on this page: block on its frame
            # latch until the read completes, then retry the lookup
            with frame.latch:
                pass
        try:
            lba = self.tablespace.lba_of(file_id, page_no)
            # read via the tablespace: transient device faults get a
            # bounded retry before the miss fails
            raw = self.tablespace.read_page(lba)
            page = Page.from_bytes(raw)
        except BaseException:
            self._abandon_placeholder(key, placeholder)
            raise
        self._publish_placeholder(key, placeholder, page, raw)
        return page

    def get_page_pinned(self, file_id: int, page_no: int) -> Page:
        """Return the page with an eviction pin held; caller must unpin.

        This is the get-for-write path: a caller about to mutate a page
        object and ``mark_dirty`` it must hold a pin for the duration,
        otherwise a concurrent miss can evict the (clean) frame between
        the lock-free lookup and the dirtying — the mutation would land
        on an orphaned page object (lost if the page is re-faulted, or a
        spurious :class:`PinError` if it is not).  The pin is taken under
        the pool mutex only after re-checking that the frame still holds
        the very object the lookup returned; an eviction that slips in
        between simply costs one more fault-and-retry.
        """
        key = (file_id, page_no)
        while True:
            page = self.get_page(file_id, page_no)
            with self._mu:
                frame = self._frames.get(key)
                if frame is not None and frame.page is page:
                    frame.pins += 1
                    return page
            # evicted between the lookup and the pin: fault it back in

    def get_pages(self, file_id: int, page_nos: list[int]) -> list[Page]:
        """Batched lookup: misses are fetched with one parallel device batch.

        This is the read path the paper calls "parallelisable, complementing
        the parallelism of the Flash storage" — the VIDmap-mediated scan
        fetches many independent pages at once.
        """
        # Lock-free fast path: every page resident and published.  A miss
        # or in-flight placeholder abandons it for the locked path below
        # (hits are only counted here on full success, so nothing is
        # double-counted when we fall through).
        frames = self._frames
        pages: dict[int, Page] = {}
        for page_no in page_nos:
            if page_no in pages:
                continue
            frame = frames.get((file_id, page_no))
            if frame is None:
                break
            page = frame.page
            if page is None:
                break
            frame.referenced = True
            pages[page_no] = page
        else:
            self.stats.hits += len(pages)
            return [pages[p] for p in page_nos]
        result: dict[int, Page] = {}
        missing: list[int] = []
        in_flight: list[_Frame] = []
        #: installed but not yet published: exactly what a failure abandons
        placeholders: dict[int, _Frame] = {}
        try:
            with self._mu:
                for page_no in page_nos:
                    if page_no in result or page_no in missing:
                        continue
                    frame = self._frames.get((file_id, page_no))
                    if frame is not None and frame.page is not None:
                        self.stats.hits += 1
                        frame.referenced = True
                        result[page_no] = frame.page
                    elif frame is not None:
                        in_flight.append(frame)
                    else:
                        missing.append(page_no)
                if missing:
                    self.stats.misses += len(missing)
                    for page_no in missing:
                        placeholders[page_no] = self._install_placeholder(
                            (file_id, page_no))
            if missing:
                lbas = [self.tablespace.lba_of(file_id, p) for p in missing]
                raws = self.tablespace.read_pages(lbas)
                for page_no, raw in zip(missing, raws):
                    page = Page.from_bytes(raw)
                    self._publish_placeholder((file_id, page_no),
                                              placeholders.pop(page_no),
                                              page, raw)
                    result[page_no] = page
        except BaseException:
            # the pool mutex is released by now (the ``with`` exited), so
            # a frame-exhausted install mid-batch or a bad page image
            # mid-publish unwinds every placeholder still io-pinned
            for page_no, placeholder in placeholders.items():
                self._abandon_placeholder((file_id, page_no), placeholder)
            raise
        for frame in in_flight:
            with frame.latch:
                pass
        # pages that were in flight are resolved via the ordinary path
        return [result[p] if p in result else self.get_page(file_id, p)
                for p in page_nos]

    def _install_placeholder(self, key: PageKey) -> _Frame:
        """Reserve a frame for a page being read (pool mutex held).

        The placeholder is io-pinned (the sweep skips it) and its latch is
        pre-acquired so same-page faulters block until the read publishes.
        """
        placeholder = _Frame(page=None, dirty=False, pins=1)
        placeholder.latch.acquire()
        try:
            self._install(key, placeholder)
        except BaseException:
            placeholder.latch.release()
            raise
        return placeholder

    def _publish_placeholder(self, key: PageKey, placeholder: _Frame,
                             page: Page, raw: bytes) -> None:
        """Fill a placeholder with the page just read and wake waiters."""
        with self._mu:
            placeholder.page = page
            placeholder.raw = raw
            placeholder.referenced = True
            placeholder.pins -= 1
        placeholder.latch.release()

    def _abandon_placeholder(self, key: PageKey, placeholder: _Frame) -> None:
        """Undo a failed miss: drop the placeholder and wake waiters."""
        with self._mu:
            if self._frames.get(key) is placeholder:
                del self._frames[key]
                self._unlink(placeholder)
        placeholder.latch.release()

    # -- insertion of fresh pages ----------------------------------------------------

    def put_dirty(self, file_id: int, page_no: int, page: Page,
                  pinned: bool = False) -> None:
        """Register a freshly created mutable page (baseline heap extends).

        With ``pinned=True`` the frame is installed already holding one
        pin, so the caller can keep mutating the page object without an
        eviction window between install and pin (caller must unpin).
        """
        with self._mu:
            self.tablespace.ensure_page(file_id, page_no)
            self._install((file_id, page_no),
                          _Frame(page=page, dirty=True,
                                 pins=1 if pinned else 0))

    def put_clean(self, file_id: int, page_no: int, page: Page,
                  raw: bytes | None = None) -> None:
        """Cache a page that is already persistent (sealed append pages).

        ``raw`` optionally carries the encoded image the caller just wrote
        to the device, seeding the byte cache so the frame never re-encodes.
        """
        with self._mu:
            self.tablespace.ensure_page(file_id, page_no)
            self._install((file_id, page_no),
                          _Frame(page=page, dirty=False, raw=raw))

    # -- state transitions ---------------------------------------------------------------

    def _frame(self, key: PageKey) -> _Frame:
        try:
            return self._frames[key]
        except KeyError:
            raise PinError(f"page {key} is not resident in the pool") from None

    def mark_dirty(self, file_id: int, page_no: int) -> None:
        """Flag a cached page as modified (drops its cached byte image)."""
        key = (file_id, page_no)
        with self._mu:
            frame = self._frame(key)
            frame.dirty = True
            frame.raw = None
            self._dirty[key] = None

    def pin(self, file_id: int, page_no: int) -> None:
        """Protect a frame from eviction while a caller works on it."""
        with self._mu:
            self._frame((file_id, page_no)).pins += 1

    def unpin(self, file_id: int, page_no: int) -> None:
        """Release a pin."""
        with self._mu:
            frame = self._frame((file_id, page_no))
            if frame.pins <= 0:
                raise PinError(f"unpin without pin on {(file_id, page_no)}")
            frame.pins -= 1

    def is_cached(self, file_id: int, page_no: int) -> bool:
        """Whether the page currently resides in the pool."""
        return (file_id, page_no) in self._frames

    def is_dirty(self, file_id: int, page_no: int) -> bool:
        """Whether the cached page has unwritten modifications."""
        return self._frame((file_id, page_no)).dirty

    def cached_bytes(self, file_id: int, page_no: int) -> bytes | None:
        """Encoded image of a clean resident page, if the cache holds one."""
        frame = self._frames.get((file_id, page_no))
        if frame is None:
            return None
        return frame.raw

    def dirty_keys(self) -> list[PageKey]:
        """Keys of all dirty frames (bgwriter / checkpoint input) — O(dirty)."""
        with self._mu:
            return list(self._dirty)

    def drop(self, file_id: int, page_no: int) -> None:
        """Discard a frame without writeback (GC'd / truncated pages)."""
        key = (file_id, page_no)
        with self._mu:
            frame = self._frames.pop(key, None)
            if frame is not None:
                self._unlink(frame)
                self._dirty.pop(key, None)

    def invalidate_all(self) -> None:
        """Empty the pool without writeback (cold-cache experiments)."""
        with self._mu:
            self._frames.clear()
            self._dirty.clear()
            self._hand = None

    # -- writeback ----------------------------------------------------------------------------

    def flush_page(self, file_id: int, page_no: int) -> bool:
        """Write one dirty page back; returns True if a write happened."""
        key = (file_id, page_no)
        with self._mu:
            frame = self._frames.get(key)
            if frame is None or not frame.dirty:
                return False
            self._writeback(key, frame)
            return True

    def flush_batch(self, keys: list[PageKey]) -> int:
        """Write a set of dirty pages asynchronously (background flush).

        Background writers and checkpoints run off the transaction path:
        the writes occupy device channels (later reads queue behind them)
        but the caller does not wait.  Only the *eviction* writeback —
        a foreground backend needing a frame right now — is synchronous.
        """
        flushed = 0
        with self._mu:
            for key in keys:
                frame = self._frames.get(key)
                if frame is None or not frame.dirty:
                    continue
                lba = self.tablespace.ensure_page(*key)
                data = frame.page.to_bytes()
                self.tablespace.device.write_page_async(lba, data)
                frame.dirty = False
                frame.raw = data
                self._dirty.pop(key, None)
                self.stats.writebacks += 1
                flushed += 1
        return flushed

    def flush_all(self) -> int:
        """Checkpoint: write back every dirty frame."""
        return self.flush_batch(self.dirty_keys())

    def _writeback(self, key: PageKey, frame: _Frame) -> None:
        lba = self.tablespace.ensure_page(*key)
        data = frame.raw if frame.raw is not None else frame.page.to_bytes()
        self.tablespace.device.write_page(lba, data)
        frame.dirty = False
        frame.raw = data
        self._dirty.pop(key, None)
        self.stats.writebacks += 1

    # -- clock-sweep internals -----------------------------------------------------------------

    def _install(self, key: PageKey, frame: _Frame) -> None:
        existing = self._frames.get(key)
        if existing is not None:
            if existing.pins > 0:
                raise PinError(
                    f"page {key} is pinned; cannot replace its frame")
            # Keep the clock position of the replaced frame, and never
            # silently lose modifications: a dirty frame replaced by a
            # clean one stays dirty until the new content is flushed.
            frame.key = key
            frame.prev = existing.prev
            frame.next = existing.next
            if existing.dirty and not frame.dirty:
                frame.dirty = True
                frame.raw = None
            self._frames[key] = frame
            if frame.dirty:
                self._dirty[key] = None
            self._relink(frame)
            return
        if len(self._frames) >= self.pool_pages:
            self._evict_one()
        self._frames[key] = frame
        frame.key = key
        self._append_to_clock(frame)
        if frame.dirty:
            self._dirty[key] = None

    def _append_to_clock(self, frame: _Frame) -> None:
        """Insert the frame at the tail of the sweep order (before the hand)."""
        if self._hand is None:
            frame.prev = frame.next = frame.key
            self._hand = frame.key
            return
        hand = self._frames[self._hand]
        tail = self._frames[hand.prev]
        frame.prev = tail.key
        frame.next = hand.key
        tail.next = frame.key
        hand.prev = frame.key

    def _relink(self, frame: _Frame) -> None:
        """Point the neighbours (and self-loops) at the replacing frame."""
        self._frames[frame.prev].next = frame.key
        self._frames[frame.next].prev = frame.key

    def _unlink(self, frame: _Frame) -> None:
        """Splice a frame out of the sweep order (frame already popped)."""
        if frame.next == frame.key:  # last frame in the pool
            self._hand = None
            return
        prev = self._frames[frame.prev]
        nxt = self._frames[frame.next]
        prev.next = nxt.key
        nxt.prev = prev.key
        if self._hand == frame.key:
            self._hand = nxt.key

    def _evict_one(self) -> None:
        swept = 0
        limit = 2 * len(self._frames) + 1
        while swept < limit:
            assert self._hand is not None
            frame = self._frames[self._hand]
            if frame.pins > 0:
                self._hand = frame.next
                swept += 1
                continue
            if frame.referenced:
                frame.referenced = False
                self._hand = frame.next
                swept += 1
                continue
            if frame.dirty:
                self._writeback(frame.key, frame)
            del self._frames[frame.key]
            self._unlink(frame)
            self.stats.evictions += 1
            return
        raise NoFreeFrameError(
            "all buffer frames are pinned; cannot evict")
