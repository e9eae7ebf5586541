"""Unit tests for the buffer manager, background writer and checkpointer."""

from __future__ import annotations

import pytest

from repro.buffer.background_writer import BackgroundWriter
from repro.buffer.checkpointer import Checkpointer
from repro.buffer.manager import BufferManager
from repro.common import units
from repro.common.config import PageLayout
from repro.common.errors import NoFreeFrameError, PinError
from repro.pages.append_page import AppendPage
from repro.pages.layout import HeapTuple, XMAX_INFINITY
from repro.pages.slotted import SlottedHeapPage


def _heap_page(page_no: int, tag: int = 0) -> SlottedHeapPage:
    page = SlottedHeapPage(page_no)
    page.insert(HeapTuple(tag, XMAX_INFINITY, False, b"x" * 16))
    return page


def _fill(buffer: BufferManager, file_id: int, count: int) -> None:
    for i in range(count):
        buffer.put_dirty(file_id, i, _heap_page(i, i))


class TestBufferManager:
    def test_miss_then_hit(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0))
        buffer.flush_all()
        buffer.invalidate_all()
        buffer.get_page(f, 0)
        assert buffer.stats.misses == 1
        buffer.get_page(f, 0)
        assert buffer.stats.hits == 1

    def test_read_returns_equal_content(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0, 42))
        buffer.flush_all()
        buffer.invalidate_all()
        page = buffer.get_page(f, 0)
        assert page.read(0).xmin == 42

    def test_eviction_writes_dirty_page_back(self, buffer, tablespace):
        f = tablespace.create_file("f")
        _fill(buffer, f, buffer.pool_pages + 10)
        assert buffer.stats.evictions >= 10
        assert buffer.stats.writebacks >= 10
        # every page's content must still be readable
        for i in range(buffer.pool_pages + 10):
            assert buffer.get_page(f, i).read(0).xmin == i

    def test_clean_eviction_no_writeback(self, buffer, tablespace):
        f = tablespace.create_file("f")
        _fill(buffer, f, buffer.pool_pages)
        buffer.flush_all()
        wb = buffer.stats.writebacks
        buffer.get_pages(f, list(range(buffer.pool_pages)))  # re-reference
        buffer.put_clean(f, buffer.pool_pages,
                         _heap_page(buffer.pool_pages))  # forces eviction
        assert buffer.stats.writebacks == wb  # victim was clean

    def test_pinned_pages_survive_eviction(self, buffer, tablespace):
        f = tablespace.create_file("f")
        pinned = buffer.pool_pages + 30
        buffer.put_dirty(f, pinned, _heap_page(pinned, 7))
        buffer.pin(f, pinned)
        _fill(buffer, f, buffer.pool_pages + 20)
        assert buffer.is_cached(f, pinned)
        buffer.unpin(f, pinned)

    def test_replacing_pinned_frame_raises(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0))
        buffer.pin(f, 0)
        with pytest.raises(PinError):
            buffer.put_dirty(f, 0, _heap_page(0, 9))
        buffer.unpin(f, 0)

    def test_all_pinned_raises(self, tablespace):
        buffer = BufferManager(tablespace, pool_pages=4)
        f = tablespace.create_file("f")
        for i in range(4):
            buffer.put_dirty(f, i, _heap_page(i))
            buffer.pin(f, i)
        with pytest.raises(NoFreeFrameError):
            buffer.put_dirty(f, 4, _heap_page(4))

    def test_unpin_without_pin_raises(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0))
        with pytest.raises(PinError):
            buffer.unpin(f, 0)

    def test_mark_dirty_noresident_raises(self, buffer, tablespace):
        f = tablespace.create_file("f")
        with pytest.raises(PinError):
            buffer.mark_dirty(f, 0)

    def test_flush_page_only_when_dirty(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0))
        assert buffer.flush_page(f, 0) is True
        assert buffer.flush_page(f, 0) is False

    def test_flush_all_clears_dirty_set(self, buffer, tablespace):
        f = tablespace.create_file("f")
        _fill(buffer, f, 10)
        assert len(buffer.dirty_keys()) == 10
        assert buffer.flush_all() == 10
        assert buffer.dirty_keys() == []

    def test_get_pages_batches_misses(self, buffer, tablespace, flash):
        f = tablespace.create_file("f")
        _fill(buffer, f, 32)
        buffer.flush_all()
        buffer.invalidate_all()
        # let the asynchronous flush drain so the channels are idle and
        # the timing below measures the reads alone
        flash.clock.advance(32 * 400)
        reads_before = flash.stats.reads
        t0 = flash.clock.now
        pages = buffer.get_pages(f, list(range(32)))
        elapsed = flash.clock.now - t0
        assert len(pages) == 32
        assert flash.stats.reads - reads_before == 32
        # parallel channels: far cheaper than 32 serial reads
        assert elapsed < 32 * 50

    def test_get_pages_dedupes(self, buffer, tablespace, flash):
        f = tablespace.create_file("f")
        _fill(buffer, f, 2)
        buffer.flush_all()
        buffer.invalidate_all()
        pages = buffer.get_pages(f, [0, 1, 0, 1, 0])
        assert len(pages) == 5
        assert flash.stats.reads == 2
        assert pages[0] is pages[2] is pages[4]

    def test_get_pages_batch_larger_than_pool_leaves_pool_usable(
            self, tablespace):
        """A batch that exhausts the frames mid-install must abandon the
        placeholders it already installed: none may stay io-pinned with
        its latch held, or the next fault on that page never returns."""
        f = tablespace.create_file("f")
        writer = BufferManager(tablespace, pool_pages=32)
        _fill(writer, f, 20)
        writer.flush_all()
        small = BufferManager(tablespace, pool_pages=8)
        with pytest.raises(NoFreeFrameError):
            small.get_pages(f, list(range(20)))
        assert small._frames == {}
        assert small.get_page(f, 0).read(0).xmin == 0
        assert [p.read(0).xmin for p in small.get_pages(f, [3, 4, 5])] \
            == [3, 4, 5]

    def test_drop_discards_without_write(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0))
        wb = buffer.stats.writebacks
        buffer.drop(f, 0)
        assert not buffer.is_cached(f, 0)
        assert buffer.stats.writebacks == wb

    def test_get_page_pinned_faults_on_miss(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0, 7))
        buffer.flush_all()
        buffer.invalidate_all()
        page = buffer.get_page_pinned(f, 0)
        assert page.read(0).xmin == 7
        buffer.unpin(f, 0)

    def test_get_page_pinned_survives_eviction_pressure(self, tablespace):
        buffer = BufferManager(tablespace, pool_pages=4)
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0, 7))
        buffer.flush_all()  # clean frames are the sweep's preferred victims
        page = buffer.get_page_pinned(f, 0)
        for i in range(1, 12):
            buffer.put_dirty(f, i, _heap_page(i, i))
        assert buffer.is_cached(f, 0)
        assert buffer.get_page(f, 0) is page  # same object, not a re-fault
        buffer.unpin(f, 0)

    def test_put_dirty_pinned_installs_with_pin_held(self, tablespace):
        buffer = BufferManager(tablespace, pool_pages=4)
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0, 7), pinned=True)
        for i in range(1, 12):
            buffer.put_dirty(f, i, _heap_page(i, i))
        assert buffer.is_cached(f, 0)
        buffer.unpin(f, 0)
        for i in range(12, 24):
            buffer.put_dirty(f, i, _heap_page(i, i))
        assert not buffer.is_cached(f, 0)  # unpinned frames evict normally

    def test_hit_ratio(self, buffer, tablespace):
        f = tablespace.create_file("f")
        buffer.put_dirty(f, 0, _heap_page(0))
        buffer.flush_all()
        buffer.invalidate_all()
        buffer.get_page(f, 0)
        buffer.get_page(f, 0)
        buffer.get_page(f, 0)
        assert buffer.stats.hit_ratio == pytest.approx(2 / 3)


class TestBackgroundWriter:
    def test_runs_on_interval(self, buffer, tablespace, clock):
        writer = BackgroundWriter(buffer, clock, interval_usec=1000,
                                  batch_pages=100)
        f = tablespace.create_file("f")
        _fill(buffer, f, 5)
        assert writer.maybe_run() == 0  # not due yet
        clock.advance(1000)
        assert writer.maybe_run() == 1
        assert buffer.dirty_keys() == []
        assert writer.pages_written == 5

    def test_catches_up_multiple_ticks(self, buffer, tablespace, clock):
        writer = BackgroundWriter(buffer, clock, interval_usec=100,
                                  batch_pages=10)
        clock.advance(550)
        assert writer.maybe_run() == 5

    def test_batch_limit(self, buffer, tablespace, clock):
        # the interval is large relative to device time so the flush's own
        # clock advancement cannot trigger a second (catch-up) tick
        writer = BackgroundWriter(buffer, clock, interval_usec=units.SEC,
                                  batch_pages=3)
        f = tablespace.create_file("f")
        _fill(buffer, f, 10)
        clock.advance(units.SEC)
        writer.maybe_run()
        assert len(buffer.dirty_keys()) == 7

    def test_subscribers_called_per_tick(self, buffer, clock):
        writer = BackgroundWriter(buffer, clock, interval_usec=100,
                                  batch_pages=10)
        calls = []
        writer.subscribe(lambda: calls.append(1))
        clock.advance(300)
        writer.maybe_run()
        assert len(calls) == 3

    def test_force_tick(self, buffer, tablespace, clock):
        writer = BackgroundWriter(buffer, clock, interval_usec=10_000,
                                  batch_pages=10)
        f = tablespace.create_file("f")
        _fill(buffer, f, 2)
        writer.force_tick()
        assert buffer.dirty_keys() == []


class TestCheckpointer:
    def test_flushes_everything(self, buffer, tablespace, clock):
        cp = Checkpointer(buffer, clock, interval_usec=units.SEC)
        f = tablespace.create_file("f")
        _fill(buffer, f, 12)
        clock.advance(units.SEC)
        assert cp.maybe_run() == 1
        assert buffer.dirty_keys() == []
        assert cp.pages_written == 12

    def test_not_due(self, buffer, clock):
        cp = Checkpointer(buffer, clock, interval_usec=units.SEC)
        assert cp.maybe_run() == 0

    def test_subscribers_before_flush(self, buffer, tablespace, clock):
        cp = Checkpointer(buffer, clock, interval_usec=units.SEC)
        f = tablespace.create_file("f")
        order = []
        cp.subscribe(lambda: (order.append("seal"),
                              buffer.put_dirty(f, 0, _heap_page(0))))
        cp.run_now()
        assert order == ["seal"]
        assert buffer.dirty_keys() == []  # the sealed page was flushed too

    def test_appendpage_roundtrips_through_writeback(self, buffer,
                                                     tablespace):
        from repro.pages.layout import VersionRecord
        f = tablespace.create_file("f")
        page = AppendPage(0, PageLayout.VECTOR)
        page.append(VersionRecord(1, 2, None, False, b"abc"))
        buffer.put_dirty(f, 0, page)
        buffer.flush_all()
        buffer.invalidate_all()
        back = buffer.get_page(f, 0)
        assert isinstance(back, AppendPage)
        assert back.read(0).payload == b"abc"
