"""Slotted heap page — the classical SI baseline's storage unit.

A PostgreSQL-style page: a slot directory grows from the front, tuple bodies
from the back.  Crucially for the paper's argument, the page is **mutable in
place**: :meth:`SlottedHeapPage.set_xmax` overwrites a live tuple's
invalidation timestamp — a 32/64-bit change that nevertheless dirties the
whole 8 KiB page and forces a full page program (plus eventual erase) on
flash.
"""

from __future__ import annotations

import struct

from repro.common import units
from repro.common.errors import PageFullError, SlotError
from repro.pages.base import Page, PageKind
from repro.pages.layout import HeapTuple

_SLOT = struct.Struct("<H")  # per-slot: offset into the payload (0 = dead)
_COUNT = struct.Struct("<H")


class SlottedHeapPage(Page):
    """Mutable slotted page holding :class:`HeapTuple` records."""

    kind = PageKind.HEAP

    def __init__(self, page_no: int,
                 page_size: int = units.DB_PAGE_SIZE) -> None:
        super().__init__(page_no, page_size)
        self._tuples: list[HeapTuple | None] = []

    # -- space accounting --------------------------------------------------------

    def live_slots(self) -> list[int]:
        """Slot numbers that still hold a tuple."""
        return [i for i, t in enumerate(self._tuples) if t is not None]

    @property
    def used_bytes(self) -> int:
        """Payload bytes consumed by directory + live tuple bodies."""
        body = sum(t.size for t in self._tuples if t is not None)
        return _COUNT.size + _SLOT.size * len(self._tuples) + body

    def free_bytes(self) -> int:
        """Payload bytes still available for one more insert."""
        return self.capacity - self.used_bytes

    def fits(self, tuple_: HeapTuple) -> bool:
        """Whether one more tuple (plus its slot) fits."""
        return tuple_.size + _SLOT.size <= self.free_bytes()

    def fits_bytes(self, nbytes: int) -> bool:
        """Whether ``nbytes`` of combined slot+body space is available."""
        return nbytes <= self.free_bytes()

    # -- mutation ------------------------------------------------------------------

    def insert(self, tuple_: HeapTuple) -> int:
        """Insert a tuple; returns its slot number."""
        if not self.fits(tuple_):
            raise PageFullError(
                f"heap page {self.page_no}: no room for {tuple_.size} B")
        self._tuples.append(tuple_)
        return len(self._tuples) - 1

    def read(self, slot: int) -> HeapTuple:
        """Return the tuple in ``slot`` (raises on dead/invalid slots)."""
        tuple_ = self._slot(slot)
        if tuple_ is None:
            raise SlotError(f"heap page {self.page_no}: slot {slot} is dead")
        return tuple_

    def set_xmax(self, slot: int, xmax: int) -> None:
        """In-place invalidation: overwrite the tuple's xmax.

        This is the exact operation SIAS-V eliminates — a tiny in-place
        update that dirties the whole page.
        """
        self._tuples[self._check(slot)] = self.read(slot).with_xmax(xmax)

    def kill(self, slot: int) -> None:
        """Remove a dead tuple's body (VACUUM); the slot stays as a stub."""
        self._check(slot)
        if self._tuples[slot] is None:
            raise SlotError(
                f"heap page {self.page_no}: slot {slot} already dead")
        self._tuples[slot] = None

    # -- helpers --------------------------------------------------------------------

    def _check(self, slot: int) -> int:
        if not 0 <= slot < len(self._tuples):
            raise SlotError(
                f"heap page {self.page_no}: slot {slot} out of range "
                f"[0, {len(self._tuples)})")
        return slot

    def _slot(self, slot: int) -> HeapTuple | None:
        return self._tuples[self._check(slot)]

    def tuples(self) -> list[tuple[int, HeapTuple]]:
        """All live ``(slot, tuple)`` pairs in slot order."""
        return [(i, t) for i, t in enumerate(self._tuples) if t is not None]

    # -- serialisation ----------------------------------------------------------------

    def payload_bytes(self) -> bytes:
        out = [_COUNT.pack(len(self._tuples))]
        bodies: list[bytes] = []
        offset = _COUNT.size + _SLOT.size * len(self._tuples)
        for tuple_ in self._tuples:
            if tuple_ is None:
                out.append(_SLOT.pack(0))
            else:
                body = tuple_.pack()
                out.append(_SLOT.pack(offset))
                bodies.append(body)
                offset += len(body)
        out.extend(bodies)
        return b"".join(out)

    @classmethod
    def from_payload(cls, page_no: int, payload: bytes,
                     page_size: int) -> "SlottedHeapPage":
        page = cls(page_no, page_size)
        (count,) = _COUNT.unpack_from(payload, 0)
        for i in range(count):
            (offset,) = _SLOT.unpack_from(payload, _COUNT.size + i * _SLOT.size)
            if offset == 0:
                page._tuples.append(None)
            else:
                tuple_, _end = HeapTuple.unpack(payload, offset)
                page._tuples.append(tuple_)
        return page
