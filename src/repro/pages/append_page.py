"""Append page — SIAS-V's storage unit, in NSM or column-vector layout.

An append page collects freshly created tuple versions in memory and is
written to the device **once**, when its fill threshold is reached (or a
checkpoint forces it out).  After that it is logically immutable: SIAS-V
never updates a flushed page in place; space is reclaimed only by whole-page
garbage collection.

Two physical layouts are supported (the "V" of SIAS-V):

* ``NSM`` — whole version records packed contiguously, like a row store.
* ``VECTOR`` — the records of the page decomposed into per-field column
  vectors (PAX-style mini-columns): one vector each for creation timestamps,
  VIDs, predecessor TIDs and flags, then a payload heap.  A visibility check
  over the page touches only the fixed-width metadata vectors —
  :meth:`AppendPage.meta_scan_bytes` quantifies the difference, which the
  layout-ablation experiment (A1) measures.

Both layouts hold identical logical content; ``read``/``read_meta`` are
layout-independent.

Decoding is **lazy and zero-copy**: :meth:`AppendPage.from_payload_kind`
keeps a ``memoryview`` over the sealed payload and decodes individual
records only when they are first read.  ``read_meta`` unpacks just the
fixed-width visibility fields in place, so a visibility-only chain walk
over a sealed page never materialises payload bytes.  Sealed pages are
immutable, so the view stays authoritative; an ``append`` to a decoded page
(never done by the engine, but allowed) materialises every record first.
"""

from __future__ import annotations

import struct

from repro.common import units
from repro.common.config import PageLayout
from repro.common.errors import PageCorruptError, PageFullError, SlotError
from repro.pages.base import Page, PageKind
from repro.pages.layout import (
    VERSION_HEADER_STRUCT,
    VERSION_HEADER_SIZE,
    FLAG_TOMBSTONE,
    Tid,
    VersionRecord,
    pack_tid,
)

_COUNT = struct.Struct("<H")
_META = struct.Struct("<qq6sB")  # create_ts, vid, pred, flags
_OFFSET = struct.Struct("<HH")   # payload offset, payload length
_PLEN = struct.Struct("<H")      # trailing payload-length header field

#: Per-record cost in the VECTOR layout's metadata vectors.
VECTOR_META_SIZE = _META.size + _OFFSET.size


class AppendPage(Page):
    """Append-only page of :class:`VersionRecord` entries."""

    def __init__(self, page_no: int, layout: PageLayout,
                 page_size: int = units.DB_PAGE_SIZE) -> None:
        super().__init__(page_no, page_size)
        self.layout = layout
        self._records: list[VersionRecord | None] = []
        self._used = _COUNT.size
        #: sealed payload bytes (zero-copy lazy decode); None for open pages
        self._view: memoryview | None = None
        #: NSM: record start offsets within the sealed payload (built lazily)
        self._nsm_offsets: list[int] | None = None
        #: VECTOR: precomputed vector base offsets
        self._offsets_base = 0
        self._heap_base = 0
        #: VECTOR: cached metadata columns / payload extents / tombstone
        #: bitmap (vectorized scan)
        self._meta_columns: tuple[list[int], list[int], list[bytes],
                                  list[int]] | None = None
        self._extents: list[tuple[int, int]] | None = None
        self._tomb_bitmap: int | None = None
        self._column_cache: dict[tuple[int, str], list] | None = None

    @property
    def kind(self) -> PageKind:  # type: ignore[override]
        """Serialisation discriminator depends on the layout."""
        if self.layout is PageLayout.NSM:
            return PageKind.APPEND_NSM
        return PageKind.APPEND_VECTOR

    # -- space accounting -----------------------------------------------------

    def _record_cost(self, record: VersionRecord) -> int:
        if self.layout is PageLayout.NSM:
            return record.size
        return VECTOR_META_SIZE + len(record.payload)

    @property
    def record_count(self) -> int:
        """Number of versions appended so far."""
        return len(self._records)

    @property
    def used_bytes(self) -> int:
        """Payload bytes consumed so far."""
        return self._used

    def free_bytes(self) -> int:
        """Payload bytes still available."""
        return self.capacity - self._used

    def fill_degree(self) -> float:
        """Fraction of the payload capacity in use (drives flush policy)."""
        return self._used / self.capacity

    def fits(self, record: VersionRecord) -> bool:
        """Whether ``record`` still fits on this page."""
        return self._record_cost(record) <= self.free_bytes()

    # -- append & read -----------------------------------------------------------

    def append(self, record: VersionRecord) -> int:
        """Append one version; returns its slot number."""
        if not self.fits(record):
            raise PageFullError(
                f"append page {self.page_no}: no room for "
                f"{self._record_cost(record)} B")
        if self._view is not None:
            # decoded sealed page diverges from its byte image: materialise
            # every record and drop the view before mutating
            self._materialise()
            self._view = None
            self._nsm_offsets = None
        self._meta_columns = None
        self._extents = None
        self._tomb_bitmap = None
        self._column_cache = None
        self._records.append(record)
        self._used += self._record_cost(record)
        return len(self._records) - 1

    def read(self, slot: int) -> VersionRecord:
        """Full version record in ``slot``."""
        record = self._records[self._check(slot)]
        if record is None:
            record = self._decode(slot)
            self._records[slot] = record
        return record

    def read_meta(self, slot: int) -> tuple[int, int, Tid | None, bool]:
        """Visibility metadata only: ``(create_ts, vid, pred, tombstone)``.

        In the VECTOR layout this models touching only the metadata vectors;
        on a lazily-decoded page the payload bytes are never materialised.
        """
        record = self._records[self._check(slot)]
        if record is not None:
            return record.create_ts, record.vid, record.pred, record.tombstone
        view = self._view
        assert view is not None
        if self.layout is PageLayout.VECTOR:
            create_ts, vid, pred_raw, flags = _META.unpack_from(
                view, _COUNT.size + slot * _META.size)
        else:
            create_ts, vid, pred_raw, flags, _plen = \
                VERSION_HEADER_STRUCT.unpack_from(view,
                                                  self._nsm_offset(slot))
        return (create_ts, vid, Tid.unpack(pred_raw),
                bool(flags & FLAG_TOMBSTONE))

    def records(self) -> list[tuple[int, VersionRecord]]:
        """All ``(slot, record)`` pairs in append order."""
        self._materialise()
        return list(enumerate(self._records))  # type: ignore[arg-type]

    def _check(self, slot: int) -> int:
        if not 0 <= slot < len(self._records):
            raise SlotError(
                f"append page {self.page_no}: slot {slot} out of range "
                f"[0, {len(self._records)})")
        return slot

    # -- vectorized (batched) access -----------------------------------------------

    def meta_columns(self) -> tuple[list[int], list[int], list[bytes],
                                    list[int]] | None:
        """Whole-page metadata vectors ``(create_ts, vid, pred_raw, flags)``.

        The entry point of the vectorized scan: one ``iter_unpack`` pass
        over the page's fixed-width mini-columns (cached until the next
        append) instead of one ``read_meta`` call per slot.  Works both on
        lazily-decoded pages (straight off the memoryview) and on sealed
        pages whose in-memory object was published with resident records.
        Returns None for NSM pages, which keep the tuple-at-a-time path.
        """
        if self.layout is not PageLayout.VECTOR:
            return None
        columns = self._meta_columns
        if columns is None:
            ts_vec: list[int] = []
            vid_vec: list[int] = []
            pred_vec: list[bytes] = []
            flag_vec: list[int] = []
            if self._view is not None:
                for create_ts, vid, pred_raw, flags in _META.iter_unpack(
                        self._view[_COUNT.size:self._offsets_base]):
                    ts_vec.append(create_ts)
                    vid_vec.append(vid)
                    pred_vec.append(pred_raw)
                    flag_vec.append(flags)
            else:
                for record in self._records:
                    assert record is not None
                    ts_vec.append(record.create_ts)
                    vid_vec.append(record.vid)
                    pred_vec.append(pack_tid(record.pred))
                    flag_vec.append(FLAG_TOMBSTONE if record.tombstone
                                    else 0)
            columns = (ts_vec, vid_vec, pred_vec, flag_vec)
            self._meta_columns = columns
        return columns

    def _payload_extents(self) -> list[tuple[int, int]]:
        """VECTOR payload ``(offset, length)`` pairs, batch-decoded once."""
        extents = self._extents
        if extents is None:
            view = self._view
            assert view is not None
            extents = list(_OFFSET.iter_unpack(
                view[self._offsets_base:self._heap_base]))
            self._extents = extents
        return extents

    def tombstone_bitmap(self) -> int:
        """Bitmap with bit ``i`` set iff slot ``i`` is a tombstone.

        VECTOR only (like :meth:`meta_columns`); cached until the next
        append.  Usually 0 — deletes are rare relative to page size.
        """
        bitmap = self._tomb_bitmap
        if bitmap is None:
            meta = self.meta_columns()
            assert meta is not None
            bitmap = 0
            for slot, flags in enumerate(meta[3]):
                if flags & FLAG_TOMBSTONE:
                    bitmap |= 1 << slot
            self._tomb_bitmap = bitmap
        return bitmap

    def probe_column(self, offset: int,
                     st: struct.Struct) -> list[object | None] | None:
        """One fixed-offset field of *every* slot's payload, as a vector.

        The per-page pass behind predicate pushdown: one tight loop over
        the cached payload extents, unpacking ``st`` at ``offset`` within
        each payload straight off the sealed view — or over the resident
        records' payload bytes on a seal-published page.  Entries are None
        where the payload is too short.  Returns None on NSM pages, which
        keep the per-slot probe/decode path.  Extracted columns are cached
        (keyed by offset and format) until the next append, so repeated
        scans of a sealed page pay the pass once.
        """
        if self.layout is not PageLayout.VECTOR:
            return None
        cache = self._column_cache
        if cache is None:
            cache = self._column_cache = {}
        key = (offset, st.format)
        column = cache.get(key)
        if column is not None:
            return column
        end = offset + st.size
        unpack_from = st.unpack_from
        view = self._view
        if view is None:
            # seal-published object: every record is resident (same
            # invariant as meta_columns)
            column = [unpack_from(record.payload, offset)[0]
                      if end <= len(record.payload) else None
                      for record in self._records]
        else:
            heap_base = self._heap_base
            column = [unpack_from(view, heap_base + poff + offset)[0]
                      if end <= plen else None
                      for poff, plen in self._payload_extents()]
        cache[key] = column
        return column

    def probe_payload(self, slot: int, offset: int,
                      st: struct.Struct) -> object | None:
        """One fixed-width field out of a slot's payload, undecoded.

        The predicate-pushdown probe: unpacks ``st`` at byte ``offset``
        within the payload, straight off the sealed view (or the resident
        record's payload bytes) — no :class:`VersionRecord` and no row
        decode.  Returns None when the payload is too short for the
        probe; the caller then falls back to a full row decode.
        """
        record = self._records[self._check(slot)]
        if record is not None:
            payload = record.payload
            if offset + st.size > len(payload):
                return None
            return st.unpack_from(payload, offset)[0]
        start, plen = self._payload_start(slot)
        if offset + st.size > plen:
            return None
        return st.unpack_from(self._view, start + offset)[0]

    def payload_slice(self, slot: int) -> bytes:
        """A slot's payload bytes without materialising its record."""
        record = self._records[self._check(slot)]
        if record is not None:
            return record.payload
        start, plen = self._payload_start(slot)
        view = self._view
        assert view is not None
        return bytes(view[start:start + plen])

    def _payload_start(self, slot: int) -> tuple[int, int]:
        """(absolute payload start, payload length) on a lazy page."""
        view = self._view
        assert view is not None
        if self.layout is PageLayout.NSM:
            start = self._nsm_offset(slot) + VERSION_HEADER_SIZE
            (plen,) = _PLEN.unpack_from(view, start - _PLEN.size)
        else:
            poff, plen = self._payload_extents()[slot]
            start = self._heap_base + poff
        if start + plen > len(view):
            raise PageCorruptError(
                f"append page {self.page_no}: payload slice out of bounds")
        return start, plen

    # -- lazy decode internals ------------------------------------------------------

    def _init_sealed(self, view: memoryview, count: int) -> None:
        """Adopt a sealed payload for lazy decoding (from_payload_kind)."""
        self._view = view
        self._records = [None] * count
        self._used = len(view)  # payload length == used bytes, both layouts
        if self.layout is PageLayout.VECTOR:
            self._offsets_base = _COUNT.size + _META.size * count
            self._heap_base = self._offsets_base + _OFFSET.size * count
            if self._heap_base > len(view):
                raise PageCorruptError(
                    f"append page {self.page_no}: metadata vectors extend "
                    "past payload end")

    def _decode(self, slot: int) -> VersionRecord:
        view = self._view
        assert view is not None
        if self.layout is PageLayout.NSM:
            record, _next = VersionRecord.unpack(view,
                                                 self._nsm_offset(slot))
            return record
        create_ts, vid, pred_raw, flags = _META.unpack_from(
            view, _COUNT.size + slot * _META.size)
        poff, plen = _OFFSET.unpack_from(
            view, self._offsets_base + slot * _OFFSET.size)
        start = self._heap_base + poff
        if start + plen > len(view):
            raise PageCorruptError(
                f"append page {self.page_no}: payload slice out of bounds")
        return VersionRecord(
            create_ts=create_ts,
            vid=vid,
            pred=Tid.unpack(pred_raw),
            tombstone=bool(flags & FLAG_TOMBSTONE),
            payload=bytes(view[start:start + plen]),
        )

    def _nsm_offset(self, slot: int) -> int:
        """Record start offset in an NSM payload (index built on demand).

        One header-only walk over the page — payload bytes are skipped, not
        copied — then every later access is O(1).
        """
        offsets = self._nsm_offsets
        if offsets is None:
            view = self._view
            assert view is not None
            offsets = []
            offset = _COUNT.size
            for _ in range(len(self._records)):
                if offset + VERSION_HEADER_SIZE > len(view):
                    raise PageCorruptError(
                        f"append page {self.page_no}: version header "
                        "extends past payload end")
                offsets.append(offset)
                (plen,) = _PLEN.unpack_from(
                    view, offset + VERSION_HEADER_SIZE - _PLEN.size)
                offset += VERSION_HEADER_SIZE + plen
                if offset > len(view):
                    raise PageCorruptError(
                        f"append page {self.page_no}: version payload "
                        "extends past payload end")
            self._nsm_offsets = offsets
        return offsets[slot]

    def _materialise(self) -> None:
        """Decode every not-yet-decoded record (records()/append paths)."""
        if self._view is None:
            return
        if self.layout is PageLayout.VECTOR and None in self._records:
            # batch-decode the fixed-width vectors with iter_unpack
            view = self._view
            count = len(self._records)
            metas = _META.iter_unpack(view[_COUNT.size:self._offsets_base])
            offs = _OFFSET.iter_unpack(
                view[self._offsets_base:self._heap_base])
            heap_base = self._heap_base
            for slot, ((create_ts, vid, pred_raw, flags),
                       (poff, plen)) in enumerate(zip(metas, offs)):
                if self._records[slot] is not None:
                    continue
                start = heap_base + poff
                if start + plen > len(view):
                    raise PageCorruptError(
                        f"append page {self.page_no}: payload slice out "
                        "of bounds")
                self._records[slot] = VersionRecord(
                    create_ts=create_ts,
                    vid=vid,
                    pred=Tid.unpack(pred_raw),
                    tombstone=bool(flags & FLAG_TOMBSTONE),
                    payload=bytes(view[start:start + plen]),
                )
            assert count == len(self._records)
            return
        for slot, record in enumerate(self._records):
            if record is None:
                self._records[slot] = self._decode(slot)

    # -- layout-dependent scan cost ------------------------------------------------

    def meta_scan_bytes(self) -> int:
        """Bytes touched to visibility-check every record on the page.

        VECTOR reads just the metadata vectors; NSM must walk the full
        interleaved records (headers are adjacent to payloads), i.e. all
        used bytes.
        """
        if self.layout is PageLayout.VECTOR:
            return _COUNT.size + VECTOR_META_SIZE * len(self._records)
        return self._used

    # -- serialisation -----------------------------------------------------------------

    def payload_bytes(self) -> bytes:
        if self._view is not None:
            # sealed pages are immutable: the original image is authoritative
            return bytes(self._view)
        if self.layout is PageLayout.NSM:
            parts = [_COUNT.pack(len(self._records))]
            parts.extend(r.pack() for r in self._records)  # type: ignore[union-attr]
            return b"".join(parts)
        # VECTOR: meta vector | offset vector | payload heap
        parts = [_COUNT.pack(len(self._records))]
        for r in self._records:
            assert r is not None
            flags = FLAG_TOMBSTONE if r.tombstone else 0
            parts.append(_META.pack(r.create_ts, r.vid, pack_tid(r.pred),
                                    flags))
        heap_parts: list[bytes] = []
        offset = 0
        for r in self._records:
            assert r is not None
            parts.append(_OFFSET.pack(offset, len(r.payload)))
            heap_parts.append(r.payload)
            offset += len(r.payload)
        return b"".join(parts) + b"".join(heap_parts)

    @classmethod
    def from_payload(cls, page_no: int, payload: bytes,
                     page_size: int) -> "AppendPage":
        raise PageCorruptError(
            "append pages must be decoded via from_payload_kind")

    @classmethod
    def from_payload_kind(cls, page_no: int, payload: bytes | memoryview,
                          page_size: int, kind: PageKind) -> "AppendPage":
        """Decode an append page whose layout is given by the header kind.

        The payload is *adopted*, not parsed: records decode lazily over a
        ``memoryview`` on first access (see the module docstring).
        """
        layout = (PageLayout.NSM if kind is PageKind.APPEND_NSM
                  else PageLayout.VECTOR)
        page = cls(page_no, layout, page_size)
        (count,) = _COUNT.unpack_from(payload, 0)
        view = payload if isinstance(payload, memoryview) \
            else memoryview(payload)
        page._init_sealed(view, count)
        return page
