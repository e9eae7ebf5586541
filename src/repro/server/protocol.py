"""Wire protocol: msgpack-style value codec, frame layout, command codes.

Both halves of the service layer (the asyncio server and the synchronous
client) speak the same format, defined entirely here:

* **Values** are encoded with a self-contained subset of the msgpack spec
  (nil/bool/int/float64/str/bin/array/map, plus one ``ext`` type carrying a
  :class:`~repro.pages.layout.Tid` so SI item handles survive the wire).
  Arrays decode as *tuples* — rows, keys and item-handle lists keep the
  exact shape the in-process :class:`~repro.db.database.Database` API uses.
* **Frames** are length-prefixed: a 4-byte big-endian unsigned length
  followed by that many payload bytes.  Frames above :data:`MAX_FRAME_BYTES`
  are a protocol violation (a corrupt prefix must not make a peer try to
  buffer gigabytes).
* **Requests** are ``(request_id, command, args)`` triples; **responses**
  are ``(request_id, status, payload)``.  The request id is an opaque
  client-chosen integer echoed back verbatim, so a client can detect
  desynchronised streams.

See ``docs/SERVER.md`` for the command-by-command argument layout.
"""

from __future__ import annotations

import struct
from enum import IntEnum

from repro.common.errors import (
    AmbiguousResultError,
    CommitUncertainError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    RemoteError,
    ReplicationError,
    SchemaError,
    SerializationError,
    SessionError,
    TxnStateError,
)
from repro.pages.layout import Tid

#: Hard ceiling on one frame's payload (protects both peers from a corrupt
#: or hostile length prefix).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Frame header: payload length, 4-byte big-endian unsigned.
FRAME_HEADER = struct.Struct(">I")

#: msgpack ``ext`` type code carrying a packed 6-byte TID.
EXT_TID = 0x01

#: Maximum container nesting in one value.  Deep enough for any real
#: payload; shallow enough that a hostile frame of nested array headers
#: raises :class:`ProtocolError` instead of :class:`RecursionError`.
MAX_NESTING_DEPTH = 64

_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I8 = struct.Struct(">b")
_I16 = struct.Struct(">h")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")

_INT64_MIN = -(1 << 63)
_UINT64_MAX = (1 << 64) - 1


class Command(IntEnum):
    """Request opcodes (the wire ABI — append only, never renumber)."""

    PING = 1
    BEGIN = 2
    COMMIT = 3
    ABORT = 4
    CREATE_TABLE = 5
    INSERT = 6
    BULK_INSERT = 7
    READ = 8
    UPDATE = 9
    DELETE = 10
    LOOKUP = 11
    RANGE_LOOKUP = 12
    SCAN = 13
    SCAN_VID_RANGE = 14
    TICK = 15
    MAINTENANCE = 16
    SNAPSHOT = 17
    STATS = 18
    CLOCK_NOW = 19
    CLOCK_ADVANCE = 20
    CLOCK_ADVANCE_TO = 21
    TXN_STATUS = 22
    SCAN_BATCH = 23
    AGGREGATE = 24
    PREPARE_TXN = 25
    COMMIT_PREPARED = 26
    ABORT_PREPARED = 27
    CLOSED_TS = 28
    WAL_SUBSCRIBE = 29
    WAL_FETCH = 30
    WAL_UNSUBSCRIBE = 31
    BACKUP_BEGIN = 32
    BACKUP_FETCH = 33
    BACKUP_END = 34
    SHUTDOWN = 99


class Status(IntEnum):
    """Response status codes (``OK`` carries a payload, the rest a message)."""

    OK = 0
    OVERLOADED = 1       # shed by admission control; retryable
    SERIALIZATION = 2    # first-updater-wins / SSI abort
    SCHEMA = 3           # unknown table/index, row-shape violation
    TXN_STATE = 4        # operation invalid for the txn's phase
    NO_SUCH_TXN = 5      # txid not owned by this session
    BAD_REQUEST = 6      # malformed args or unknown command
    SHUTTING_DOWN = 7    # server is stopping; session is going away
    INTERNAL = 8         # unexpected server-side failure
    DEADLINE_EXCEEDED = 9  # rejected before execution: deadline passed
    AMBIGUOUS = 10       # fate unresolved (e.g. a router lost its shard
    #                      mid-commit); never blindly retried — resolve
    #                      via TXN_STATUS
    FENCED = 11          # replication fencing: stale epoch, not the
    #                      leader, or a truncated-gap fetch; fail over
    #                      instead of retrying


#: Statuses a client may transparently retry (the command did not execute).
RETRYABLE_STATUSES = frozenset({Status.OVERLOADED,
                                Status.DEADLINE_EXCEEDED})


def status_for_exception(exc: BaseException) -> Status:
    """Map a server-side exception onto its wire status."""
    if isinstance(exc, (AmbiguousResultError, CommitUncertainError)):
        return Status.AMBIGUOUS
    if isinstance(exc, OverloadedError):
        return Status.OVERLOADED
    if isinstance(exc, DeadlineExceededError):
        return Status.DEADLINE_EXCEEDED
    if isinstance(exc, SerializationError):
        return Status.SERIALIZATION
    if isinstance(exc, SchemaError):
        return Status.SCHEMA
    if isinstance(exc, TxnStateError):
        return Status.TXN_STATE
    if isinstance(exc, SessionError):
        return Status.NO_SUCH_TXN
    if isinstance(exc, ProtocolError):
        return Status.BAD_REQUEST
    if isinstance(exc, ReplicationError):
        return Status.FENCED
    return Status.INTERNAL


def raise_for_status(status: int, message: str) -> None:
    """Client side: re-raise a non-OK response as the matching exception."""
    if status == Status.OK:
        return
    if status == Status.OVERLOADED:
        raise OverloadedError(message)
    if status == Status.SERIALIZATION:
        raise SerializationError(message)
    if status == Status.SCHEMA:
        raise SchemaError(message)
    if status == Status.TXN_STATE:
        raise TxnStateError(message)
    if status == Status.NO_SUCH_TXN:
        raise SessionError(message)
    if status == Status.BAD_REQUEST:
        raise ProtocolError(message)
    if status == Status.SHUTTING_DOWN:
        raise SessionError(f"server shutting down: {message}")
    if status == Status.DEADLINE_EXCEEDED:
        raise DeadlineExceededError(message)
    if status == Status.AMBIGUOUS:
        # relayed from a node that lost *its* downstream link: the same
        # error a direct caller would have seen.  Only COMMIT turns it
        # into CommitUncertainError (RemoteDatabase.commit knows the
        # txid); any other command just failed and its caller aborts.
        raise AmbiguousResultError(message)
    if status == Status.FENCED:
        raise ReplicationError(message)
    raise RemoteError(message)


# ---------------------------------------------------------------------------
# value codec (msgpack subset)
# ---------------------------------------------------------------------------

def packb(obj: object) -> bytes:
    """Encode one value into msgpack bytes."""
    parts: list[bytes] = []
    _pack_into(obj, parts)
    return b"".join(parts)


def _pack_into(obj: object, parts: list[bytes]) -> None:
    if obj is None:
        parts.append(b"\xc0")
    elif obj is True:
        parts.append(b"\xc3")
    elif obj is False:
        parts.append(b"\xc2")
    elif isinstance(obj, int):
        _pack_int(obj, parts)
    elif isinstance(obj, float):
        parts.append(b"\xcb" + _F64.pack(obj))
    elif isinstance(obj, str):
        _pack_str(obj, parts)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        _pack_bin(bytes(obj), parts)
    elif isinstance(obj, Tid):
        # ext8: 0xc7, length, type code, payload
        parts.append(b"\xc7\x06" + bytes([EXT_TID]) + obj.pack())
    elif isinstance(obj, (list, tuple)):
        _pack_array_header(len(obj), parts)
        for item in obj:
            _pack_into(item, parts)
    elif isinstance(obj, dict):
        _pack_map_header(len(obj), parts)
        for key, value in obj.items():
            _pack_into(key, parts)
            _pack_into(value, parts)
    else:
        raise ProtocolError(f"cannot encode {type(obj).__name__}: {obj!r}")


def _pack_int(n: int, parts: list[bytes]) -> None:
    if 0 <= n <= 0x7F:
        parts.append(bytes([n]))
    elif -32 <= n < 0:
        parts.append(bytes([n & 0xFF]))
    elif 0 < n <= 0xFF:
        parts.append(bytes([0xCC, n]))
    elif 0 < n <= 0xFFFF:
        parts.append(b"\xcd" + _U16.pack(n))
    elif 0 < n <= 0xFFFFFFFF:
        parts.append(b"\xce" + _U32.pack(n))
    elif 0 < n <= _UINT64_MAX:
        parts.append(b"\xcf" + _U64.pack(n))
    elif -0x80 <= n < 0:
        parts.append(b"\xd0" + _I8.pack(n))
    elif -0x8000 <= n < 0:
        parts.append(b"\xd1" + _I16.pack(n))
    elif -0x80000000 <= n < 0:
        parts.append(b"\xd2" + _I32.pack(n))
    elif _INT64_MIN <= n < 0:
        parts.append(b"\xd3" + _I64.pack(n))
    else:
        raise ProtocolError(f"integer out of 64-bit range: {n}")


def _pack_str(s: str, parts: list[bytes]) -> None:
    data = s.encode("utf-8")
    n = len(data)
    if n <= 31:
        parts.append(bytes([0xA0 | n]) + data)
    elif n <= 0xFF:
        parts.append(bytes([0xD9, n]) + data)
    elif n <= 0xFFFF:
        parts.append(b"\xda" + _U16.pack(n) + data)
    else:
        parts.append(b"\xdb" + _U32.pack(n) + data)


def _pack_bin(data: bytes, parts: list[bytes]) -> None:
    n = len(data)
    if n <= 0xFF:
        parts.append(bytes([0xC4, n]) + data)
    elif n <= 0xFFFF:
        parts.append(b"\xc5" + _U16.pack(n) + data)
    else:
        parts.append(b"\xc6" + _U32.pack(n) + data)


def _pack_array_header(n: int, parts: list[bytes]) -> None:
    if n <= 15:
        parts.append(bytes([0x90 | n]))
    elif n <= 0xFFFF:
        parts.append(b"\xdc" + _U16.pack(n))
    else:
        parts.append(b"\xdd" + _U32.pack(n))


def _pack_map_header(n: int, parts: list[bytes]) -> None:
    if n <= 15:
        parts.append(bytes([0x80 | n]))
    elif n <= 0xFFFF:
        parts.append(b"\xde" + _U16.pack(n))
    else:
        parts.append(b"\xdf" + _U32.pack(n))


def unpackb(data: bytes) -> object:
    """Decode one value; raises :class:`ProtocolError` on trailing bytes."""
    value, offset = _unpack_one(memoryview(data), 0)
    if offset != len(data):
        raise ProtocolError(
            f"{len(data) - offset} trailing byte(s) after value")
    return value


def _unpack_one(buf: memoryview, offset: int,
                depth: int = 0) -> tuple[object, int]:
    if depth > MAX_NESTING_DEPTH:
        raise ProtocolError(
            f"value nested deeper than {MAX_NESTING_DEPTH}")
    try:
        tag = buf[offset]
    except IndexError:
        raise ProtocolError("truncated value") from None
    offset += 1
    if tag <= 0x7F:                      # positive fixint
        return tag, offset
    if tag >= 0xE0:                      # negative fixint
        return tag - 0x100, offset
    if 0xA0 <= tag <= 0xBF:              # fixstr
        return _take_str(buf, offset, tag & 0x1F)
    if 0x90 <= tag <= 0x9F:              # fixarray
        return _take_array(buf, offset, tag & 0x0F, depth)
    if 0x80 <= tag <= 0x8F:              # fixmap
        return _take_map(buf, offset, tag & 0x0F, depth)
    if tag == 0xC0:
        return None, offset
    if tag == 0xC2:
        return False, offset
    if tag == 0xC3:
        return True, offset
    if tag == 0xCB:                      # float64
        _need(buf, offset, 8)
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag == 0xCC:                      # uint8
        _need(buf, offset, 1)
        return buf[offset], offset + 1
    if tag == 0xCD:
        _need(buf, offset, 2)
        return _U16.unpack_from(buf, offset)[0], offset + 2
    if tag == 0xCE:
        _need(buf, offset, 4)
        return _U32.unpack_from(buf, offset)[0], offset + 4
    if tag == 0xCF:
        _need(buf, offset, 8)
        return _U64.unpack_from(buf, offset)[0], offset + 8
    if tag == 0xD0:                      # int8
        _need(buf, offset, 1)
        return _I8.unpack_from(buf, offset)[0], offset + 1
    if tag == 0xD1:
        _need(buf, offset, 2)
        return _I16.unpack_from(buf, offset)[0], offset + 2
    if tag == 0xD2:
        _need(buf, offset, 4)
        return _I32.unpack_from(buf, offset)[0], offset + 4
    if tag == 0xD3:
        _need(buf, offset, 8)
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == 0xD9:                      # str8
        _need(buf, offset, 1)
        return _take_str(buf, offset + 1, buf[offset])
    if tag == 0xDA:
        _need(buf, offset, 2)
        return _take_str(buf, offset + 2, _U16.unpack_from(buf, offset)[0])
    if tag == 0xDB:
        _need(buf, offset, 4)
        return _take_str(buf, offset + 4, _U32.unpack_from(buf, offset)[0])
    if tag == 0xC4:                      # bin8
        _need(buf, offset, 1)
        return _take_bin(buf, offset + 1, buf[offset])
    if tag == 0xC5:
        _need(buf, offset, 2)
        return _take_bin(buf, offset + 2, _U16.unpack_from(buf, offset)[0])
    if tag == 0xC6:
        _need(buf, offset, 4)
        return _take_bin(buf, offset + 4, _U32.unpack_from(buf, offset)[0])
    if tag == 0xDC:                      # array16
        _need(buf, offset, 2)
        return _take_array(buf, offset + 2,
                           _U16.unpack_from(buf, offset)[0], depth)
    if tag == 0xDD:
        _need(buf, offset, 4)
        return _take_array(buf, offset + 4,
                           _U32.unpack_from(buf, offset)[0], depth)
    if tag == 0xDE:                      # map16
        _need(buf, offset, 2)
        return _take_map(buf, offset + 2, _U16.unpack_from(buf, offset)[0],
                         depth)
    if tag == 0xDF:
        _need(buf, offset, 4)
        return _take_map(buf, offset + 4, _U32.unpack_from(buf, offset)[0],
                         depth)
    if tag == 0xC7:                      # ext8
        _need(buf, offset, 2)
        length, ext_type = buf[offset], buf[offset + 1]
        offset += 2
        _need(buf, offset, length)
        payload = bytes(buf[offset:offset + length])
        return _decode_ext(ext_type, payload), offset + length
    raise ProtocolError(f"unsupported type tag 0x{tag:02x}")


def _decode_ext(ext_type: int, payload: bytes) -> object:
    if ext_type == EXT_TID:
        if len(payload) != 6:
            raise ProtocolError(f"TID ext must be 6 bytes, got {len(payload)}")
        tid = Tid.unpack(payload)
        if tid is None:
            raise ProtocolError("null TID pattern on the wire")
        return tid
    raise ProtocolError(f"unknown ext type 0x{ext_type:02x}")


def _need(buf: memoryview, offset: int, n: int) -> None:
    if offset + n > len(buf):
        raise ProtocolError("truncated value")


def _take_str(buf: memoryview, offset: int, n: int) -> tuple[str, int]:
    _need(buf, offset, n)
    try:
        return str(buf[offset:offset + n], "utf-8"), offset + n
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid utf-8 string: {exc}") from None


def _take_bin(buf: memoryview, offset: int, n: int) -> tuple[bytes, int]:
    _need(buf, offset, n)
    return bytes(buf[offset:offset + n]), offset + n


def _take_array(buf: memoryview, offset: int, n: int,
                depth: int) -> tuple[tuple, int]:
    items = []
    for _ in range(n):
        value, offset = _unpack_one(buf, offset, depth + 1)
        items.append(value)
    return tuple(items), offset


def _take_map(buf: memoryview, offset: int, n: int,
              depth: int) -> tuple[dict, int]:
    out: dict = {}
    for _ in range(n):
        key, offset = _unpack_one(buf, offset, depth + 1)
        try:
            hash(key)
        except TypeError:
            raise ProtocolError(
                f"unhashable map key {type(key).__name__}") from None
        value, offset = _unpack_one(buf, offset, depth + 1)
        out[key] = value
    return out, offset


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode_frame(payload: bytes) -> bytes:
    """Prefix a payload with its 4-byte length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return FRAME_HEADER.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Validate a 4-byte header, returning the payload length."""
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return length


def encode_request(request_id: int, command: int, args: tuple,
                   deadline_ms: int | None = None) -> bytes:
    """One request frame, ready for the socket.

    ``deadline_ms`` is the client's *remaining* time budget in whole
    milliseconds (relative, so peers need no clock agreement).  ``None``
    keeps the original 3-tuple layout — the fault-free fast path and old
    peers are byte-identical.
    """
    if deadline_ms is None:
        return encode_frame(packb((request_id, int(command), args)))
    return encode_frame(packb((request_id, int(command), args,
                               int(deadline_ms))))


def decode_request(payload: bytes) -> tuple[int, int, tuple, int | None]:
    """Split a request frame into ``(request_id, command, args, deadline)``.

    ``deadline`` is the remaining budget in milliseconds or ``None`` when
    the client sent the 3-tuple form (no deadline).
    """
    message = unpackb(payload)
    if (not isinstance(message, tuple) or len(message) not in (3, 4)
            or not isinstance(message[0], int)
            or isinstance(message[0], bool)
            or not isinstance(message[1], int)
            or isinstance(message[1], bool)
            or not isinstance(message[2], tuple)):
        raise ProtocolError(f"malformed request: {message!r}")
    deadline_ms: int | None = None
    if len(message) == 4:
        deadline_ms = message[3]
        if deadline_ms is not None and (
                not isinstance(deadline_ms, int)
                or isinstance(deadline_ms, bool)):
            raise ProtocolError(
                f"malformed deadline: {deadline_ms!r}")
    return message[0], message[1], message[2], deadline_ms


def encode_response(request_id: int, status: int, payload: object) -> bytes:
    """One response frame, ready for the socket."""
    return encode_frame(packb((request_id, int(status), payload)))


def decode_response(payload: bytes) -> tuple[int, int, object]:
    """Split a response frame into ``(request_id, status, payload)``."""
    message = unpackb(payload)
    if (not isinstance(message, tuple) or len(message) != 3
            or not isinstance(message[0], int)
            or not isinstance(message[1], int)):
        raise ProtocolError(f"malformed response: {message!r}")
    return message  # type: ignore[return-value]


def error_payload(exc: BaseException) -> str:
    """Human-readable error message relayed inside a non-OK response."""
    return f"{type(exc).__name__}: {exc}"
