"""Binary message formats and socket framing for manager and daemon traffic.

Every message starts with a fixed 64-byte little-endian header. List
operations append 16-byte (offset, length) region entries; writes and
metadata operations append a data payload. The full byte layout is
documented in PROTOCOL.md at the repository root.
"""

from __future__ import annotations

import socket
import struct
from itertools import chain
from typing import NamedTuple

from .errors import (
    ExistsError,
    NotFoundError,
    PfsError,
    PlanError,
    ProtocolError,
    TokenError,
)
from .regions import MAX_LIST_REGIONS, RegionList, StripingParams

MAGIC = 0x50564C31
VERSION = 1

HEADER_SIZE = 64
REGION_ENTRY_SIZE = 16
MAX_REQUEST_FRAME = 1500
# The most data one request may carry or ask for: twice the client's
# sieving window (client.SIEVING_WINDOW), the largest message it sends.
MAX_PAYLOAD = 64 << 20
IOV_MAX = 1024  # buffers one recvmsg_into call may take (Linux UIO_MAXIOV)

# Opcodes. CREATE/OPEN/CLOSE/TOKEN_*/REGISTER are manager operations;
# READ/WRITE/READ_LIST/WRITE_LIST/STAT are daemon operations. OPEN doubles
# as the per-daemon handle attach.
CREATE = 1
OPEN = 2
CLOSE = 3
READ = 4
WRITE = 5
READ_LIST = 6
WRITE_LIST = 7
TOKEN_ACQUIRE = 8
TOKEN_RELEASE = 9
STAT = 10
REGISTER = 11

LIST_OPCODES = frozenset({READ_LIST, WRITE_LIST})
READ_OPCODES = frozenset({READ, READ_LIST})
DATA_OPCODES = READ_OPCODES | {WRITE, WRITE_LIST}
# Requests of these opcodes carry a data payload of header.length bytes.
_PAYLOAD_OPCODES = frozenset({WRITE, WRITE_LIST, CREATE, OPEN, REGISTER})
_VALID_OPCODES = frozenset(range(CREATE, REGISTER + 1))

OPCODE_NAMES = {
    CREATE: "CREATE",
    OPEN: "OPEN",
    CLOSE: "CLOSE",
    READ: "READ",
    WRITE: "WRITE",
    READ_LIST: "READ_LIST",
    WRITE_LIST: "WRITE_LIST",
    TOKEN_ACQUIRE: "TOKEN_ACQUIRE",
    TOKEN_RELEASE: "TOKEN_RELEASE",
    STAT: "STAT",
    REGISTER: "REGISTER",
}

# Response status codes.
STATUS_OK = 0
STATUS_EXISTS = 1
STATUS_NOT_FOUND = 2
STATUS_PROTOCOL = 3
STATUS_INVALID = 4
STATUS_TOKEN = 5
STATUS_INTERNAL = 6

# Error classes in the order a server matches them, with the status each
# answers; a client raises the first class of a status, PfsError if none.
ERROR_STATUS = (
    (ExistsError, STATUS_EXISTS),
    (NotFoundError, STATUS_NOT_FOUND),
    (TokenError, STATUS_TOKEN),
    (ProtocolError, STATUS_PROTOCOL),
    (ValueError, STATUS_INVALID),
    (PfsError, STATUS_INVALID),
)

_HEADER = struct.Struct("<IHHQQQQII16x")
# The region table of a list request of n regions, packed in one call:
# offset and length of each region in turn.
_REGION_TABLE = tuple(struct.Struct(f"<{2 * n}Q")
                      for n in range(MAX_LIST_REGIONS + 1))
_RESPONSE = struct.Struct("<QIQ")
_CREATE_FIXED = struct.Struct("<IIQ")
_META_FIXED = struct.Struct("<QIIQQI")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

RESPONSE_PREFIX_SIZE = _RESPONSE.size

assert _HEADER.size == HEADER_SIZE


class IoRequestHeader(NamedTuple):
    opcode: int
    request_id: int = 0
    file_handle: int = 0
    offset: int = 0
    length: int = 0
    region_count: int = 0
    flags: int = 0
    magic: int = MAGIC
    version: int = VERSION


def encode_request(header: IoRequestHeader, trailing: RegionList | None = None) -> bytes:
    """Encode a request header plus optional trailing region entries."""
    count = 0 if trailing is None else len(trailing)
    if header.region_count != count:
        raise ProtocolError(
            f"header region_count {header.region_count} does not match "
            f"{count} trailing regions"
        )
    if header.opcode in LIST_OPCODES:
        if not 1 <= count <= MAX_LIST_REGIONS:
            raise ProtocolError(
                f"list request must carry 1..{MAX_LIST_REGIONS} regions, got {count}"
            )
    elif count:
        raise ProtocolError("trailing regions are only valid on list opcodes")
    head = _HEADER.pack(
        header.magic,
        header.version,
        header.opcode,
        header.request_id,
        header.file_handle,
        header.offset,
        header.length,
        header.region_count,
        header.flags,
    )
    if not count:
        return head
    return head + _REGION_TABLE[count].pack(*chain.from_iterable(trailing))


def decode_header(data) -> IoRequestHeader:
    """Decode and validate the fixed 64-byte header prefix only."""
    if len(data) < HEADER_SIZE:
        raise ProtocolError(f"short header: {len(data)} bytes")
    magic, version, opcode, rid, handle, offset, length, rcount, flags = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic:#010x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if opcode not in _VALID_OPCODES:
        raise ProtocolError(f"unknown opcode {opcode}")
    if opcode in LIST_OPCODES:
        if not 1 <= rcount <= MAX_LIST_REGIONS:
            raise ProtocolError(
                f"list request region_count {rcount} outside 1..{MAX_LIST_REGIONS}"
            )
    elif rcount:
        raise ProtocolError("region_count must be zero for non-list opcodes")
    # tuple.__new__ skips namedtuple's Python-level __new__.
    return tuple.__new__(IoRequestHeader, (opcode, rid, handle, offset, length,
                                           rcount, flags, magic, version))


def decode_request(
    data, header: IoRequestHeader | None = None
) -> tuple[IoRequestHeader, RegionList | None]:
    """Inverse of encode_request; validates the prefix before trailing data.
    `header`, when given, is the decoded prefix of `data`, not decoded again."""
    if header is None:
        header = decode_header(data)
    if header.opcode not in LIST_OPCODES:
        return header, None
    need = HEADER_SIZE + header.region_count * REGION_ENTRY_SIZE
    if len(data) < need:
        raise ProtocolError(
            f"truncated trailing regions: need {need} bytes, have {len(data)}"
        )
    table = _REGION_TABLE[header.region_count].unpack_from(data, HEADER_SIZE)
    try:
        trailing = RegionList.from_columns(table[0::2], table[1::2])
    except PlanError as exc:
        raise ProtocolError(f"invalid trailing region: {exc}") from exc
    if header.length != trailing.total_length:
        raise ProtocolError(
            f"list header length {header.length} does not match region "
            f"total {trailing.total_length}"
        )
    return header, trailing


def encode_create_payload(name: str, sp: StripingParams) -> bytes:
    return _CREATE_FIXED.pack(sp.base, sp.pcount, sp.ssize) + name.encode("utf-8")


def decode_create_payload(data) -> tuple[str, StripingParams]:
    if len(data) < _CREATE_FIXED.size:
        raise ProtocolError("short create payload")
    base, pcount, ssize = _CREATE_FIXED.unpack_from(data)
    name = bytes(data[_CREATE_FIXED.size :]).decode("utf-8")
    return name, StripingParams(base, pcount, ssize)


def encode_metadata_payload(
    handle: int, sp: StripingParams, size: int, roster: list[str]
) -> bytes:
    parts = [_META_FIXED.pack(handle, sp.base, sp.pcount, sp.ssize, size, len(roster))]
    for addr in roster:
        raw = addr.encode("utf-8")
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_metadata_payload(data) -> tuple[int, StripingParams, int, list[str]]:
    if len(data) < _META_FIXED.size:
        raise ProtocolError("short metadata payload")
    handle, base, pcount, ssize, size, count = _META_FIXED.unpack_from(data)
    roster = []
    pos = _META_FIXED.size
    for _ in range(count):
        if len(data) < pos + 2:
            raise ProtocolError("truncated roster entry")
        (n,) = _U16.unpack_from(data, pos)
        pos += 2
        if len(data) < pos + n:
            raise ProtocolError("truncated roster entry")
        roster.append(bytes(data[pos : pos + n]).decode("utf-8"))
        pos += n
    return handle, StripingParams(base, pcount, ssize), size, roster


def over_cap(length: int) -> str:
    """The diagnostic for a request whose data is over MAX_PAYLOAD."""
    return (f"request data of {length} bytes is over the "
            f"{MAX_PAYLOAD}-byte cap")


def status_for(exc: Exception) -> int:
    """The status a server answers a failed request with."""
    for cls, status in ERROR_STATUS:
        if isinstance(exc, cls):
            return status
    return STATUS_INTERNAL


def raise_for_status(status: int, detail: bytes) -> None:
    """Raise the exception an error status and its diagnostic stand for."""
    message = detail.decode("utf-8", "replace")
    for cls, code in ERROR_STATUS:
        if code == status:
            raise cls(message)
    raise PfsError(f"server error {status}: {message}")


def pack_u64(value: int) -> bytes:
    return _U64.pack(value)


def unpack_u64(data) -> int:
    return _U64.unpack_from(data)[0]


def pack_u32(value: int) -> bytes:
    return _U32.pack(value)


def unpack_u32(data) -> int:
    return _U32.unpack_from(data)[0]


# -- socket framing -----------------------------------------------------

def read_exact(sock: socket.socket, n: int, allow_eof: bool = False) -> bytes | None:
    """Read exactly n bytes, 1 MiB at most per recv so that a length a peer
    declares is never allocated up front; None on clean EOF if allow_eof.
    A first recv that returns all n bytes is returned as it is."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if len(chunk) == n:
            return chunk
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise ProtocolError(f"connection closed after {got} of {n} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_into(sock: socket.socket, view, n: int) -> None:
    """Fill the first n bytes of the writable view from the socket."""
    got = 0
    while got < n:
        r = sock.recv_into(view[got:] if got else view, n - got)
        if not r:
            raise ProtocolError(f"connection closed after {got} of {n} bytes")
        got += r


def read_into_pieces(sock: socket.socket, pieces, n: int, room: int) -> None:
    """Fill the first n bytes of a list of non-empty views, in list order,
    from the socket; `room`, their total length, is at least n. One call
    receives into every view it reaches. The list is left as it is."""
    views = pieces
    if n < room:  # cut the views at n bytes, so no byte past them is taken
        views, left = [], n
        for piece in pieces:
            if left <= 0:
                break
            views.append(piece[:left])
            left -= len(views[-1])
    got = i = 0
    while got < n:
        r = sock.recvmsg_into(views[i : i + IOV_MAX] if i or len(views) > IOV_MAX
                              else views)[0]
        if r == 0:
            raise ProtocolError(f"connection closed after {got} of {n} bytes")
        got += r
        if got < n:  # step past the views filled, and cut one filled in part
            if views is pieces:
                views = list(pieces)
            while r >= len(views[i]):
                r -= len(views[i])
                i += 1
            views[i] = views[i][r:]


def _send_frame(sock: socket.socket, head: bytes, payload) -> None:
    """Send `head`, then `payload` if any, with one sendmsg call; only the
    unsent tail of a partial send goes out with sendall."""
    if not payload:
        sock.sendall(head)
        return
    sent = sock.sendmsg((head, payload))
    if sent < len(head) + len(payload):
        if sent < len(head):
            sock.sendall(head[sent:])
            sent = len(head)
        sock.sendall(memoryview(payload)[sent - len(head) :])


def send_request(
    sock: socket.socket,
    header: IoRequestHeader,
    trailing: RegionList | None = None,
    payload=None,
) -> None:
    _send_frame(sock, encode_request(header, trailing), payload)


def recv_request(
    sock: socket.socket, buffer=lambda n: memoryview(bytearray(n))
) -> tuple[IoRequestHeader, RegionList | None, memoryview | bytes | None] | None:
    """Receive one framed request; None on clean EOF between requests.

    A payload is received into `buffer(length)`, a writable view of
    `length` bytes (a fresh one of its own by default). A payload over
    MAX_PAYLOAD is left unread on the stream and returned as None."""
    head = read_exact(sock, HEADER_SIZE, allow_eof=True)
    if head is None:
        return None
    header = decode_header(head)
    trailing = None
    if header.opcode in LIST_OPCODES:
        raw = head + read_exact(sock, header.region_count * REGION_ENTRY_SIZE)
        header, trailing = decode_request(raw, header)
    if header.opcode not in _PAYLOAD_OPCODES:
        return header, trailing, b""
    n = header.length
    if n > MAX_PAYLOAD:
        return header, trailing, None
    data = buffer(n)
    read_into(sock, data, n)
    return header, trailing, data


def send_response(
    sock: socket.socket, request_id: int, status: int, payload=b""
) -> None:
    _send_frame(sock, _RESPONSE.pack(request_id, status, len(payload)), payload)


def recv_response(
    sock: socket.socket, out: memoryview | list[memoryview] | None = None
) -> tuple[int, int, bytes | int]:
    """Receive one response; an ok payload lands in `out` when given (returns
    length). `out` is one view, or a list of views filled in turn."""
    request_id, status, payload_length = _RESPONSE.unpack(
        read_exact(sock, RESPONSE_PREFIX_SIZE))
    if out is not None and status == STATUS_OK:
        listed = isinstance(out, list)
        room = sum(map(len, out)) if listed else len(out)
        if payload_length > room:
            raise ProtocolError(
                f"response payload {payload_length} exceeds buffer {room}"
            )
        if listed:
            read_into_pieces(sock, out, payload_length, room)
        else:
            read_into(sock, out, payload_length)
        return request_id, status, payload_length
    payload = read_exact(sock, payload_length) if payload_length else b""
    return request_id, status, payload
