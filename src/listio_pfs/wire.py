"""Binary message formats and socket framing for manager and daemon traffic.

Every message starts with a fixed 64-byte little-endian header. List
operations append 16-byte (offset, length) region entries; writes and
metadata operations append a data payload. The full byte layout is
documented in PROTOCOL.md at the repository root.
"""

from __future__ import annotations

import socket
import struct
from typing import NamedTuple

from .errors import ProtocolError
from .regions import RegionList, StripingParams

MAGIC = 0x50564C31
VERSION = 1

HEADER_SIZE = 64
REGION_ENTRY_SIZE = 16
MAX_LIST_REGIONS = 64
MAX_REQUEST_FRAME = 1500

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

_HEADER = struct.Struct("<IHHQQQQII16x")
_REGION = struct.Struct("<QQ")
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
    return head + b"".join(_REGION.pack(r.offset, r.length) for r in trailing)


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
    return IoRequestHeader(opcode, rid, handle, offset, length, rcount, flags,
                           magic, version)


def decode_request(data) -> tuple[IoRequestHeader, RegionList | None]:
    """Inverse of encode_request; validates the prefix before trailing data."""
    header = decode_header(data)
    if header.opcode not in LIST_OPCODES:
        return header, None
    need = HEADER_SIZE + header.region_count * REGION_ENTRY_SIZE
    if len(data) < need:
        raise ProtocolError(
            f"truncated trailing regions: need {need} bytes, have {len(data)}"
        )
    entries = _REGION.iter_unpack(memoryview(data)[HEADER_SIZE:need])
    try:
        trailing = RegionList(entries)
    except Exception as exc:
        raise ProtocolError(f"invalid trailing region: {exc}") from exc
    if header.length != trailing.total_length:
        raise ProtocolError(
            f"list header length {header.length} does not match region "
            f"total {trailing.total_length}"
        )
    return header, trailing


def encode_response(request_id: int, status: int, payload: bytes = b"") -> bytes:
    return _RESPONSE.pack(request_id, status, len(payload)) + payload


def encode_response_prefix(request_id: int, status: int, payload_length: int) -> bytes:
    return _RESPONSE.pack(request_id, status, payload_length)


def decode_response_prefix(data) -> tuple[int, int, int]:
    if len(data) < RESPONSE_PREFIX_SIZE:
        raise ProtocolError(f"short response prefix: {len(data)} bytes")
    return _RESPONSE.unpack_from(data)


def decode_response(data) -> tuple[int, int, bytes]:
    """Decode a complete response buffer into (request_id, status, payload)."""
    request_id, status, payload_length = decode_response_prefix(data)
    if len(data) < RESPONSE_PREFIX_SIZE + payload_length:
        raise ProtocolError("truncated response payload")
    payload = bytes(data[RESPONSE_PREFIX_SIZE : RESPONSE_PREFIX_SIZE + payload_length])
    return request_id, status, payload


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
    """Read exactly n bytes; None on clean EOF when allow_eof is set."""
    if n == 0:
        return b""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise ProtocolError(f"connection closed after {got} of {n} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def read_into_exact(sock: socket.socket, view: memoryview) -> None:
    """Fill the whole view from the socket."""
    got = 0
    n = len(view)
    while got < n:
        r = sock.recv_into(view[got:])
        if r == 0:
            raise ProtocolError(f"connection closed after {got} of {n} bytes")
        got += r


def send_request(
    sock: socket.socket,
    header: IoRequestHeader,
    trailing: RegionList | None = None,
    payload=None,
) -> None:
    sock.sendall(encode_request(header, trailing))
    if payload:
        sock.sendall(payload)


def recv_request(
    sock: socket.socket,
) -> tuple[IoRequestHeader, RegionList | None, bytes] | None:
    """Receive one framed request; None on clean EOF between requests."""
    head = read_exact(sock, HEADER_SIZE, allow_eof=True)
    if head is None:
        return None
    header = decode_header(head)
    trailing = None
    if header.opcode in LIST_OPCODES:
        raw = head + read_exact(sock, header.region_count * REGION_ENTRY_SIZE)
        header, trailing = decode_request(raw)
    data = b""
    if header.opcode in _PAYLOAD_OPCODES:
        data = read_exact(sock, header.length)
    return header, trailing, data


def send_response(
    sock: socket.socket, request_id: int, status: int, payload=b""
) -> None:
    sock.sendall(encode_response_prefix(request_id, status, len(payload)))
    if payload:
        sock.sendall(payload)


def recv_response(
    sock: socket.socket, out: memoryview | None = None
) -> tuple[int, int, bytes | int]:
    """Receive one response; payload lands in `out` when given (returns length)."""
    prefix = read_exact(sock, RESPONSE_PREFIX_SIZE)
    request_id, status, payload_length = decode_response_prefix(prefix)
    if out is not None and status == STATUS_OK:
        if payload_length > len(out):
            raise ProtocolError(
                f"response payload {payload_length} exceeds buffer {len(out)}"
            )
        read_into_exact(sock, out[:payload_length])
        return request_id, status, payload_length
    payload = read_exact(sock, payload_length) if payload_length else b""
    return request_id, status, payload
