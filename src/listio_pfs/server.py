"""The metadata manager and the stripe-serving I/O daemon.

The manager owns file metadata (names, handles, striping parameters, the
daemon roster) and the per-file write token. I/O daemons store stripe data
in one local backing file per handle and serve every read and write as a
list of server-local regions, a contiguous request being the one-region
case. The manager never touches file data; clients talk to daemons
directly once a file is open.
"""

from __future__ import annotations

import itertools
import os
import socket
import socketserver
import threading
from collections import deque
from dataclasses import dataclass, field

from . import wire
from .errors import (
    ExistsError,
    NotFoundError,
    PfsError,
    ProtocolError,
    TokenError,
)
from .regions import StripingParams


@dataclass
class FileMetadata:
    handle: int
    name: str
    striping: StripingParams
    size: int
    roster: list[str] = field(default_factory=list)


def format_addr(host: str, port: int) -> str:
    return f"{host}:{port}"


def parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {addr!r}, expected HOST:PORT")
    return host, int(port)


_STATUS_FOR_ERROR = [
    (ExistsError, wire.STATUS_EXISTS),
    (NotFoundError, wire.STATUS_NOT_FOUND),
    (TokenError, wire.STATUS_TOKEN),
    (ProtocolError, wire.STATUS_PROTOCOL),
    (ValueError, wire.STATUS_INVALID),
    (PfsError, wire.STATUS_INVALID),
]


def _status_for(exc: Exception) -> int:
    for cls, status in _STATUS_FOR_ERROR:
        if isinstance(exc, cls):
            return status
    return wire.STATUS_INTERNAL


class _Endpoint:
    """Shared TCP plumbing: a threaded accept loop over framed requests."""

    def __init__(self, host: str, port: int):
        endpoint = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                sock = self.request
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn_id = object()
                try:
                    while True:
                        frame = wire.recv_request(sock)
                        if frame is None:
                            return
                        header, trailing, data = frame
                        try:
                            payload = endpoint.dispatch(conn_id, header, trailing, data)
                            wire.send_response(sock, header.request_id, wire.STATUS_OK,
                                               payload)
                        except Exception as exc:  # per-request failure
                            wire.send_response(sock, header.request_id,
                                               _status_for(exc),
                                               str(exc).encode("utf-8"))
                            if isinstance(exc, ProtocolError):
                                return  # stream may be desynchronized
                except (ProtocolError, ConnectionError, OSError):
                    return  # peer went away or sent garbage mid-frame
                finally:
                    endpoint.connection_closed(conn_id)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return format_addr(host, port)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    # subclass surface
    def dispatch(self, conn_id, header, trailing, data) -> bytes:
        raise NotImplementedError

    def connection_closed(self, conn_id) -> None:
        pass


class _Token:
    __slots__ = ("holder", "waiters")

    def __init__(self):
        self.holder = None
        self.waiters: deque[tuple[object, threading.Event]] = deque()


class Manager(_Endpoint):
    """Metadata daemon: create/open, daemon roster, per-file write token."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self._lock = threading.Lock()
        self._by_name: dict[str, FileMetadata] = {}
        self._by_handle: dict[int, FileMetadata] = {}
        self._roster: list[str] = []
        self._tokens: dict[int, _Token] = {}
        # Handles start at a random per-boot epoch in their high 32 bits, so
        # a restarted manager never hands out a handle whose stripe files an
        # earlier boot left on the daemons.
        epoch = int.from_bytes(os.urandom(4), "little") or 1
        self._handles = itertools.count(epoch << 32)

    # -- metadata operations -------------------------------------------

    def register_daemon(self, addr: str) -> int:
        """Enroll a daemon address; returns its roster slot (idempotent)."""
        with self._lock:
            if addr in self._roster:
                return self._roster.index(addr)
            self._roster.append(addr)
            return len(self._roster) - 1

    @property
    def roster(self) -> list[str]:
        with self._lock:
            return list(self._roster)

    def create(self, name: str, striping: StripingParams) -> FileMetadata:
        striping.validate()
        if not name:
            raise ValueError("file name must not be empty")
        with self._lock:
            if name in self._by_name:
                raise ExistsError(f"file {name!r} already exists")
            if striping.pcount > len(self._roster):
                raise ValueError(
                    f"striping wants {striping.pcount} servers but only "
                    f"{len(self._roster)} registered"
                )
            meta = FileMetadata(
                handle=next(self._handles),
                name=name,
                striping=striping,
                size=0,
                roster=self._roster[: striping.pcount],
            )
            self._by_name[name] = meta
            self._by_handle[meta.handle] = meta
            return meta

    def open(self, name: str) -> FileMetadata:
        with self._lock:
            meta = self._by_name.get(name)
            if meta is None:
                raise NotFoundError(f"no file named {name!r}")
            return meta

    # -- write token -----------------------------------------------------

    def token_acquire(self, handle: int, owner) -> None:
        """Block until this owner holds the file's exclusive token (FIFO)."""
        with self._lock:
            if handle not in self._by_handle:
                raise NotFoundError(f"unknown handle {handle}")
            token = self._tokens.setdefault(handle, _Token())
            if token.holder is None:
                token.holder = owner
                return
            event = threading.Event()
            token.waiters.append((owner, event))
        event.wait()

    def token_release(self, handle: int, owner) -> None:
        with self._lock:
            token = self._tokens.get(handle)
            if token is None or token.holder is not owner:
                raise TokenError(f"handle {handle}: release by a non-holder")
            self._grant_next(token)

    def _grant_next(self, token: _Token) -> None:
        # caller holds self._lock
        if token.waiters:
            next_owner, event = token.waiters.popleft()
            token.holder = next_owner
            event.set()
        else:
            token.holder = None

    def _release_all(self, owner) -> None:
        with self._lock:
            for token in self._tokens.values():
                if token.holder is owner:
                    self._grant_next(token)
                else:
                    token.waiters = deque(
                        (own, ev) for own, ev in token.waiters if own is not owner
                    )

    # -- wire dispatch -----------------------------------------------------

    def dispatch(self, conn_id, header, trailing, data) -> bytes:
        op = header.opcode
        if op == wire.REGISTER:
            slot = self.register_daemon(data.decode("utf-8"))
            return wire.pack_u32(slot)
        if op == wire.CREATE:
            name, striping = wire.decode_create_payload(data)
            meta = self.create(name, striping)
            return wire.encode_metadata_payload(
                meta.handle, meta.striping, meta.size, meta.roster
            )
        if op == wire.OPEN:
            meta = self.open(data.decode("utf-8"))
            return wire.encode_metadata_payload(
                meta.handle, meta.striping, meta.size, meta.roster
            )
        if op == wire.CLOSE:
            return b""
        if op == wire.TOKEN_ACQUIRE:
            self.token_acquire(header.file_handle, conn_id)
            return b""
        if op == wire.TOKEN_RELEASE:
            self.token_release(header.file_handle, conn_id)
            return b""
        raise ProtocolError(
            f"manager does not accept {wire.OPCODE_NAMES.get(op, op)}"
        )

    def connection_closed(self, conn_id) -> None:
        self._release_all(conn_id)


class StripeStore:
    """One sparse backing file per handle under a storage root, opened on
    attach together with the lock that makes one request on it atomic."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._files: dict[int, tuple[int, threading.Lock]] = {}
        self._lock = threading.Lock()

    def path(self, handle: int) -> str:
        return os.path.join(self.root, f"{handle}.stripe")

    def attach(self, handle: int) -> None:
        with self._lock:
            if handle not in self._files:
                fd = os.open(self.path(handle), os.O_RDWR | os.O_CREAT, 0o644)
                self._files[handle] = (fd, threading.Lock())

    def _file(self, handle: int) -> tuple[int, threading.Lock]:
        entry = self._files.get(handle)
        if entry is None:
            raise NotFoundError(f"handle {handle} not attached to this daemon")
        return entry

    def lock(self, handle: int) -> threading.Lock:
        """The request lock of an attached handle."""
        return self._file(handle)[1]

    def pread(self, handle: int, offset: int, length: int) -> bytes:
        data = os.pread(self._file(handle)[0], length, offset)
        if len(data) < length:
            data += bytes(length - len(data))  # holes and EOF read as zeros
        return data

    def pwrite(self, handle: int, offset: int, data) -> None:
        fd = self._file(handle)[0]
        view = memoryview(data)
        pos = offset
        while view:
            written = os.pwrite(fd, view, pos)
            pos += written
            view = view[written:]

    def size(self, handle: int) -> int:
        return os.fstat(self._file(handle)[0]).st_size

    def close(self) -> None:
        with self._lock:
            for fd, _lock in self._files.values():
                os.close(fd)
            self._files.clear()


class IoDaemon(_Endpoint):
    """Stripe server: region-list reads and writes on local stripe files."""

    def __init__(
        self,
        storage_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        manager_addr: str | None = None,
    ):
        super().__init__(host, port)
        self.store = StripeStore(storage_root)
        self.manager_addr = manager_addr
        self.slot: int | None = None

    def start(self) -> None:
        super().start()
        if self.manager_addr is not None:
            self.slot = self._register()

    def stop(self) -> None:
        super().stop()
        self.store.close()

    def _register(self) -> int:
        addr = self.address.encode("utf-8")
        with socket.create_connection(parse_addr(self.manager_addr)) as sock:
            wire.send_request(
                sock,
                wire.IoRequestHeader(wire.REGISTER, request_id=1, length=len(addr)),
                payload=addr,
            )
            _rid, status, payload = wire.recv_response(sock)
            if status != wire.STATUS_OK:
                raise PfsError(
                    f"registration with {self.manager_addr} failed: "
                    f"{payload.decode('utf-8', 'replace')}"
                )
            return wire.unpack_u32(payload)

    # -- storage operations (single-request atomicity per handle) ---------

    def attach(self, handle: int) -> None:
        if handle <= 0:
            raise ProtocolError(f"bad handle {handle}")
        self.store.attach(handle)

    def read(self, handle: int, regions) -> bytes:
        """The bytes of the server-local (offset, length) regions, in order."""
        store = self.store
        with store.lock(handle):
            return b"".join([store.pread(handle, offset, length)
                             for offset, length in regions])

    def write(self, handle: int, regions, data) -> None:
        """Store `data` across the server-local (offset, length) regions."""
        total = 0
        for _offset, length in regions:
            total += length
        if len(data) != total:
            raise ProtocolError(
                f"payload is {len(data)} bytes but regions total {total}"
            )
        store = self.store
        view = memoryview(data)
        pos = 0
        with store.lock(handle):
            for offset, length in regions:
                store.pwrite(handle, offset, view[pos : pos + length])
                pos += length

    def local_size(self, handle: int) -> int:
        with self.store.lock(handle):
            return self.store.size(handle)

    # -- wire dispatch -----------------------------------------------------

    def dispatch(self, conn_id, header, trailing, data) -> bytes:
        op = header.opcode
        handle = header.file_handle
        if op in wire.DATA_OPCODES:
            regions = trailing
            if regions is None:  # a contiguous request: its header's region
                regions = ((header.offset, header.length),)
            if op in wire.READ_OPCODES:
                return self.read(handle, regions)
            self.write(handle, regions, data)
            return b""
        if op == wire.OPEN:
            self.attach(handle)
            return b""
        if op == wire.STAT:
            return wire.pack_u64(self.local_size(handle))
        if op == wire.CLOSE:
            return b""
        raise ProtocolError(
            f"I/O daemon does not accept {wire.OPCODE_NAMES.get(op, op)}"
        )
