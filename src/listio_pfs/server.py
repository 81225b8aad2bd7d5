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
import mmap
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


def parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {addr!r}, expected HOST:PORT")
    return host, int(port)


class _Connection:
    """One client connection. It owns the buffer that every request's data
    passes through: an anonymous mapping, replaced by a larger one when a
    request needs more room, never larger than wire.MAX_PAYLOAD, and
    dropped with the connection. A fresh mapping commits no memory until
    the data arrives. The manager holds write tokens in a connection's
    name."""

    __slots__ = ("_map", "_view")

    def __init__(self):
        self._map = None
        self._view = memoryview(b"")

    def buffer(self, size: int) -> memoryview:
        """The first `size` bytes of the buffer; ValueError over the cap."""
        if size > len(self._view):
            if size > wire.MAX_PAYLOAD:
                raise ValueError(wire.over_cap(size))
            self._view = self._map = None  # unmapped once no view is left
            self._map = mmap.mmap(-1, size)
            self._view = memoryview(self._map)
        return self._view[:size]


class _Endpoint:
    """Shared TCP plumbing: a threaded accept loop over framed requests."""

    def __init__(self, host: str, port: int):
        endpoint = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                sock = self.request
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = _Connection()
                try:
                    while True:
                        frame = wire.recv_request(sock, conn.buffer)
                        if frame is None:
                            return
                        header, trailing, data = frame
                        try:
                            if data is None:  # over the cap, left unread
                                raise ValueError(wire.over_cap(header.length))
                            payload = endpoint.dispatch(conn, header, trailing, data)
                            wire.send_response(sock, header.request_id, wire.STATUS_OK,
                                               payload)
                        except Exception as exc:  # per-request failure
                            wire.send_response(sock, header.request_id,
                                               wire.status_for(exc),
                                               str(exc).encode("utf-8"))
                            if data is None or isinstance(exc, ProtocolError):
                                return  # stream holds a payload or is desynchronized
                except (ProtocolError, ConnectionError, OSError):
                    return  # peer went away or sent garbage mid-frame
                finally:
                    endpoint.connection_closed(conn)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

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
    def dispatch(self, conn: _Connection, header, trailing, data):
        """Serve one request; returns the reply payload, which may be a
        view of the connection's buffer."""
        raise NotImplementedError

    def connection_closed(self, conn: _Connection) -> None:
        pass


class _Token:
    __slots__ = ("holder", "waiters")

    def __init__(self):
        self.holder = None
        self.waiters: deque = deque()  # owners, in arrival order


class Manager(_Endpoint):
    """Metadata daemon: create/open, daemon roster, per-file write token."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        # Guards every table below; token waiters wait on it.
        self._lock = threading.Condition()
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
        """Block until this owner holds the file's exclusive token; waiters
        queue in arrival order on the manager's lock until _grant_next."""
        with self._lock:
            if handle not in self._by_handle:
                raise NotFoundError(f"unknown handle {handle}")
            token = self._tokens.setdefault(handle, _Token())
            if token.holder is owner:  # it would wait on itself for good
                raise TokenError(f"handle {handle}: acquire by its holder")
            if token.holder is None:
                token.holder = owner
                return
            token.waiters.append(owner)
            self._lock.wait_for(lambda: token.holder is owner)

    def token_release(self, handle: int, owner) -> None:
        with self._lock:
            token = self._tokens.get(handle)
            if token is None or token.holder is not owner:
                raise TokenError(f"handle {handle}: release by a non-holder")
            self._grant_next(token)

    def _grant_next(self, token: _Token) -> None:
        # caller holds self._lock
        token.holder = token.waiters.popleft() if token.waiters else None
        self._lock.notify_all()

    def _release_all(self, owner) -> None:
        # A closing connection has left dispatch, so it waits on no token.
        with self._lock:
            for token in self._tokens.values():
                if token.holder is owner:
                    self._grant_next(token)

    # -- wire dispatch -----------------------------------------------------

    def dispatch(self, conn, header, trailing, data) -> bytes:
        op = header.opcode
        if op == wire.REGISTER:
            slot = self.register_daemon(str(data, "utf-8"))
            return wire.pack_u32(slot)
        if op == wire.CREATE:
            name, striping = wire.decode_create_payload(data)
            meta = self.create(name, striping)
            return wire.encode_metadata_payload(
                meta.handle, meta.striping, meta.size, meta.roster
            )
        if op == wire.OPEN:
            meta = self.open(str(data, "utf-8"))
            return wire.encode_metadata_payload(
                meta.handle, meta.striping, meta.size, meta.roster
            )
        if op == wire.CLOSE:
            return b""
        if op == wire.TOKEN_ACQUIRE:
            self.token_acquire(header.file_handle, conn)
            return b""
        if op == wire.TOKEN_RELEASE:
            self.token_release(header.file_handle, conn)
            return b""
        raise ProtocolError(
            f"manager does not accept {wire.OPCODE_NAMES.get(op, op)}"
        )

    def connection_closed(self, conn) -> None:
        self._release_all(conn)


_ZEROS = memoryview(bytes(1 << 16))  # source of the zeros past a file's end


class StripeStore:
    """One sparse backing file per handle under a storage root, opened on
    attach. It has no lock: IoDaemon calls it under its own."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._files: dict[int, int] = {}

    def path(self, handle: int) -> str:
        return os.path.join(self.root, f"{handle}.stripe")

    def attach(self, handle: int) -> None:
        if handle not in self._files:
            self._files[handle] = os.open(self.path(handle),
                                          os.O_RDWR | os.O_CREAT, 0o644)

    def file(self, handle: int) -> int:
        """The descriptor of an attached handle."""
        fd = self._files.get(handle)
        if fd is None:
            raise NotFoundError(f"handle {handle} not attached to this daemon")
        return fd

    def pread(self, handle: int, offset: int, out) -> None:
        """Fill the writable view `out` from `offset`; holes read as zeros,
        and so does a tail past the end of the file."""
        got = os.preadv(self.file(handle), (out,), offset)
        while got < len(out):
            n = min(len(out) - got, len(_ZEROS))
            out[got : got + n] = _ZEROS[:n]
            got += n

    def pwrite(self, handle: int, offset: int, data) -> None:
        fd = self.file(handle)
        view = memoryview(data)
        pos = offset
        while view:
            written = os.pwrite(fd, view, pos)
            pos += written
            view = view[written:]

    def size(self, handle: int) -> int:
        return os.fstat(self.file(handle)).st_size

    def close(self) -> None:
        for fd in self._files.values():
            os.close(fd)
        self._files.clear()


class IoDaemon(_Endpoint):
    """Stripe server: region-list reads and writes on local stripe files.
    A thread serves each connection, and each storage request runs whole
    under the daemon's one lock, so no two overlap, on any handle."""

    def __init__(
        self,
        storage_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        manager_addr: str | None = None,
    ):
        super().__init__(host, port)
        self.store = StripeStore(storage_root)
        self._lock = threading.Lock()
        self.manager_addr = manager_addr
        self.slot: int | None = None

    def start(self) -> None:
        super().start()
        if self.manager_addr is not None:
            try:
                self.slot = self._register()
            except BaseException:
                self.stop()
                raise

    def stop(self) -> None:
        super().stop()
        with self._lock:
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
                detail = f"registration with {self.manager_addr} failed: "
                wire.raise_for_status(status, detail.encode("utf-8") + payload)
            return wire.unpack_u32(payload)

    # -- storage operations (one request at a time) ----------------------
    # An unattached handle raises NotFoundError in the first region's pread
    # or pwrite, before any byte moves (every request has a region).

    def attach(self, handle: int) -> None:
        if handle <= 0:
            raise ProtocolError(f"bad handle {handle}")
        with self._lock:
            self.store.attach(handle)

    def read(self, handle: int, regions, out) -> None:
        """Fill the view `out` with the bytes of the server-local (offset,
        length) regions, in order; `out` is as long as they are together."""
        store = self.store
        pos = 0
        with self._lock:
            for offset, length in regions:
                store.pread(handle, offset, out[pos : pos + length])
                pos += length

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
        with self._lock:
            for offset, length in regions:
                store.pwrite(handle, offset, view[pos : pos + length])
                pos += length

    def local_size(self, handle: int) -> int:
        with self._lock:
            return self.store.size(handle)

    # -- wire dispatch -----------------------------------------------------

    def dispatch(self, conn, header, trailing, data):
        op = header.opcode
        handle = header.file_handle
        if op in wire.DATA_OPCODES:
            regions = trailing
            if regions is None:  # a contiguous request: its header's region
                regions = ((header.offset, header.length),)
            if op in wire.READ_OPCODES:
                out = conn.buffer(header.length)
                self.read(handle, regions, out)
                return out
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
