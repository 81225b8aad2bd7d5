"""Client library: file sessions, the list API, and the access strategies.

A FileSession talks to the manager for metadata and the token, and directly
to the I/O daemons for data. Every data request goes through one executor,
_exchange: it takes an opcode, sorted file regions and a view holding their
bytes in file order, fans the request out per server with regions.fan_out,
moves the bytes, checks reply lengths and counts the traffic. The three
strategies differ only in the logical requests they hand it:

* multiple I/O    - one contiguous READ/WRITE per transfer piece, straight
                    from the piece's memory span;
* data sieving    - one contiguous READ per window of the plan's file
                    extent, scattered from a scratch buffer; writes overlay
                    the window and WRITE it back (read-modify-write under
                    the manager's per-file token);
* list I/O        - one READ_LIST/WRITE_LIST per batch of up to 64 file
                    regions, carried as trailing data.

All strategies move byte-identical data; they differ in request counts and
in how much unwanted data crosses the wire, which ClientMetrics records.
"""

from __future__ import annotations

import itertools
import socket
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter

from . import wire
from .errors import (
    ExistsError,
    NotFoundError,
    PfsError,
    PlanError,
    ProtocolError,
    TokenError,
)
# server_spans and stripe_chunks are not called here. They stay importable from
# here because the benchmark's layer trace (perfbench/layers.py) times the
# regions functions this module imports, and its tests expect these names.
from .regions import (  # noqa: F401
    DEFAULT_REGION_LIMIT,
    RegionList,
    Run,
    StripingParams,
    batch_regions,
    extent,
    fan_out,
    inverse_stripe_location,
    iter_transfer_pieces,
    server_spans,
    stripe_chunks,
    strided_runs,
)
from .server import parse_addr

DEFAULT_SIEVING_BUFFER = 32 * 1024 * 1024


@dataclass
class SievingConfig:
    buffer_size: int = DEFAULT_SIEVING_BUFFER

    def __post_init__(self):
        if self.buffer_size < 1:
            raise ValueError("sieving buffer must be >= 1 byte")


@dataclass
class ListIoConfig:
    region_limit: int = DEFAULT_REGION_LIMIT

    def __post_init__(self):
        if not 1 <= self.region_limit <= wire.MAX_LIST_REGIONS:
            raise ValueError(
                f"region limit must be in 1..{wire.MAX_LIST_REGIONS}"
            )


@dataclass
class ClientMetrics:
    """Per-run counters.

    logical_requests counts strategy-level I/O requests: one per transfer
    piece for multiple I/O, one per 64-region batch for list I/O, one per
    fetched window (two per window written back) for sieving.
    server_messages counts actual wire messages to I/O daemons, which can
    differ once striping fans a request out; wire bytes count data
    payloads only. useful_bytes is the plan's own byte total.
    """

    logical_requests: int = 0
    server_messages: int = 0
    wire_bytes_read: int = 0
    wire_bytes_written: int = 0
    useful_bytes: int = 0
    elapsed: float = 0.0

    def add(self, other: "ClientMetrics") -> None:
        self.logical_requests += other.logical_requests
        self.server_messages += other.server_messages
        self.wire_bytes_read += other.wire_bytes_read
        self.wire_bytes_written += other.wire_bytes_written
        self.useful_bytes += other.useful_bytes
        self.elapsed += other.elapsed

    def minus(self, earlier: "ClientMetrics") -> "ClientMetrics":
        return ClientMetrics(
            self.logical_requests - earlier.logical_requests,
            self.server_messages - earlier.server_messages,
            self.wire_bytes_read - earlier.wire_bytes_read,
            self.wire_bytes_written - earlier.wire_bytes_written,
            self.useful_bytes - earlier.useful_bytes,
            self.elapsed - earlier.elapsed,
        )


# Element sizes that a strided run moves with one memoryview copy.
_ELEMENT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_run_pos = itemgetter(0)


class AccessPlan:
    """Paired memory and file region lists describing one noncontiguous access.

    The i-th byte of the flattened memory list corresponds to the i-th byte
    of the flattened file list. The file list must be sorted and
    non-overlapping; the memory list may be in any order.

    Bytes move between plan order and memory run by run: on first use the
    memory list is grouped into strided runs (regions.strided_runs), and
    whole elements of a run that are 1, 2, 4 or 8 bytes at a stride that
    is a multiple of their size move with one strided memoryview copy.
    """

    __slots__ = ("mem", "file", "total_length", "_runs")

    def __init__(self, mem, file):
        mem = mem if isinstance(mem, RegionList) else RegionList(mem)
        file = file if isinstance(file, RegionList) else RegionList(file)
        if mem.total_length != file.total_length:
            raise PlanError(
                f"memory list covers {mem.total_length} bytes but file list "
                f"covers {file.total_length}"
            )
        if not file.is_sorted_disjoint():
            raise PlanError("file regions must be sorted and non-overlapping")
        self.mem = mem
        self.file = file
        self.total_length = file.total_length
        self._runs: list[Run] | None = None

    def _seek(self, pos: int) -> int:
        """Index of the memory run holding plan byte `pos`."""
        if self._runs is None:
            self._runs = strided_runs(self.mem)
        return bisect_right(self._runs, pos, key=_run_pos) - 1

    def mem_span(self, buffer, pos: int, length: int):
        """The buffer slice holding plan bytes [pos, pos+length) when they
        lie in one memory region, else None."""
        i = self._seek(pos)
        start, offset, size, stride, _count = self._runs[i]
        element, intra = divmod(pos - start, size)
        if intra + length > size:
            return None
        at = offset + element * stride + intra
        return buffer[at : at + length]

    def _move(self, buffer, pos: int, data, into_memory: bool) -> None:
        """Copy plan bytes [pos, pos+len(data)) between `data`, which holds
        them in plan order, and their memory regions in `buffer`: into the
        regions when `into_memory`, else into `data`. Regions are written
        in list order, so where they overlap the later one wins."""
        n = len(data)
        if not n:
            return
        i = self._seek(pos)
        runs = self._runs
        start, offset, size, stride, count = runs[i]
        views = None  # byte views of buffer and data, made for the first cast
        done = 0
        while True:
            rel = pos - start
            code = None
            if stride == size:  # back to back: one slice
                at = offset + rel
                take = min(size * count - rel, n - done)
            else:
                element, intra = divmod(rel, size)
                at = offset + element * stride + intra
                whole = 0 if intra else min(count - element, (n - done) // size)
                if whole > 1 and not stride % size:
                    code = _ELEMENT_FORMATS.get(size)
                # Else one element, or the part of one that the range holds.
                take = whole * size if code else min(size - intra, n - done)
            if code:
                if views is None:
                    views = memoryview(buffer), memoryview(data)
                m = views[0][at : at + (whole - 1) * stride + size]
                m = m.cast(code)[:: stride // size]
                d = views[1][done : done + take].cast(code)
                if into_memory:
                    m[:] = d
                else:
                    d[:] = m
            elif into_memory:
                buffer[at : at + take] = data[done : done + take]
            else:
                data[done : done + take] = buffer[at : at + take]
            done += take
            if done == n:
                return
            pos += take
            if pos == start + size * count:
                i += 1
                start, offset, size, stride, count = runs[i]

    def scatter(self, buffer, pos: int, data) -> None:
        """Copy plan bytes [pos, pos+len(data)) into the memory regions."""
        self._move(buffer, pos, data, True)

    def gather(self, buffer, pos: int, length: int) -> bytes:
        """Collect plan bytes [pos, pos+length) from the memory regions."""
        # One output buffer, not one bytes object per region: a batch of
        # single-element regions would otherwise hold thousands at once.
        out = bytearray(length)
        self._move(buffer, pos, out, False)
        return bytes(out)


def _raise_for_status(status: int, detail: bytes) -> None:
    message = detail.decode("utf-8", "replace")
    if status == wire.STATUS_EXISTS:
        raise ExistsError(message)
    if status == wire.STATUS_NOT_FOUND:
        raise NotFoundError(message)
    if status == wire.STATUS_PROTOCOL:
        raise ProtocolError(message)
    if status == wire.STATUS_TOKEN:
        raise TokenError(message)
    if status == wire.STATUS_INVALID:
        raise ValueError(message)
    raise PfsError(f"server error {status}: {message}")


class _Channel:
    """One request/response connection to a manager or daemon."""

    def __init__(self, addr: str):
        self.addr = addr
        self.sock = socket.create_connection(parse_addr(addr))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rid = itertools.count(1)

    def request(
        self,
        opcode: int,
        *,
        handle: int = 0,
        offset: int = 0,
        length: int = 0,
        regions: RegionList | None = None,
        payload=None,
        out: memoryview | None = None,
    ):
        """Send one request and wait for its response.

        Returns the payload bytes, or the payload length when `out` is
        given (the payload is received straight into it).
        """
        rid = next(self._rid)
        header = wire.IoRequestHeader(
            opcode,
            request_id=rid,
            file_handle=handle,
            offset=offset,
            length=length,
            region_count=0 if regions is None else len(regions),
        )
        wire.send_request(self.sock, header, regions, payload)
        got_rid, status, result = wire.recv_response(self.sock, out=out)
        if got_rid != rid:
            raise ProtocolError(
                f"response id {got_rid} does not match request id {rid}"
            )
        if status != wire.STATUS_OK:
            detail = result if isinstance(result, bytes) else b""
            _raise_for_status(status, detail)
        return result

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class FileSession:
    """A client's handle on one open file; not shared between threads."""

    def __init__(self, manager: _Channel, name: str, handle: int,
                 striping: StripingParams, size: int, roster: list[str]):
        self._manager = manager
        self.name = name
        self.handle = handle
        self.striping = striping
        self.open_size = size
        self.roster = roster
        self._daemons: dict[int, _Channel] = {}
        self.metrics = ClientMetrics()

    def _request(self, slot: int, opcode: int, offset: int = 0, length: int = 0,
                 regions: RegionList | None = None, payload=None, out=None):
        """Send one request on this file to the daemon in `slot`, attaching
        the file on a new channel first; a channel whose attach fails is
        closed. A request that fails on the socket or on a malformed reply
        closes and drops its channel, so unread reply bytes never reach the
        next request."""
        channel = self._daemons.get(slot)
        if channel is None:
            channel = _Channel(self.roster[slot])
            try:
                channel.request(wire.OPEN, handle=self.handle)  # attach
            except BaseException:
                channel.close()
                raise
            self._daemons[slot] = channel
        try:
            return channel.request(opcode, handle=self.handle, offset=offset,
                                   length=length, regions=regions,
                                   payload=payload, out=out)
        except (ProtocolError, OSError):
            del self._daemons[slot]
            channel.close()
            raise

    def stat(self) -> int:
        """Current file size: max written end across daemons, unstriped."""
        end = 0
        for slot in range(self.striping.pcount):
            payload = self._request(slot, wire.STAT)
            local = wire.unpack_u64(payload)
            if local:
                back = inverse_stripe_location(slot, local - 1, self.striping)
                end = max(end, back + 1)
        return end

    def acquire_token(self) -> None:
        self._manager.request(wire.TOKEN_ACQUIRE, handle=self.handle)

    def release_token(self) -> None:
        self._manager.request(wire.TOKEN_RELEASE, handle=self.handle)

    def close(self) -> None:
        try:
            self._manager.request(wire.CLOSE, handle=self.handle)
        except (PfsError, OSError):
            pass
        for channel in self._daemons.values():
            channel.close()
        self._daemons.clear()
        self._manager.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _open_session(manager_addr: str, name: str, opcode: int,
                  payload: bytes) -> FileSession:
    """Send CREATE or OPEN on a new manager channel and wrap the reply's
    metadata in a session; the channel is closed if that fails."""
    channel = _Channel(manager_addr)
    try:
        raw = channel.request(opcode, length=len(payload), payload=payload)
        handle, sp, size, roster = wire.decode_metadata_payload(raw)
    except BaseException:
        channel.close()
        raise
    return FileSession(channel, name, handle, sp, size, roster)


def pvfs_create(
    manager_addr: str, name: str, striping: StripingParams = StripingParams()
) -> FileSession:
    return _open_session(manager_addr, name, wire.CREATE,
                         wire.encode_create_payload(name, striping))


def pvfs_open(manager_addr: str, name: str) -> FileSession:
    return _open_session(manager_addr, name, wire.OPEN, name.encode("utf-8"))


def pvfs_close(session: FileSession) -> None:
    session.close()


# -- the executor ----------------------------------------------------------

def _exchange(session: FileSession, opcode: int, file_regions, view,
              limit: int = DEFAULT_REGION_LIMIT) -> None:
    """Carry out one logical request against the daemons.

    `view` holds the bytes of the sorted `file_regions` in file order: reads
    fill it, writes send it. List opcodes carry at most `limit` regions per
    message. This is the only code that sends data requests to daemons and
    the only code that counts them.
    """
    if not len(view):
        return
    listed = opcode in wire.LIST_OPCODES
    reading = opcode in wire.READ_OPCODES
    m = session.metrics
    m.logical_requests += 1
    for slot, local, runs in fan_out(file_regions, session.striping,
                                     limit if listed else None):
        total = local.total_length
        offset, trailing = (0, local) if listed else (local[0].offset, None)
        # A message made of one run moves straight between socket and view.
        direct = None
        if len(runs) == 1:
            pos, n = runs[0]
            direct = view[pos : pos + n]
        if reading:
            reply = session._request(slot, opcode, offset=offset, length=total,
                                     regions=trailing, out=direct)
            got = reply if direct is not None else len(reply)
            if got != total:
                raise ProtocolError(
                    f"{wire.OPCODE_NAMES[opcode]} returned {got} of {total} bytes"
                )
            if direct is None:
                data = memoryview(reply)
                taken = 0
                for pos, n in runs:
                    view[pos : pos + n] = data[taken : taken + n]
                    taken += n
            m.wire_bytes_read += total
        else:
            payload = direct
            if payload is None:
                payload = b"".join([view[pos : pos + n] for pos, n in runs])
            session._request(slot, opcode, offset=offset, length=total,
                             regions=trailing, payload=payload)
            m.wire_bytes_written += total
        m.server_messages += 1


def _accounted(session: FileSession, useful_bytes: int, body, *args) -> ClientMetrics:
    """Run one API call's body, crediting its useful bytes and elapsed time
    to the session; returns the call's own metrics."""
    before = replace(session.metrics)
    t0 = time.perf_counter()
    body(*args)
    session.metrics.useful_bytes += useful_bytes
    session.metrics.elapsed += time.perf_counter() - t0
    return session.metrics.minus(before)


def _direction_opcode(direction: str, read_op: int, write_op: int) -> int:
    if direction == "read":
        return read_op
    if direction == "write":
        return write_op
    raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")


# -- contiguous access -------------------------------------------------------

def pvfs_read(session: FileSession, file_offset: int, out) -> int:
    """Read len(out) bytes at file_offset into the buffer span."""
    view = memoryview(out)
    _accounted(session, len(view), _exchange, session, wire.READ,
               ((file_offset, len(view)),), view)
    return len(view)


def pvfs_write(session: FileSession, file_offset: int, data) -> int:
    """Write the buffer span at file_offset."""
    view = memoryview(data)
    _accounted(session, len(view), _exchange, session, wire.WRITE,
               ((file_offset, len(view)),), view)
    return len(view)


# -- noncontiguous strategies ----------------------------------------------

def access_multiple(
    session: FileSession, plan: AccessPlan, buffer, direction: str
) -> ClientMetrics:
    """One contiguous request per transfer piece, in plan order."""
    opcode = _direction_opcode(direction, wire.READ, wire.WRITE)
    view = memoryview(buffer)

    def body():
        for mem_offset, file_offset, length in iter_transfer_pieces(plan.mem,
                                                                    plan.file):
            _exchange(session, opcode, ((file_offset, length),),
                      view[mem_offset : mem_offset + length])

    return _accounted(session, plan.total_length, body)


def _window_fragments(plan: AccessPlan, buffer_size: int):
    """Yield (window_start, window_len, fragments) for non-empty windows.

    Windows tile the plan's file extent from its start in buffer_size steps;
    fragments are (file_offset, length, plan_position) triples clipped to
    the window. Windows containing no plan bytes are skipped.
    """
    ext = extent(plan.file)
    regions = plan.file
    count = len(regions)
    r = 0
    r_pos = 0  # plan position of regions[r]
    ws = ext.offset
    while ws < ext.end:
        we = min(ws + buffer_size, ext.end)
        fragments = []
        while r < count:
            reg = regions[r]
            if reg.offset >= we:
                break
            start = max(reg.offset, ws)
            stop = min(reg.end, we)
            if start < stop:
                fragments.append((start, stop - start, r_pos + start - reg.offset))
            if reg.end <= we:
                r += 1
                r_pos += reg.length
            else:
                break
        if fragments:
            yield ws, we - ws, fragments
        ws = we


def _sieve(session: FileSession, plan: AccessPlan, buffer,
           cfg: SievingConfig, writing: bool) -> None:
    """Read each non-empty extent window whole, then move the plan's bytes
    out of it, or into it and write it back whole.

    A window's fragments hold one stretch of plan bytes. When that stretch
    lies in one memory region the fragments move straight between window
    and buffer; otherwise it is staged in plan order and gathered or
    scattered once.
    """
    if not len(plan.file):
        return
    view = memoryview(buffer)
    scratch = bytearray(min(cfg.buffer_size, extent(plan.file).length))
    for ws, wlen, fragments in _window_fragments(plan, cfg.buffer_size):
        window = memoryview(scratch)[:wlen]
        span = ((ws, wlen),)
        _exchange(session, wire.READ, span, window)
        first = fragments[0][2]
        _off, last_len, last = fragments[-1]
        n = last + last_len - first
        stretch = plan.mem_span(view, first, n)
        staged = stretch is None
        if staged:
            stretch = memoryview(plan.gather(view, first, n) if writing
                                 else bytearray(n))
        for file_off, length, pos in fragments:
            w = file_off - ws
            p = pos - first
            if writing:
                window[w : w + length] = stretch[p : p + length]
            else:
                stretch[p : p + length] = window[w : w + length]
        if writing:
            _exchange(session, wire.WRITE, span, window)
        elif staged:
            plan.scatter(view, first, stretch)


def access_sieving_read(
    session: FileSession, plan: AccessPlan, buffer,
    cfg: SievingConfig | None = None,
) -> ClientMetrics:
    """Fetch the plan extent in large windows, scattering wanted bytes."""
    return _accounted(session, plan.total_length, _sieve,
                      session, plan, buffer, cfg or SievingConfig(), False)


def access_sieving_write(
    session: FileSession, plan: AccessPlan, buffer,
    cfg: SievingConfig | None = None,
) -> ClientMetrics:
    """Read-modify-write each extent window under the per-file token.

    Every non-empty window is read in full, overlaid with plan bytes, and
    written back in full, so bytes outside the plan's regions survive. The
    token is held across all windows of the access.
    """
    def body():
        if not len(plan.file):
            return
        session.acquire_token()
        try:
            _sieve(session, plan, buffer, cfg or SievingConfig(), True)
        finally:
            session.release_token()

    return _accounted(session, plan.total_length, body)


def access_list(
    session: FileSession, plan: AccessPlan, buffer, direction: str,
    cfg: ListIoConfig | None = None,
) -> ClientMetrics:
    """Carry file regions as trailing data, 64 per request at most.

    Logical requests count pre-striping batches of the plan's file regions;
    each involved daemon receives that batch's stripe fragments re-batched
    at the same limit per wire message. A batch whose plan bytes lie in one
    memory region moves straight to and from the buffer; any other batch
    is staged in file order and scattered or gathered once.
    """
    opcode = _direction_opcode(direction, wire.READ_LIST, wire.WRITE_LIST)
    limit = (cfg or ListIoConfig()).region_limit
    view = memoryview(buffer)

    def body():
        pos = 0
        for batch in batch_regions(plan.file, limit):
            n = batch.total_length
            direct = plan.mem_span(view, pos, n)
            if direct is not None:
                _exchange(session, opcode, batch, direct, limit)
            elif opcode == wire.READ_LIST:
                staged = bytearray(n)
                _exchange(session, opcode, batch, memoryview(staged), limit)
                plan.scatter(view, pos, staged)
            else:
                _exchange(session, opcode, batch,
                          memoryview(plan.gather(view, pos, n)), limit)
            pos += n

    return _accounted(session, plan.total_length, body)


def pvfs_read_list(
    session: FileSession, plan: AccessPlan, buffer,
    cfg: ListIoConfig | None = None,
) -> ClientMetrics:
    """The list API's read entry point; delegates to the list strategy."""
    return access_list(session, plan, buffer, "read", cfg)


def pvfs_write_list(
    session: FileSession, plan: AccessPlan, buffer,
    cfg: ListIoConfig | None = None,
) -> ClientMetrics:
    """The list API's write entry point; delegates to the list strategy."""
    return access_list(session, plan, buffer, "write", cfg)


def metrics_snapshot(session: FileSession) -> ClientMetrics:
    """Return accumulated session counters and reset them."""
    snap = session.metrics
    session.metrics = ClientMetrics()
    return snap
