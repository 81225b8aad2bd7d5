"""Client library: file sessions, the list API, and the access strategies.

A FileSession talks to the manager for metadata and the token, and directly
to the I/O daemons for data. Every data request goes through one executor:
_contiguous takes a READ or WRITE at a file offset and sends it as one
message when it lies in one stripe, else fans it out per server with
regions.fan_out; _exchange sends a fanned-out request's messages in waves,
moves the bytes, checks reply lengths and counts the traffic. The three
strategies differ only in the logical requests they hand it:

* multiple I/O    - one contiguous READ/WRITE per transfer piece, straight
                    from the piece's memory span;
* data sieving    - one contiguous READ per window of the plan's file
                    extent, each reply piece landing straight in the plan's
                    bytes, in a small discard area, or, when it mixes plan
                    and gap bytes, in the session's scratch, from which
                    its plan bytes are copied; writes read the window whole
                    into the scratch, overlay it and WRITE it back
                    (read-modify-write under the manager's per-file token).
                    A plan cuts its windows once per window size, and fans
                    them out and finds where their pieces land once per
                    striping, and keeps them;
* list I/O        - one READ_LIST/WRITE_LIST per batch of up to 64 file
                    regions, carried as trailing data. A plan fans its
                    batches out once per striping and keeps the messages.

A list or sieving access moves its plan's bytes between the buffer and one
staging buffer once (_plan_bytes), unless the plan's memory is one span,
which is used in place; so an access stages at most the plan's bytes. Its
batches and windows then take slices of the staging. Bytes move along
whole run lists with _move, which copies each strided run whole in one
tight loop, or, to gather a plan whose memory regions are the fields of
records (FLASH's cells), each row of records whole into a staging array,
then one strided slice of it per copy. An AccessPlan keeps what it builds
on first use, so it is immutable once used. Every API call counts its
buffer in bytes, whatever the buffer's item size.

All strategies move byte-identical data; they differ in request counts and
in how much unwanted data crosses the wire, which ClientMetrics records.
"""

from __future__ import annotations

import itertools
import mmap
import socket
import time
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

from . import wire
from .errors import (
    PfsError,
    PlanError,
    ProtocolError,
)
from .regions import (
    RegionList,
    Run,
    StripingParams,
    batch_regions,
    extent,
    fan_out,
    inverse_stripe_location,
    iter_transfer_pieces,
    split_by_server,
    strided_runs,
)
# server_spans and stripe_chunks are not called here. They stay importable from
# here because the benchmark's layer trace (perfbench/layers.py) times the
# regions functions this module imports, and its tests expect these names.
from .regions import server_spans, stripe_chunks  # noqa: F401
from .server import parse_addr

# The file extent one sieving request reads, and writes back, at most.
SIEVING_WINDOW = 32 << 20


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


# Element sizes that a strided run moves with one memoryview copy, and the
# format of their element views and staging arrays.
_ELEMENT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _elements(view: memoryview, size: int, skip: int) -> memoryview:
    """`view` from byte `skip` on, cast to `size`-byte elements: the element
    that starts at byte `at` is element `at // size` when `at % size` is
    `skip`."""
    return view[skip : skip + (len(view) - skip) // size * size].cast(
        _ELEMENT_FORMATS[size])


def _gather_fields(fields, b: memoryview, d: memoryview) -> None:
    """Copy every copy of the repeat out of `b` into `d`, in copy order:
    each template run's records whole into one staging array of the
    element's format, then one strided slice of it per copy. Slicing an
    array with a step copies its elements in one pass. The staging array
    holds the plan's bytes."""
    records, copies, size = fields
    staging = array(_ELEMENT_FORMATS[size])
    for at, k in records:
        staging.frombytes(b[at : at + k])
    d_elements = d.cast(_ELEMENT_FORMATS[size])
    width = len(staging) // copies
    for m in range(copies):
        d_elements[m * width : (m + 1) * width] = staging[m::copies]


def _move(runs, buffer, data, into_buffer: bool) -> None:
    """Copy the bytes of strided runs between `data`, which holds each run's
    bytes from its `pos` on, and `buffer`, which holds its regions at their
    offsets: into `buffer` when `into_buffer`, else into `data`. Regions
    are written in run order, so where they overlap the later one wins.

    One tight loop copies each run whole: a back-to-back run as one slice;
    elements of 1, 2, 4 or 8 bytes at a stride that is a multiple of their
    size as one strided slice of element views of buffer and data, cast
    once per call; any other run one region at a time, in order.
    """
    b = memoryview(buffer).cast("B")
    d = memoryview(data).cast("B")
    # The element size, and the byte offsets mod it, of the element views.
    el_size = b_skip = d_skip = 0
    for p, at, size, stride, count in runs:
        if stride == size:
            k = size * count
            if into_buffer:
                b[at : at + k] = d[p : p + k]
            else:
                d[p : p + k] = b[at : at + k]
        elif not stride % size and size in _ELEMENT_FORMATS:
            if size != el_size or at % size != b_skip or p % size != d_skip:
                el_size, b_skip, d_skip = size, at % size, p % size
                b_elements = _elements(b, size, b_skip)
                d_elements = _elements(d, size, d_skip)
            e = at // size
            step = stride // size
            bs = slice(e, e + (count - 1) * step + 1, step)
            e = p // size
            if into_buffer:
                b_elements[bs] = d_elements[e : e + count]
            else:
                d_elements[e : e + count] = b_elements[bs]
        else:
            pairs = zip(range(at, at + count * stride, stride),
                        range(p, p + count * size, size))
            if into_buffer:
                for a, q in pairs:
                    b[a : a + size] = d[q : q + size]
            else:
                for a, q in pairs:
                    d[q : q + size] = b[a : a + size]


class AccessPlan:
    """Paired memory and file region lists describing one noncontiguous access.

    The i-th byte of the flattened memory list corresponds to the i-th byte
    of the flattened file list. The file list must be sorted and
    non-overlapping; the memory list may be in any order.

    Both lists are walked as strided runs (regions.strided_runs), each
    built on first use: the memory runs move the plan's bytes to and from
    the buffer, whole, once per access (gather and scatter), and the file
    regions, cut at window edges and grouped once per window size
    (windows), move them to and from sieving windows. A gather
    copies by fields when the memory regions are the fields of records
    (mem_fields, found on the first gather); a scatter always goes by runs.
    The list messages are fanned out once per striping and batch limit
    (list_requests), and the sieving windows' messages, with where their
    read replies land, once per window size and striping
    (sieving_requests). So a plan is immutable once used: what it built
    for its first access serves every later one.
    """

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
        self._list_requests: dict = {}
        self._windows: dict = {}
        self._sieving_requests: dict = {}

    @cached_property
    def mem_runs(self) -> list[Run]:
        return strided_runs(self.mem)

    @cached_property
    def mem_fields(self):
        """(records, copies, size) when each memory region is one element of
        a size of _ELEMENT_FORMATS and the runs are `copies` copies of the
        first ones, each copy one element further on in memory, and every
        template run of two or more elements is `copies` elements apart;
        else None, as when the memory is one region. Then each template
        element and its copies are the adjacent fields of one record, and
        a run's records sit back to back: `records` holds each template
        run's (offset, bytes). The second copy starts at the first run
        one element past the first run."""
        runs = self.mem_runs
        if not runs or runs[0].size not in _ELEMENT_FORMATS:
            return None
        size = runs[0].size
        second = runs[0].offset + size
        width = next((i for i, run in enumerate(runs) if run.offset == second),
                     0)
        if not width or len(runs) % width:
            return None
        copies = len(runs) // width
        record = copies * size
        template = runs[:width]
        if (any(run.size != size or (run.count > 1 and run.stride != record)
                for run in template)
                or any(b.offset - a.offset != size or b[2:] != a[2:]
                       for a, b in zip(runs, runs[width:]))):
            return None
        return [(run.offset, run.count * record) for run in template], copies, size

    def scatter(self, buffer, data) -> None:
        """Copy the plan's bytes, `data` in plan order, into the memory
        regions."""
        _move(self.mem_runs, buffer, data, True)

    def gather(self, buffer) -> bytearray:
        """Collect the plan's bytes, in plan order, from the memory regions."""
        # One output buffer, not one bytes object per region: a plan of
        # single-element regions would otherwise hold thousands at once.
        out = bytearray(self.total_length)
        fields = self.mem_fields
        if fields is None:
            _move(self.mem_runs, buffer, out, False)
        else:
            _gather_fields(fields, memoryview(buffer).cast("B"),
                           memoryview(out))
        return out

    def list_requests(self, sp: StripingParams, limit: int) -> tuple[list, int]:
        """The plan's list requests on a file striped by `sp`, at most
        `limit` regions a message: one (pos, length, waves) per batch of
        `limit` file regions, whose plan bytes are [pos, pos+length) and
        whose daemon messages are grouped in waves (_waves), and the byte
        count of the largest message. Made on first use, then reused;
        threads that race to make it store equal entries."""
        made = self._list_requests.get((sp, limit))
        if made is None:
            requests, pos, largest = [], 0, 0
            for batch in batch_regions(self.file, limit):
                messages = split_by_server(batch, sp, limit)
                largest = max(largest, max(message.regions.total_length
                                           for message in messages))
                requests.append((pos, batch.total_length, _waves(messages)))
                pos += batch.total_length
            made = self._list_requests[sp, limit] = requests, largest
        return made

    def windows(self, size: int) -> list:
        """(ws, we, first, last, runs) for each window [ws, we) that tiles
        the file extent from its start in `size` steps and holds plan
        bytes: [first, last) are the plan bytes whose file offsets lie in
        it, and `runs` the strided runs of the file regions cut at its
        edges, with positions counted from `first` and offsets from `ws`.
        Windows that hold none are left out, so an empty plan has none.
        Made on first use for each size, then reused; threads that race to
        make it store equal lists."""
        made = self._windows.get(size)
        if made is None:
            made = self._windows[size] = _cut_windows(self.file, size)
        return made

    def sieving_requests(self, size: int,
                         sp: StripingParams) -> tuple[list, int, int, int]:
        """The plan's sieving requests on a file striped by `sp`, one per
        window of windows(size): (extent, first, last, runs, waves, places,
        moved), where the window is `extent` bytes long, [first, last) and
        `runs` are as in windows, `waves` are the daemon messages of its
        READ and its WRITE (regions.fan_out, in one wave), and `places` and
        `moved` say where its READ reply pieces land (_landing). Also the
        byte count of the largest message, and the scratch a read lands
        in: its first `area` bytes take the mixed pieces at their window
        offsets, and the next `discard` bytes every piece without plan
        bytes. Made on first use, then reused; threads that race to make
        it store equal entries."""
        made = self._sieving_requests.get((size, sp))
        if made is None:
            requests, largest, area, discard = [], 0, 0, 0
            for ws, we, first, last, runs in self.windows(size):
                messages = fan_out(ws, we - ws, sp)
                largest = max(largest, max(message.regions.total_length
                                           for message in messages))
                places, moved, spill = _landing(runs, messages)
                if moved:
                    area = max(area, we - ws)
                discard = max(discard, spill)
                requests.append((we - ws, first, last, runs, [messages],
                                 places, moved))
            made = self._sieving_requests[size, sp] = (requests, largest, area,
                                                       discard)
        return made


def _cut_windows(file: RegionList, size: int) -> list:
    """AccessPlan.windows, made with one walk of the file regions: each
    region is cut where it crosses a window edge, and each window's pieces
    are grouped into runs once."""
    if not len(file):
        return []
    ext = extent(file)
    windows, pieces, first, pos = [], [], 0, 0
    ws, we = ext.offset, min(ext.offset + size, ext.end)
    for offset, length in file:
        while offset + length > we:
            if offset < we:
                take = we - offset
                pieces.append((offset - ws, take))
                offset, length, pos = we, length - take, pos + take
            windows.append((ws, we, first, pos, strided_runs(pieces)))
            pieces, first = [], pos
            ws = offset - (offset - ext.offset) % size  # the one holding offset
            we = min(ws + size, ext.end)
        pieces.append((offset - ws, length))
        pos += length
    windows.append((ws, we, first, pos, strided_runs(pieces)))
    return windows


def _landing(runs, messages) -> tuple[list, list, int]:
    """Where the READ reply pieces of a sieving window land, found from its
    plan runs (AccessPlan.windows) and its daemon messages. A reply's
    pieces are the stretches of the window that _pieces cuts from its
    message's runs. Each lands in one of three places:

    * a piece that holds only plan bytes, in the window's plan bytes, at
      their positions (counted from the window's first plan byte);
    * a piece that holds none, in the discard area, from its start;
    * a piece that mixes both, in the scratch at its window offsets.

    Returns, for each message, one (to, start, end) per piece, `to` being
    0, 1 or 2 for the plan bytes, the scratch or the discard area; the
    runs of the plan bytes in mixed pieces, which _move takes out of the
    scratch; and the length of the largest piece discarded."""
    # Each plan region of the window as (start, end, plan position).
    regions = [(at + k * stride, at + k * stride + size, pos + k * size)
               for pos, at, size, stride, count in runs for k in range(count)]
    starts = [start for start, _end, _pos in regions]

    def before(x: int) -> int:
        """The plan bytes of the window that lie before offset x."""
        i = bisect_right(starts, x) - 1
        if i < 0:
            return 0
        start, end, pos = regions[i]
        return pos + min(x, end) - start

    places, mixed, discard = [], [], 0
    for message in messages:
        mine = []
        for _pos, at, size, stride, count in message.runs:
            if stride == size:
                pieces = [(at, at + size * count)]
            else:
                pieces = [(a, a + size)
                          for a in range(at, at + count * stride, stride)]
            for a, b in pieces:
                lo, hi = before(a), before(b)
                if hi - lo == b - a:
                    mine.append((0, lo, hi))
                elif hi == lo:
                    mine.append((2, 0, b - a))
                    discard = max(discard, b - a)
                else:
                    mine.append((1, a, b))
                    mixed.append((a, b))
        places.append(mine)
    # The plan bytes of the mixed pieces as (position, offset, length), in
    # file order, a region cut by two adjacent mixed pieces made whole.
    segments = []
    for a, b in sorted(mixed):
        i = max(bisect_right(starts, a) - 1, 0)
        while i < len(regions) and regions[i][0] < b:
            start, end, pos = regions[i]
            lo, hi = max(start, a), min(end, b)
            if lo < hi:
                if segments and segments[-1][1] + segments[-1][2] == lo:
                    segments[-1][2] += hi - lo
                else:
                    segments.append([pos + lo - start, lo, hi - lo])
            i += 1
    return places, _runs_at(segments), discard


def _runs_at(segments) -> list[Run]:
    """Group (position, offset, length) segments, in file order, into
    strided runs as regions.strided_runs does, except that a segment
    continues a run only if its bytes also follow the run's in position."""
    runs = []
    for pos, offset, length in segments:
        if runs:
            p, at, size, stride, count = runs[-1]
            gap = offset - (at + (count - 1) * stride)
            if (length == size and pos == p + count * size and gap > 0
                    and (gap == stride or count == 1)):
                runs[-1] = Run(p, at, size, gap, count + 1)
                continue
        runs.append(Run(pos, offset, length, length, 1))
    return runs


@contextmanager
def _plan_bytes(plan: AccessPlan, view, reading: bool):
    """The plan's bytes in plan order, for one access: the buffer's own
    slice when the memory runs are one span, else one staging buffer of
    the plan's bytes, gathered before a write or scattered after a read.
    So an access stages at most the plan's bytes, once; and a read that
    fails leaves the buffer unscattered."""
    runs = plan.mem_runs
    if len(runs) == 1 and runs[0].stride == runs[0].size:
        yield view[runs[0].offset : runs[0].offset + plan.total_length]
    elif reading:
        staged = bytearray(plan.total_length)
        yield memoryview(staged)
        plan.scatter(view, staged)
    else:
        yield memoryview(plan.gather(view))


class _Channel:
    """One request/response connection to a manager or daemon. `owed` is the
    id of the last request sent until its whole reply has been read, then
    None: a channel that owes a reply has bytes of it, or of its request,
    unaccounted for on its stream."""

    def __init__(self, addr: str):
        self.sock = socket.create_connection(parse_addr(addr))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rid = itertools.count(1)
        self.owed: int | None = None

    def send(self, opcode: int, handle: int = 0, offset: int = 0,
             length: int = 0, regions: RegionList | None = None,
             payload=None) -> int:
        """Send one request; returns its request id."""
        rid = self.owed = next(self._rid)
        # tuple.__new__ skips namedtuple's Python-level __new__.
        header = tuple.__new__(wire.IoRequestHeader, (
            opcode, rid, handle, offset, length,
            0 if regions is None else len(regions), 0, wire.MAGIC, wire.VERSION,
        ))
        wire.send_request(self.sock, header, regions, payload)
        return rid

    def receive(self, rid: int,
                out: memoryview | list[memoryview] | None = None):
        """Wait for the response to request `rid`.

        Returns the payload bytes, or the payload length when `out` (a
        view, or a list of views filled in turn) is given and the payload
        is received straight into it. An error status
        raises its exception once the whole reply is read.
        """
        got_rid, status, result = wire.recv_response(self.sock, out=out)
        if got_rid != rid:
            raise ProtocolError(
                f"response id {got_rid} does not match request id {rid}"
            )
        self.owed = None  # the whole reply is read, an error's too
        if status != wire.STATUS_OK:
            wire.raise_for_status(status, result)
        return result

    def request(self, opcode: int, **fields):
        """Send one request and wait for its response."""
        return self.receive(self.send(opcode, **fields))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class FileSession:
    """A client's handle on one open file; not shared between threads."""

    def __init__(self, manager: _Channel, name: str, handle: int,
                 striping: StripingParams, roster: list[str]):
        self._manager = manager
        self.name = name
        self.handle = handle
        self.striping = striping
        self.roster = roster
        self._daemons: dict[int, _Channel] = {}
        self.metrics = ClientMetrics()
        self._scratch: mmap.mmap | None = None

    def _scratch_view(self, size: int) -> memoryview:
        """`size` bytes of scratch for sieving windows. The session keeps
        them for its later sieving calls and gives them back on close. They
        are an anonymous mapping of their own: a fresh buffer per call
        would zero its pages on every call, and where the heap placed it
        would decide the process's peak memory."""
        if self._scratch is None or len(self._scratch) < size:
            self._scratch = None  # unmapped once no view of it is left
            self._scratch = mmap.mmap(-1, size)
        return memoryview(self._scratch)[:size]

    def _channel(self, slot: int) -> _Channel:
        """The channel to the daemon in `slot`. A cached one is reused only
        once it has read the whole reply to its last request; else it is
        closed, so no stale reply reaches a later request, and a new one
        attaches the file first. A channel whose attach fails is closed."""
        channel = self._daemons.get(slot)
        if channel is None or channel.owed is not None:
            if channel is not None:
                channel.close()
            channel = _Channel(self.roster[slot])
            try:
                channel.request(wire.OPEN, handle=self.handle)  # attach
            except BaseException:
                channel.close()
                raise
            self._daemons[slot] = channel
        return channel

    def stat(self) -> int:
        """Current file size: max written end across daemons, unstriped."""
        end = 0
        for slot in range(self.striping.pcount):
            local = wire.unpack_u64(
                self._channel(slot).request(wire.STAT, handle=self.handle))
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
        self._scratch = None

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
        handle, sp, _size, roster = wire.decode_metadata_payload(raw)
    except BaseException:
        channel.close()
        raise
    return FileSession(channel, name, handle, sp, roster)


def pvfs_create(
    manager_addr: str, name: str, striping: StripingParams = StripingParams()
) -> FileSession:
    return _open_session(manager_addr, name, wire.CREATE,
                         wire.encode_create_payload(name, striping))


def pvfs_open(manager_addr: str, name: str) -> FileSession:
    return _open_session(manager_addr, name, wire.OPEN, name.encode("utf-8"))


# -- the executor ----------------------------------------------------------

def _waves(messages) -> list:
    """Group fanned-out messages into waves: the k-th wave holds each
    slot's k-th message, so no wave sends two messages to one daemon."""
    waves = []
    depth = {}
    for message in messages:
        k = depth.get(message.slot, 0)
        depth[message.slot] = k + 1
        if k == len(waves):
            waves.append([])
        waves[k].append(message)
    return waves


def _pieces(runs, view):
    """Where a read message's bytes land in `view`, for its reply to be
    received straight into: one slice of it, or a list of slices, one per
    back-to-back stretch, in message order."""
    pieces = []
    for _pos, at, size, stride, count in runs:
        if stride == size:
            pieces.append(view[at : at + size * count])
        else:
            pieces += [view[a : a + size]
                       for a in range(at, at + count * stride, stride)]
    return pieces[0] if len(pieces) == 1 else pieces


def _land(places, into) -> memoryview | list[memoryview]:
    """A sieving READ reply's landing views: each (to, start, end) of
    `places` (_landing) as that slice of `into[to]`. One view, or a list,
    as _pieces gives."""
    views = [into[to][start:end] for to, start, end in places]
    return views[0] if len(views) == 1 else views


def _contiguous(session: FileSession, opcode: int, offset: int, view) -> None:
    """One READ or WRITE of the view's bytes at file `offset`.

    Inside one stripe it is one message, sent from the view or received
    into it, with no fan-out. Otherwise it is fanned out per daemon
    (regions.fan_out) and carried out by _exchange in one wave, since it
    involves each daemon once. A request with a message over
    wire.MAX_PAYLOAD raises ValueError before any message is sent.
    """
    length = len(view)
    if not length:
        return
    sp = session.striping
    k, within = divmod(offset, sp.ssize)
    if within + length > sp.ssize:
        messages = fan_out(offset, length, sp)
        if length > wire.MAX_PAYLOAD:  # else no message can be over the cap
            _check_cap(max(message.regions.total_length
                           for message in messages))
        _exchange(session, opcode, (messages,), view)
        return
    _check_cap(length)
    m = session.metrics
    m.logical_requests += 1
    reading = opcode == wire.READ
    channel = session._channel((sp.base + k) % sp.pcount)
    rid = channel.send(opcode, session.handle, k // sp.pcount * sp.ssize + within,
                       length, None, None if reading else view)
    _counted(m, opcode, channel.receive(rid, view if reading else None), length)


def _check_cap(largest: int) -> None:
    """Refuse a request whose largest message holds `largest` data bytes
    when that is over wire.MAX_PAYLOAD."""
    if largest > wire.MAX_PAYLOAD:
        raise ValueError(wire.over_cap(largest))


def _exchange(session: FileSession, opcode: int, waves, view,
              landing=None) -> None:
    """Carry out one fanned-out logical request against the daemons.

    `view` holds the bytes of the request's sorted file regions in file
    order: reads fill it, writes send it. `waves` are its daemon messages
    (regions.Message), grouped so that no wave holds two for one daemon;
    a list request's come ready-made from its plan (list_requests). Each
    wave is sent to all its daemons before any reply is awaited. This and
    the one-stripe path of _contiguous are the only code that sends data
    requests to daemons and that counts them.

    A read's reply is received straight into the slices of the view it
    fills (_pieces), or, when `landing` is given, into the views it yields
    for each message in send order (a sieving read's, _land). A write of
    one back-to-back run is sent from the view; any other write's payload
    is copied out run by run just before it is sent. A failure leaves each channel that did not return its
    whole reply owing it, and FileSession._channel replaces such a channel
    before its next use.
    """
    reading = opcode in wire.READ_OPCODES
    listed = opcode in wire.LIST_OPCODES
    m = session.metrics
    m.logical_requests += 1
    for wave in waves:
        sent = []
        for slot, local, runs in wave:
            total = local.total_length
            offset, trailing = (0, local) if listed else (local[0].offset, None)
            channel = session._channel(slot)
            out = payload = None
            if reading:
                out = _pieces(runs, view) if landing is None else next(landing)
            elif len(runs) == 1 and runs[0][2] == runs[0][3]:  # size == stride
                payload = view[runs[0][1] : runs[0][1] + total]
            else:
                payload = bytearray(total)
                _move(runs, view, payload, False)
            rid = channel.send(opcode, session.handle, offset, total,
                               trailing, payload)
            sent.append((channel, rid, out, total))
        for channel, rid, out, total in sent:
            _counted(m, opcode, channel.receive(rid, out), total)


def _counted(m: ClientMetrics, opcode: int, got, total: int) -> None:
    """Count one daemon message of `total` data bytes. `got` is what the
    channel's receive returned: for a read, the byte count its reply put
    in place, which must be `total`; a write's reply is not looked at."""
    if opcode in wire.READ_OPCODES:
        if got != total:
            raise ProtocolError(f"{wire.OPCODE_NAMES[opcode]} "
                                f"returned {got} of {total} bytes")
        m.wire_bytes_read += total
    else:
        m.wire_bytes_written += total
    m.server_messages += 1


def _accounted(session: FileSession, useful_bytes: int, body, *args) -> ClientMetrics:
    """Run one API call's body on fresh metrics, which it returns and adds to
    the session's even on failure; only success credits useful bytes and time."""
    total, call = session.metrics, ClientMetrics()
    session.metrics = call
    t0 = time.perf_counter()
    try:
        body(*args)
        call.useful_bytes += useful_bytes
        call.elapsed += time.perf_counter() - t0
    finally:
        session.metrics = total
        total.add(call)
    return call


def _direction_opcode(direction: str, read_op: int, write_op: int) -> int:
    if direction == "read":
        return read_op
    if direction == "write":
        return write_op
    raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")


# -- contiguous access -------------------------------------------------------

def pvfs_read(session: FileSession, file_offset: int, out) -> int:
    """Fill the buffer with the bytes at file_offset; returns its byte count."""
    view = memoryview(out).cast("B")
    _accounted(session, len(view), _contiguous, session, wire.READ,
               file_offset, view)
    return len(view)


def pvfs_write(session: FileSession, file_offset: int, data) -> int:
    """Write the buffer's bytes at file_offset; returns their count."""
    view = memoryview(data).cast("B")
    _accounted(session, len(view), _contiguous, session, wire.WRITE,
               file_offset, view)
    return len(view)


# -- noncontiguous strategies ----------------------------------------------

def access_multiple(
    session: FileSession, plan: AccessPlan, buffer, direction: str
) -> ClientMetrics:
    """One contiguous request per transfer piece, in plan order."""
    opcode = _direction_opcode(direction, wire.READ, wire.WRITE)
    view = memoryview(buffer).cast("B")

    def body():
        for mem_offset, file_offset, length in iter_transfer_pieces(plan.mem,
                                                                    plan.file):
            _contiguous(session, opcode, file_offset,
                        view[mem_offset : mem_offset + length])

    return _accounted(session, plan.total_length, body)


def _sieve(session: FileSession, plan: AccessPlan, staged: memoryview,
           writing: bool) -> None:
    """Move the plan's bytes between each extent window that holds some and
    `staged`, the plan's bytes in plan order, with the window's READ and,
    for a write, its WRITE; the plan made their messages and landing once
    (AccessPlan.sieving_requests), so no message is over the cap when the
    first is sent.

    A read lands each reply piece where its bytes belong (_landing): a
    piece of plan bytes only straight in `staged`, a piece without any in
    the discard area, and only a piece that mixes both in the scratch,
    whose plan bytes then move into `staged` with one walk of their runs.
    A write reads each window whole into the scratch, overlays it from
    `staged` along the window's runs and writes it back whole. The session
    keeps the scratch; each access takes it once, at the size it needs."""
    requests, largest, area, discard = plan.sieving_requests(
        SIEVING_WINDOW, session.striping)
    _check_cap(largest)
    if writing:
        scratch = session._scratch_view(requests[0][0])  # the largest window
        for extent, first, last, runs, waves, _places, _moved in requests:
            window = scratch[:extent]
            _exchange(session, wire.READ, waves, window)
            _move(runs, window, staged[first:last], True)
            _exchange(session, wire.WRITE, waves, window)
        return
    scratch = spill = None
    if area + discard:
        scratch = session._scratch_view(area + discard)
        spill = scratch[area:]
    for _extent, first, last, _runs, waves, places, moved in requests:
        into = (staged[first:last], scratch, spill)
        _exchange(session, wire.READ, waves, None,
                  (_land(mine, into) for mine in places))
        if moved:
            _move(moved, scratch, into[0], False)


def access_sieving_read(
    session: FileSession, plan: AccessPlan, buffer
) -> ClientMetrics:
    """Fetch the plan extent in large windows, landing wanted bytes in
    place (_sieve). A plan whose memory is not one span is staged: the
    buffer is filled with one scatter once every window is read, so a
    failed access leaves it untouched. A plan whose memory is one span
    receives into the buffer itself, so, as with a list read, a failed
    access may leave part of it filled."""
    view = memoryview(buffer).cast("B")

    def body():
        with _plan_bytes(plan, view, True) as staged:
            _sieve(session, plan, staged, False)

    return _accounted(session, plan.total_length, body)


def access_sieving_write(
    session: FileSession, plan: AccessPlan, buffer
) -> ClientMetrics:
    """Read-modify-write each extent window under the per-file token.

    Every non-empty window is read in full, overlaid with plan bytes, and
    written back in full, so bytes outside the plan's regions survive. The
    token is held across all windows of the access. A plan whose memory is
    not one span is gathered once, before the token is taken, into one
    staging buffer of the plan's bytes; so only the window reads, the
    overlays and the writes hold the token.
    """
    view = memoryview(buffer).cast("B")

    def body():
        if not len(plan.file):
            return
        with _plan_bytes(plan, view, False) as staged:
            session.acquire_token()
            try:
                _sieve(session, plan, staged, True)
            finally:
                session.release_token()

    return _accounted(session, plan.total_length, body)


def access_list(
    session: FileSession, plan: AccessPlan, buffer, direction: str
) -> ClientMetrics:
    """Carry file regions as trailing data, 64 per request at most.

    Logical requests count pre-striping batches of the plan's file regions;
    each involved daemon receives that batch's stripe fragments re-batched
    at the same limit per wire message. The messages are fanned out once
    per plan, striping and limit (AccessPlan.list_requests) and reused by
    every later access. A plan with a message over wire.MAX_PAYLOAD raises
    ValueError before any message is sent. A plan whose memory is one
    span moves straight to and from the buffer. Any other plan is staged
    once per access (_plan_bytes), in plan order, which is the file order:
    a write gathers it before the first batch, and a read scatters it after
    the last, so a read that fails leaves the buffer untouched. Each batch
    takes its slice of the staging.
    """
    opcode = _direction_opcode(direction, wire.READ_LIST, wire.WRITE_LIST)
    view = memoryview(buffer).cast("B")

    def body():
        requests, largest = plan.list_requests(session.striping,
                                               wire.MAX_LIST_REGIONS)
        _check_cap(largest)
        with _plan_bytes(plan, view, opcode == wire.READ_LIST) as staged:
            for pos, n, waves in requests:
                _exchange(session, opcode, waves, staged[pos : pos + n])

    return _accounted(session, plan.total_length, body)


def pvfs_read_list(
    session: FileSession, plan: AccessPlan, buffer
) -> ClientMetrics:
    """The list API's read entry point; delegates to the list strategy."""
    return access_list(session, plan, buffer, "read")


def pvfs_write_list(
    session: FileSession, plan: AccessPlan, buffer
) -> ClientMetrics:
    """The list API's write entry point; delegates to the list strategy."""
    return access_list(session, plan, buffer, "write")
