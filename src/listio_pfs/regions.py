"""Byte-range algebra for striped files.

Everything here is pure arithmetic over (offset, length) pairs: round-robin
stripe mapping, fanning a request's file regions out as per-server
messages, pairing memory and file region lists into transfer pieces,
grouping a region list into strided runs, batching and extents. All
offsets and lengths are byte counts that must fit in 64 bits.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PlanError

U64_MAX = 2**64 - 1

DEFAULT_STRIPE_SIZE = 16384
# The most regions a list request carries: the wire's cap and the list batch.
MAX_LIST_REGIONS = 64


class Region(NamedTuple):
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class StripingParams(NamedTuple):
    """Round-robin placement: starting server slot, slot count, stripe size."""

    base: int = 0
    pcount: int = 8
    ssize: int = DEFAULT_STRIPE_SIZE

    def validate(self) -> "StripingParams":
        if self.pcount < 1:
            raise ValueError("pcount must be >= 1")
        if self.ssize < 1:
            raise ValueError("ssize must be >= 1")
        if not 0 <= self.base < self.pcount:
            raise ValueError("base must be in [0, pcount)")
        return self


def _checked_total(offsets: Sequence[int], lengths: Sequence[int]) -> int:
    """Byte total of the regions (offsets[i], lengths[i]); PlanError naming
    the first one that is empty or leaves the 64-bit byte space. Whole
    columns are checked at once; only a failure walks them one by one."""
    if lengths and (min(lengths) <= 0 or min(offsets) < 0
                    or max(map(add, offsets, lengths)) > U64_MAX):
        for r in map(Region, offsets, lengths):
            if r.length <= 0:
                raise PlanError(f"region {r!r} has non-positive length")
            if r.offset < 0 or r.end > U64_MAX:
                raise PlanError(f"region {r!r} outside the 64-bit byte space")
    return sum(lengths)


class RegionList:
    """Immutable sequence of nonempty regions with a cached byte total."""

    __slots__ = ("_regions", "total_length")

    def __init__(self, regions: Iterable[Region | tuple[int, int]] = ()):
        regs = tuple(
            r if type(r) is Region else Region(r[0], r[1]) for r in regions
        )
        self.total_length = _checked_total([r[0] for r in regs],
                                           [r[1] for r in regs])
        self._regions = regs

    @classmethod
    def from_columns(cls, offsets: Sequence[int],
                     lengths: Sequence[int]) -> "RegionList":
        """The regions (offsets[i], lengths[i]), checked as the constructor
        checks its regions."""
        total = _checked_total(offsets, lengths)
        # tuple.__new__ builds each Region without namedtuple's Python __new__.
        return cls._wrap(
            tuple(map(tuple.__new__, repeat(Region), zip(offsets, lengths))),
            total)

    @classmethod
    def _wrap(cls, regions: tuple[Region, ...], total: int | None = None) -> "RegionList":
        # Internal constructor for regions already known to be valid.
        obj = cls.__new__(cls)
        obj._regions = regions
        obj.total_length = sum(r.length for r in regions) if total is None else total
        return obj

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RegionList._wrap(self._regions[index])
        return self._regions[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, RegionList):
            return self._regions == other._regions
        return NotImplemented

    def __hash__(self):
        return hash(self._regions)

    def __repr__(self) -> str:
        return f"RegionList({list(self._regions)!r})"

    def is_sorted_disjoint(self) -> bool:
        """True when regions ascend by offset and never overlap."""
        prev_end = -1
        for r in self._regions:
            if r.offset < prev_end:
                return False
            prev_end = r.end
        return True


class Run(NamedTuple):
    """`count` regions of `size` bytes at `offset`, `offset + stride`, ...

    `pos` is where the run's first byte sits in the list's flattened bytes.
    A run of one region has `stride == size`, as has any run whose regions
    sit back to back.
    """

    pos: int
    offset: int
    size: int
    stride: int
    count: int


def strided_runs(regions: Iterable[tuple[int, int]]) -> list[Run]:
    """Group a region list, in its order, into runs of equal-size regions
    whose offsets rise by a fixed stride > 0; a region that does not
    continue the current run starts the next one."""
    runs = []
    pos = start = offset = last = size = stride = count = 0
    for off, n in regions:
        gap = off - last
        if n == size and gap > 0 and (gap == stride or count == 1):
            stride = gap
            count += 1
        else:
            if count:
                runs.append(Run(start, offset, size, stride, count))
            start, offset, size, stride, count = pos, off, n, n, 1
        last = off
        pos += n
    if count:
        runs.append(Run(start, offset, size, stride, count))
    return runs


def stripe_location(offset: int, sp: StripingParams) -> tuple[int, int]:
    """Map a file byte offset to (server slot, server-local offset)."""
    k, within = divmod(offset, sp.ssize)
    return (sp.base + k) % sp.pcount, (k // sp.pcount) * sp.ssize + within


def inverse_stripe_location(server: int, local_offset: int, sp: StripingParams) -> int:
    """Map (server slot, server-local offset) back to the file byte offset."""
    j, within = divmod(local_offset, sp.ssize)
    k = j * sp.pcount + (server - sp.base) % sp.pcount
    return k * sp.ssize + within


def stripe_chunks(
    offset: int, length: int, sp: StripingParams
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (server, local_offset, file_offset, length) stripe-bounded runs.

    Runs come out in ascending file order and never cross a stripe edge.
    """
    pos = offset
    end = offset + length
    while pos < end:
        server, local = stripe_location(pos, sp)
        take = min(end - pos, sp.ssize - pos % sp.ssize)
        yield server, local, pos, take
        pos += take


class Message(NamedTuple):
    """One daemon request of a fanned-out logical request.

    `regions` are server-local and in wire order. `runs` map the message's
    bytes to the logical request's file-order bytes as strided runs
    `(pos, offset, size, stride, count)`, like Run: `pos` is a position in
    the message, `offset` one in the request.
    """

    slot: int
    regions: RegionList
    runs: list[tuple[int, int, int, int, int]]


def split_by_server(
    file_regions: Iterable[tuple[int, int]], sp: StripingParams,
    limit: int = MAX_LIST_REGIONS,
) -> list[Message]:
    """Fan sorted, non-overlapping file regions out as list messages.

    Regions are cut at stripe edges and the fragments never re-merged, so
    the wire keeps list granularity. Each server receives its fragments
    sorted by local offset, at most `limit` per message; servers come in
    slot order.
    """
    ssize, pcount, base = sp.ssize, sp.pcount, sp.base
    # slot -> its fragments' local regions, and (request position, length)
    # of each
    by_slot: dict[int, tuple[list[Region], list[tuple[int, int]]]] = (
        defaultdict(lambda: ([], [])))
    pos = 0
    for offset, length in file_regions:
        k, within = divmod(offset, ssize)
        if within + length <= ssize:  # inside one stripe: one fragment
            fragments = by_slot[(base + k) % pcount]
            # tuple.__new__ skips namedtuple's Python-level __new__.
            fragments[0].append(
                tuple.__new__(Region, (k // pcount * ssize + within, length)))
            fragments[1].append((pos, length))
        else:
            for slot, local, file_offset, take in stripe_chunks(offset, length, sp):
                fragments = by_slot[slot]
                fragments[0].append(Region(local, take))
                fragments[1].append((pos + file_offset - offset, take))
        pos += length
    messages = []
    for slot in sorted(by_slot):
        local, spans = by_slot[slot]
        for i in range(0, len(local), limit):
            messages.append(Message(
                slot,
                RegionList._wrap(tuple(local[i : i + limit])),
                strided_runs(spans[i : i + limit]),
            ))
    return messages


def fan_out(
    file_regions: Sequence[tuple[int, int]], sp: StripingParams,
    limit: int | None = None,
) -> list[Message]:
    """The daemon messages of one non-empty logical request, whose bytes
    are taken from its sorted file regions in file order.

    With no limit the request is a contiguous operation on its one region:
    one message per server touched, each a single local span. With a
    limit it is a list operation, split as by split_by_server.
    """
    if limit is not None:
        return split_by_server(file_regions, sp, limit)
    ((offset, length),) = file_regions
    ssize, pcount = sp.ssize, sp.pcount
    if pcount == 1:  # one server, whose local file is the whole file
        return [Message(0, RegionList._wrap((Region(offset, length),), length),
                        [(0, 0, length, length, 1)])]
    k0 = offset // ssize
    k1 = (offset + length - 1) // ssize
    # A server's stripes are every pcount-th stripe from its first one and
    # sit back to back in its local file. So its share of the range is one
    # local span, and its runs are a partial first stripe, its whole
    # stripes as one strided run, and a partial last stripe.
    step = pcount * ssize
    messages = []
    for k in range(k0, min(k0 + pcount, k1 + 1)):
        # Request positions of this server's first and last stripe.
        lo = k * ssize - offset
        hi = lo + (k1 - k) // pcount * step
        head = max(lo, 0)
        tail = min(hi + ssize, length)
        size = (hi - lo) // step * ssize + tail - hi - (head - lo)
        # Request positions of its first and last whole stripe.
        first = lo if lo >= 0 else lo + step
        last = hi if hi + ssize <= length else hi - step
        runs, pos = [], 0
        if first > lo or last < lo:  # a partial first stripe
            pos = min(lo + ssize, tail) - head
            runs.append((0, head, pos, pos, 1))
        if first <= last:
            count = (last - first) // step + 1
            runs.append((pos, first, ssize, step if count > 1 else ssize, count))
        if last < hi and lo < hi:  # a partial last stripe, not the first
            runs.append((size - (tail - hi), hi, tail - hi, tail - hi, 1))
        messages.append(Message(
            (sp.base + k) % pcount,
            RegionList._wrap((Region((k // pcount) * ssize + head - lo, size),),
                             size),
            runs))
    return messages


def server_spans(offset: int, length: int, sp: StripingParams) -> dict[int, Region]:
    """Per-server local span covering a non-empty contiguous file range."""
    return {m.slot: m.regions[0] for m in fan_out(((offset, length),), sp)}


def iter_transfer_pieces(
    mem: Iterable[Region], file: Iterable[Region]
) -> Iterator[tuple[int, int, int]]:
    """Walk two region lists in lockstep, emitting their overlap pieces as
    (mem_offset, file_offset, length): spans contiguous in both lists.

    A piece ends wherever either list moves to its next entry; adjacent
    entries are never merged, so piece count reflects list granularity.
    Raises PlanError when the lists cover different byte totals.
    """
    mem_it = iter(mem)
    file_it = iter(file)
    m = next(mem_it, None)
    f = next(file_it, None)
    m_used = f_used = 0
    while m is not None and f is not None:
        take = min(m.length - m_used, f.length - f_used)
        yield m.offset + m_used, f.offset + f_used, take
        m_used += take
        f_used += take
        if m_used == m.length:
            m = next(mem_it, None)
            m_used = 0
        if f_used == f.length:
            f = next(file_it, None)
            f_used = 0
    if m is not None or f is not None:
        raise PlanError("memory and file lists cover different byte totals")


def count_transfer_pieces(mem: Iterable[Region], file: Iterable[Region]) -> int:
    """Piece count for (possibly lazily generated) region sequences."""
    n = 0
    for _ in iter_transfer_pieces(mem, file):
        n += 1
    return n


def batch_regions(
    file_regions: RegionList, limit: int = MAX_LIST_REGIONS
) -> list[RegionList]:
    """Chop a region list into order-preserving batches of at most `limit`."""
    if limit < 1:
        raise ValueError("batch limit must be >= 1")
    return [file_regions[i : i + limit] for i in range(0, len(file_regions), limit)]


def extent(file_regions: RegionList) -> Region:
    """Minimal region covering a sorted, non-empty region list."""
    if len(file_regions) == 0:
        raise PlanError("extent of an empty region list")
    first = file_regions[0]
    last = file_regions[len(file_regions) - 1]
    return Region(first.offset, last.end - first.offset)

