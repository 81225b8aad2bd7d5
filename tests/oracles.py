"""Brute-force reference implementations used to derive expected values.

Nothing in here may share logic with the package's arithmetic: layouts are
built by dealing stripes one at a time, geometry by iterating 2-D indices,
window counts by enumerating every window against every region.
"""

from __future__ import annotations


def deal_layout(base: int, pcount: int, ssize: int, nbytes: int):
    """Place a file's bytes by dealing whole stripes round-robin.

    Returns (per_server_lengths, mapping) where mapping[i] is the
    (server, local_offset) of global byte i. Local offsets come from
    appending each dealt stripe to its server's current end, never from
    the closed-form mapping under test.
    """
    fill = [0] * pcount
    mapping = []
    stripe = 0
    placed = 0
    while placed < nbytes:
        server = (base + stripe) % pcount
        take = min(ssize, nbytes - placed)
        start = fill[server]
        for j in range(take):
            mapping.append((server, start + j))
        # a short final stripe still reserves nothing beyond its bytes
        fill[server] += take
        placed += take
        stripe += 1
    return fill, mapping


def interleave_cyclic(clients: int, total_bytes: int, accesses: int, streams):
    """Build the cyclic file image by walking blocks in file order."""
    block = total_bytes // (clients * accesses)
    image = bytearray(total_bytes)
    taken = [0] * clients
    pos = 0
    for i in range(accesses):
        for c in range(clients):
            image[pos : pos + block] = streams[c][taken[c] : taken[c] + block]
            taken[c] += block
            pos += block
    return image


def blockblock_owner_bytes(grid: int, side: int, row: int, col: int) -> list[int]:
    """Global byte offsets owned by one client, by 2-D index iteration."""
    bs = side // grid
    owned = []
    for y in range(side):
        for x in range(side):
            if y // bs == row and x // bs == col:
                owned.append(y * side + x)
    return owned


def offsets_to_regions(offsets: list[int]) -> list[tuple[int, int]]:
    """Collapse sorted byte offsets into maximal (offset, length) runs."""
    regions = []
    for off in offsets:
        if regions and off == regions[-1][0] + regions[-1][1]:
            regions[-1] = (regions[-1][0], regions[-1][1] + 1)
        else:
            regions.append((off, 1))
    return regions


def expand_runs(runs) -> list[tuple[int, int]]:
    """The (offset, size) regions of (pos, offset, size, stride, count)
    strided runs, in order; checks that each run starts at the running byte
    total and that a run of one region has stride == size."""
    regions, pos = [], 0
    for run_pos, offset, size, stride, count in runs:
        assert run_pos == pos and stride > 0 and (count > 1 or stride == size)
        regions += [(offset + k * stride, size) for k in range(count)]
        pos += size * count
    return regions


def region_bytes(regions) -> list[int]:
    """Every byte offset of a region list, in list order."""
    return [off + j for off, n in regions for j in range(n)]


def fragment_regions(regions, pieces_each: int) -> list[tuple[int, int]]:
    """Split each region into equal adjacent pieces."""
    out = []
    for off, length in regions:
        piece = length // pieces_each
        assert piece * pieces_each == length
        out.extend((off + j * piece, piece) for j in range(pieces_each))
    return out


def count_windows(regions, window: int) -> int:
    """Enumerate every extent window and test it against every region."""
    if not regions:
        return 0
    start = regions[0][0]
    end = max(off + ln for off, ln in regions)
    hit = 0
    for ws in range(start, end, window):
        we = min(ws + window, end)
        if any(off < we and off + ln > ws for off, ln in regions):
            hit += 1
    return hit


def coalesce_bitmap(regions) -> list[tuple[int, int]]:
    """Coalesce via an explicit byte-membership set."""
    member = set()
    for off, ln in regions:
        member.update(range(off, off + ln))
    return offsets_to_regions(sorted(member))


def region_byte_set(regions) -> set[int]:
    out = set()
    for off, ln in regions:
        out.update(range(off, off + ln))
    return out


def flash_reference_layout(procs, proc_id, nblocks, nb, guard, nvars, es):
    """Element-by-element enumeration of the checkpoint pattern.

    Returns (mem_regions, file_offsets_by_element) where mem_regions lists
    every memory region in file order and the second value maps each plan
    element to its file offset, both built by nested index iteration.
    """
    side = nb + 2 * guard
    cube = side * side * side
    mem = []
    file_offsets = []
    for v in range(nvars):
        for b in range(nblocks):
            for z in range(nb):
                for y in range(nb):
                    for x in range(nb):
                        elem = ((z + guard) * side + (y + guard)) * side + (x + guard)
                        mem.append((b * cube * nvars * es + elem * nvars * es + v * es,
                                    es))
                        block_index = (v * nblocks + b) * procs + proc_id
                        within = (z * nb + y) * nb + x
                        file_offsets.append(block_index * nb**3 * es + within * es)
    return mem, file_offsets


def tiled_reference_rows(tiles_x, tiles_y, tile_w, tile_h, bpp,
                         overlap_x, overlap_y, i, j):
    """Row regions of one tile by pixel-coordinate iteration."""
    width = tiles_x * tile_w - (tiles_x - 1) * overlap_x
    x0 = i * (tile_w - overlap_x)
    y0 = j * (tile_h - overlap_y)
    return [(((y0 + r) * width + x0) * bpp, tile_w * bpp) for r in range(tile_h)]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def extract(image, regions) -> bytes:
    return b"".join(bytes(image[off : off + ln]) for off, ln in regions)


def overlay(image, regions, data) -> bytearray:
    out = bytearray(image)
    pos = 0
    for off, ln in regions:
        out[off : off + ln] = data[pos : pos + ln]
        pos += ln
    return out


def random_file_regions(rng, max_regions=500, max_size=65536, max_gap=16384):
    """Sorted disjoint (offset, length) list; sizes and gaps log-skewed."""
    count = rng.randint(1, max_regions)
    regions = []
    pos = rng.randrange(0, 65536)
    for _ in range(count):
        pos += int(rng.random() ** 3 * max_gap)
        size = max(1, int(max_size ** rng.random()))
        regions.append((pos, size))
        pos += size
    return regions


def random_mem_regions(rng, total, max_regions=500):
    """Split `total` plan bytes into scattered buffer regions.

    Returns (regions, buffer_length); regions ascend and never overlap.
    """
    sizes = []
    remaining = total
    limit = rng.randint(1, max_regions)
    while remaining and len(sizes) < limit - 1:
        take = rng.randint(1, max(1, remaining // 2)) if remaining > 1 else 1
        sizes.append(take)
        remaining -= take
    if remaining:
        sizes.append(remaining)
    rng.shuffle(sizes)
    regions = []
    pos = rng.randrange(0, 128)
    for size in sizes:
        regions.append((pos, size))
        pos += size + rng.randrange(0, 64)
    return regions, pos
