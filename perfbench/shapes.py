"""The three traffic shapes, and the benchmark's own expected bytes.

Region lists are computed here from the paper's layouts, independently of
listio_pfs.workloads; setup checks the program's plans against them. The
expected read buffers and file images come only from these lists and the
seed, so every byte the system returns or writes is checked against data
the system never touched.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

SSIZE = 16384
DAEMONS = 4
STRATEGIES = ("multiple", "list", "sieving")


@dataclass(frozen=True)
class Shape:
    name: str
    direction: str          # "read" or "write"
    threads: int            # client threads, one simulated processor each
    per_round: int          # accesses of each strategy per interleaved round
    sizes: dict             # generator parameters, recorded in the result


SHAPES = {
    "cyclic-small": Shape("cyclic-small", "read", 1, 2, dict(
        clients=2, client_id=0, total_bytes=1 << 20, accesses=1024)),
    "cyclic-large": Shape("cyclic-large", "read", 1, 2, dict(
        clients=2, client_id=0, total_bytes=16 << 20, accesses=64)),
    "flash-write": Shape("flash-write", "write", 2, 3, dict(
        procs=2, nblocks=2, nb=8, guard=4, nvars=24, element_size=8,
        multiple_slice="variable 0, block 0: 512 element pieces")),
}


def stream(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


# -- cyclic ---------------------------------------------------------------

def cyclic_file_regions(clients, client_id, total_bytes, accesses):
    block = total_bytes // (clients * accesses)
    return [((i * clients + client_id) * block, block) for i in range(accesses)]


def cyclic_mem_regions(clients, client_id, total_bytes, accesses):
    block = total_bytes // (clients * accesses)
    return [(0, accesses * block)]


def expected_buffer(mem_regions, file_regions, image) -> bytearray:
    """Read buffer after reading `file_regions` of `image` into `mem_regions`."""
    data = gather(image, file_regions)
    buffer = bytearray(max(off + n for off, n in mem_regions))
    pos = 0
    for off, n in mem_regions:
        buffer[off : off + n] = data[pos : pos + n]
        pos += n
    return buffer


# -- flash checkpoint -------------------------------------------------------

def flash_file_regions(procs, proc_id, nblocks, nb, nvars, element_size, **_):
    """One 4 KiB region per (variable, block): variable-major, then block,
    then processor."""
    size = nb**3 * element_size
    return [(((v * nblocks + b) * procs + proc_id) * size, size)
            for v in range(nvars) for b in range(nblocks)]


def flash_mem_regions(nblocks, nb, guard, nvars, element_size, **_):
    """Interior elements of each guarded cube, one variable at a time."""
    side = nb + 2 * guard
    elem = nvars * element_size
    cube = side**3 * elem
    return [(b * cube + (((z + guard) * side + y + guard) * side + x + guard) * elem
             + v * element_size, element_size)
            for v in range(nvars) for b in range(nblocks)
            for z in range(nb) for y in range(nb) for x in range(nb)]


def flash_buffer_bytes(nblocks, nb, guard, nvars, element_size, **_):
    return nblocks * (nb + 2 * guard) ** 3 * nvars * element_size


def gather(buffer, mem_regions) -> bytes:
    view = memoryview(buffer)
    return b"".join(view[off : off + n] for off, n in mem_regions)


def write_image(pieces) -> bytearray:
    """Flat file after writing each (file_regions, plan_bytes) pair into an
    empty file; it ends at the last byte written."""
    image = bytearray(max(off + n for regions, _ in pieces for off, n in regions))
    for file_regions, data in pieces:
        pos = 0
        for off, n in file_regions:
            image[off : off + n] = data[pos : pos + n]
            pos += n
    return image


# -- striping ---------------------------------------------------------------

def unstripe(stripe_files: dict, ssize: int = SSIZE, pcount: int = DAEMONS,
             base: int = 0) -> bytearray:
    """Rebuild a flat file from per-slot stripe file bytes (inverse map).

    The file ends at the last stored byte; holes read as zeros.
    """
    def file_offset(slot, local):
        j, within = divmod(local, ssize)
        return (j * pcount + (slot - base) % pcount) * ssize + within

    size = max((file_offset(slot, len(data) - 1) + 1
                for slot, data in stripe_files.items() if data), default=0)
    image = bytearray(size)
    for slot, data in stripe_files.items():
        for local in range(0, len(data), ssize):
            start = file_offset(slot, local)
            chunk = data[local : local + ssize]
            image[start : start + len(chunk)] = chunk
    return image


def read_stripe_files(storage_roots: dict, handle: int) -> dict:
    """Stripe file bytes per slot; a missing file is an empty stripe."""
    out = {}
    for slot, root in storage_roots.items():
        path = os.path.join(root, f"{handle}.stripe")
        if os.path.exists(path):
            with open(path, "rb") as f:
                out[slot] = f.read()
    return out


def first_difference(actual, expected):
    """Offset of the first differing byte, or None when equal."""
    if actual == expected:
        return None
    n = min(len(actual), len(expected))
    for i in range(0, n, 4096):
        if actual[i : i + 4096] != expected[i : i + 4096]:
            for j in range(i, min(i + 4096, n)):
                if actual[j] != expected[j]:
                    return j
    return n
