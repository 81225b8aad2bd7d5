"""Deterministic access-plan generators for the three benchmark patterns.

Each generator produces one client's AccessPlan. The cyclic and
checkpoint patterns partition the file exactly across clients; the tiled
pattern overlaps neighbouring tiles. oracle_file_image builds the
ground-truth flat file image used to prepare read runs and to check writes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import chain
from typing import TYPE_CHECKING, ClassVar, Sequence

from .errors import WorkloadError
from .regions import MAX_LIST_REGIONS, RegionList, regions_at

if TYPE_CHECKING:  # the daemons import this module through cli, not client
    from .client import AccessPlan

WORKLOADS = ("cyclic", "flash", "tiled")


@dataclass(frozen=True)
class CyclicSpec:
    """One-dimensional interleave: client c owns every N-th block."""

    name: ClassVar[str] = "cyclic"

    clients: int
    client_id: int
    total_bytes: int = 1 << 30
    accesses: int = 1024

    def __post_init__(self):
        if self.clients < 1 or not 0 <= self.client_id < self.clients:
            raise WorkloadError("client_id must lie in [0, clients)")
        if self.accesses < 1:
            raise WorkloadError("accesses must be >= 1")
        if self.total_bytes % (self.clients * self.accesses):
            raise WorkloadError(
                f"total_bytes {self.total_bytes} not divisible by "
                f"clients*accesses = {self.clients * self.accesses}"
            )

    @property
    def block(self) -> int:
        return self.total_bytes // (self.clients * self.accesses)

    @property
    def file_bytes(self) -> int:
        return self.total_bytes

    @property
    def client_count(self) -> int:
        return self.clients

    def for_client(self, client_id: int) -> "CyclicSpec":
        return replace(self, client_id=client_id)

    def generate(self) -> AccessPlan:
        return gen_cyclic(self)


def gen_cyclic(spec: CyclicSpec) -> AccessPlan:
    from .client import AccessPlan
    block = spec.block
    step = spec.clients * block
    file_regions = regions_at(
        range(spec.client_id * block, spec.accesses * step, step), block)
    mem = RegionList([(0, spec.accesses * block)])
    return AccessPlan(mem, file_regions)


@dataclass(frozen=True)
class FlashSpec:
    """Checkpoint pattern: per-processor blocks of guarded element cubes.

    In memory each block is a (nb+2*guard)^3 cube with nvars consecutive
    element-size values per element; only interior elements are written.
    In file, data is ordered variable-major, then block, then processor,
    so each (variable, block) pair is one contiguous file region.
    """

    name: ClassVar[str] = "flash"

    procs: int
    proc_id: int
    nblocks: int = 80
    nb: int = 8
    guard: int = 4
    nvars: int = 24
    element_size: int = 8

    def __post_init__(self):
        if self.procs < 1 or not 0 <= self.proc_id < self.procs:
            raise WorkloadError("proc_id must lie in [0, procs)")
        for name in ("nblocks", "nb", "nvars", "element_size"):
            if getattr(self, name) < 1:
                raise WorkloadError(f"{name} must be >= 1")
        if self.guard < 0:
            raise WorkloadError("guard must be >= 0")

    @property
    def interior_elements(self) -> int:
        return self.nb**3

    @property
    def region_bytes(self) -> int:
        """File bytes of one (variable, block) pair."""
        return self.interior_elements * self.element_size

    @property
    def cube_side(self) -> int:
        return self.nb + 2 * self.guard

    @property
    def mem_block_bytes(self) -> int:
        return self.cube_side**3 * self.nvars * self.element_size

    @property
    def plan_bytes(self) -> int:
        return self.nblocks * self.interior_elements * self.nvars * self.element_size

    @property
    def file_region_count(self) -> int:
        return self.nvars * self.nblocks

    @property
    def mem_region_count(self) -> int:
        return self.nvars * self.nblocks * self.interior_elements

    @property
    def file_bytes(self) -> int:
        return self.procs * self.plan_bytes

    @property
    def client_count(self) -> int:
        return self.procs

    @property
    def client_id(self) -> int:
        return self.proc_id

    def for_client(self, client_id: int) -> "FlashSpec":
        return replace(self, proc_id=client_id)

    def generate(self) -> AccessPlan:
        return gen_flash(self)


def flash_file_regions(spec: FlashSpec) -> RegionList:
    """One region per (variable, block), variable-major, then block: the
    processor's share of each variable's blocks, all processors' blocks
    interleaved."""
    size = spec.region_bytes
    step = spec.procs * size
    return regions_at(
        range(spec.proc_id * size, spec.file_region_count * step, step), size)


def flash_mem_regions(spec: FlashSpec) -> RegionList:
    """One element-sized region per interior element, variable-major, then
    block, then z, y and x: each block's variable is the same pattern of
    offsets, moved."""
    es = spec.element_size
    side = spec.cube_side
    g = spec.guard
    elem_bytes = spec.nvars * es
    pattern = [(((z + g) * side + y + g) * side + x + g) * elem_bytes
               for z in range(spec.nb) for y in range(spec.nb)
               for x in range(spec.nb)]
    bases = (b * spec.mem_block_bytes + v * es
             for v in range(spec.nvars) for b in range(spec.nblocks))
    return regions_at(
        chain.from_iterable(map(base.__add__, pattern) for base in bases), es)


def gen_flash(spec: FlashSpec) -> AccessPlan:
    from .client import AccessPlan
    return AccessPlan(flash_mem_regions(spec), flash_file_regions(spec))


@dataclass(frozen=True)
class TiledSpec:
    """Row-major frame read by an overlapping grid of display tiles."""

    name: ClassVar[str] = "tiled"

    tile_x: int
    tile_y: int
    tiles_x: int = 3
    tiles_y: int = 2
    tile_w: int = 1024
    tile_h: int = 768
    bytes_per_pixel: int = 3
    overlap_x: int = 270
    overlap_y: int = 128

    def __post_init__(self):
        if not (0 <= self.tile_x < self.tiles_x and 0 <= self.tile_y < self.tiles_y):
            raise WorkloadError("tile coordinates outside the display grid")
        if not (0 <= self.overlap_x < self.tile_w and 0 <= self.overlap_y < self.tile_h):
            raise WorkloadError("overlaps must be smaller than the tile")

    @property
    def width(self) -> int:
        return self.tiles_x * self.tile_w - (self.tiles_x - 1) * self.overlap_x

    @property
    def height(self) -> int:
        return self.tiles_y * self.tile_h - (self.tiles_y - 1) * self.overlap_y

    @property
    def file_bytes(self) -> int:
        return self.width * self.height * self.bytes_per_pixel

    @property
    def origin_x(self) -> int:
        return self.tile_x * (self.tile_w - self.overlap_x)

    @property
    def origin_y(self) -> int:
        return self.tile_y * (self.tile_h - self.overlap_y)

    @property
    def row_bytes(self) -> int:
        return self.tile_w * self.bytes_per_pixel

    @property
    def tile_bytes(self) -> int:
        return self.tile_w * self.tile_h * self.bytes_per_pixel

    @property
    def client_count(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def client_id(self) -> int:
        return self.tile_y * self.tiles_x + self.tile_x

    def for_client(self, client_id: int) -> "TiledSpec":
        return replace(
            self,
            tile_x=client_id % self.tiles_x,
            tile_y=client_id // self.tiles_x,
        )

    def generate(self) -> AccessPlan:
        return gen_tiled(self)


def gen_tiled(spec: TiledSpec) -> AccessPlan:
    from .client import AccessPlan
    bpp = spec.bytes_per_pixel
    step = spec.width * bpp
    first = spec.origin_y * step + spec.origin_x * bpp
    regions = regions_at(range(first, first + spec.tile_h * step, step),
                         spec.row_bytes)
    mem = RegionList([(0, spec.tile_bytes)])
    return AccessPlan(mem, regions)


# -- shared entry points ----------------------------------------------------

def client_specs(base_spec) -> list:
    return [base_spec.for_client(i) for i in range(base_spec.client_count)]


def client_stream(seed: int, workload: str, client_id: int, nbytes: int) -> bytes:
    """Deterministic payload bytes for one client's plan, in plan order."""
    return random.Random(f"{seed}:{workload}:{client_id}").randbytes(nbytes)


def oracle_file_image(specs: Sequence, plans: Sequence, seed: int) -> bytearray:
    """Flat ground-truth image of the whole file for a set of client specs
    and the plans they generated, in the same order.

    Partitioning workloads scatter each client's deterministic stream into
    its file regions, so every byte's owner is recomputable. The tiled
    pattern overlaps between clients, so its image is one global fill.
    """
    if not specs:
        raise WorkloadError("no client specs given")
    name = specs[0].name
    image = bytearray(specs[0].file_bytes)
    if name == "tiled":
        image[:] = random.Random(f"{seed}:tiled:file").randbytes(len(image))
        return image
    for spec, plan in zip(specs, plans):
        data = client_stream(seed, name, spec.client_id, plan.total_length)
        pos = 0
        for offset, length in plan.file:
            image[offset : offset + length] = data[pos : pos + length]
            pos += length
    return image


def flash_counts(spec: FlashSpec) -> dict[str, int]:
    """Analytic request accounting for the checkpoint pattern.

    Every memory region is one element (finer than its 4 KiB file region,
    and aligned to it), so the transfer piece count is the memory region
    count; tests cross-check this against the streaming intersection.
    """
    return {
        "file_regions": spec.file_region_count,
        "region_bytes": spec.region_bytes,
        "mem_regions": spec.mem_region_count,
        "multiple_requests": spec.mem_region_count,
        "list_requests": math.ceil(spec.file_region_count / MAX_LIST_REGIONS),
        "plan_bytes": spec.plan_bytes,
    }


def tiled_counts(spec: TiledSpec) -> dict[str, int]:
    return {
        "file_regions": spec.tile_h,
        "region_bytes": spec.row_bytes,
        "multiple_requests": spec.tile_h,
        "list_requests": math.ceil(spec.tile_h / MAX_LIST_REGIONS),
        "plan_bytes": spec.tile_bytes,
        "file_bytes": spec.file_bytes,
    }
