"""Benchmark harness: cluster lifecycle, workload matrices, verification, CSV.

A matrix cell is one (workload, strategy, clients, accesses) combination.
For reads the harness prepares the file from the oracle image and checks
every client buffer against it; for writes it reassembles the final file
from the daemons' stripe stores through the inverse striping map and
checks it against the oracle. Timings are hardware-dependent and carry no
absolute expectations; tests assert counts and orderings only.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from . import workloads
from .client import (
    ClientMetrics,
    ListIoConfig,
    SievingConfig,
    access_list,
    access_multiple,
    access_sieving_read,
    access_sieving_write,
    pvfs_create,
    pvfs_open,
    pvfs_read,
    pvfs_write,
)
from .errors import BenchError
from .regions import StripingParams, inverse_stripe_location
from .server import IoDaemon, Manager

STRATEGIES = ("multiple", "sieving", "list")

CSV_COLUMNS = (
    "workload,strategy,clients,accesses,rep,logical_requests,server_messages,"
    "wire_bytes_read,wire_bytes_written,useful_bytes,useful_fraction,"
    "elapsed_us,verified"
)


class Cluster:
    """A running manager plus its registered I/O daemons."""

    def __init__(self, manager: Manager, daemons: list[IoDaemon],
                 storage_roots: list[str], owns_storage: bool = False):
        self.manager = manager
        self.daemons = daemons
        self.storage_roots = storage_roots
        self._owns_storage = owns_storage

    @property
    def manager_addr(self) -> str:
        return self.manager.address

    def shutdown(self) -> None:
        for daemon in self.daemons:
            daemon.stop()
        self.manager.stop()
        if self._owns_storage and self.storage_roots:
            shutil.rmtree(os.path.dirname(self.storage_roots[0]),
                          ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def launch_cluster(
    servers: int = 8,
    storage_root: str | None = None,
    host: str = "127.0.0.1",
    manager_port: int = 0,
) -> Cluster:
    """Start a manager and `servers` I/O daemons as threads in this process.

    Daemons register sequentially so roster order is deterministic. Each
    daemon stores stripes under its own subdirectory of the storage root.
    """
    owns = storage_root is None
    root = storage_root or tempfile.mkdtemp(prefix="listio-pfs-")
    manager = Manager(host, manager_port)
    manager.start()
    daemons: list[IoDaemon] = []
    roots: list[str] = []
    try:
        for i in range(servers):
            sub = os.path.join(root, f"iod{i}")
            daemon = IoDaemon(sub, host, 0, manager_addr=manager.address)
            daemon.start()
            daemons.append(daemon)
            roots.append(sub)
    except BaseException:
        for daemon in daemons:
            daemon.stop()
        manager.stop()
        raise
    return Cluster(manager, daemons, roots, owns_storage=owns)


@dataclass
class BenchConfig:
    workload: str
    strategies: tuple[str, ...] = STRATEGIES
    clients: int = 8
    servers: int = 8
    ssize: int = 16384
    accesses: tuple[int, ...] | None = None
    total_bytes: int = 64 * 2**20
    direction: str | None = None  # defaults per workload (flash writes)
    sieving_buffer: int = 32 * 2**20
    list_limit: int = 64
    reps: int = 3
    verify: bool = True
    seed: int = 0
    flash_blocks: int = 80
    allow_sieving_writes: bool = False
    external_manager: str | None = None
    storage_root: str | None = None

    def resolved_direction(self) -> str:
        if self.direction is not None:
            return self.direction
        return "write" if self.workload == "flash" else "read"


@dataclass
class RepResult:
    rep: int
    merged: ClientMetrics
    per_client: list[ClientMetrics]
    wall: float


@dataclass
class CellResult:
    workload: str
    strategy: str
    clients: int
    accesses: int | None
    direction: str
    reps: list[RepResult] = field(default_factory=list)
    verified: bool | None = None
    failure: str | None = None

    @property
    def per_client_logical_requests(self) -> int:
        values = {m.logical_requests for m in self.reps[0].per_client}
        if len(values) != 1:
            raise BenchError(f"non-uniform per-client request counts: {values}")
        return values.pop()

    @property
    def mean_wall(self) -> float:
        return sum(r.wall for r in self.reps) / len(self.reps)


@dataclass
class BenchReport:
    config: BenchConfig
    cells: list[CellResult]

    @property
    def all_verified(self) -> bool:
        return all(c.verified is not False for c in self.cells)

    def cell(self, strategy: str, accesses: int | None = None) -> CellResult:
        for c in self.cells:
            if c.strategy == strategy and (accesses is None or c.accesses == accesses):
                return c
        raise KeyError((strategy, accesses))


def resolve_accesses(config: BenchConfig) -> list[int | None]:
    """The per-client access counts to sweep; None for fixed-shape workloads."""
    if config.accesses:
        return list(config.accesses)
    if config.workload == "cyclic":
        return [1024]
    if config.workload == "blockblock":
        side = math.isqrt(config.total_bytes)
        grid = math.isqrt(config.clients)
        return [side // grid if grid else side]
    return [None]


def build_specs(config: BenchConfig, accesses: int | None) -> list:
    w = config.workload
    if w == "cyclic":
        base = workloads.CyclicSpec(
            clients=config.clients, client_id=0,
            total_bytes=config.total_bytes, accesses=accesses,
        )
    elif w == "blockblock":
        grid = math.isqrt(config.clients)
        if grid * grid != config.clients:
            raise BenchError(f"blockblock needs a square client count, got "
                             f"{config.clients}")
        side = math.isqrt(config.total_bytes)
        if side * side != config.total_bytes:
            raise BenchError(f"blockblock needs a square total_bytes, got "
                             f"{config.total_bytes}")
        base = workloads.BlockBlockSpec(
            grid=grid, row=0, col=0, side_bytes=side, accesses=accesses,
        )
    elif w == "flash":
        base = workloads.FlashSpec(
            procs=config.clients, proc_id=0, nblocks=config.flash_blocks,
        )
    elif w == "tiled":
        base = workloads.TiledSpec(tile_x=0, tile_y=0)
        if config.clients != base.client_count:
            raise BenchError(
                f"tiled runs use {base.client_count} clients, got "
                f"{config.clients}"
            )
    else:
        raise BenchError(f"unknown workload {w!r}")
    return workloads.client_specs(base)


def _buffer_length(plan) -> int:
    return max((r.end for r in plan.mem), default=0)


def _run_strategy(session, plan, buffer, strategy, direction, config) -> ClientMetrics:
    if strategy == "multiple":
        return access_multiple(session, plan, buffer, direction)
    if strategy == "list":
        return access_list(session, plan, buffer, direction,
                           ListIoConfig(config.list_limit))
    if strategy == "sieving":
        cfg = SievingConfig(config.sieving_buffer)
        if direction == "read":
            return access_sieving_read(session, plan, buffer, cfg)
        return access_sieving_write(session, plan, buffer, cfg)
    raise BenchError(f"unknown strategy {strategy!r}")


def _run_clients_once(
    manager_addr: str, name: str, plans, buffers, strategy: str,
    direction: str, config: BenchConfig,
) -> tuple[list[ClientMetrics], float]:
    """Run all clients concurrently once; returns per-client metrics and wall."""
    n = len(plans)
    results: list[ClientMetrics | None] = [None] * n
    errors: list[tuple[int, Exception]] = []
    barrier = threading.Barrier(n + 1)

    def body(i: int) -> None:
        try:
            session = pvfs_open(manager_addr, name)
            try:
                barrier.wait()
                results[i] = _run_strategy(
                    session, plans[i], buffers[i], strategy, direction, config
                )
            finally:
                session.close()
        except Exception as exc:
            errors.append((i, exc))
            barrier.abort()

    threads = [threading.Thread(target=body, args=(i,), daemon=True)
               for i in range(n)]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        i, exc = errors[0]
        raise BenchError(f"client {i} failed: {exc!r}") from exc
    return [m for m in results if m is not None], wall


def _prepare_file(manager_addr: str, name: str, striping: StripingParams,
                  image=None) -> int:
    session = pvfs_create(manager_addr, name, striping)
    try:
        if image:
            view = memoryview(image)
            slab = 8 * 2**20
            for off in range(0, len(view), slab):
                pvfs_write(session, off, view[off : off + slab])
        return session.handle
    finally:
        session.close()


def first_divergence(a, b) -> int | None:
    """Index of the first differing byte, or None when equal."""
    if bytes(a) == bytes(b):
        return None if len(a) == len(b) else min(len(a), len(b))
    n = min(len(a), len(b))
    step = 1 << 16
    for off in range(0, n, step):
        ca = bytes(a[off : off + step])
        cb = bytes(b[off : off + step])
        if ca != cb:
            for i, (x, y) in enumerate(zip(ca, cb)):
                if x != y:
                    return off + i
    return n


def expected_read_buffer(plan, image, buffer_len: int) -> bytearray:
    """Flat-oracle extraction of the plan's file bytes into a fresh buffer."""
    buf = bytearray(buffer_len)
    pos = 0
    for r in plan.file:
        plan.scatter(buf, pos, memoryview(image)[r.offset : r.end])
        pos += r.length
    return buf


def verify_read_buffers(plans, buffers, image) -> tuple[bool, str | None]:
    for i, (plan, buffer) in enumerate(zip(plans, buffers)):
        expected = expected_read_buffer(plan, image, len(buffer))
        where = first_divergence(buffer, expected)
        if where is not None:
            return False, (
                f"client {i}: buffer diverges at memory offset {where}: "
                f"expected {expected[where]:#04x}, got {buffer[where]:#04x}"
            )
    return True, None


def reassemble_file(storage_roots, handle: int, striping: StripingParams,
                    size: int) -> bytearray:
    """Rebuild the flat file from per-daemon stripe stores (inverse map)."""
    image = bytearray(size)
    ssize = striping.ssize
    for slot in range(striping.pcount):
        path = os.path.join(storage_roots[slot], f"{handle}.stripe")
        if not os.path.exists(path):
            continue
        with open(path, "rb") as f:
            data = f.read()
        for local in range(0, len(data), ssize):
            chunk = data[local : local + ssize]
            start = inverse_stripe_location(slot, local, striping)
            take = min(len(chunk), size - start)
            if take > 0:
                image[start : start + take] = chunk[:take]
    return image


def verify_write_stores(storage_roots, handle: int, striping: StripingParams,
                        image) -> tuple[bool, str | None]:
    actual = reassemble_file(storage_roots, handle, striping, len(image))
    where = first_divergence(actual, image)
    if where is None:
        return True, None
    return False, (
        f"file diverges at offset {where}: expected {image[where]:#04x}, "
        f"got {actual[where]:#04x}"
    )


def run_matrix(config: BenchConfig, cluster: Cluster | None = None) -> BenchReport:
    """Run every (accesses x strategy) cell of the config on one cluster."""
    direction = config.resolved_direction()
    if direction not in ("read", "write"):
        raise BenchError(f"bad direction {config.direction!r}")
    if config.workload == "tiled" and direction == "write":
        raise BenchError("the tiled pattern is read-only (overlaps make "
                         "concurrent writes order-dependent)")
    for strategy in config.strategies:
        if strategy not in STRATEGIES:
            raise BenchError(f"unknown strategy {strategy!r}")
        if (strategy == "sieving" and direction == "write"
                and not config.allow_sieving_writes):
            raise BenchError("sieving writes must be enabled explicitly "
                             "(allow_sieving_writes / --enable-sieving-writes)")

    own: Cluster | None = None
    if cluster is None and config.external_manager is None:
        own = launch_cluster(config.servers, config.storage_root)
        cluster = own
    manager_addr = config.external_manager or cluster.manager_addr
    storage_roots = cluster.storage_roots if cluster is not None else None
    striping = StripingParams(0, config.servers, config.ssize)
    # Fresh file names per call: an external manager outlives this process.
    run_tag = os.urandom(6).hex()

    cells: list[CellResult] = []
    try:
        for accesses in resolve_accesses(config):
            specs = build_specs(config, accesses)
            if len(specs) != config.clients:
                raise BenchError(
                    f"workload implies {len(specs)} clients, config says "
                    f"{config.clients}"
                )
            plans = [s.generate() for s in specs]
            name = specs[0].name
            image = None
            if direction == "read" or config.verify:
                image = workloads.oracle_file_image(specs, config.seed)
            read_file: tuple[str, int] | None = None
            for strategy in config.strategies:
                run_id = f"{run_tag}.{len(cells) + 1}"
                if direction == "read":
                    if read_file is None:
                        fname = f"{name}-a{accesses}-r{run_id}"
                        handle = _prepare_file(manager_addr, fname, striping, image)
                        read_file = (fname, handle)
                    fname, handle = read_file
                    buffers = [bytearray(_buffer_length(p)) for p in plans]
                else:
                    fname = f"{name}-a{accesses}-{strategy}-w{run_id}"
                    handle = _prepare_file(manager_addr, fname, striping)
                    buffers = []
                    for i, plan in enumerate(plans):
                        buf = bytearray(_buffer_length(plan))
                        stream = workloads.client_stream(
                            config.seed, name, i, plan.total_length
                        )
                        plan.scatter(buf, 0, stream)
                        buffers.append(buf)

                cell = CellResult(config.workload, strategy, config.clients,
                                  accesses, direction)
                for rep in range(config.reps):
                    if direction == "read":
                        for buf in buffers:
                            buf[:] = bytes(len(buf))
                    per_client, wall = _run_clients_once(
                        manager_addr, fname, plans, buffers, strategy,
                        direction, config,
                    )
                    merged = ClientMetrics()
                    for m in per_client:
                        merged.add(m)
                    cell.reps.append(RepResult(rep + 1, merged, per_client, wall))

                if config.verify:
                    if direction == "read":
                        ok, detail = verify_read_buffers(plans, buffers, image)
                    elif storage_roots is not None:
                        ok, detail = verify_write_stores(
                            storage_roots, handle, striping, image
                        )
                    else:
                        ok, detail = _verify_write_readback(
                            manager_addr, fname, image
                        )
                    cell.verified = ok
                    cell.failure = detail
                cells.append(cell)
    finally:
        if own is not None:
            own.shutdown()
    return BenchReport(config, cells)


def _verify_write_readback(manager_addr: str, name: str, image) -> tuple[bool, str | None]:
    # External clusters: no direct stripe-store access, read back instead.
    session = pvfs_open(manager_addr, name)
    try:
        actual = bytearray(len(image))
        view = memoryview(actual)
        slab = 8 * 2**20
        for off in range(0, len(image), slab):
            pvfs_read(session, off, view[off : off + slab])
    finally:
        session.close()
    where = first_divergence(actual, image)
    if where is None:
        return True, None
    return False, (
        f"file diverges at offset {where}: expected {image[where]:#04x}, "
        f"got {actual[where]:#04x}"
    )


def report_rows(report: BenchReport) -> list[str]:
    """CSV rows: one per repetition plus a mean row per cell."""
    rows = []
    for cell in report.cells:
        verified = ("skip" if cell.verified is None
                    else "pass" if cell.verified else "fail")
        accesses = "-" if cell.accesses is None else str(cell.accesses)
        direction_major = ("wire_bytes_read" if cell.direction == "read"
                           else "wire_bytes_written")

        def row(rep, m: ClientMetrics, wall: float) -> str:
            moved = getattr(m, direction_major)
            fraction = m.useful_bytes / moved if moved else 0.0
            return (
                f"{cell.workload},{cell.strategy},{cell.clients},{accesses},"
                f"{rep},{m.logical_requests},{m.server_messages},"
                f"{m.wire_bytes_read},{m.wire_bytes_written},{m.useful_bytes},"
                f"{fraction!r},{int(wall * 1e6)},{verified}"
            )

        rows.extend(row(r.rep, r.merged, r.wall) for r in cell.reps)
        rows.append(row("mean", cell.reps[0].merged, cell.mean_wall))
    return rows


def emit_report(report: BenchReport, path: str, append: bool = False) -> None:
    """Write the report as CSV; header only when starting a new file."""
    fresh = not (append and os.path.exists(path) and os.path.getsize(path) > 0)
    with open(path, "a" if append else "w") as f:
        if fresh:
            f.write(CSV_COLUMNS + "\n")
        for row in report_rows(report):
            f.write(row + "\n")
