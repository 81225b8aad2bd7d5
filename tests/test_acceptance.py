"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Counts are exact; data
comparisons are byte-for-byte; wall-clock assertions are orderings only.
"""

import math
import random
import socket
import struct
import threading
import time
from fractions import Fraction

from listio_pfs import client, wire
from listio_pfs.bench import (
    BenchConfig,
    reassemble_file,
    run_matrix,
)
from listio_pfs.client import (
    AccessPlan,
    access_list,
    access_multiple,
    access_sieving_read,
    access_sieving_write,
    pvfs_create,
    pvfs_open,
    pvfs_write,
)
from listio_pfs.regions import (
    RegionList,
    StripingParams,
    count_transfer_pieces,
    extent,
)
from listio_pfs.workloads import (
    FlashSpec,
    TiledSpec,
    flash_counts,
    flash_file_regions,
    flash_mem_regions,
    gen_tiled,
    tiled_counts,
)

from oracles import (
    count_windows,
    overlay,
    per_client_logical_requests,
    random_file_regions,
    random_mem_regions,
    tiled_reference_rows,
    useful_fraction,
)

MIB = 1024 * 1024


def report(n, label, detail=""):
    print(f"ACCEPTANCE {n} ({label}): PASS {detail}".rstrip())


def test_criterion_1_flash_request_counts(cluster):
    # full-size accounting, streamed (no materialized million-entry plan)
    spec = FlashSpec(procs=1, proc_id=0)
    pieces = count_transfer_pieces(flash_mem_regions(spec), flash_file_regions(spec))
    assert pieces == 983040
    counts = flash_counts(spec)
    assert counts["multiple_requests"] == pieces == 983040
    assert counts["list_requests"] == 30
    plan_bytes = sum(r.length for r in flash_mem_regions(spec))
    assert plan_bytes == counts["plan_bytes"] == 7864320

    # extent fits one 32 MiB sieving window for every proc at P <= 4
    for procs in (1, 2, 3, 4):
        for proc in range(procs):
            regions = list(flash_file_regions(FlashSpec(procs=procs, proc_id=proc)))
            ext = extent(RegionList(regions))
            assert ext.length <= 32 * MIB
            assert count_windows([(r.offset, r.length) for r in regions],
                                 32 * MIB) == 1

    # live run at one-tenth block count; counts tie back by formula
    config = BenchConfig(
        workload="flash", strategies=("multiple", "list", "sieving"),
        clients=2, flash_blocks=8, reps=1, seed=101,
    )
    play = run_matrix(config, cluster)
    assert play.all_verified
    multiple = per_client_logical_requests(play.cell("multiple"))
    assert multiple == 98304 == 983040 // 10
    assert per_client_logical_requests(play.cell("list")) == 3 == math.ceil(
        8 * 24 / 64
    )
    assert per_client_logical_requests(play.cell("sieving")) == 2  # 1 window RMW
    for metrics in play.cell("multiple").reps[0].per_client:
        assert metrics.useful_bytes == 7864320 // 10
    report(1, "flash request counts",
           f"pieces=983040 list=30 bytes=7864320; live nblocks=8 -> {multiple}")


def test_criterion_2_tiled_request_counts(cluster):
    spec = TiledSpec(tile_x=0, tile_y=0)
    counts = tiled_counts(spec)
    assert counts["file_regions"] == 768
    assert counts["multiple_requests"] == 768
    assert counts["list_requests"] == 12
    assert counts["file_bytes"] == 10695168

    config = BenchConfig(
        workload="tiled", strategies=("multiple", "list", "sieving"),
        clients=6, reps=1, seed=102,
    )
    play = run_matrix(config, cluster)
    assert play.all_verified
    assert per_client_logical_requests(play.cell("multiple")) == 768
    assert per_client_logical_requests(play.cell("list")) == 12

    useful = 1024 * 3 * 768
    sieving = play.cell("sieving").reps[0].per_client
    fractions = []
    for i, metrics in enumerate(sieving):
        rows = tiled_reference_rows(3, 2, 1024, 768, 3, 270, 128, i % 3, i // 3)
        lo = min(off for off, _ in rows)
        hi = max(off + ln for off, ln in rows)
        oracle = Fraction(useful, hi - lo)
        assert metrics.useful_bytes == useful
        # one window per tile, so wire bytes equal the extent exactly
        got = Fraction(metrics.useful_bytes, metrics.wire_bytes_read)
        assert got == oracle
        plan = gen_tiled(TiledSpec(tile_x=i % 3, tile_y=i // 3))
        assert useful_fraction(plan.file) == float(oracle)
        fractions.append(got)
    assert abs(float(fractions[0]) - 0.405) < 0.001  # roughly a third useful
    report(2, "tiled request counts",
           f"768/12, file={counts['file_bytes']}, fraction(0,0)="
           f"{float(fractions[0]):.4f}")


def test_criterion_3_oracle_equivalence(cluster):
    rng = random.Random(0xACCE55)
    plans_checked = 0
    for trial in range(200):
        file_regions = random_file_regions(rng)
        sizes_ok = all(1 <= ln <= 65536 for _, ln in file_regions)
        assert sizes_ok and 1 <= len(file_regions) <= 500
        total = sum(ln for _, ln in file_regions)
        mem_regions, buflen = random_mem_regions(rng, total)
        plan = AccessPlan(RegionList(mem_regions), RegionList(file_regions))
        sp = StripingParams(0, rng.choice([1, 2, 8]), rng.choice([64, 16384]))
        end = file_regions[-1][0] + file_regions[-1][1]
        base = rng.randbytes(end)
        stream = rng.randbytes(total)

        with pvfs_create(cluster.manager_addr, f"acc3-r-{trial}", sp) as session:
            pvfs_write(session, 0, base)
            expected = bytearray(buflen)
            plan.scatter(expected, b"".join(
                base[off : off + ln] for off, ln in file_regions
            ))
            for runner in (
                lambda b: access_multiple(session, plan, b, "read"),
                lambda b: access_sieving_read(session, plan, b),
                lambda b: access_list(session, plan, b, "read"),
            ):
                buf = bytearray(buflen)
                runner(buf)
                assert buf == expected, f"read mismatch on trial {trial}"

        write_buf = bytearray(buflen)
        plan.scatter(write_buf, stream)
        want = overlay(base, file_regions, stream)
        finals = []
        for tag, runner in (
            ("m", lambda s: access_multiple(s, plan, write_buf, "write")),
            ("s", lambda s: access_sieving_write(s, plan, write_buf)),
            ("l", lambda s: access_list(s, plan, write_buf, "write")),
        ):
            with pvfs_create(cluster.manager_addr, f"acc3-w{tag}-{trial}",
                             sp) as session:
                pvfs_write(session, 0, base)  # untouched bytes must survive
                runner(session)
                final = reassemble_file(cluster.storage_roots, session.handle,
                                        sp, end)
                assert final == want, f"write mismatch ({tag}) on trial {trial}"
                finals.append(bytes(final))
        assert finals[0] == finals[1] == finals[2]
        plans_checked += 1
    assert plans_checked == 200
    report(3, "oracle equivalence", "200 randomized plans, reads+writes, 0 diffs")


def test_criterion_4_batching_and_windowing_laws(cluster, monkeypatch):
    sp = StripingParams(0, 8, 16384)
    for count in (1, 63, 64, 65, 768, 1920):
        plan = AccessPlan(
            RegionList([(0, count * 4)]),
            RegionList([(i * 8, 4) for i in range(count)]),
        )
        with pvfs_create(cluster.manager_addr, f"acc4-{count}", sp) as session:
            pvfs_write(session, 0, bytes(count * 8))
            m = access_list(session, plan, bytearray(count * 4), "read")
            assert m.logical_requests == math.ceil(count / 64)

    rng = random.Random(4444)
    for trial in range(40):
        regions = random_file_regions(rng, max_regions=80, max_size=4096,
                                      max_gap=40000)
        plan = AccessPlan(
            RegionList([(0, sum(ln for _, ln in regions))]),
            RegionList(regions),
        )
        window = rng.choice([2048, 16384, 65536, 262144])
        monkeypatch.setattr(client, "SIEVING_WINDOW", window)
        end = regions[-1][0] + regions[-1][1]
        with pvfs_create(cluster.manager_addr, f"acc4-w-{trial}", sp) as session:
            pvfs_write(session, 0, bytes(end))
            m = access_sieving_read(session, plan, bytearray(plan.total_length))
            assert m.logical_requests == count_windows(regions, window)
    report(4, "batching and windowing laws",
           "ceil(R/64) for R in {1,63,64,65,768,1920}; 40 window enumerations")


def test_criterion_5_wire_bounds():
    # frame bound, exhaustively over every legal region count
    for n in range(1, 65):
        regions = RegionList([(i * 7, 3) for i in range(n)])
        header = wire.IoRequestHeader(
            wire.READ_LIST, request_id=n, file_handle=1,
            length=regions.total_length, region_count=n,
        )
        assert len(wire.encode_request(header, regions)) <= 1500

    rng = random.Random(0x1500)
    round_trips = 0
    contiguous_ops = [wire.CREATE, wire.OPEN, wire.CLOSE, wire.READ, wire.WRITE,
                      wire.TOKEN_ACQUIRE, wire.TOKEN_RELEASE, wire.STAT,
                      wire.REGISTER]
    for _ in range(400):
        header = wire.IoRequestHeader(
            rng.choice(contiguous_ops), request_id=rng.getrandbits(64),
            file_handle=rng.getrandbits(63), offset=rng.getrandbits(50),
            length=rng.getrandbits(30), flags=rng.getrandbits(32),
        )
        assert wire.decode_request(wire.encode_request(header)) == (header, None)
        round_trips += 1
    for _ in range(300):
        n = rng.randint(1, 64)
        regions = RegionList([
            (rng.getrandbits(40), rng.randint(1, 1 << 30)) for _ in range(n)
        ])
        header = wire.IoRequestHeader(
            rng.choice([wire.READ_LIST, wire.WRITE_LIST]),
            request_id=rng.getrandbits(64), file_handle=rng.getrandbits(32),
            length=regions.total_length, region_count=n,
        )
        raw = wire.encode_request(header, regions)
        assert len(raw) <= 1500
        assert wire.decode_request(raw) == (header, regions)
        round_trips += 1
    # responses go through the socket framing; struct packs the expected frame
    writer, reader = socket.socketpair()
    try:
        for _ in range(300):
            rid = rng.getrandbits(64)
            status = rng.randint(0, 6)
            payload = rng.randbytes(rng.randint(0, 3000))
            wire.send_response(writer, rid, status, payload)
            frame = struct.pack("<QIQ", rid, status, len(payload)) + payload
            sent = reader.recv(len(frame), socket.MSG_PEEK | socket.MSG_WAITALL)
            assert sent == frame
            assert wire.recv_response(reader) == (rid, status, payload)
            round_trips += 1
    finally:
        writer.close()
        reader.close()
    assert round_trips >= 1000
    report(5, "wire bounds", f"64-region frame <= 1500; {round_trips} round-trips")


def test_criterion_6_trend_reproduction(cluster):
    accesses = tuple(2**k for k in range(6, 15))
    config = BenchConfig(
        workload="cyclic", strategies=("multiple", "list", "sieving"),
        clients=8, accesses=accesses, total_bytes=64 * MIB,
        reps=1, seed=106,
    )
    play = run_matrix(config, cluster)
    assert play.all_verified

    multiple = {a: play.cell("multiple", a) for a in accesses}
    lists = {a: play.cell("list", a) for a in accesses}
    sieving = {a: play.cell("sieving", a) for a in accesses}

    for a in accesses:
        assert per_client_logical_requests(multiple[a]) == a  # linear, slope 1
        assert per_client_logical_requests(lists[a]) == a // 64  # slope 1/64
        assert per_client_logical_requests(lists[a]) <= \
            per_client_logical_requests(multiple[a])
    # slope ratio is exactly 64:1 across the whole sweep
    assert all(
        per_client_logical_requests(multiple[a])
        == 64 * per_client_logical_requests(lists[a])
        for a in accesses
    )
    # sieving reads move the same extent regardless of fragmentation
    assert {per_client_logical_requests(sieving[a]) for a in accesses} == {2}

    orderings = []
    for a in accesses:
        if a >= 2**10:
            orderings.append((a, lists[a].mean_wall, multiple[a].mean_wall))
            assert lists[a].mean_wall <= multiple[a].mean_wall, (
                f"A={a}: list {lists[a].mean_wall:.3f}s vs "
                f"multiple {multiple[a].mean_wall:.3f}s"
            )
    report(6, "trend reproduction",
           f"A=2^6..2^14 linear 64:1, sieving constant, list<=multiple at "
           f"{[a for a, *_ in orderings]}")


def test_criterion_7_serialization_safety(cluster):
    sp = StripingParams(0, 8, 16384)

    # FIFO grants, observed through real sessions
    name = "acc7-fifo"
    owner = pvfs_create(cluster.manager_addr, name, sp)
    owner.acquire_token()
    grants = []
    waiters = []
    for i in range(7):
        session = pvfs_open(cluster.manager_addr, name)

        def wait(session=session, i=i):
            session.acquire_token()
            grants.append(i)
            session.release_token()
            session.close()

        t = threading.Thread(target=wait, daemon=True)
        t.start()
        waiters.append(t)
        time.sleep(0.05)  # make arrival order unambiguous
    owner.release_token()
    for t in waiters:
        t.join(timeout=10)
        assert not t.is_alive(), "token waiter deadlocked"
    owner.close()
    assert grants == list(range(7))

    # eight concurrent sieving writers on interleaved disjoint regions
    file_name = "acc7-writers"
    rng = random.Random(107)
    base = rng.randbytes(4 * MIB)
    setup = pvfs_create(cluster.manager_addr, file_name, sp)
    pvfs_write(setup, 0, base)
    handle = setup.handle
    setup.close()

    chunk = 4096
    stride = 8 * chunk
    plans, streams = [], []
    for i in range(8):
        regions = [(j * stride + i * chunk, chunk)
                   for j in range(len(base) // stride)]
        plans.append(AccessPlan(
            RegionList([(0, sum(ln for _, ln in regions))]),
            RegionList(regions),
        ))
        streams.append(rng.randbytes(plans[i].total_length))

    failures = []

    def writer(i):
        try:
            session = pvfs_open(cluster.manager_addr, file_name)
            try:
                buf = bytearray(plans[i].total_length)
                plans[i].scatter(buf, streams[i])
                access_sieving_write(session, plans[i], buf)
            finally:
                session.close()
        except Exception as exc:
            failures.append((i, exc))

    threads = [threading.Thread(target=writer, args=(i,), daemon=True)
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "sieving writer deadlocked"
    assert not failures, failures

    want = bytearray(base)
    for i in range(8):
        pos = 0
        for off, ln in [(r.offset, r.length) for r in plans[i].file]:
            want[off : off + ln] = streams[i][pos : pos + ln]
            pos += ln
    final = reassemble_file(cluster.storage_roots, handle, sp, len(base))
    assert final == want
    report(7, "serialization safety",
           "FIFO grants 0..6; 8 tokened writers -> oracle overlay")
