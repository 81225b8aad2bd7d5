import contextlib
import gc
import math
import random
import socket
import socketserver
import threading
import time
import warnings
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listio_pfs import client as client_module
from listio_pfs import wire
from listio_pfs.client import (
    AccessPlan,
    ClientMetrics,
    FileSession,
    access_list,
    access_multiple,
    access_sieving_read,
    access_sieving_write,
    pvfs_create,
    pvfs_open,
    pvfs_read,
    pvfs_read_list,
    pvfs_write,
    pvfs_write_list,
    _move,
)
from listio_pfs.errors import NotFoundError, PlanError, ProtocolError
from listio_pfs.regions import (
    RegionList,
    Run,
    StripingParams,
    fan_out,
    split_by_server,
    strided_runs,
)
from listio_pfs.bench import reassemble_file
from listio_pfs.workloads import CyclicSpec, FlashSpec, gen_cyclic, gen_flash

from oracles import (
    count_windows,
    flash_reference_layout,
    overlay,
    random_file_regions,
    random_mem_regions,
)

SP = StripingParams(0, 8, 16384)


def make_plan(file_regions, mem_regions=None):
    file_rl = RegionList(file_regions)
    if mem_regions is None:
        mem_regions = [(0, file_rl.total_length)]
    return AccessPlan(RegionList(mem_regions), file_rl)


def prepared_file(cluster, unique_name, image, sp=SP):
    session = pvfs_create(cluster.manager_addr, unique_name("prep"), sp)
    if image:
        pvfs_write(session, 0, image)
    return session


class TestSessions:
    def test_create_open_close(self, cluster, unique_name):
        name = unique_name()
        sp = StripingParams(0, 4, 8192)
        created = pvfs_create(cluster.manager_addr, name, sp)
        assert created.striping == sp
        assert len(created.roster) == 4
        created.close()
        opened = pvfs_open(cluster.manager_addr, name)
        assert opened.striping == sp
        assert opened.handle == created.handle
        opened.close()

    def test_open_unknown(self, cluster):
        with pytest.raises(NotFoundError):
            pvfs_open(cluster.manager_addr, "missing-file")

    def test_stat_after_sparse_write(self, cluster, unique_name):
        with pvfs_create(cluster.manager_addr, unique_name(), SP) as session:
            offset = 5 * 16384 + 123
            pvfs_write(session, offset, b"z")
            assert session.stat() == offset + 1


class TestContiguous:
    def test_round_trip_16k(self, cluster, unique_name):
        with prepared_file(cluster, unique_name, b"") as session:
            data = random.Random(0).randbytes(16384)
            pvfs_write(session, 0, data)
            out = bytearray(16384)
            assert pvfs_read(session, 0, out) == 16384
            assert bytes(out) == data

    def test_two_stripes_two_messages(self, cluster, unique_name):
        with prepared_file(cluster, unique_name, b"") as session:
            pvfs_write(session, 0, bytes(32768))
            assert session.metrics.server_messages == 2
            assert session.metrics.logical_requests == 1

    @pytest.mark.parametrize("length, small", [(16 * 16384, False),
                                               (16 * 256 + 8, True)])
    def test_large_pieces_are_received_in_place(self, cluster, unique_name,
                                                monkeypatch, length, small):
        # 16 stripes over 8 daemons: each reply fills two pieces of the
        # buffer. Pieces of 16 KiB, and small ones of 256 B too, are
        # received straight into it, never moved in after.
        sp = StripingParams(0, 8, 256 if small else 16384)
        data = random.Random(1).randbytes(length)
        with prepared_file(cluster, unique_name, data, sp) as session:
            moves = []
            real = client_module._move
            monkeypatch.setattr(client_module, "_move",
                                lambda *args: moves.append(1) or real(*args))
            out = bytearray(length)
            assert pvfs_read(session, 0, out) == length
            assert out == data
            assert not moves

    def test_zero_length_is_a_noop(self, cluster, unique_name):
        with prepared_file(cluster, unique_name, b"") as session:
            assert pvfs_read(session, 0, bytearray(0)) == 0
            assert pvfs_write(session, 0, b"") == 0
            assert session.metrics.server_messages == 0
            assert session.metrics.logical_requests == 0


class TestWideItems:
    """A buffer of items wider than a byte is counted, sent and filled in
    bytes, by the contiguous API and by every strategy."""

    def test_a_double_array_round_trips(self, cluster, unique_name):
        values = array("d", [k + 0.25 for k in range(96)])
        nbytes = len(values) * values.itemsize
        plan = make_plan([(1000 + k * 20, 8) for k in range(96)],
                         [(k * 8, 8) for k in range(96)])
        image = random.Random(12).randbytes(1000 + 96 * 20)
        sp = StripingParams(0, 4, 64)
        expected = overlay(image, plan.file, values.tobytes())
        with prepared_file(cluster, unique_name, image, sp) as session:
            assert pvfs_write(session, 0, values) == nbytes
            got = array("d", bytes(nbytes))
            assert pvfs_read(session, 0, got) == nbytes
            assert got == values
            pvfs_write(session, 0, image[:nbytes])
            for write, read in [
                (lambda b: access_multiple(session, plan, b, "write"),
                 lambda b: access_multiple(session, plan, b, "read")),
                (lambda b: access_sieving_write(session, plan, b),
                 lambda b: access_sieving_read(session, plan, b)),
                (lambda b: pvfs_write_list(session, plan, b),
                 lambda b: pvfs_read_list(session, plan, b)),
            ]:
                assert write(values).useful_bytes == nbytes
                got = array("d", bytes(nbytes))
                assert read(got).useful_bytes == nbytes
                assert got == values
                # The session's next request is served whole.
                final = bytearray(len(image))
                assert pvfs_read(session, 0, final) == len(image)
                assert final == expected


class TestStrategyEquivalenceSmall:
    @pytest.mark.parametrize("seed", range(6))
    def test_reads_match_flat_oracle(self, cluster, unique_name, monkeypatch,
                                     seed):
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", 1 << 15)
        rng = random.Random(seed)
        file_regions = random_file_regions(rng, max_regions=60, max_size=8192,
                                           max_gap=4096)
        mem_regions, buflen = random_mem_regions(
            rng, sum(ln for _, ln in file_regions), max_regions=40
        )
        plan = make_plan(file_regions, mem_regions)
        end = file_regions[-1][0] + file_regions[-1][1]
        image = rng.randbytes(end)
        sp = StripingParams(0, rng.choice([1, 2, 8]), rng.choice([64, 16384]))
        with prepared_file(cluster, unique_name, image, sp) as session:
            expected = bytearray(buflen)
            plan.scatter(expected, b"".join(image[off : off + ln]
                                            for off, ln in file_regions))
            for runner in (
                lambda b: access_multiple(session, plan, b, "read"),
                lambda b: access_sieving_read(session, plan, b),
                lambda b: access_list(session, plan, b, "read"),
            ):
                buf = bytearray(buflen)
                runner(buf)
                assert buf == expected

    @pytest.mark.parametrize("seed", range(6, 10))
    def test_writes_match_flat_oracle(self, cluster, unique_name, monkeypatch,
                                      seed):
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", 1 << 14)
        rng = random.Random(seed)
        file_regions = random_file_regions(rng, max_regions=50, max_size=4096,
                                           max_gap=2048)
        total = sum(ln for _, ln in file_regions)
        mem_regions, buflen = random_mem_regions(rng, total, max_regions=30)
        plan = make_plan(file_regions, mem_regions)
        end = file_regions[-1][0] + file_regions[-1][1]
        base = rng.randbytes(end)
        stream = rng.randbytes(total)
        expected = overlay(base, file_regions, stream)
        sp = StripingParams(0, rng.choice([1, 2, 8]), rng.choice([64, 16384]))
        buf = bytearray(buflen)
        plan.scatter(buf, stream)
        for runner in (
            lambda s: access_multiple(s, plan, buf, "write"),
            lambda s: access_sieving_write(s, plan, buf),
            lambda s: access_list(s, plan, buf, "write"),
        ):
            session = prepared_file(cluster, unique_name, base, sp)
            try:
                runner(session)
                final = reassemble_file(cluster.storage_roots, session.handle,
                                        sp, end)
                assert final == expected
            finally:
                session.close()


class TestRequestCounts:
    def test_multiple_counts_pieces(self, cluster, unique_name):
        plan = make_plan([(0, 64), (200, 64), (400, 64)],
                         [(0, 96), (100, 96)])
        image = bytes(500)
        with prepared_file(cluster, unique_name, image) as session:
            m = access_multiple(session, plan, bytearray(200), "read")
            # piece walk: boundaries at 64/96 splits -> 4 pieces
            assert m.logical_requests == 4
            assert m.useful_bytes == plan.total_length

    def test_contiguous_plan_is_one_request(self, cluster, unique_name):
        plan = make_plan([(100, 4096)])
        with prepared_file(cluster, unique_name, bytes(8192)) as session:
            m = access_multiple(session, plan, bytearray(4096), "read")
            assert m.logical_requests == 1

    @pytest.mark.parametrize("regions,limit,expected", [
        (1, 64, 1), (63, 64, 1), (64, 64, 1), (65, 64, 2),
        (768, 64, 12), (130, 64, 3), (100, 10, 10),
    ])
    def test_list_counts_batches(self, cluster, unique_name, monkeypatch,
                                 regions, limit, expected):
        monkeypatch.setattr(wire, "MAX_LIST_REGIONS", limit)
        plan = make_plan([(i * 8, 4) for i in range(regions)])
        image = bytes(regions * 8)
        with prepared_file(cluster, unique_name, image) as session:
            m = access_list(session, plan, bytearray(plan.total_length), "read")
            assert m.logical_requests == expected == math.ceil(regions / limit)

    def test_list_count_ignores_memory_fragmentation(self, cluster, unique_name):
        rng = random.Random(11)
        file_regions = [(i * 100, 40) for i in range(130)]
        total = 130 * 40
        image = bytes(130 * 100)
        with prepared_file(cluster, unique_name, image) as session:
            counts = set()
            buffers = []
            for _ in range(4):
                mem, buflen = random_mem_regions(rng, total, max_regions=200)
                plan = make_plan(file_regions, mem)
                buf = bytearray(buflen)
                m = access_list(session, plan, buf, "read")
                counts.add(m.logical_requests)
                buffers.append(bytes(plan.gather(buf)))
            assert counts == {3}  # ceil(130/64), whatever the memory shape
            assert len(set(buffers)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_sieving_window_count_matches_enumerator(self, cluster, unique_name,
                                                     monkeypatch, seed):
        rng = random.Random(100 + seed)
        file_regions = random_file_regions(rng, max_regions=40, max_size=2048,
                                           max_gap=30000)
        plan = make_plan(file_regions)
        end = file_regions[-1][0] + file_regions[-1][1]
        window = rng.choice([4096, 16384, 65536])
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", window)
        with prepared_file(cluster, unique_name, bytes(end)) as session:
            m = access_sieving_read(session, plan, bytearray(plan.total_length))
            assert m.logical_requests == count_windows(file_regions, window)
            assert m.wire_bytes_read >= m.useful_bytes


class TestFlashWrite:
    """A FLASH cell keeps its variables side by side, so list and sieving
    writes gather it by fields, once per access. Random plans never repeat,
    so this is the one live test of that path."""

    def test_every_strategy_writes_the_oracle_file(self, cluster, unique_name,
                                                   monkeypatch):
        specs = [FlashSpec(procs=2, proc_id=p, nblocks=2) for p in (0, 1)]
        plans = [gen_flash(spec) for spec in specs]
        rng = random.Random(19)
        buffers = [rng.randbytes(spec.nblocks * spec.mem_block_bytes)
                   for spec in specs]
        size = specs[0].file_bytes
        want = bytearray(size)
        for spec, buf in zip(specs, buffers):
            mem, file_offsets = flash_reference_layout(
                spec.procs, spec.proc_id, spec.nblocks, spec.nb, spec.guard,
                spec.nvars, spec.element_size)
            for (off, n), at in zip(mem, file_offsets):
                want[at : at + n] = buf[off : off + n]
        base = rng.randbytes(size)
        files = {}
        # A batch of 3 regions is 1.5 variables, one of 5 is 2.5 and one of
        # 19 is 9.5: each batch sends its slice of the one gather, whatever
        # part of a variable it starts or ends in.
        for name, limit, write in (
                ("multiple", 64,
                 lambda s, plan, buf: access_multiple(s, plan, buf, "write")),
                ("list", 64,
                 lambda s, plan, buf: access_list(s, plan, buf, "write")),
                ("sieving", 64, access_sieving_write),
                ("list of 3", 3,
                 lambda s, plan, buf: access_list(s, plan, buf, "write")),
                ("list of 5", 5,
                 lambda s, plan, buf: access_list(s, plan, buf, "write")),
                ("list of 19", 19,
                 lambda s, plan, buf: access_list(s, plan, buf, "write"))):
            monkeypatch.setattr(wire, "MAX_LIST_REGIONS", limit)
            with prepared_file(cluster, unique_name, base) as session:
                for plan, buf in zip(plans, buffers):
                    write(session, plan, buf)
                files[name] = reassemble_file(cluster.storage_roots,
                                              session.handle, SP, size)
        for name, got in files.items():
            assert got == files["multiple"] == want, name

    def test_a_list_write_of_the_default_cube_gathers_by_fields_once(
            self, cluster, unique_name, monkeypatch):
        # 30 batches of 64 regions; a variable is 80 regions, so no batch
        # holds two whole variables, but the access gathers them all.
        spec = FlashSpec(procs=2, proc_id=0)
        plan = gen_flash(spec)
        buf = random.Random(23).randbytes(spec.nblocks * spec.mem_block_bytes)
        mem, file_offsets = flash_reference_layout(
            spec.procs, spec.proc_id, spec.nblocks, spec.nb, spec.guard,
            spec.nvars, spec.element_size)
        want = bytearray(spec.file_bytes)
        for (off, n), at in zip(mem, file_offsets):
            want[at : at + n] = buf[off : off + n]
        calls = []
        real = client_module._gather_fields
        monkeypatch.setattr(client_module, "_gather_fields",
                            lambda *args: calls.append(1) or real(*args))
        with prepared_file(cluster, unique_name, b"") as session:
            for access in (1, 2):
                m = access_list(session, plan, buf, "write")
                assert m.logical_requests == 30
                assert len(calls) == access
            got = reassemble_file(cluster.storage_roots, session.handle, SP,
                                  spec.file_bytes)
        assert got == want


class TestSieving:
    def test_calls_share_the_session_scratch_until_close(self, cluster,
                                                         unique_name,
                                                         monkeypatch):
        # Windows of 32 KiB, then of 64 KiB: the scratch grows once, is
        # reused by a write, and is given back on close.
        regions = [(i * 1024, 512) for i in range(96)]
        plan = make_plan(regions)
        rng = random.Random(11)
        image = rng.randbytes(96 * 1024)
        stream = rng.randbytes(plan.total_length)
        wanted = b"".join(image[off : off + n] for off, n in regions)
        session = prepared_file(cluster, unique_name, image)
        try:
            scratches = []
            for window in (32768, 65536):
                buf = bytearray(plan.total_length)
                monkeypatch.setattr(client_module, "SIEVING_WINDOW", window)
                access_sieving_read(session, plan, buf)
                assert buf == wanted
                scratches.append(session._scratch)
                assert len(session._scratch) == window
            monkeypatch.setattr(client_module, "SIEVING_WINDOW", 32768)
            access_sieving_write(session, plan, stream)
            assert session._scratch is scratches[1]
            final = reassemble_file(cluster.storage_roots, session.handle,
                                    session.striping, len(image))
            assert final == overlay(image, regions, stream)
        finally:
            session.close()
        assert session._scratch is None

    def test_single_window_when_extent_fits(self, cluster, unique_name):
        plan = make_plan([(0, 100), (5000, 100)])
        with prepared_file(cluster, unique_name, bytes(5100)) as session:
            m = access_sieving_read(session, plan, bytearray(200))
            assert m.logical_requests == 1

    def test_three_windows_for_triple_extent(self, cluster, unique_name,
                                             monkeypatch):
        # extent 96 KiB, dense regions, 32 KiB windows
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", 32 * 1024)
        regions = [(i * 1024, 512) for i in range(96)]
        plan = make_plan(regions)
        with prepared_file(cluster, unique_name, bytes(96 * 1024)) as session:
            m = access_sieving_read(session, plan, bytearray(plan.total_length))
            assert m.logical_requests == 3

    def test_single_region_reads_no_waste(self, cluster, unique_name):
        plan = make_plan([(64, 4096)])
        with prepared_file(cluster, unique_name, bytes(8192)) as session:
            m = access_sieving_read(session, plan, bytearray(4096))
            assert m.wire_bytes_read == m.useful_bytes == 4096

    def test_write_costs_two_per_window(self, cluster, unique_name, monkeypatch):
        # plan spans two 16 KiB windows
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", 16384)
        plan = make_plan([(0, 100), (20000, 100)])
        with prepared_file(cluster, unique_name, bytes(20100)) as session:
            buf = bytearray(200)
            m = access_sieving_write(session, plan, buf)
            assert m.logical_requests == 4

    def test_fully_covered_window_still_reads_first(self, cluster, unique_name,
                                                    monkeypatch):
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", 8192)
        plan = make_plan([(0, 8192)])
        with prepared_file(cluster, unique_name, bytes(8192)) as session:
            m = access_sieving_write(session, plan, bytearray(8192))
            assert m.logical_requests == 2
            assert m.wire_bytes_read == 8192

    def test_write_preserves_untouched_bytes(self, cluster, unique_name):
        rng = random.Random(42)
        base = rng.randbytes(40000)
        file_regions = [(1000, 500), (9000, 100), (30000, 2000)]
        plan = make_plan(file_regions)
        stream = rng.randbytes(plan.total_length)
        with prepared_file(cluster, unique_name, base) as session:
            buf = bytearray(plan.total_length)
            plan.scatter(buf, stream)
            access_sieving_write(session, plan, buf)
            final = reassemble_file(cluster.storage_roots, session.handle,
                                    session.striping, len(base))
            assert final == overlay(base, file_regions, stream)

    def test_a_write_gathers_before_it_takes_the_token(self, cluster,
                                                       unique_name,
                                                       monkeypatch):
        regions = [(i * 1024, 512) for i in range(8)]
        plan = make_plan(regions, [(7 + i * 600, 512) for i in range(8)])
        stream = random.Random(24).randbytes(plan.total_length)
        buf = bytearray(8 * 600)
        plan.scatter(buf, stream)
        calls = []
        for owner, name in ((AccessPlan, "gather"),
                            (FileSession, "acquire_token"),
                            (FileSession, "release_token")):
            def recorded(self, *args, _real=getattr(owner, name), _name=name):
                calls.append(_name)
                return _real(self, *args)
            monkeypatch.setattr(owner, name, recorded)
        with prepared_file(cluster, unique_name, bytes(8 * 1024)) as session:
            access_sieving_write(session, plan, buf)
            assert calls == ["gather", "acquire_token", "release_token"]
            final = reassemble_file(cluster.storage_roots, session.handle,
                                    session.striping, 8 * 1024)
        assert final == overlay(bytes(8 * 1024), regions, stream)

    @pytest.mark.parametrize("writing", [False, True])
    def test_windows_are_made_once(self, cluster, unique_name, monkeypatch,
                                   writing):
        # Three 32 KiB windows, two of whose edges cut a region: the plan
        # cuts them on its first access, and a second access reuses them
        # and sends what the first sent.
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", 32768)
        regions = [(i * 1100, 900) for i in range(88)]
        plan = make_plan(regions)
        windows = plan.windows(32768)
        assert len(windows) == 3 and plan.windows(32768) is windows
        rng = random.Random(9)
        image = rng.randbytes(88 * 1100)
        with prepared_file(cluster, unique_name, image) as session:
            counts = []
            for _access in range(2):
                stream = rng.randbytes(plan.total_length)
                if writing:
                    m = access_sieving_write(session, plan, stream)
                    image = overlay(image, regions, stream)
                    got = reassemble_file(cluster.storage_roots, session.handle,
                                          session.striping, len(image))
                    assert got == image
                else:
                    buf = bytearray(plan.total_length)
                    m = access_sieving_read(session, plan, buf)
                    assert buf == b"".join(image[off : off + n]
                                           for off, n in regions)
                counts.append((m.logical_requests, m.server_messages))
            assert counts[0] == counts[1]
            assert counts[0][0] == (6 if writing else 3)
        assert plan.windows(32768) is windows

    @pytest.mark.parametrize("writing", [False, True])
    @pytest.mark.parametrize("mem,moves", [
        (None, 0),                                       # one memory region
        ([(7 + i * 600, 512) for i in range(96)], 1),    # one region a piece
    ], ids=["direct", "staged"])
    def test_one_plan_move_per_window(self, cluster, unique_name, monkeypatch,
                                      writing, mem, moves):
        # 96 pieces of 512 B over three 32 KiB windows: the staged plan is
        # gathered or scattered once for the access, not once per window.
        monkeypatch.setattr(client_module, "SIEVING_WINDOW", 32768)
        regions = [(i * 1024, 512) for i in range(96)]
        plan = make_plan(regions, mem)
        rng = random.Random(7)
        image = rng.randbytes(96 * 1024)
        stream = rng.randbytes(plan.total_length)
        with prepared_file(cluster, unique_name, image) as session:
            buf = bytearray(max(off + n for off, n in plan.mem))
            if writing:
                plan.scatter(buf, stream)
            calls = []
            for name in ("scatter", "gather"):
                def counted(self, *args, _move=getattr(AccessPlan, name)):
                    calls.append(_move.__name__)
                    return _move(self, *args)
                monkeypatch.setattr(AccessPlan, name, counted)
            access = access_sieving_write if writing else access_sieving_read
            access(session, plan, buf)
            monkeypatch.undo()
            assert calls == ["gather" if writing else "scatter"] * moves
            if writing:
                final = reassemble_file(cluster.storage_roots, session.handle,
                                        session.striping, len(image))
                assert final == overlay(image, regions, stream)
            else:
                wanted = b"".join(image[off : off + n] for off, n in regions)
                assert plan.gather(buf) == wanted


class _StubDaemon(socketserver.BaseRequestHandler):
    """A stub daemon that keeps the bytes written to it in `server.store`,
    at their local offsets, and reads them back (zeros past its end).

    It attaches any handle, unless `server.refuse_open` is set: then it
    refuses every OPEN with STATUS_INVALID. Its first `server.faults` reads
    (all, when None) answer with the error status `server.fail_status` if
    set, else with `server.skew` bytes more (or fewer) than asked for. With
    `server.barrier` set, each read waits on it before replying, and a
    broken barrier answers STATUS_INTERNAL. With `server.linger` set, each
    data request is held that many seconds and counted in
    `server.overlaps` if another request followed it on its connection
    before the reply. It counts connections, the ones the client closed,
    and data requests, and logs each READ and WRITE in `server.log` as
    (opcode, local offset, length)."""

    def handle(self):
        server, sock = self.server, self.request
        server.connections += 1
        try:
            while (request := wire.recv_request(sock)) is not None:
                header, regions, data = request
                status, reply = self.serve(server, header, regions, data)
                wire.send_response(sock, header.request_id, status, reply)
            server.hangups += 1
        except (OSError, ProtocolError):
            pass  # the client hung up mid-reply

    def serve(self, server, header, regions, data):
        op = header.opcode
        if op == wire.OPEN:
            if server.refuse_open:
                return wire.STATUS_INVALID, b"refused"
            return wire.STATUS_OK, b""
        server.requests += 1
        if server.linger:
            time.sleep(server.linger)
            try:
                if self.request.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT):
                    server.overlaps += 1
            except BlockingIOError:
                pass
        if op in (wire.READ, wire.WRITE):
            server.log.append((op, header.offset, header.length))
        store = server.store
        if op == wire.STAT:
            return wire.STATUS_OK, wire.pack_u64(len(store))
        spans = regions if regions is not None else [(header.offset,
                                                      header.length)]
        if op not in wire.READ_OPCODES:
            pos = 0
            for offset, n in spans:
                if len(store) < offset + n:
                    store.extend(bytes(offset + n - len(store)))
                store[offset : offset + n] = data[pos : pos + n]
                pos += n
            return wire.STATUS_OK, b""
        reply = b"".join(bytes(store[offset : offset + n]).ljust(n, b"\0")
                         for offset, n in spans)
        if server.barrier is not None:
            try:
                server.barrier.wait()
            except threading.BrokenBarrierError:
                return wire.STATUS_INTERNAL, b"not every stub got a read"
        if server.faults is not None:
            if not server.faults:
                return wire.STATUS_OK, reply
            server.faults -= 1
        if server.fail_status is not None:
            return server.fail_status, b"injected"
        return wire.STATUS_OK, (reply + bytes(max(server.skew, 0)))[
            : len(reply) + server.skew]


class _NoManager:
    def request(self, *args, **kwargs):
        raise OSError("no manager")

    def close(self):
        pass


@contextlib.contextmanager
def _stub_cluster(*stubs, pcount=None):
    """Serve each dict of server attributes as a _StubDaemon, and open a
    session on a file striped 16 bytes at a time over `pcount` slots (one
    per stub by default), slot k served by stub k % len(stubs); yields
    (servers, session)."""
    servers, threads = [], []
    try:
        for attrs in stubs:
            server = socketserver.ThreadingTCPServer(("127.0.0.1", 0),
                                                     _StubDaemon)
            server.daemon_threads = True
            vars(server).update(
                dict(skew=0, refuse_open=False, faults=None, fail_status=None,
                     barrier=None, linger=0, store=bytearray(), connections=0,
                     hangups=0, requests=0, overlaps=0, log=[]), **attrs)
            thread = threading.Thread(target=server.serve_forever,
                                      args=(0.05,), daemon=True)
            thread.start()
            servers.append(server)
            threads.append(thread)
        roster = ["%s:%d" % server.server_address for server in servers]
        pcount = pcount or len(servers)
        session = FileSession(_NoManager(), "stub", 1,
                              StripingParams(0, pcount, 16),
                              [roster[k % len(roster)] for k in range(pcount)])
        try:
            yield servers, session
        finally:
            session.close()
    finally:
        for server, thread in zip(servers, threads):
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            assert not thread.is_alive()


@contextlib.contextmanager
def _stub_session(skew=0, refuse_open=False):
    """A session on a two-daemon file whose daemons are one _StubDaemon;
    yields (stub server, session)."""
    with _stub_cluster(dict(skew=skew, refuse_open=refuse_open),
                       pcount=2) as (servers, session):
        yield servers[0], session


class TestShortReplies:
    @pytest.mark.parametrize("skew", [-1, 1])
    @pytest.mark.parametrize("access", [
        lambda s, buf: pvfs_read(s, 0, buf),           # one stripe, one reply
        lambda s, buf: pvfs_read(s, 8, buf),           # two stripes, two replies
        lambda s, buf: access_list(s, make_plan([(0, 4), (20, 12)]), buf,
                                   "read"),
    ], ids=["read-one-span", "read-two-spans", "read-list"])
    def test_wrong_length_reply_raises(self, skew, access):
        with _stub_session(skew) as (_server, session):
            buf = bytearray(b"\xff" * 16)
            with pytest.raises(ProtocolError):
                access(session, buf)

    def test_rejected_reply_drops_its_connection(self):
        # The over-long reply is refused before its payload is read; a
        # reused connection would parse those bytes as the next reply.
        with _stub_session(1) as (server, session):
            for attempt in (1, 2):
                with pytest.raises(ProtocolError, match="exceeds buffer"):
                    pvfs_read(session, 0, bytearray(16))
                assert server.connections == attempt


class TestAttach:
    def test_refused_attach_closes_its_connection(self):
        with _stub_session(refuse_open=True) as (server, session):
            # The failures are kept: their tracebacks hold the frames that
            # made each channel, so only close() can end a connection here.
            failures = []
            for _ in range(3):
                with pytest.raises(ValueError, match="refused") as failure:
                    session.stat()
                failures.append(failure)
            deadline = time.monotonic() + 10
            while server.hangups < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert (server.connections, server.hangups) == (3, 3)
            assert not session._daemons


class TestFanOut:
    """One logical request goes to all its daemons before any reply is read."""

    def test_every_daemon_has_the_request_before_any_replies(self):
        # Each stub holds its read reply until all four hold a read; a
        # client that waits for one reply before sending the next request
        # breaks the barrier after its timeout instead of hanging.
        barrier = threading.Barrier(4, timeout=5)
        with _stub_cluster(*[dict(barrier=barrier)] * 4) as (servers, session):
            image = bytes(range(64))
            pvfs_write(session, 0, image)
            buf = bytearray(64)
            pvfs_read(session, 0, buf)
            assert buf == image
            assert [server.requests for server in servers] == [2] * 4
            assert session.metrics.server_messages == 8

    @pytest.mark.parametrize("failing, short, raised", [
        (1, 2, NotFoundError),   # the error status comes first in slot order
        (2, 1, ProtocolError),   # the short reply comes first
    ])
    def test_a_failed_request_leaves_no_reply_behind(self, failing, short,
                                                     raised):
        stubs = [dict() for _ in range(4)]
        stubs[failing].update(faults=1, fail_status=wire.STATUS_NOT_FOUND)
        stubs[short].update(faults=1, skew=-1)
        with _stub_cluster(*stubs) as (servers, session):
            image = bytes(range(100, 164))
            pvfs_write(session, 0, image)
            with pytest.raises(raised):
                pvfs_read(session, 0, bytearray(64))
            # The first read reached every daemon, so each fault is spent.
            # Slots 0 and 1 returned whole replies and keep their
            # connections; the replies left unread went with theirs.
            buf = bytearray(64)
            pvfs_read(session, 0, buf)
            assert buf == image
            assert [s.connections for s in servers] == [1, 1, 2, 2]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                gc.collect()
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)]

    def test_a_wave_cut_off_while_sending_leaves_no_reply_behind(self):
        # Slot 2 refuses the attach, so the read fails after slots 0 and 1
        # were sent theirs; those two owe a reply and must reconnect.
        stubs = [dict() for _ in range(4)]
        stubs[2].update(refuse_open=True)
        image = bytes(range(64))
        with _stub_cluster(*stubs) as (servers, session):
            for k, server in enumerate(servers):  # slot k's one stripe
                server.store = bytearray(image[16 * k : 16 * k + 16])
            with pytest.raises(ValueError, match="refused"):
                pvfs_read(session, 0, bytearray(64))
            assert [s.requests for s in servers] == [1, 1, 0, 0]
            servers[2].refuse_open = False
            buf = bytearray(64)
            pvfs_read(session, 0, buf)
            assert buf == image
            assert session.stat() == 64
            assert [s.connections for s in servers] == [2, 2, 2, 1]

    def test_a_slot_over_the_limit_is_served_in_waves(self, monkeypatch):
        # Limit 2: slot 1 holds five stripe fragments (three messages), the
        # others four (two each), so the batch goes out in waves of 4, 4, 1.
        # Each stub holds every request a little and counts any that a
        # second request on the same connection overtook.
        with _stub_cluster(*[dict(linger=0.005)] * 4) as (servers, session):
            plan = make_plan([(0, 256), (272, 8)])
            data = random.Random(5).randbytes(plan.total_length)
            monkeypatch.setattr(wire, "MAX_LIST_REGIONS", 2)
            wrote = access_list(session, plan, data, "write")
            buf = bytearray(plan.total_length)
            read = access_list(session, plan, buf, "read")
            assert buf == data
            assert (wrote.logical_requests, wrote.server_messages) == (1, 9)
            assert (read.logical_requests, read.server_messages) == (1, 9)
            assert [server.requests for server in servers] == [4, 6, 4, 4]
            assert [server.overlaps for server in servers] == [0] * 4


@pytest.fixture(scope="module")
def five_stubs():
    """Five _StubDaemons kept for a module's tests; yields their servers."""
    with _stub_cluster(*[{} for _ in range(5)]) as (servers, _session):
        yield servers


# A contiguous request near a stripe edge: (stripe index, offset in it,
# where it ends, length if it ends inside the stripe). It ends inside the
# stripe, exactly on its edge, or one byte past it.
edge_requests = st.tuples(st.integers(0, 11), st.integers(0, 6),
                          st.sampled_from(["inside", "edge", "past"]),
                          st.integers(1, 6))


class TestOneStripe:
    """A contiguous request inside one stripe is one message to one daemon,
    sent from the caller's view or received into it."""

    @given(pcount=st.integers(1, 5), base=st.integers(0, 4),
           ssize=st.integers(1, 7), request=edge_requests,
           reading=st.booleans(), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_fan_out(self, five_stubs, pcount, base, ssize,
                                 request, reading, seed):
        stripe, within, end, extra = request
        within = min(within, ssize - 1)
        length = {"inside": min(extra, ssize - within),
                  "edge": ssize - within, "past": ssize - within + 1}[end]
        offset = stripe * ssize + within
        sp = StripingParams(base % pcount, pcount, ssize)
        rng = random.Random(seed)
        image = bytearray(rng.randbytes(14 * ssize))
        for server in five_stubs:
            server.store, server.log = bytearray(), []
        roster = ["%s:%d" % s.server_address for s in five_stubs[:pcount]]
        session = FileSession(_NoManager(), "stub", 1, sp, roster)
        try:
            pvfs_write(session, 0, image)
            for server in five_stubs:
                server.log = []
            session.metrics = ClientMetrics()
            if reading:
                out = bytearray(b"\xee" * length)
                pvfs_read(session, offset, out)
                assert out == image[offset : offset + length]
            else:
                data = rng.randbytes(length)
                pvfs_write(session, offset, data)
                image[offset : offset + length] = data
            messages = fan_out(offset, length, sp)
            m = session.metrics
            assert (m.logical_requests, m.server_messages) == (1, len(messages))
            assert (m.wire_bytes_read, m.wire_bytes_written) == (
                (length, 0) if reading else (0, length))
            opcode = wire.READ if reading else wire.WRITE
            want = [[] for _ in five_stubs]
            for message in messages:
                (region,) = message.regions
                want[message.slot].append((opcode, region.offset,
                                           region.length))
            assert [server.log for server in five_stubs] == want
            if end != "past":
                assert len(messages) == 1
            whole = bytearray(len(image))
            pvfs_read(session, 0, whole)
            assert whole == image
        finally:
            session.close()

    @pytest.mark.parametrize("fault, raised, match", [
        (dict(skew=-1), ProtocolError, "READ returned 7 of 8 bytes"),
        (dict(fail_status=wire.STATUS_NOT_FOUND), NotFoundError, "injected"),
    ])
    def test_a_failed_reply_leaves_the_next_access_whole(self, fault, raised,
                                                          match):
        with _stub_cluster(dict(faults=1, **fault)) as ((server,), session):
            image = bytes(range(32))
            pvfs_write(session, 0, image)
            with pytest.raises(raised, match=match):
                pvfs_read(session, 4, bytearray(8))
            buf = bytearray(8)
            pvfs_read(session, 4, buf)
            assert buf == image[4:12]
            # The failed reply was read whole, so its channel was kept.
            assert server.connections == 1
            # The write and the good read count a message each, the failed
            # read none.
            m = session.metrics
            assert (m.logical_requests, m.server_messages) == (3, 2)
            assert m.wire_bytes_read == 8

    @pytest.mark.parametrize("reading", [True, False])
    def test_over_the_cap_raises_before_sending(self, monkeypatch, reading):
        with _stub_session() as (server, session):
            monkeypatch.setattr(wire, "MAX_PAYLOAD", 8)
            with pytest.raises(ValueError, match="12 bytes is over the 8-byte"):
                if reading:
                    pvfs_read(session, 2, bytearray(12))
                else:
                    pvfs_write(session, 2, bytes(12))
            assert (server.connections, server.requests) == (0, 0)
            assert session.metrics.logical_requests == 0
            # A list access whose second batch has a 12-byte message sends
            # not even its first batch.
            monkeypatch.setattr(wire, "MAX_LIST_REGIONS", 1)
            plan = make_plan([(0, 4), (20, 12)])
            with pytest.raises(ValueError, match="12 bytes is over the 8-byte"):
                access_list(session, plan, bytearray(16),
                            "read" if reading else "write")
            assert (server.connections, server.requests) == (0, 0)
            assert session.metrics.logical_requests == 0


class TestListApi:
    def test_read_list_write_list_round_trip(self, cluster, unique_name):
        plan = make_plan([(10, 50), (1000, 50)])
        data = random.Random(5).randbytes(100)
        with prepared_file(cluster, unique_name, bytes(1050)) as session:
            buf = bytearray(100)
            buf[:] = data
            pvfs_write_list(session, plan, buf)
            out = bytearray(100)
            pvfs_read_list(session, plan, out)
            assert out == buf

    def test_single_region_equals_contiguous_read(self, cluster, unique_name):
        image = random.Random(6).randbytes(3000)
        plan = make_plan([(500, 1000)])
        with prepared_file(cluster, unique_name, image) as session:
            via_list = bytearray(1000)
            m = access_list(session, plan, via_list, "read")
            assert m.logical_requests == 1
            via_contig = bytearray(1000)
            pvfs_read(session, 500, via_contig)
            assert via_list == via_contig


class TestListMessages:
    """A plan fans its list batches out once per striping and batch limit,
    and every later access reuses the messages."""

    def test_one_plan_under_two_stripings_and_two_limits(
            self, cluster, unique_name, monkeypatch):
        rng = random.Random(21)
        file_regions = [(k * 100 + rng.randrange(50), 40) for k in range(150)]
        mem, buflen = random_mem_regions(rng, 150 * 40, max_regions=70)
        plan = make_plan(file_regions, mem)
        end = file_regions[-1][0] + 40
        for sp, limit in [(StripingParams(0, 4, 256), 64),
                          (StripingParams(2, 3, 512), 64),
                          (StripingParams(0, 4, 256), 16),
                          (StripingParams(2, 3, 512), 64)]:
            monkeypatch.setattr(wire, "MAX_LIST_REGIONS", limit)
            batches = [file_regions[i : i + limit]
                       for i in range(0, len(file_regions), limit)]
            messages = sum(len(split_by_server(batch, sp, limit))
                           for batch in batches)
            image = rng.randbytes(end)
            buf = bytearray(buflen)
            plan.scatter(buf, rng.randbytes(plan.total_length))
            with prepared_file(cluster, unique_name, image, sp) as session:
                wrote = access_list(session, plan, buf, "write")
                stream = plan.gather(buf)
                final = bytearray(end)
                pvfs_read(session, 0, final)
                assert final == overlay(image, file_regions, stream)
                got = bytearray(buflen)
                read = access_list(session, plan, got, "read")
                assert plan.gather(got) == stream
            for m in (wrote, read):
                assert (m.logical_requests, m.server_messages) == (
                    len(batches), messages)

    def test_a_second_access_fans_nothing_out(self, cluster, unique_name,
                                              monkeypatch):
        plan = make_plan([(k * 3000, 1000) for k in range(130)])
        image = random.Random(22).randbytes(130 * 3000)
        calls = []
        for name in ("split_by_server", "batch_regions"):
            real = getattr(client_module, name)
            monkeypatch.setattr(client_module, name,
                                lambda *args, _real=real, _name=name: (
                                    calls.append(_name) or _real(*args)))
        with prepared_file(cluster, unique_name, image) as session:
            wanted = b"".join(image[off : off + n] for off, n in plan.file)
            for access in range(3):
                calls.clear()
                buf = bytearray(plan.total_length)
                m = access_list(session, plan, buf, "read")
                assert buf == wanted
                assert m.logical_requests == 3
                if access:
                    assert calls == []
                else:
                    assert calls.count("split_by_server") == 3


class TestMetrics:
    def test_counters_additive_across_plans(self, cluster, unique_name):
        plan_a = make_plan([(0, 256)])
        plan_b = make_plan([(4096, 256), (8192, 256)])
        with prepared_file(cluster, unique_name, bytes(9000)) as session:
            total = session.metrics = ClientMetrics()  # drop the preparation
            m1 = access_multiple(session, plan_a, bytearray(256), "read")
            m2 = access_multiple(session, plan_b, bytearray(512), "read")
            assert total.logical_requests == m1.logical_requests + m2.logical_requests
            assert total.useful_bytes == m1.useful_bytes + m2.useful_bytes == 768
            assert total.wire_bytes_read == m1.wire_bytes_read + m2.wire_bytes_read

    def test_useful_bytes_equals_plan_total(self, cluster, unique_name):
        plan = make_plan([(0, 100), (900, 100)])
        with prepared_file(cluster, unique_name, bytes(1000)) as session:
            m = access_sieving_read(session, plan, bytearray(200))
            assert m.useful_bytes == plan.total_length == 200

    def test_a_failed_call_keeps_its_partial_counts(self):
        # Two pieces, on slots 0 and 1; slot 1's first read fails, so the
        # call fails after its first piece is read.
        stubs = [dict(), dict(faults=1, fail_status=wire.STATUS_NOT_FOUND)]
        plan = make_plan([(0, 8), (16, 8)])
        with _stub_cluster(*stubs) as (_servers, session):
            pvfs_write(session, 0, bytes(range(32)))
            written = session.metrics.elapsed
            with pytest.raises(NotFoundError):
                access_multiple(session, plan, bytearray(16), "read")
            m = session.metrics
            assert (m.logical_requests, m.server_messages) == (1 + 2, 2 + 1)
            assert (m.wire_bytes_read, m.useful_bytes) == (8, 32)
            assert m.elapsed == written
            buf = bytearray(16)
            again = access_multiple(session, plan, buf, "read")
            assert buf == bytes(range(8)) + bytes(range(16, 24))
            assert (again.logical_requests, again.server_messages,
                    again.wire_bytes_read, again.useful_bytes) == (2, 2, 16, 16)
            assert 0 < again.elapsed < session.metrics.elapsed
            assert (m.logical_requests, m.useful_bytes) == (5, 48)


class TestPlanValidation:
    def test_total_mismatch(self):
        with pytest.raises(PlanError):
            AccessPlan(RegionList([(0, 10)]), RegionList([(0, 11)]))

    def test_unsorted_file_list(self):
        with pytest.raises(PlanError):
            AccessPlan(RegionList([(0, 20)]), RegionList([(30, 10), (0, 10)]))

    def test_overlapping_file_list(self):
        with pytest.raises(PlanError):
            AccessPlan(RegionList([(0, 20)]), RegionList([(0, 10), (5, 10)]))

    def test_zero_length_region(self):
        with pytest.raises(PlanError):
            AccessPlan(RegionList([(0, 0)]), RegionList([(0, 0)]))

    def test_empty_plan_is_valid_and_noop(self, cluster, unique_name):
        plan = AccessPlan(RegionList(), RegionList())
        with prepared_file(cluster, unique_name, b"") as session:
            for m in (
                access_multiple(session, plan, bytearray(0), "read"),
                access_sieving_read(session, plan, bytearray(0)),
                access_list(session, plan, bytearray(0), "read"),
            ):
                assert m.logical_requests == 0
                assert m.useful_bytes == 0
        assert plan.windows(32768) == []


@st.composite
def memory_lists(draw):
    """Memory lists built from pieces placed at random bases, so that the
    pieces may descend and overlap: strided element runs (sizes 1-9,
    strides that are and are not multiples of the size, overlapping ones
    too), back-to-back regions, and single regions."""
    regions = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.integers(0, 99))
        size = draw(st.integers(1, 9))
        kind = draw(st.sampled_from(["multiple", "any", "back-to-back",
                                     "single"]))
        count = 1 if kind == "single" else draw(st.integers(2, 9))
        stride = {"multiple": size * draw(st.integers(2, 5)),
                  "any": draw(st.integers(1, 2 * size + 3)),
                  "back-to-back": size, "single": size}[kind]
        regions += [(base + k * stride, size) for k in range(count)]
    return regions


@st.composite
def file_lists(draw):
    """Sorted, disjoint file lists built from strided segments, single
    regions and back-to-back regions, with gaps of 0-12 bytes between
    pieces, so that pieces also touch."""
    regions, at = [], draw(st.integers(0, 20))
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 9))
        kind = draw(st.sampled_from(["strided", "back-to-back", "single"]))
        count = 1 if kind == "single" else draw(st.integers(2, 9))
        stride = size + (draw(st.integers(1, 12)) if kind == "strided" else 0)
        regions += [(at + k * stride, size) for k in range(count)]
        at += (count - 1) * stride + size + draw(st.integers(0, 12))
    return regions


@st.composite
def periodic_lists(draw):
    """(memory list, element size, shift kind): a random template of strided
    runs of one element size at offsets of any residue, then 2-6 copies of
    it, copy m shifted by m times a shift of whole elements, of bytes that
    are not whole elements, or of zero. The template ends at or past its
    first offset plus the shift, so no copy's first run continues the
    previous copy's last one."""
    size = draw(st.sampled_from([1, 2, 4, 8, 3]))
    kind = draw(st.sampled_from(["elements", "bytes", "zero"]))
    if kind == "bytes" and size == 1:
        kind = "elements"
    shift = {"elements": size * draw(st.integers(1, 12)),
             "bytes": size * draw(st.integers(0, 11))
             + draw(st.integers(1, size - 1)) if size > 1 else 0,
             "zero": 0}[kind]
    template = []
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.integers(0, 40))
        stride = draw(st.integers(size, 3 * size + 3))
        template += [(base + k * stride, size)
                     for k in range(draw(st.integers(1, 4)))]
    template.append((template[0][0] + shift + draw(st.integers(0, 2 * size)),
                     size))
    copies = draw(st.integers(2, 6))
    mem = [(off + m * shift, n) for m in range(copies) for off, n in template]
    return mem, size, kind


@st.composite
def record_lists(draw):
    """(memory list, element size, kind, fields): records of 2-7 fields,
    listed field by field as FLASH lists its variables, every record's
    field m after every record's field m - 1. Rows hold 2-5 records back
    to back, a gap of 1-12 bytes before each; a last row may hold one.
    (Run grouping would pair a row of one record with the next row's
    first record, at a stride that is not a record's, as in "subset".)

    "fields" lays the fields side by side, one element of 1, 2, 4 or 8
    bytes each. The other kinds must gather by runs: "spaced" puts fields
    two elements apart, "subset" lists only some fields of larger records,
    "odd" uses 3-byte elements, and "zero" lists field 0 every time."""
    kind = draw(st.sampled_from(["fields", "fields", "spaced", "subset",
                                 "odd", "zero"]))
    size = 3 if kind == "odd" else draw(st.sampled_from([1, 2, 4, 8]))
    fields = draw(st.integers(2, 7))
    step = {"spaced": 2 * size, "zero": 0}.get(kind, size)
    record = max(step, size) * (fields + (draw(st.integers(1, 3))
                                          if kind == "subset" else 0))
    rows = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    rows += [1] * draw(st.integers(0, 1))
    starts, at = [], 0
    for count in rows:
        at += draw(st.integers(1, 12))
        starts += [at + r * record for r in range(count)]
        at = starts[-1] + record
    mem = [(start + m * step, size) for m in range(fields) for start in starts]
    return mem, size, kind, fields


class _CountingArray(array):
    """A staging array that records the rows copied into it and the
    strided slices taken of it."""

    def __new__(cls, typecode, staged):
        self = super().__new__(cls, typecode)
        self.rows, self.slices = [], []
        staged.append(self)
        return self

    def frombytes(self, data):
        self.rows.append(len(data))
        super().frombytes(data)

    def __getitem__(self, index):
        self.slices.append(index)
        return super().__getitem__(index)


class _CountingView:
    """An element view that counts the strided copies made into it."""

    def __init__(self, view, copies):
        self.view, self.copies = view, copies

    def __getitem__(self, index):
        return self.view[index]

    def __setitem__(self, index, value):
        self.copies.append(index)
        self.view[index] = value


def reference_scatter(mem, buf, data):
    """Per-region scatter: later regions overwrite earlier ones."""
    pos = 0
    for off, n in mem:
        buf[off : off + n] = data[pos : pos + n]
        pos += n


class TestScatterGather:
    @given(
        cuts=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        gaps=st.lists(st.integers(0, 9), min_size=12, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_gather_inverts_scatter(self, cuts, gaps, data):
        total = sum(cuts)
        mem, pos = [], 0
        for cut, gap in zip(cuts, gaps):
            pos += gap
            mem.append((pos, cut))
            pos += cut
        plan = AccessPlan(RegionList(mem), RegionList([(0, total)]))
        payload = data.draw(st.binary(min_size=total, max_size=total))
        buf = bytearray(pos)
        plan.scatter(buf, payload)
        assert plan.gather(buf) == payload

    @given(mem=memory_lists(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_runs_move_bytes_as_regions_do(self, mem, data):
        runs = strided_runs(mem)
        expanded, pos = [], 0
        for run in runs:
            assert run.pos == pos and run.stride > 0
            expanded += [(run.offset + k * run.stride, run.size)
                         for k in range(run.count)]
            pos += run.size * run.count
        assert expanded == mem

        total = sum(n for _off, n in mem)
        plan = AccessPlan(RegionList(mem), RegionList([(0, total)]))
        buflen = max(off + n for off, n in mem)
        image = data.draw(st.binary(min_size=buflen, max_size=buflen))
        flat = b"".join(image[off : off + n] for off, n in mem)
        assert plan.gather(image) == flat
        payload = data.draw(st.binary(min_size=total, max_size=total))
        got, want = bytearray(image), bytearray(image)
        plan.scatter(got, payload)
        reference_scatter(mem, want, payload)
        assert got == want

    @given(file=file_lists(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_windows_take_the_plan_bytes_they_clip(self, file, data):
        plan = make_plan(file)
        start, end = file[0][0], file[-1][0] + file[-1][1]
        size = data.draw(st.integers(1, 2 * (end - start)))
        image = data.draw(st.binary(min_size=end, max_size=end))
        windows = list(plan.windows(size))
        assert len(windows) == count_windows(file, size)
        expected = []
        for ws in range(start, end, size):
            we = min(ws + size, end)
            # (plan position, file offset, length) of each region's clip
            clips, pos = [], 0
            for off, n in file:
                lo, hi = max(off, ws), min(off + n, we)
                if lo < hi:
                    clips.append((pos + lo - off, lo, hi - lo))
                pos += n
            if clips:
                first, last = clips[0][0], clips[-1][0] + clips[-1][2]
                expected.append((ws, we, first, last, clips))
        assert [window[:4] for window in windows] == [
            window[:4] for window in expected]
        # Each window's cut runs, counted from its first plan byte and from
        # its start, move exactly its plan bytes.
        for (ws, we, first, last, runs), (*_, clips) in zip(windows, expected):
            taken = bytearray(last - first)
            _move(runs, image[ws:we], taken, False)
            assert taken == b"".join(image[lo : lo + n] for _p, lo, n in clips)
            payload = data.draw(st.binary(min_size=last - first,
                                          max_size=last - first))
            got, want = bytearray(image[ws:we]), bytearray(image[ws:we])
            _move(runs, got, payload, True)
            for p, lo, n in clips:
                want[lo - ws : lo - ws + n] = payload[p - first : p - first + n]
            assert got == want

    @given(mem=memory_lists(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_whole_runs_move_bytes_as_regions_do(self, mem, data):
        total = sum(n for _off, n in mem)
        plan = AccessPlan(RegionList(mem), RegionList([(0, total)]))
        runs = plan.mem_runs
        # Past the last region: a length that is not a multiple of the
        # element size.
        buflen = max(off + n for off, n in mem) + data.draw(st.integers(0, 7))
        image = data.draw(st.binary(min_size=buflen, max_size=buflen))
        flat = b"".join(image[off : off + n] for off, n in mem)
        payload = data.draw(st.binary(min_size=total, max_size=total))
        assert plan.gather(image) == flat
        got, want = bytearray(image), bytearray(image)
        plan.scatter(got, payload)
        reference_scatter(mem, want, payload)
        assert got == want
        # Runs [first, last] whole, their positions counted from the first
        # one's and their offsets from `base`, as a sieving window's are.
        base = data.draw(st.integers(0, min(off for off, _n in mem)))
        first = data.draw(st.integers(0, len(runs) - 1))
        last = data.draw(st.integers(first, len(runs) - 1))
        pos = runs[first].pos
        end = runs[last].pos + runs[last].size * runs[last].count
        part = runs[first : last + 1]
        cut = [(p - pos, offset - base, *shape) for p, offset, *shape in part]
        taken = bytearray(end - pos)
        _move(cut, image[base:], taken, False)
        assert taken == flat[pos:end]
        got, want = bytearray(image[base:]), bytearray(image)
        _move(cut, got, payload[pos:end], True)
        reference_scatter([(offset + k * stride, size)
                           for _p, offset, size, stride, count in part
                           for k in range(count)], want, payload[pos:end])
        assert got == want[base:]

    def test_flash_plan_walks_as_runs_of_eight(self):
        plan = gen_flash(FlashSpec(procs=2, proc_id=0, nblocks=2))
        runs = strided_runs(plan.mem)
        assert (len(plan.mem), len(runs)) == (24576, 3072)
        assert {(run.size, run.stride, run.count) for run in runs} == {(8, 192, 8)}
        # One variable's 128 rows, once per variable, one element further
        # on in memory: each row is 8 cells of 24 variables.
        assert plan.mem_fields == ([(run.offset, 8 * 24 * 8) for run in runs[:128]],
                                   24, 8)
        cyclic = gen_cyclic(CyclicSpec(clients=2, client_id=0,
                                       total_bytes=1 << 16, accesses=64))
        assert cyclic.mem_fields is None
        mem, _buflen = random_mem_regions(random.Random(3), 4096)
        assert make_plan([(0, 4096)], mem).mem_fields is None

    @given(case=periodic_lists(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_periodic_plans_gather_as_the_flat_join(self, case, data):
        mem, size, kind = case
        total = sum(n for _off, n in mem)
        plan = AccessPlan(RegionList(mem), RegionList([(0, total)]))
        buflen = max(off + n for off, n in mem) + data.draw(st.integers(0, 7))
        image = data.draw(st.binary(min_size=buflen, max_size=buflen))
        flat = b"".join(image[off : off + n] for off, n in mem)
        assert plan.gather(image) == flat
        payload = data.draw(st.binary(min_size=total, max_size=total))
        got, want = bytearray(image), bytearray(image)
        plan.scatter(got, payload)
        reference_scatter(mem, want, payload)
        assert got == want
        if size == 3 or kind != "elements":
            assert plan.mem_fields is None

    @given(case=record_lists(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_repeat_rebuilds_the_runs(self, case, data):
        mem, _size, kind, _nfields = case
        moved = data.draw(st.booleans())
        if moved:  # one region moved: the list may no longer repeat
            i = data.draw(st.integers(0, len(mem) - 1))
            mem[i] = (mem[i][0] + data.draw(st.integers(1, 5)), mem[i][1])
        plan = make_plan([(0, sum(n for _off, n in mem))], mem)
        runs = plan.mem_runs
        fields = plan.mem_fields
        assert moved or (fields is not None) == (kind == "fields")
        if fields is not None:
            # The fields are the whole run list: the template's records,
            # and each copy one element further on in memory.
            records, copies, size = fields
            template = runs[:len(records)]
            assert records == [(run.offset, run.count * copies * size)
                               for run in template]
            shift = plan.total_length // copies
            assert runs == [
                Run(pos + m * shift, offset + m * size, *shape)
                for m in range(copies)
                for pos, offset, *shape in template]
            image = random.Random(len(mem)).randbytes(
                max(off + n for off, n in mem))
            assert plan.gather(image) == b"".join(image[off : off + n]
                                                  for off, n in mem)

    @given(case=record_lists(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_record_fields_gather_as_the_flat_join(self, case, data):
        mem, size, kind, nfields = case
        total = sum(n for _off, n in mem)
        plan = AccessPlan(RegionList(mem), RegionList([(0, total)]))
        buflen = max(off + n for off, n in mem) + data.draw(st.integers(0, 7))
        image = data.draw(st.binary(min_size=buflen, max_size=buflen))
        flat = b"".join(image[off : off + n] for off, n in mem)
        fields = plan.mem_fields
        assert (fields is not None) == (kind == "fields")
        assert fields is None or fields[1:] == (nfields, size)
        calls = []
        real = client_module._gather_fields
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(client_module, "_gather_fields",
                       lambda *args: calls.append(1) or real(*args))
            assert plan.gather(image) == flat
        # Fields are gathered by fields, in one call; the rest by runs.
        assert len(calls) == (1 if kind == "fields" else 0)
        payload = data.draw(st.binary(min_size=total, max_size=total))
        got, want = bytearray(image), bytearray(image)
        plan.scatter(got, payload)
        reference_scatter(mem, want, payload)
        assert got == want

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_columns_of_each_element_size(self, size, monkeypatch):
        # Records of 16 one-element fields, listed field by field: two rows
        # of 4 records, at offsets of different residues. The 16 columns of
        # fields gather by fields from 2 rows, not as 32 runs of 4.
        record = 16 * size
        template = ([(1 + k * record, size) for k in range(4)]
                    + [(100 * size + k * record, size) for k in range(4)])
        mem = [(off + m * size, n) for m in range(16) for off, n in template]
        plan = make_plan([(0, len(mem) * size)], mem)
        image = random.Random(size).randbytes(max(off for off, _n in mem)
                                              + size + 3)
        flat = b"".join(image[off : off + n] for off, n in mem)
        calls = []
        real = client_module._gather_fields
        monkeypatch.setattr(client_module, "_gather_fields",
                            lambda *args: calls.append(1) or real(*args))
        assert plan.gather(image) == flat
        assert plan.mem_fields == ([(1, 4 * record), (100 * size, 4 * record)],
                                   16, size)
        assert len(calls) == 1

    @pytest.mark.parametrize("size, shift", [(3, 3), (4, 6), (8, 0)])
    def test_no_columns_without_whole_element_shifts(self, size, shift):
        # Runs at the stride of a 16-field record, repeated 16 times: they
        # are fields only with a shift of one element of 1, 2, 4 or 8 bytes.
        template = [(k * 16 * size, size) for k in range(4)] + [(99 * size, size)]
        mem = [(off + m * shift, n) for m in range(16) for off, n in template]
        plan = make_plan([(0, len(mem) * size)], mem)
        image = random.Random(size).randbytes(max(off for off, _n in mem)
                                              + size)
        flat = b"".join(image[off : off + n] for off, n in mem)
        assert plan.gather(image) == flat
        assert plan.mem_fields is None

    def test_a_repeat_cut_short_gathers_by_runs(self):
        # Three runs of 8 B elements, the third the first one element on:
        # a repeat of two runs that stops after one. (Memory regions may
        # overlap.)
        mem = [(0, 8), (8, 8), (100, 8), (8, 8), (16, 8)]
        plan = make_plan([(0, 40)], mem)
        assert len(plan.mem_runs) == 3
        image = random.Random(5).randbytes(108)
        assert plan.gather(image) == b"".join(image[off : off + n]
                                              for off, n in mem)
        assert plan.mem_fields is None

    def _gather_copies(self, monkeypatch, plan, buffer):
        """The strided copies that gathering the plan makes by runs, and
        the staging arrays it makes by fields."""
        copies, staged = [], []
        real = client_module._elements
        monkeypatch.setattr(
            client_module, "_elements",
            lambda view, size, skip: _CountingView(real(view, size, skip),
                                                   copies))
        monkeypatch.setattr(client_module, "array",
                            lambda typecode: _CountingArray(typecode, staged))
        plan.gather(buffer)
        return copies, staged

    def test_flash_gather_copies_rows_then_fields(self, monkeypatch):
        spec = FlashSpec(procs=2, proc_id=0, nblocks=2)
        plan = gen_flash(spec)
        buffer = bytearray(spec.nblocks * spec.mem_block_bytes)
        copies, (staging,) = self._gather_copies(monkeypatch, plan, buffer)
        # 128 rows of 8 cells of 24 variables, then one slice per variable
        # of its 1,024 elements: not 1,024 columns, nor 3,072 runs of 8.
        assert copies == []
        assert staging.rows == [8 * 24 * 8] * 128
        assert [len(range(*index.indices(len(staging))))
                for index in staging.slices] == [1024] * 24

    def test_default_cube_gathers_by_fields(self, monkeypatch):
        # A variable of the default cube is 80 blocks, more than a list
        # batch of 64 regions holds. The plan is still gathered whole, by
        # fields: 64 rows of 8 cells a block, then one slice a variable.
        spec = FlashSpec(procs=2, proc_id=0)
        plan = gen_flash(spec)
        buffer = bytearray(spec.nblocks * spec.mem_block_bytes)
        copies, (staging,) = self._gather_copies(monkeypatch, plan, buffer)
        assert copies == []
        assert staging.rows == [8 * 24 * 8] * (spec.nblocks * 64)
        assert [len(range(*index.indices(len(staging))))
                for index in staging.slices] == [spec.nblocks * 512] * 24
