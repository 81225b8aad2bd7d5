import contextlib
import math
import random
import socketserver
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listio_pfs import wire
from listio_pfs.client import (
    AccessPlan,
    FileSession,
    ListIoConfig,
    SievingConfig,
    access_list,
    access_multiple,
    access_sieving_read,
    access_sieving_write,
    metrics_snapshot,
    pvfs_close,
    pvfs_create,
    pvfs_open,
    pvfs_read,
    pvfs_read_list,
    pvfs_write,
    pvfs_write_list,
    _move,
)
from listio_pfs.errors import NotFoundError, PlanError, ProtocolError
from listio_pfs.regions import RegionList, StripingParams, strided_runs
from listio_pfs.bench import reassemble_file
from listio_pfs.workloads import FlashSpec, gen_flash

from oracles import count_windows, overlay, random_file_regions, random_mem_regions

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
        pvfs_close(created)
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
            metrics_snapshot(session)
            pvfs_write(session, 0, bytes(32768))
            assert session.metrics.server_messages == 2
            assert session.metrics.logical_requests == 1

    def test_zero_length_is_a_noop(self, cluster, unique_name):
        with prepared_file(cluster, unique_name, b"") as session:
            metrics_snapshot(session)
            assert pvfs_read(session, 0, bytearray(0)) == 0
            assert pvfs_write(session, 0, b"") == 0
            assert session.metrics.server_messages == 0
            assert session.metrics.logical_requests == 0


class TestStrategyEquivalenceSmall:
    @pytest.mark.parametrize("seed", range(6))
    def test_reads_match_flat_oracle(self, cluster, unique_name, seed):
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
            pos = 0
            for off, ln in file_regions:
                plan.scatter(expected, pos, image[off : off + ln])
                pos += ln
            for runner in (
                lambda b: access_multiple(session, plan, b, "read"),
                lambda b: access_sieving_read(session, plan, b,
                                              SievingConfig(1 << 15)),
                lambda b: access_list(session, plan, b, "read"),
            ):
                buf = bytearray(buflen)
                runner(buf)
                assert buf == expected

    @pytest.mark.parametrize("seed", range(6, 10))
    def test_writes_match_flat_oracle(self, cluster, unique_name, seed):
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
        plan.scatter(buf, 0, stream)
        for runner in (
            lambda s: access_multiple(s, plan, buf, "write"),
            lambda s: access_sieving_write(s, plan, buf, SievingConfig(1 << 14)),
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
    def test_list_counts_batches(self, cluster, unique_name, regions, limit,
                                 expected):
        plan = make_plan([(i * 8, 4) for i in range(regions)])
        image = bytes(regions * 8)
        with prepared_file(cluster, unique_name, image) as session:
            m = access_list(session, plan, bytearray(plan.total_length), "read",
                            ListIoConfig(limit))
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
                buffers.append(plan.gather(buf, 0, total))
            assert counts == {3}  # ceil(130/64), whatever the memory shape
            assert len(set(buffers)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_sieving_window_count_matches_enumerator(self, cluster, unique_name,
                                                     seed):
        rng = random.Random(100 + seed)
        file_regions = random_file_regions(rng, max_regions=40, max_size=2048,
                                           max_gap=30000)
        plan = make_plan(file_regions)
        end = file_regions[-1][0] + file_regions[-1][1]
        window = rng.choice([4096, 16384, 65536])
        with prepared_file(cluster, unique_name, bytes(end)) as session:
            m = access_sieving_read(session, plan,
                                    bytearray(plan.total_length),
                                    SievingConfig(window))
            assert m.logical_requests == count_windows(file_regions, window)
            assert m.wire_bytes_read >= m.useful_bytes


class TestSieving:
    def test_single_window_when_extent_fits(self, cluster, unique_name):
        plan = make_plan([(0, 100), (5000, 100)])
        with prepared_file(cluster, unique_name, bytes(5100)) as session:
            m = access_sieving_read(session, plan, bytearray(200))
            assert m.logical_requests == 1

    def test_three_windows_for_triple_extent(self, cluster, unique_name):
        # extent 96 KiB, dense regions, 32 KiB windows
        regions = [(i * 1024, 512) for i in range(96)]
        plan = make_plan(regions)
        with prepared_file(cluster, unique_name, bytes(96 * 1024)) as session:
            m = access_sieving_read(session, plan,
                                    bytearray(plan.total_length),
                                    SievingConfig(32 * 1024))
            assert m.logical_requests == 3

    def test_single_region_reads_no_waste(self, cluster, unique_name):
        plan = make_plan([(64, 4096)])
        with prepared_file(cluster, unique_name, bytes(8192)) as session:
            m = access_sieving_read(session, plan, bytearray(4096))
            assert m.wire_bytes_read == m.useful_bytes == 4096

    def test_write_costs_two_per_window(self, cluster, unique_name):
        # plan spans two 16 KiB windows
        plan = make_plan([(0, 100), (20000, 100)])
        with prepared_file(cluster, unique_name, bytes(20100)) as session:
            buf = bytearray(200)
            m = access_sieving_write(session, plan, buf, SievingConfig(16384))
            assert m.logical_requests == 4

    def test_fully_covered_window_still_reads_first(self, cluster, unique_name):
        plan = make_plan([(0, 8192)])
        with prepared_file(cluster, unique_name, bytes(8192)) as session:
            m = access_sieving_write(session, plan, bytearray(8192),
                                     SievingConfig(8192))
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
            plan.scatter(buf, 0, stream)
            access_sieving_write(session, plan, buf)
            final = reassemble_file(cluster.storage_roots, session.handle,
                                    session.striping, len(base))
            assert final == overlay(base, file_regions, stream)

    @pytest.mark.parametrize("writing", [False, True])
    @pytest.mark.parametrize("mem,moves", [
        (None, 0),                                       # one memory region
        ([(7 + i * 600, 512) for i in range(96)], 3),    # one region a piece
    ], ids=["direct", "staged"])
    def test_one_plan_move_per_window(self, cluster, unique_name, monkeypatch,
                                      writing, mem, moves):
        # 96 pieces of 512 B over three 32 KiB windows.
        regions = [(i * 1024, 512) for i in range(96)]
        plan = make_plan(regions, mem)
        rng = random.Random(7)
        image = rng.randbytes(96 * 1024)
        stream = rng.randbytes(plan.total_length)
        with prepared_file(cluster, unique_name, image) as session:
            buf = bytearray(max(off + n for off, n in plan.mem))
            if writing:
                plan.scatter(buf, 0, stream)
            calls = []
            for name in ("scatter", "gather"):
                def counted(self, *args, _move=getattr(AccessPlan, name)):
                    calls.append(_move.__name__)
                    return _move(self, *args)
                monkeypatch.setattr(AccessPlan, name, counted)
            access = access_sieving_write if writing else access_sieving_read
            access(session, plan, buf, SievingConfig(32768))
            monkeypatch.undo()
            assert calls == ["gather" if writing else "scatter"] * moves
            if writing:
                final = reassemble_file(cluster.storage_roots, session.handle,
                                        session.striping, len(image))
                assert final == overlay(image, regions, stream)
            else:
                wanted = b"".join(image[off : off + n] for off, n in regions)
                assert plan.gather(buf, 0, plan.total_length) == wanted


class _StubDaemon(socketserver.BaseRequestHandler):
    """A stub daemon: answers every read with `server.skew` bytes more (or
    fewer) than asked for, all zeros. It attaches any handle, unless
    `server.refuse_open` is set: then it refuses every OPEN with
    STATUS_INVALID. It counts connections, and the ones the client closed."""

    def handle(self):
        self.server.connections += 1
        try:
            while (request := wire.recv_request(self.request)) is not None:
                header = request[0]
                if header.opcode == wire.OPEN and self.server.refuse_open:
                    wire.send_response(self.request, header.request_id,
                                       wire.STATUS_INVALID, b"refused")
                    continue
                n = 0
                if header.opcode in (wire.READ, wire.READ_LIST):
                    n = header.length + self.server.skew
                wire.send_response(self.request, header.request_id,
                                   wire.STATUS_OK, bytes(n))
            self.server.hangups += 1
        except (OSError, ProtocolError):
            pass  # the client hung up mid-reply


class _NoManager:
    def request(self, *args, **kwargs):
        raise OSError("no manager")

    def close(self):
        pass


@contextlib.contextmanager
def _stub_session(skew=0, refuse_open=False):
    """A session on a two-daemon file whose daemons are one _StubDaemon;
    yields (stub server, session)."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StubDaemon)
    server.daemon_threads = True
    server.skew = skew
    server.refuse_open = refuse_open
    server.connections = 0
    server.hangups = 0
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    addr = "%s:%d" % server.server_address
    session = FileSession(_NoManager(), "stub", 1, StripingParams(0, 2, 16),
                          0, [addr, addr])
    try:
        yield server, session
    finally:
        session.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


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


class TestMetrics:
    def test_snapshot_returns_and_resets(self, cluster, unique_name):
        with prepared_file(cluster, unique_name, bytes(4096)) as session:
            metrics_snapshot(session)
            assert metrics_snapshot(session).logical_requests == 0
            pvfs_read(session, 0, bytearray(1024))
            snap = metrics_snapshot(session)
            assert snap.logical_requests == 1
            assert snap.useful_bytes == 1024
            assert session.metrics.logical_requests == 0

    def test_counters_additive_across_plans(self, cluster, unique_name):
        plan_a = make_plan([(0, 256)])
        plan_b = make_plan([(4096, 256), (8192, 256)])
        with prepared_file(cluster, unique_name, bytes(9000)) as session:
            metrics_snapshot(session)
            m1 = access_multiple(session, plan_a, bytearray(256), "read")
            m2 = access_multiple(session, plan_b, bytearray(512), "read")
            total = metrics_snapshot(session)
            assert total.logical_requests == m1.logical_requests + m2.logical_requests
            assert total.useful_bytes == m1.useful_bytes + m2.useful_bytes == 768
            assert total.wire_bytes_read == m1.wire_bytes_read + m2.wire_bytes_read

    def test_useful_bytes_equals_plan_total(self, cluster, unique_name):
        plan = make_plan([(0, 100), (900, 100)])
        with prepared_file(cluster, unique_name, bytes(1000)) as session:
            m = access_sieving_read(session, plan, bytearray(200))
            assert m.useful_bytes == plan.total_length == 200


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


def reference_scatter(mem, buf, pos, data):
    """Per-region scatter: later regions overwrite earlier ones."""
    start = 0
    for off, n in mem:
        lo, hi = max(pos, start), min(pos + len(data), start + n)
        if lo < hi:
            buf[off + lo - start : off + hi - start] = data[lo - pos : hi - pos]
        start += n


def reference_span(mem, pos, length):
    """(start, stop) of the buffer slice holding plan bytes [pos,
    pos+length) when one region holds them all, else None."""
    start = 0
    for off, n in mem:
        if start <= pos < start + n:
            at = off + pos - start
            return (at, at + length) if pos + length <= start + n else None
        start += n


class _SliceRecorder:
    def __getitem__(self, index):
        return index.start, index.stop


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
        plan.scatter(buf, 0, payload)
        assert plan.gather(buf, 0, total) == payload
        # partial windows agree too
        if total > 2:
            assert plan.gather(buf, 1, total - 2) == payload[1 : total - 1]

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
        for _ in range(3):
            pos = data.draw(st.integers(0, total - 1))
            length = data.draw(st.integers(1, total - pos))
            assert plan.gather(image, pos, length) == flat[pos : pos + length]
            assert (plan.mem_span(_SliceRecorder(), pos, length)
                    == reference_span(mem, pos, length))
            payload = data.draw(st.binary(min_size=length, max_size=length))
            got, want = bytearray(image), bytearray(image)
            plan.scatter(got, pos, payload)
            reference_scatter(mem, want, pos, payload)
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
        assert windows == [window[:4] for window in expected]
        for ws, we, first, last, clips in expected:
            taken = bytearray(last - first)
            _move(plan.file_runs, image[ws:we], first, taken, False, ws)
            assert taken == b"".join(image[lo : lo + n] for _p, lo, n in clips)
            payload = data.draw(st.binary(min_size=last - first,
                                          max_size=last - first))
            got, want = bytearray(image[ws:we]), bytearray(image[ws:we])
            _move(plan.file_runs, got, first, payload, True, ws)
            for p, lo, n in clips:
                want[lo - ws : lo - ws + n] = payload[p - first : p - first + n]
            assert got == want

    def test_flash_plan_walks_as_runs_of_eight(self):
        plan = gen_flash(FlashSpec(procs=2, proc_id=0, nblocks=2))
        runs = strided_runs(plan.mem)
        assert (len(plan.mem), len(runs)) == (24576, 3072)
        assert {(run.size, run.stride, run.count) for run in runs} == {(8, 192, 8)}
