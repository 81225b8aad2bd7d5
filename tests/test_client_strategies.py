import contextlib
import math
import random
import socketserver
import threading

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
)
from listio_pfs.errors import NotFoundError, PlanError, ProtocolError
from listio_pfs.regions import RegionList, StripingParams
from listio_pfs.bench import reassemble_file

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


class _SkewedReplies(socketserver.BaseRequestHandler):
    """A stub daemon: attaches any handle, answers every read with
    `server.skew` bytes more (or fewer) than asked for, all zeros."""

    def handle(self):
        self.server.connections += 1
        try:
            while (request := wire.recv_request(self.request)) is not None:
                header = request[0]
                n = 0
                if header.opcode in (wire.READ, wire.READ_LIST):
                    n = header.length + self.server.skew
                wire.send_response(self.request, header.request_id,
                                   wire.STATUS_OK, bytes(n))
        except (OSError, ProtocolError):
            pass  # the client hung up mid-reply


class _NoManager:
    def request(self, *args, **kwargs):
        raise OSError("no manager")

    def close(self):
        pass


@contextlib.contextmanager
def _skewed_session(skew):
    """A session on a two-daemon file whose daemons are one _SkewedReplies
    stub; yields (stub server, session)."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _SkewedReplies)
    server.daemon_threads = True
    server.skew = skew
    server.connections = 0
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
        with _skewed_session(skew) as (_server, session):
            buf = bytearray(b"\xff" * 16)
            with pytest.raises(ProtocolError):
                access(session, buf)

    def test_rejected_reply_drops_its_connection(self):
        # The over-long reply is refused before its payload is read; a
        # reused connection would parse those bytes as the next reply.
        with _skewed_session(1) as (server, session):
            for attempt in (1, 2):
                with pytest.raises(ProtocolError, match="exceeds buffer"):
                    pvfs_read(session, 0, bytearray(16))
                assert server.connections == attempt


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
