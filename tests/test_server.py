import random
import socket
import threading
import time

import pytest

from listio_pfs import wire
from listio_pfs.client import _Channel, pvfs_create, pvfs_read, pvfs_write
from listio_pfs.errors import (
    ExistsError,
    NotFoundError,
    ProtocolError,
    TokenError,
)
from listio_pfs.regions import RegionList, StripingParams
from listio_pfs.server import IoDaemon, Manager, StripeStore, parse_addr


def _read(daemon, handle, regions) -> bytes:
    """daemon.read into a buffer of 0xff bytes as long as the regions."""
    out = memoryview(bytearray(b"\xff" * sum(n for _off, n in regions)))
    daemon.read(handle, regions, out)
    return bytes(out)


@pytest.fixture(scope="module")
def manager():
    m = Manager()
    m.start()
    for i in range(4):
        m.register_daemon(f"127.0.0.1:{40000 + i}")
    yield m
    m.stop()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    d = IoDaemon(str(tmp_path_factory.mktemp("iod")))
    d.start()
    yield d
    d.stop()


class TestManagerMetadata:
    def test_create_open_round_trip(self, manager, unique_name):
        name = unique_name()
        sp = StripingParams(0, 4, 4096)
        meta = manager.create(name, sp)
        assert meta.size == 0
        assert meta.handle > 0
        opened = manager.open(name)
        assert opened.striping == sp
        assert opened.handle == meta.handle
        assert len(opened.roster) == sp.pcount

    def test_duplicate_create_rejected(self, manager, unique_name):
        name = unique_name()
        manager.create(name, StripingParams(0, 2, 64))
        with pytest.raises(ExistsError):
            manager.create(name, StripingParams(0, 2, 64))

    def test_open_unknown_rejected(self, manager):
        with pytest.raises(NotFoundError):
            manager.open("never-created")

    def test_pcount_capped_by_roster(self, manager, unique_name):
        with pytest.raises(ValueError):
            manager.create(unique_name(), StripingParams(0, 99, 64))

    def test_registration_is_idempotent(self, manager):
        addr = "127.0.0.1:40001"
        assert manager.register_daemon(addr) == manager.register_daemon(addr) == 1


class TestManagerIsolation:
    @pytest.mark.parametrize(
        "opcode", [wire.READ, wire.WRITE, wire.READ_LIST, wire.WRITE_LIST, wire.STAT]
    )
    def test_data_opcodes_rejected(self, manager, opcode):
        channel = _Channel(manager.address)
        try:
            kwargs = {"handle": 1}
            if opcode in wire.LIST_OPCODES:
                kwargs["regions"] = RegionList([(0, 4)])
                kwargs["length"] = 4
                if opcode == wire.WRITE_LIST:
                    kwargs["payload"] = b"abcd"
            elif opcode == wire.WRITE:
                kwargs["length"] = 4
                kwargs["payload"] = b"abcd"
            with pytest.raises(ProtocolError):
                channel.request(opcode, **kwargs)
        finally:
            channel.close()


class TestTokens:
    def test_free_token_granted_immediately(self, manager, unique_name):
        meta = manager.create(unique_name(), StripingParams(0, 2, 64))
        owner = object()
        manager.token_acquire(meta.handle, owner)
        manager.token_release(meta.handle, owner)

    def test_second_acquirer_blocks_until_release(self, manager, unique_name):
        meta = manager.create(unique_name(), StripingParams(0, 2, 64))
        first, second = object(), object()
        manager.token_acquire(meta.handle, first)
        got = threading.Event()

        def waiter():
            manager.token_acquire(meta.handle, second)
            got.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not got.is_set()
        manager.token_release(meta.handle, first)
        assert got.wait(2)
        manager.token_release(meta.handle, second)

    def test_release_by_non_holder_rejected(self, manager, unique_name):
        meta = manager.create(unique_name(), StripingParams(0, 2, 64))
        holder, imposter = object(), object()
        manager.token_acquire(meta.handle, holder)
        with pytest.raises(TokenError):
            manager.token_release(meta.handle, imposter)
        manager.token_release(meta.handle, holder)

    def test_grants_follow_arrival_order(self, manager, unique_name):
        meta = manager.create(unique_name(), StripingParams(0, 2, 64))
        first = object()
        manager.token_acquire(meta.handle, first)
        grants = []
        threads = []
        for i in range(6):
            owner = f"owner-{i}"

            def waiter(owner=owner):
                manager.token_acquire(meta.handle, owner)
                grants.append(owner)
                manager.token_release(meta.handle, owner)

            t = threading.Thread(target=waiter, daemon=True)
            t.start()
            threads.append(t)
            time.sleep(0.02)  # stagger arrival
        manager.token_release(meta.handle, first)
        for t in threads:
            t.join(timeout=5)
        assert grants == [f"owner-{i}" for i in range(6)]

    def test_each_file_grants_its_own_waiters_in_order(self, manager,
                                                       unique_name):
        # Waiters on two files share the manager's lock: a release on one
        # file grants its next waiter and no waiter of the other file.
        a, b = (manager.create(unique_name(), StripingParams(0, 2, 64)).handle
                for _ in range(2))
        holders = {a: object(), b: object()}
        for handle, holder in holders.items():
            manager.token_acquire(handle, holder)
        grants = {a: [], b: []}

        def waiter(handle, owner):
            manager.token_acquire(handle, owner)
            grants[handle].append(owner)
            manager.token_release(handle, owner)

        threads = {a: [], b: []}
        for i in range(3):
            for handle in (a, b):
                t = threading.Thread(target=waiter, args=(handle, f"{handle}-{i}"),
                                     daemon=True)
                t.start()
                threads[handle].append(t)
                time.sleep(0.02)  # stagger arrival
        manager.token_release(a, holders[a])
        for t in threads[a]:
            t.join(timeout=5)
        assert grants[a] == [f"{a}-{i}" for i in range(3)]
        time.sleep(0.05)
        assert grants[b] == []
        assert all(t.is_alive() for t in threads[b])
        manager.token_release(b, holders[b])
        for t in threads[b]:
            t.join(timeout=5)
        assert grants[b] == [f"{b}-{i}" for i in range(3)]

    def test_a_repeat_acquire_by_the_holder_is_refused(self, manager,
                                                       unique_name):
        # Queued behind itself, the holder would wait for good, and its
        # connection, blocked in the wait, would never release the token.
        meta = manager.create(unique_name(), StripingParams(0, 2, 64))
        holder, other = _Channel(manager.address), _Channel(manager.address)
        try:
            for channel in (holder, other):
                channel.sock.settimeout(5)
            holder.request(wire.TOKEN_ACQUIRE, handle=meta.handle)
            with pytest.raises(TokenError):
                holder.request(wire.TOKEN_ACQUIRE, handle=meta.handle)
            holder.request(wire.TOKEN_RELEASE, handle=meta.handle)
            other.request(wire.TOKEN_ACQUIRE, handle=meta.handle)
            other.request(wire.TOKEN_RELEASE, handle=meta.handle)
        finally:
            holder.close()
            other.close()

    def test_disconnect_releases_token(self, manager, unique_name):
        name = unique_name()
        meta = manager.create(name, StripingParams(0, 2, 64))
        holder = _Channel(manager.address)
        holder.request(wire.TOKEN_ACQUIRE, handle=meta.handle)
        holder.close()  # dies without releasing
        other = _Channel(manager.address)
        try:
            done = threading.Event()
            t = threading.Thread(
                target=lambda: (other.request(wire.TOKEN_ACQUIRE, handle=meta.handle),
                                done.set()),
                daemon=True,
            )
            t.start()
            assert done.wait(5), "token leaked by a dead connection"
        finally:
            other.close()


class TestDaemonStorage:
    def test_unattached_handle_rejected(self, daemon):
        with pytest.raises(NotFoundError):
            _read(daemon, 12345, [(0, 4)])
        with pytest.raises(NotFoundError):
            daemon.write(12345, [(0, 4)], b"abcd")
        with pytest.raises(NotFoundError):
            daemon.local_size(12345)

    def test_write_read_round_trip(self, daemon):
        daemon.attach(1)
        daemon.write(1, [(0, 16)], b"0123456789abcdef")
        assert _read(daemon, 1, [(0, 16)]) == b"0123456789abcdef"

    def test_holes_read_as_zero(self, daemon):
        daemon.attach(2)
        assert _read(daemon, 2, [(100, 8)]) == bytes(8)

    def test_read_spans_written_and_hole(self, daemon):
        daemon.attach(3)
        daemon.write(3, [(0, 8)], b"\xaa" * 8)
        assert _read(daemon, 3, [(0, 12)]) == b"\xaa" * 8 + bytes(4)

    def test_last_writer_wins(self, daemon):
        daemon.attach(4)
        daemon.write(4, [(0, 8)], b"\x11" * 8)
        daemon.write(4, [(4, 8)], b"\x22" * 8)
        assert _read(daemon, 4, [(0, 12)]) == b"\x11" * 4 + b"\x22" * 8

    def test_sparse_write_sets_size(self, daemon):
        daemon.attach(5)
        daemon.write(5, [(1 << 20, 1)], b"x")
        assert daemon.local_size(5) == (1 << 20) + 1

    def test_read_list_concatenates_in_order(self, daemon):
        daemon.attach(6)
        daemon.write(6, [(0, 8)], b"A" * 8)
        daemon.write(6, [(100, 8)], b"B" * 8)
        got = _read(daemon, 6, RegionList([(0, 8), (100, 8)]))
        assert got == b"A" * 8 + b"B" * 8

    def test_single_region_list_equals_contig(self, daemon):
        channel = _Channel(daemon.address)
        try:
            channel.request(wire.OPEN, handle=7)
            channel.request(wire.WRITE, handle=7, offset=3, length=12,
                            payload=b"hello world!")
            contig = channel.request(wire.READ, handle=7, offset=3, length=12)
            listed = channel.request(wire.READ_LIST, handle=7, length=12,
                                     regions=RegionList([(3, 12)]))
            assert listed == contig == b"hello world!"
        finally:
            channel.close()

    def test_64_single_byte_regions(self, daemon):
        daemon.attach(8)
        daemon.write(8, [(0, 200)], bytes(range(200)))
        regions = RegionList([(i * 3, 1) for i in range(64)])
        payload = _read(daemon, 8, regions)
        assert payload == bytes(i * 3 for i in range(64))

    def test_write_list_scatter(self, daemon):
        daemon.attach(9)
        daemon.write(9, RegionList([(0, 4), (10, 4)]), b"aaaabbbb")
        assert _read(daemon, 9, [(0, 14)]) == b"aaaa" + bytes(6) + b"bbbb"

    def test_write_list_length_mismatch_rejected(self, daemon):
        daemon.attach(10)
        for regions in ([(0, 4)], RegionList([(0, 4), (8, 4)])):
            with pytest.raises(ProtocolError):
                daemon.write(10, regions, b"toolong")
        assert _read(daemon, 10, [(0, 12)]) == bytes(12)  # nothing written

    def test_storage_fidelity_random_sequence(self, daemon):
        daemon.attach(11)
        rng = random.Random(1234)
        shadow = bytearray(4096)
        for _ in range(300):
            op = rng.randrange(4)
            off = rng.randrange(0, 3500)
            ln = rng.randrange(1, 500)
            if op == 0:
                data = rng.randbytes(ln)
                daemon.write(11, [(off, ln)], data)
                shadow[off : off + ln] = data
            elif op == 1:
                assert _read(daemon, 11, [(off, ln)]) == bytes(shadow[off : off + ln])
            elif op == 2:
                regions, pos, parts = [], off, []
                for _ in range(rng.randrange(1, 5)):
                    seg = rng.randrange(1, 60)
                    regions.append((pos, seg))
                    parts.append(rng.randbytes(seg))
                    pos += seg + rng.randrange(0, 30)
                data = b"".join(parts)
                daemon.write(11, RegionList(regions), data)
                at = 0
                for (roff, rlen) in regions:
                    shadow[roff : roff + rlen] = data[at : at + rlen]
                    at += rlen
            else:
                regions, pos = [], off
                for _ in range(rng.randrange(1, 5)):
                    seg = rng.randrange(1, 60)
                    regions.append((pos, seg))
                    pos += seg + rng.randrange(0, 30)
                expected = b"".join(
                    bytes(shadow[roff : roff + rlen]) for roff, rlen in regions
                )
                assert _read(daemon, 11, RegionList(regions)) == expected


class TestOneRequestAtATime:
    def test_writes_to_two_files_never_overlap_on_a_daemon(self, tmp_path,
                                                           monkeypatch):
        # Each pwrite records its entry and exit and sleeps 20 ms while two
        # clients write two files through one daemon. The daemon serves one
        # data request at a time, so no two pwrite calls overlap, even on
        # different handles.
        spans = []
        real = StripeStore.pwrite

        def slow_pwrite(store, handle, offset, data):
            entry = time.perf_counter()
            time.sleep(0.02)
            real(store, handle, offset, data)
            spans.append((entry, time.perf_counter()))

        monkeypatch.setattr(StripeStore, "pwrite", slow_pwrite)
        manager = Manager()
        manager.start()
        daemon = IoDaemon(str(tmp_path / "iod"), manager_addr=manager.address)
        daemon.start()
        barrier = threading.Barrier(2, timeout=5)
        errors = []

        def writer(i):
            try:
                with pvfs_create(manager.address, f"overlap-{i}",
                                 StripingParams(0, 1, 4096)) as session:
                    barrier.wait()
                    for k in range(4):
                        pvfs_write(session, k * 8, bytes([i + 1]) * 8)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,), daemon=True)
                   for i in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        finally:
            daemon.stop()
            manager.stop()
        assert errors == []
        assert len(spans) == 8
        spans.sort()
        for (_entry, exit_), (next_entry, _exit) in zip(spans, spans[1:]):
            assert exit_ <= next_entry


class TestDaemonWire:
    def test_attach_then_read(self, daemon):
        channel = _Channel(daemon.address)
        try:
            channel.request(wire.OPEN, handle=77)
            channel.request(wire.WRITE, handle=77, offset=0, length=4,
                            payload=b"wxyz")
            assert channel.request(wire.READ, handle=77, offset=0, length=4) == b"wxyz"
        finally:
            channel.close()

    def test_read_without_attach_not_found(self, daemon):
        channel = _Channel(daemon.address)
        try:
            with pytest.raises(NotFoundError):
                channel.request(wire.READ, handle=99999, offset=0, length=4)
        finally:
            channel.close()

    def test_unattached_requests_leave_no_state(self, daemon):
        def keyed_state():
            return {key for obj in (daemon, daemon.store)
                    for value in vars(obj).values() if isinstance(value, dict)
                    for key in value}

        handles = range(50001, 50201)
        channel = _Channel(daemon.address)
        try:
            for handle in handles:
                with pytest.raises(NotFoundError):  # zero-length READs too
                    channel.request(wire.READ, handle=handle, offset=0,
                                    length=handle % 2 * 512)
            with pytest.raises(NotFoundError):
                channel.request(wire.STAT, handle=handles[0])
        finally:
            channel.close()
        assert not keyed_state() & set(handles)

    def test_metadata_opcodes_rejected(self, daemon):
        channel = _Channel(daemon.address)
        try:
            with pytest.raises(ProtocolError):
                channel.request(wire.TOKEN_ACQUIRE, handle=1)
        finally:
            channel.close()

    def test_stat_reports_local_size(self, daemon):
        channel = _Channel(daemon.address)
        try:
            channel.request(wire.OPEN, handle=78)
            channel.request(wire.WRITE, handle=78, offset=10, length=6,
                            payload=b"abcdef")
            raw = channel.request(wire.STAT, handle=78)
            assert wire.unpack_u64(raw) == 16
        finally:
            channel.close()


class TestLifecycle:
    def test_busy_port_rejected(self):
        m = Manager()
        m.start()
        try:
            _host, port = parse_addr(m.address)
            with pytest.raises(OSError):
                Manager(port=port)
        finally:
            m.stop()

    def test_daemon_registers_at_startup(self, tmp_path):
        m = Manager()
        m.start()
        try:
            d = IoDaemon(str(tmp_path / "iod"), manager_addr=m.address)
            d.start()
            try:
                assert d.slot == 0
                assert m.roster == [d.address]
            finally:
                d.stop()
        finally:
            m.stop()

    def test_failed_registration_stops_the_daemon(self, daemon, tmp_path):
        # An I/O daemon refuses REGISTER, so registering with one fails; the
        # daemon that tried must stop listening, not serve unregistered.
        d = IoDaemon(str(tmp_path / "iod"), manager_addr=daemon.address)
        addr = parse_addr(d.address)
        with pytest.raises(ProtocolError, match="registration with"):
            d.start()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(addr, timeout=2).close()

    def test_restart_never_resurrects_old_data(self, tmp_path):
        root = str(tmp_path / "iod")

        def boot():
            m = Manager()
            m.start()
            d = IoDaemon(root, manager_addr=m.address)
            d.start()
            return m, d

        m, d = boot()
        try:
            with pvfs_create(m.address, "old", StripingParams(0, 1, 4096)) as s:
                pvfs_write(s, 0, b"secret!!")
        finally:
            d.stop()
            m.stop()
        m, d = boot()
        try:
            with pvfs_create(m.address, "new", StripingParams(0, 1, 4096)) as s:
                out = bytearray(b"\xff" * 8)
                pvfs_read(s, 0, out)
                assert s.stat() == 0
                assert out == bytes(8)
        finally:
            d.stop()
            m.stop()
