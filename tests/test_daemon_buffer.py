"""The daemon's per-connection data buffer and the wire's payload cap.

Every socket here has a 5 s timeout, so a server that waits for bytes that
never come fails the test instead of hanging it.
"""

import importlib.util
import socket
from pathlib import Path

import pytest

from listio_pfs import server, wire
from listio_pfs.client import _Channel, pvfs_create, pvfs_read, pvfs_write
from listio_pfs.errors import NotFoundError
from listio_pfs.regions import RegionList, StripingParams
from listio_pfs.server import IoDaemon, Manager

CAP = 4096

_spec = importlib.util.spec_from_file_location(
    "iod_launcher",
    Path(__file__).resolve().parents[1] / "perfbench" / "iod_launcher.py")
iod_launcher = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(iod_launcher)


@pytest.fixture()
def small_cap(monkeypatch):
    monkeypatch.setattr(wire, "MAX_PAYLOAD", CAP, raising=False)


@pytest.fixture()
def cluster(tmp_path):
    """A manager and one registered daemon, both in this process."""
    manager = Manager()
    manager.start()
    daemon = IoDaemon(str(tmp_path / "iod"), manager_addr=manager.address)
    daemon.start()
    yield manager, daemon
    daemon.stop()
    manager.stop()


def _connect(addr: str) -> socket.socket:
    sock = socket.create_connection(server.parse_addr(addr), timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _channel(addr: str) -> _Channel:
    channel = _Channel(addr)
    channel.sock.settimeout(5)
    return channel


def _pattern(n: int) -> bytes:
    """n bytes with no zero among them."""
    return bytes(i % 251 + 1 for i in range(n))


def _refused_then_closed(sock, request_id: int) -> str:
    rid, status, detail = wire.recv_response(sock)
    assert (rid, status) == (request_id, wire.STATUS_INVALID)
    assert sock.recv(1) == b""  # the server closed the connection
    return detail.decode()


class TestCap:
    def test_an_over_cap_write_is_refused_unread_then_closed(self, cluster,
                                                             small_cap):
        _manager, daemon = cluster
        with _connect(daemon.address) as sock:
            wire.send_request(sock, wire.IoRequestHeader(
                wire.OPEN, request_id=1, file_handle=5))
            assert wire.recv_response(sock)[1] == wire.STATUS_OK
            # The header declares CAP + 1 payload bytes; none are sent.
            wire.send_request(sock, wire.IoRequestHeader(
                wire.WRITE, request_id=2, file_handle=5, length=CAP + 1))
            detail = _refused_then_closed(sock, 2)
        assert str(CAP + 1) in detail and str(CAP) in detail
        assert daemon.local_size(5) == 0

    def test_an_over_cap_read_is_refused_and_the_connection_kept(
            self, cluster, small_cap):
        _manager, daemon = cluster
        channel = _channel(daemon.address)
        try:
            channel.request(wire.OPEN, handle=6)
            data = _pattern(CAP)
            channel.request(wire.WRITE, handle=6, length=CAP, payload=data)
            with pytest.raises(ValueError, match=f"{CAP + 1} bytes .* {CAP}"):
                channel.request(wire.READ, handle=6, length=CAP + 1)
            with pytest.raises(ValueError, match="over the"):
                channel.request(wire.READ_LIST, handle=6, length=CAP + 2,
                                regions=RegionList([(0, 2), (10, CAP)]))
            assert channel.request(wire.READ, handle=6, offset=0,
                                   length=CAP) == data
        finally:
            channel.close()

    def test_an_over_cap_manager_create_is_refused_then_closed(
            self, cluster, small_cap):
        manager, _daemon = cluster
        payload = wire.encode_create_payload("n" * CAP, StripingParams(0, 1))
        with _connect(manager.address) as sock:
            wire.send_request(sock, wire.IoRequestHeader(
                wire.CREATE, request_id=3, length=len(payload)))
            _refused_then_closed(sock, 3)
        with pytest.raises(NotFoundError):
            manager.open("n" * CAP)

    def test_the_client_refuses_an_over_cap_message_before_sending(
            self, cluster, monkeypatch):
        manager, daemon = cluster
        requests = []
        dispatch = IoDaemon.dispatch

        def counted(self, conn, header, trailing, data):
            requests.append(header.opcode)
            return dispatch(self, conn, header, trailing, data)

        monkeypatch.setattr(IoDaemon, "dispatch", counted)
        data = _pattern(2 * CAP)
        with pvfs_create(manager.address, "capped",
                         StripingParams(0, 1, 1024)) as session:
            session._manager.sock.settimeout(5)
            pvfs_write(session, 0, data)
            seen = len(requests)
            monkeypatch.setattr(wire, "MAX_PAYLOAD", CAP, raising=False)
            with pytest.raises(ValueError, match=f"{2 * CAP} bytes"):
                pvfs_write(session, 0, bytes(2 * CAP))
            out = bytearray(2 * CAP)
            with pytest.raises(ValueError, match=f"{2 * CAP} bytes"):
                pvfs_read(session, 0, out)
            assert len(requests) == seen
            pvfs_read(session, 0, memoryview(out)[:CAP])
            assert bytes(out[:CAP]) == data[:CAP]
            assert len(requests) == seen + 1


class TestBuffer:
    def test_no_stale_bytes_past_the_end_of_a_file(self, cluster):
        _manager, daemon = cluster
        size = 64 << 10
        data = _pattern(size)
        channel = _channel(daemon.address)
        try:
            channel.request(wire.OPEN, handle=8)
            channel.request(wire.WRITE, handle=8, length=size, payload=data)
            # This reply leaves the buffer holding the file's bytes.
            assert channel.request(wire.READ, handle=8, length=size) == data
            regions = RegionList([(0, 100), (size - 536, 1000),
                                  (size + 4000, 1000)])
            got = channel.request(wire.READ_LIST, handle=8, length=2100,
                                  regions=regions)
        finally:
            channel.close()
        assert got == data[:100] + data[-536:] + bytes(464) + bytes(1000)


def test_perfbench_daemon_counters_wrap_the_request_path(tmp_path):
    store = server.StripeStore
    wrapped = [(wire, "decode_header"), (wire, "decode_request"),
               (wire, "send_response"), (IoDaemon, "dispatch"),
               (store, "pread"), (store, "pwrite")]
    originals = [getattr(obj, name) for obj, name in wrapped]
    daemon = IoDaemon(str(tmp_path / "iod"))
    daemon.start()
    counters = iod_launcher.DaemonCounters()
    try:
        counters.install(server, wire)
        channel = _channel(daemon.address)
        try:
            channel.request(wire.OPEN, handle=9)
            regions = RegionList([(0, 10), (100, 20), (1000, 30)])
            data = _pattern(60)
            channel.request(wire.WRITE_LIST, handle=9, length=60,
                            regions=regions, payload=data)
            assert channel.request(wire.READ_LIST, handle=9, length=60,
                                   regions=regions) == data
            assert channel.request(wire.READ, handle=9, offset=100,
                                   length=20) == data[10:30]
        finally:
            channel.close()
    finally:
        daemon.stop()
        for (obj, name), original in zip(wrapped, originals):
            setattr(obj, name, original)
    assert [getattr(obj, name) for obj, name in wrapped] == originals
    rows = counters.snapshot()

    def row(opcode):
        got = rows[f"9:{opcode}"]
        return (got["requests"], got["bytes_in"], got["bytes_out"],
                got["storage_calls"])

    assert row(wire.WRITE_LIST) == (1, 60, 0, 3)
    assert row(wire.READ_LIST) == (1, 0, 60, 3)
    assert row(wire.READ) == (1, 0, 20, 1)
    assert row(wire.OPEN) == (1, 0, 0, 0)
    assert rows[f"9:{wire.READ_LIST}"]["decode_s"] > 0
