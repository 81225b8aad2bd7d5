import os

import pytest

from listio_pfs import StripingParams, pvfs_create, pvfs_write, wire
from listio_pfs.server import IoDaemon, Manager
from perfbench import checks, shapes


@pytest.fixture
def cluster(tmp_path):
    manager = Manager()
    manager.start()
    daemons, roots = [], {}
    try:
        for i in range(shapes.DAEMONS):
            root = str(tmp_path / f"iod{i}")
            daemon = IoDaemon(root, manager_addr=manager.address)
            daemon.start()
            daemons.append(daemon)
            roots[daemon.slot] = root
        yield manager.address, roots
    finally:
        for daemon in daemons:
            daemon.stop()
        manager.stop()


def write_file(addr, name, image):
    session = pvfs_create(addr, name, StripingParams(0, shapes.DAEMONS,
                                                     shapes.SSIZE))
    try:
        pvfs_write(session, 0, image)
        return session.handle
    finally:
        session.close()


def test_write_check_passes_on_intact_stripes_and_catches_a_flipped_byte(cluster):
    addr, roots = cluster
    image = shapes.stream(1, "test").randbytes(5 * shapes.SSIZE + 123)
    handle = write_file(addr, "f", image)
    assert checks.file_mismatch(roots, handle, image) is None

    path = os.path.join(roots[2], f"{handle}.stripe")
    with open(path, "r+b") as f:
        f.seek(100)
        byte = f.read(1)
        f.seek(100)
        f.write(bytes([byte[0] ^ 0x01]))
    problem = checks.file_mismatch(roots, handle, image)
    # slot 2 holds file stripe 2 first: its byte 100 is file byte 2*SSIZE+100
    assert problem is not None and f"offset {2 * shapes.SSIZE + 100}" in problem


def test_write_check_catches_a_missing_tail(cluster):
    addr, roots = cluster
    image = shapes.stream(2, "test").randbytes(3 * shapes.SSIZE)
    handle = write_file(addr, "g", image)
    assert checks.file_mismatch(roots, handle, image + b"\x01") is not None


def agreeing():
    handle = 4
    wire_counts = {(handle, wire.READ_LIST): [64, 524288]}
    daemon = {(handle, wire.READ_LIST): {"requests": 64, "bytes_in": 0,
                                         "bytes_out": 524288}}
    metrics = {"server_messages": 64, "wire_bytes": 524288,
               "useful_bytes": 524288, "plan_bytes": 524288}
    return handle, metrics, wire_counts, daemon


def test_counts_that_agree_pass():
    assert checks.count_agreement(*agreeing())["agree"]


def test_a_dropped_daemon_side_count_is_caught():
    handle, metrics, wire_counts, daemon = agreeing()
    daemon[(handle, wire.READ_LIST)]["requests"] -= 1
    row = checks.count_agreement(handle, metrics, wire_counts, daemon)
    assert not row["agree"]
    assert row["server.requests"] == 63


def test_other_disagreements_are_caught():
    handle, metrics, wire_counts, daemon = agreeing()
    row = checks.count_agreement(handle, {**metrics, "server_messages": 63},
                                 wire_counts, daemon)
    assert not row["agree"]
    row = checks.count_agreement(handle, {**metrics, "useful_bytes": 1},
                                 wire_counts, daemon)
    assert not row["agree"]
    stray = {**wire_counts, (handle + 1, wire.READ): [1, 10]}
    assert not checks.count_agreement(handle, metrics, stray, daemon)["agree"]
    # equal totals, but split differently across opcodes
    split = {(handle, wire.READ_LIST): [63, 524288], (handle, wire.READ): [1, 0]}
    daemon2 = {**daemon, (handle, wire.READ_LIST): {
        "requests": 64, "bytes_in": 0, "bytes_out": 524288}}
    assert not checks.count_agreement(handle, metrics, split, daemon2)["agree"]


def test_unstripe_inverts_the_programs_striping():
    from listio_pfs.regions import stripe_location

    sp = StripingParams(0, shapes.DAEMONS, 8)
    image = bytes(range(100))
    stripes = {}
    for off, byte in enumerate(image):
        slot, local = stripe_location(off, sp)
        data = stripes.setdefault(slot, bytearray())
        data.extend(bytes(local + 1 - len(data)))
        data[local] = byte
    assert shapes.unstripe(stripes, ssize=8) == image
