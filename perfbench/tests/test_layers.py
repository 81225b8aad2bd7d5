import socket

import pytest

from listio_pfs import client, wire
from perfbench.layers import LayerTotals, Tracer


class Boom(Exception):
    pass


def plain(x, y=1):
    return x + y


def failing():
    raise Boom("plain")


def counting(n):
    yield from range(n)


def failing_gen():
    yield 1
    raise Boom("gen")


def test_span_wrapper_returns_and_reraises_unchanged():
    tracer = Tracer()
    wrapped = tracer.span("x", plain)
    boom = tracer.span("x", failing)
    # outside an access
    assert wrapped(2, y=3) == 5
    with pytest.raises(Boom, match="plain"):
        boom()
    # inside an access
    trace = tracer.begin(1)
    assert wrapped(2, y=3) == 5
    with pytest.raises(Boom, match="plain"):
        boom()
    tracer.end(trace, 0.0, 1.0)
    assert trace.calls["x"] == 2
    assert [s[0] for s in trace.spans] == ["access", "x", "x"]
    assert trace.stack == [0]


def test_generator_wrapper_times_iteration_and_reraises():
    tracer = Tracer()
    trace = tracer.begin(7)
    assert list(tracer.generator_span("g", counting)(3)) == [0, 1, 2]
    it = tracer.generator_span("g", failing_gen)()
    assert next(it) == 1
    with pytest.raises(Boom, match="gen"):
        next(it)
    tracer.end(trace, 0.0, 1.0)
    assert trace.calls["g"] == 2          # calls, not items
    assert sum(s[0] == "g" for s in trace.spans) == 4 + 2
    assert trace.stack == [0]


def test_wire_wrappers_pass_messages_through_and_count_them():
    tracer = Tracer()
    send = tracer.wire_send(wire.send_request, wire)
    recv = tracer.wire_recv(wire.recv_response, wire)
    a, b = socket.socketpair()
    try:
        trace = tracer.begin(1)
        header = wire.IoRequestHeader(wire.WRITE, request_id=9, file_handle=3,
                                      length=5)
        assert send(a, header, None, b"hello") is None
        got = wire.recv_request(b)
        assert got[0].request_id == 9 and got[2] == b"hello"
        wire.send_response(b, 9, wire.STATUS_OK, b"ok!")
        assert recv(a) == (9, wire.STATUS_OK, b"ok!")
        tracer.end(trace, 0.0, 1.0)
        assert dict(trace.wire) == {(3, wire.WRITE): [1, 5 + 3]}
        # manager-bound traffic is passed through uncounted
        trace = tracer.begin(2)
        send(a, wire.IoRequestHeader(wire.TOKEN_ACQUIRE, request_id=1,
                                     file_handle=3))
        wire.recv_request(b)
        wire.send_response(b, 1, wire.STATUS_NOT_FOUND, b"no")
        assert recv(a) == (1, wire.STATUS_NOT_FOUND, b"no")
        tracer.end(trace, 0.0, 1.0)
        assert not trace.wire and len(trace.spans) == 1
    finally:
        a.close()
        b.close()


def test_install_and_uninstall_restore_every_original():
    originals = {name: getattr(client, name) for name in
                 ("stripe_chunks", "server_spans", "iter_transfer_pieces")}
    send = wire.send_request
    scatter = client.AccessPlan.scatter
    tracer = Tracer()
    tracer.install()
    try:
        assert client.stripe_chunks is not originals["stripe_chunks"]
        assert wire.send_request is not send
    finally:
        tracer.uninstall()
    assert {n: getattr(client, n) for n in originals} == originals
    assert wire.send_request is send
    assert client.AccessPlan.scatter is scatter


def test_totals_split_self_time_from_children():
    tracer = Tracer()
    trace = tracer.begin(1)
    trace.spans.append(["wire.send", 1.0, 1.5, 0])
    trace.spans.append(["regions.x", 2.0, 2.25, 0])
    trace.spans.append(["wire.wait", 2.1, 2.2, 2])   # grandchild: not counted
    tracer.end(trace, 0.0, 4.0)
    totals = LayerTotals(keep_spans=1)
    totals.add(trace)
    assert totals.self_seconds == pytest.approx(3.25)
    assert totals.layer("regions.")[0] == pytest.approx(0.25)
    assert len(totals.kept) == 4
    totals.add(trace)
    assert len(totals.kept) == 4 and totals.accesses == 2
