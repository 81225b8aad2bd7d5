import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listio_pfs import wire
from listio_pfs.errors import (
    ExistsError,
    NotFoundError,
    PfsError,
    PlanError,
    ProtocolError,
    TokenError,
)
from listio_pfs.regions import RegionList

u64 = st.integers(0, 2**63)
DATA_OPCODES = [wire.CREATE, wire.OPEN, wire.CLOSE, wire.READ, wire.WRITE,
                wire.TOKEN_ACQUIRE, wire.TOKEN_RELEASE, wire.STAT, wire.REGISTER]

headers = st.builds(
    wire.IoRequestHeader,
    opcode=st.sampled_from(DATA_OPCODES),
    request_id=u64,
    file_handle=u64,
    offset=u64,
    length=u64,
    region_count=st.just(0),
    flags=st.integers(0, 2**32 - 1),
    magic=st.just(wire.MAGIC),
    version=st.just(wire.VERSION),
)

region_lists = st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(1, 2**32)),
    min_size=1, max_size=64,
).map(RegionList)


def response_frame(rid, status, payload=b""):
    """A response as PROTOCOL.md lays it out, packed field by field."""
    return struct.pack("<QIQ", rid, status, len(payload)) + payload


def sent_response(rid, status, payload=b""):
    """The bytes send_response puts on a socket, and recv_response's result
    for them, over a socketpair."""
    writer, reader = socket.socketpair()
    try:
        wire.send_response(writer, rid, status, payload)
        raw = reader.recv(len(payload) + 64, socket.MSG_PEEK | socket.MSG_WAITALL)
        return raw, wire.recv_response(reader)
    finally:
        writer.close()
        reader.close()


def list_header(regions, opcode=wire.READ_LIST, rid=1):
    return wire.IoRequestHeader(
        opcode, request_id=rid, file_handle=1,
        length=regions.total_length, region_count=len(regions),
    )


class TestSizes:
    def test_contiguous_header_is_64_bytes(self):
        raw = wire.encode_request(wire.IoRequestHeader(wire.READ, 1, 2, 0, 16))
        assert len(raw) == 64

    def test_full_list_fits_one_ethernet_frame(self):
        regions = RegionList([(i * 100, 10) for i in range(64)])
        raw = wire.encode_request(list_header(regions), regions)
        assert len(raw) == 1088
        assert len(raw) <= wire.MAX_REQUEST_FRAME

    def test_every_region_count_respects_frame_bound(self):
        for n in range(1, 65):
            regions = RegionList([(i * 10, 1) for i in range(n)])
            raw = wire.encode_request(list_header(regions), regions)
            assert len(raw) == 64 + 16 * n <= wire.MAX_REQUEST_FRAME

    def test_single_region_list_round_trip(self):
        regions = RegionList([(0, 8)])
        header = list_header(regions)
        raw = wire.encode_request(header, regions)
        assert len(raw) == 80
        assert wire.decode_request(raw) == (header, regions)


class TestRoundTrip:
    @given(header=headers)
    @settings(max_examples=200)
    def test_plain_headers(self, header):
        decoded, trailing = wire.decode_request(wire.encode_request(header))
        assert decoded == header
        assert trailing is None

    @given(regions=region_lists, rid=u64,
           opcode=st.sampled_from([wire.READ_LIST, wire.WRITE_LIST]))
    @settings(max_examples=200)
    def test_list_requests(self, regions, rid, opcode):
        header = list_header(regions, opcode, rid)
        decoded, trailing = wire.decode_request(wire.encode_request(header, regions))
        assert decoded == header
        assert trailing == regions

    @given(rid=u64, status=st.integers(0, 6), payload=st.binary(max_size=5000))
    @settings(max_examples=200)
    def test_responses(self, rid, status, payload):
        raw, got = sent_response(rid, status, payload)
        assert raw == response_frame(rid, status, payload)
        assert got == (rid, status, payload)


class TestResponses:
    def test_empty_payload_is_prefix_only(self):
        raw, _got = sent_response(7, wire.STATUS_OK)
        assert raw == response_frame(7, wire.STATUS_OK)
        assert len(raw) == wire.RESPONSE_PREFIX_SIZE

    def test_payload_follows_prefix(self):
        raw, _got = sent_response(7, wire.STATUS_OK, bytes(4096))
        assert raw == response_frame(7, wire.STATUS_OK, bytes(4096))
        assert len(raw) == wire.RESPONSE_PREFIX_SIZE + 4096

    def test_truncated_payload_rejected(self):
        writer, reader = socket.socketpair()
        try:
            writer.sendall(response_frame(7, wire.STATUS_OK, b"abcd")[:-1])
            writer.close()
            with pytest.raises(ProtocolError):
                wire.recv_response(reader)
        finally:
            writer.close()
            reader.close()

    @pytest.mark.parametrize("error, status, raised", [
        (ExistsError, 1, ExistsError),
        (NotFoundError, 2, NotFoundError),
        (ProtocolError, 3, ProtocolError),
        (ValueError, 4, ValueError),
        (PlanError, 4, ValueError),   # any other PfsError: invalid argument
        (TokenError, 5, TokenError),
        (RuntimeError, 6, PfsError),  # anything else: internal error
        (None, 99, PfsError),         # a status no server sends
    ])
    def test_status_table(self, error, status, raised):
        # A server answers an error with its status; a client raises the
        # first class listed for that status, or PfsError for one not listed.
        if error is not None:
            assert wire.status_for(error("why")) == status
        with pytest.raises(raised) as caught:
            wire.raise_for_status(status, b"why")
        assert type(caught.value) is raised
        assert str(caught.value) == (f"server error {status}: why"
                                     if raised is PfsError else "why")


def raw_list_request(entries, length):
    """A READ_LIST frame packed field by field, entry by entry."""
    head = struct.pack("<IHHQQQQII16x", wire.MAGIC, wire.VERSION,
                       wire.READ_LIST, 7, 1, 0, length, len(entries), 0)
    return head + b"".join(struct.pack("<QQ", off, n) for off, n in entries)


class TestRegionTable:
    def test_a_64_region_table_packs_entry_by_entry(self):
        rng = random.Random(12)
        entries = [(rng.randrange(2**63), rng.randrange(1, 2**32))
                   for _ in range(wire.MAX_LIST_REGIONS)]
        regions = RegionList(entries)
        header = wire.IoRequestHeader(wire.READ_LIST, 7, 1, 0,
                                      regions.total_length, len(regions))
        raw = raw_list_request(entries, regions.total_length)
        assert wire.encode_request(header, regions) == raw
        assert wire.decode_request(raw) == (header, regions)

    def test_a_zero_length_entry_is_rejected(self):
        with pytest.raises(ProtocolError, match="invalid trailing region"):
            wire.decode_request(raw_list_request([(0, 4), (8, 0)], 4))

    def test_an_entry_ending_past_the_64_bit_space_is_rejected(self):
        with pytest.raises(ProtocolError, match="invalid trailing region"):
            wire.decode_request(raw_list_request([(0, 4), (2**64 - 4, 8)], 12))

    def test_an_entry_ending_at_the_last_byte_is_accepted(self):
        entries = [(0, 4), (2**64 - 9, 8)]
        _header, regions = wire.decode_request(raw_list_request(entries, 12))
        assert list(regions) == entries and regions.total_length == 12


class TestRejection:
    def test_bad_magic(self):
        raw = bytearray(wire.encode_request(wire.IoRequestHeader(wire.READ, 1)))
        raw[0:4] = bytes(4)
        with pytest.raises(ProtocolError):
            wire.decode_request(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(wire.encode_request(wire.IoRequestHeader(wire.READ, 1)))
        raw[4:6] = b"\x09\x00"
        with pytest.raises(ProtocolError):
            wire.decode_request(bytes(raw))

    def test_unknown_opcode(self):
        raw = bytearray(wire.encode_request(wire.IoRequestHeader(wire.READ, 1)))
        raw[6:8] = b"\x63\x00"
        with pytest.raises(ProtocolError):
            wire.decode_request(bytes(raw))

    def test_truncated_trailing(self):
        regions = RegionList([(0, 1), (10, 1), (20, 1)])
        raw = wire.encode_request(list_header(regions), regions)
        with pytest.raises(ProtocolError):
            wire.decode_request(raw[: 64 + 32])

    def test_region_count_above_limit_rejected_on_encode(self):
        regions = RegionList([(i * 10, 1) for i in range(65)])
        with pytest.raises(ProtocolError):
            wire.encode_request(
                wire.IoRequestHeader(wire.READ_LIST, 1, 1, 0,
                                     regions.total_length, 65),
                regions,
            )

    def test_region_count_above_limit_rejected_on_decode(self):
        raw = bytearray(wire.encode_request(wire.IoRequestHeader(wire.READ, 1)))
        raw[6:8] = bytes([wire.READ_LIST, 0])
        raw[40:44] = (65).to_bytes(4, "little")  # region_count field
        with pytest.raises(ProtocolError):
            wire.decode_header(bytes(raw))

    def test_nonzero_region_count_on_contiguous_op(self):
        raw = bytearray(wire.encode_request(wire.IoRequestHeader(wire.READ, 1)))
        raw[40:44] = (3).to_bytes(4, "little")  # region_count field
        with pytest.raises(ProtocolError):
            wire.decode_request(bytes(raw))

    @pytest.mark.parametrize("opcode", [wire.READ_LIST, wire.WRITE_LIST],
                             ids=["READ_LIST", "WRITE_LIST"])
    @pytest.mark.parametrize("skew", [-1, 1])
    def test_list_length_must_equal_region_total(self, opcode, skew):
        regions = RegionList([(0, 8), (100, 4)])
        header = list_header(regions, opcode)._replace(
            length=regions.total_length + skew)
        with pytest.raises(ProtocolError, match="region total"):
            wire.decode_request(wire.encode_request(header, regions))

    def test_short_header(self):
        with pytest.raises(ProtocolError):
            wire.decode_request(b"\x00" * 12)

    def test_inconsistent_region_count_on_encode(self):
        regions = RegionList([(0, 8)])
        with pytest.raises(ProtocolError):
            wire.encode_request(wire.IoRequestHeader(wire.READ_LIST, 1), regions)


class TestPayloadHelpers:
    def test_create_payload_round_trip(self):
        from listio_pfs.regions import StripingParams

        sp = StripingParams(2, 4, 65536)
        name, got = wire.decode_create_payload(wire.encode_create_payload("x/y", sp))
        assert (name, got) == ("x/y", sp)

    def test_metadata_payload_round_trip(self):
        from listio_pfs.regions import StripingParams

        sp = StripingParams(0, 2, 64)
        raw = wire.encode_metadata_payload(9, sp, 1234, ["a:1", "b:22"])
        assert wire.decode_metadata_payload(raw) == (9, sp, 1234, ["a:1", "b:22"])


# Region entries as sent, valid or not: small offsets and lengths most of
# the time, any 64-bit value otherwise (zero lengths, ends past 2**64).
raw_entries = st.lists(
    st.tuples(st.integers(0, 2**20) | st.integers(0, 2**64 - 1),
              st.integers(1, 64) | st.integers(0, 2**64 - 1)),
    min_size=1, max_size=64,
)


@st.composite
def request_streams(draw):
    """Plain random bytes, or a few request frames (list opcodes weighted
    up) laid out as PROTOCOL.md says, then possibly with one byte changed,
    cut at a random length."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=2000))
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        opcode = draw(st.sampled_from(sorted(wire.LIST_OPCODES))
                      | st.sampled_from(sorted(wire.OPCODE_NAMES)))
        entries = draw(raw_entries) if opcode in wire.LIST_OPCODES else []
        if entries:
            length = sum(n for _offset, n in entries) % 2**64
            payload = b""
            if opcode == wire.WRITE_LIST and length <= 4096:
                payload = bytes(length)
        else:
            payload = draw(st.binary(max_size=64))
            length = len(payload)
        frames.append(
            struct.pack("<IHHQQQQII16x", wire.MAGIC, wire.VERSION, opcode, 1, 1,
                        0, length, len(entries), 0)
            + b"".join(struct.pack("<QQ", *entry) for entry in entries)
            + payload
        )
    stream = bytearray(b"".join(frames))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(stream) - 1))
        stream[at] = draw(st.integers(0, 255))
    return bytes(stream[: draw(st.integers(0, len(stream)))])


@st.composite
def response_streams(draw):
    """Plain random bytes, or a few responses (a 20-byte prefix of request
    id, status and payload length, then the payload) laid out as
    PROTOCOL.md says, then possibly with one byte changed, cut at a random
    length."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=2000))
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        payload = draw(st.binary(max_size=64))
        status = draw(st.integers(0, wire.STATUS_INTERNAL)
                      | st.integers(0, 2**32 - 1))
        frames.append(struct.pack("<QIQ", draw(u64), status, len(payload))
                      + payload)
    stream = bytearray(b"".join(frames))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(stream) - 1))
        stream[at] = draw(st.integers(0, 255))
    return bytes(stream[: draw(st.integers(0, len(stream)))])


class TestStreamFuzz:
    @given(stream=request_streams())
    @settings(max_examples=300, deadline=None)
    def test_recv_request_frames_or_rejects(self, stream):
        writer, reader = socket.socketpair()
        try:
            writer.sendall(stream)
            writer.close()
            while True:
                try:
                    frame = wire.recv_request(reader)
                except ProtocolError:
                    return
                if frame is None:
                    return
                header, trailing, data = frame
                assert (trailing is None) == (header.opcode not in wire.LIST_OPCODES)
                if header.opcode not in wire._PAYLOAD_OPCODES:
                    assert data == b""
                elif header.length > wire.MAX_PAYLOAD:
                    assert data is None  # left unread on the stream
                    return
                else:
                    assert len(data) == header.length
        finally:
            writer.close()
            reader.close()

    @given(stream=response_streams(), out_size=st.none() | st.integers(0, 80))
    @settings(max_examples=300, deadline=None)
    def test_recv_response_returns_or_rejects(self, stream, out_size):
        writer, reader = socket.socketpair()
        try:
            writer.sendall(stream)
            writer.close()
            out = None if out_size is None else memoryview(bytearray(out_size))
            while True:
                try:
                    _rid, status, payload = wire.recv_response(reader, out=out)
                except ProtocolError:
                    return
                if out is not None and status == wire.STATUS_OK:
                    assert 0 <= payload <= len(out)
                else:
                    assert isinstance(payload, bytes)
        finally:
            writer.close()
            reader.close()


class _RecordingSocket(socket.socket):
    """A real socket that records the byte count each sendmsg call sent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def sendmsg(self, buffers, *args):
        n = super().sendmsg(buffers, *args)
        self.sent.append(n)
        return n


class _CountingSocket(socket.socket):
    """A real socket that counts its recv_into and recvmsg_into calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.receives = 0

    def recv_into(self, *args):
        self.receives += 1
        return super().recv_into(*args)

    def recvmsg_into(self, *args):
        self.receives += 1
        return super().recvmsg_into(*args)


class _FakeSocket:
    """Records each send call and its bytes; sendmsg takes at most `accept`
    bytes, as a partial send does."""

    def __init__(self, accept=None):
        self.accept = accept
        self.calls = []

    def sendmsg(self, buffers):
        data = b"".join(bytes(b) for b in buffers)
        n = len(data) if self.accept is None else min(self.accept, len(data))
        self.calls.append(("sendmsg", data[:n]))
        return n

    def sendall(self, data):
        self.calls.append(("sendall", bytes(data)))


WRITE_8 = wire.IoRequestHeader(wire.WRITE, request_id=3, file_handle=1,
                               length=8)


class TestFraming:
    @pytest.mark.parametrize("side", ["request", "response"])
    def test_a_multi_mib_frame_arrives_whole_after_partial_sends(self, side):
        payload = random.Random(3).randbytes(3 << 20)
        left, reader = socket.socketpair()
        writer = _RecordingSocket(fileno=left.detach())
        try:
            writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            # With a timeout the socket is non-blocking underneath, so one
            # sendmsg sends only what the small buffer takes.
            writer.settimeout(60)
            got = []
            thread = threading.Thread(target=lambda: got.append(
                wire.recv_request(reader) if side == "request"
                else wire.recv_response(reader)))
            thread.start()
            if side == "request":
                header = WRITE_8._replace(length=len(payload))
                wire.send_request(writer, header, None, payload)
                want = (header, None, payload)
            else:
                wire.send_response(writer, 9, wire.STATUS_OK, payload)
                want = (9, wire.STATUS_OK, payload)
            thread.join(60)
            assert not thread.is_alive()
            assert len(writer.sent) == 1 and writer.sent[0] < len(payload)
            assert got == [want]
        finally:
            writer.close()
            reader.close()

    def test_a_small_write_is_one_sendmsg(self):
        sock = _FakeSocket()
        wire.send_request(sock, WRITE_8, None, b"abcdefgh")
        assert sock.calls == [("sendmsg", wire.encode_request(WRITE_8)
                               + b"abcdefgh")]
        sock = _FakeSocket()
        wire.send_response(sock, 3, wire.STATUS_OK, b"abcdefgh")
        assert sock.calls == [("sendmsg", response_frame(
            3, wire.STATUS_OK, b"abcdefgh"))]

    @pytest.mark.parametrize("accept", [0, 10, 63, 64, 70, 71])
    def test_the_unsent_tail_follows_a_partial_sendmsg(self, accept):
        frame = wire.encode_request(WRITE_8) + b"abcdefgh"
        sock = _FakeSocket(accept)
        wire.send_request(sock, WRITE_8, None, memoryview(b"abcdefgh"))
        assert sock.calls[0] == ("sendmsg", frame[:accept])
        assert [call for call, _data in sock.calls[1:]] == ["sendall"] * (
            len(sock.calls) - 1)
        assert b"".join(data for _call, data in sock.calls) == frame


class TestPieces:
    @staticmethod
    def _pieces(buffer, sizes, gap):
        """Views of `buffer` of the given sizes, `gap` bytes apart."""
        view = memoryview(buffer)
        pieces, pos = [], 0
        for size in sizes:
            pieces.append(view[pos : pos + size])
            pos += size + gap
        return pieces

    def test_a_reply_fills_more_pieces_than_one_call_takes(self):
        # Pieces of uneven sizes, more of them than one recvmsg_into call
        # takes, behind a small receive buffer: pieces fill over many
        # calls, and some are split between two calls.
        payload = random.Random(5).randbytes(3 << 20)
        sizes = [1 + (i * 7919) % 4093 for i in range(2 * wire.IOV_MAX)]
        assert sum(sizes[: wire.IOV_MAX]) < len(payload) <= sum(sizes)
        buffer = bytearray(b"\xee" * (sum(sizes) + 3 * len(sizes)))
        pieces = self._pieces(buffer, sizes, 3)
        writer, reader = socket.socketpair()
        try:
            reader.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            thread = threading.Thread(target=wire.send_response,
                                      args=(writer, 4, wire.STATUS_OK, payload))
            thread.start()
            assert wire.recv_response(reader, out=pieces) == (
                4, wire.STATUS_OK, len(payload))
            thread.join(60)
        finally:
            writer.close()
            reader.close()
        # The payload lands in the pieces in order; the rest of the pieces
        # and the gaps between them are untouched.
        want = bytearray(b"\xee" * len(buffer))
        done = pos = 0
        for size in sizes:
            take = min(size, len(payload) - done)
            want[pos : pos + take] = payload[done : done + take]
            done += take
            pos += size + 3
        assert buffer == want

    @pytest.mark.parametrize("short", [1, 0], ids=["short", "full"])
    def test_a_reply_fills_its_bytes_and_leaves_the_list(self, short):
        # 512 pieces of 512 B behind a small receive buffer, so each reply
        # takes many receives: a reply a byte short of the pieces fills
        # exactly its bytes, and neither reply changes the list it is
        # given, which a plan may keep and hand in again.
        buffer = bytearray(b"\xee" * (512 * 515))
        pieces = self._pieces(buffer, [512] * 512, 3)
        given = list(pieces)
        payload = random.Random(7).randbytes(512 * 512 - short)
        writer, reader = socket.socketpair()
        try:
            reader.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            thread = threading.Thread(target=wire.send_response,
                                      args=(writer, 4, wire.STATUS_OK, payload))
            thread.start()
            assert wire.recv_response(reader, out=pieces) == (
                4, wire.STATUS_OK, len(payload))
            thread.join(60)
        finally:
            writer.close()
            reader.close()
        assert len(pieces) == len(given)
        assert all(piece is was and len(piece) == 512
                   for piece, was in zip(pieces, given))
        want = bytearray(b"\xee" * len(buffer))
        for k in range(512):
            chunk = payload[k * 512 : k * 512 + 512]
            want[k * 515 : k * 515 + len(chunk)] = chunk
        assert buffer == want

    def test_one_view_fills_over_many_receives(self):
        payload = random.Random(6).randbytes(1 << 20)
        buffer = bytearray(b"\xee" * (len(payload) + 5))
        writer, left = socket.socketpair()
        reader = _CountingSocket(fileno=left.detach())
        try:
            reader.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            thread = threading.Thread(target=wire.send_response,
                                      args=(writer, 4, wire.STATUS_OK, payload))
            thread.start()
            assert wire.recv_response(reader, out=memoryview(buffer)) == (
                4, wire.STATUS_OK, len(payload))
            thread.join(60)
        finally:
            writer.close()
            reader.close()
        assert reader.receives > 1
        assert buffer == payload + b"\xee" * 5

    def test_a_peer_closing_mid_view_is_a_protocol_error(self):
        writer, reader = socket.socketpair()
        try:
            writer.sendall(response_frame(3, wire.STATUS_OK, b"y" * 100)[:-60])
            writer.close()
            with pytest.raises(ProtocolError, match="after 40 of 100 bytes"):
                wire.recv_response(reader, out=memoryview(bytearray(100)))
        finally:
            writer.close()
            reader.close()

    def test_one_view_takes_no_byte_of_the_next_reply(self):
        buffer = bytearray(b"\xee" * 16)
        writer, reader = socket.socketpair()
        try:
            wire.send_response(writer, 2, wire.STATUS_OK, b"x" * 10)
            wire.send_response(writer, 3, wire.STATUS_OK, b"y" * 4)
            assert wire.recv_response(reader, out=memoryview(buffer)) == (
                2, wire.STATUS_OK, 10)
            assert wire.recv_response(reader) == (3, wire.STATUS_OK, b"y" * 4)
        finally:
            writer.close()
            reader.close()
        assert buffer == b"x" * 10 + b"\xee" * 6

    def test_a_reply_larger_than_one_view_is_rejected_unread(self):
        buffer = bytearray(10)
        writer, reader = socket.socketpair()
        try:
            wire.send_response(writer, 2, wire.STATUS_OK, b"x" * 11)
            with pytest.raises(ProtocolError, match="payload 11 exceeds buffer 10"):
                wire.recv_response(reader, out=memoryview(buffer))
            # Only the prefix was read; the payload is still queued.
            assert reader.recv(64, socket.MSG_DONTWAIT) == b"x" * 11
        finally:
            writer.close()
            reader.close()
        assert buffer == bytearray(10)

    def test_an_error_reply_leaves_one_view_untouched(self):
        buffer = bytearray(b"\xee" * 12)
        writer, reader = socket.socketpair()
        try:
            wire.send_response(writer, 2, wire.STATUS_NOT_FOUND, b"gone")
            assert wire.recv_response(reader, out=memoryview(buffer)) == (
                2, wire.STATUS_NOT_FOUND, b"gone")
        finally:
            writer.close()
            reader.close()
        assert buffer == b"\xee" * 12

    @pytest.mark.parametrize("length", [0, 5, 9, 10])
    def test_a_reply_no_larger_than_the_pieces_fills_their_start(self, length):
        buffer = bytearray(12)
        pieces = self._pieces(buffer, [4, 6], 2)
        writer, reader = socket.socketpair()
        try:
            wire.send_response(writer, 2, wire.STATUS_OK, b"x" * length)
            assert wire.recv_response(reader, out=pieces) == (
                2, wire.STATUS_OK, length)
        finally:
            writer.close()
            reader.close()
        want = bytearray(12)
        want[: min(length, 4)] = b"x" * min(length, 4)
        want[6 : 6 + max(0, length - 4)] = b"x" * max(0, length - 4)
        assert buffer == want

    def test_a_reply_larger_than_the_pieces_is_rejected(self):
        pieces = self._pieces(bytearray(12), [4, 6], 2)
        writer, reader = socket.socketpair()
        try:
            wire.send_response(writer, 2, wire.STATUS_OK, b"x" * 11)
            with pytest.raises(ProtocolError):
                wire.recv_response(reader, out=pieces)
        finally:
            writer.close()
            reader.close()

    def test_an_error_reply_is_returned_not_received_into_the_pieces(self):
        buffer = bytearray(12)
        pieces = self._pieces(buffer, [4, 6], 2)
        writer, reader = socket.socketpair()
        try:
            wire.send_response(writer, 2, wire.STATUS_NOT_FOUND, b"gone")
            assert wire.recv_response(reader, out=pieces) == (
                2, wire.STATUS_NOT_FOUND, b"gone")
        finally:
            writer.close()
            reader.close()
        assert buffer == bytearray(12)
