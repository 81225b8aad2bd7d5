import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listio_pfs import wire
from listio_pfs.errors import ProtocolError
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
        raw = wire.encode_response(rid, status, payload)
        assert wire.decode_response(raw) == (rid, status, payload)


class TestResponses:
    def test_empty_payload_is_prefix_only(self):
        raw = wire.encode_response(7, wire.STATUS_OK)
        assert len(raw) == wire.RESPONSE_PREFIX_SIZE

    def test_payload_follows_prefix(self):
        raw = wire.encode_response(7, wire.STATUS_OK, bytes(4096))
        assert len(raw) == wire.RESPONSE_PREFIX_SIZE + 4096

    def test_truncated_payload_rejected(self):
        raw = wire.encode_response(7, wire.STATUS_OK, b"abcd")
        with pytest.raises(ProtocolError):
            wire.decode_response(raw[:-1])


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
                assert isinstance(data, bytes)
        finally:
            writer.close()
            reader.close()
