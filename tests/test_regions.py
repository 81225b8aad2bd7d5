import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listio_pfs.errors import PlanError
from listio_pfs.regions import (
    Region,
    RegionList,
    StripingParams,
    batch_regions,
    count_transfer_pieces,
    extent,
    fan_out,
    inverse_stripe_location,
    iter_transfer_pieces,
    server_spans,
    split_by_server,
    stripe_chunks,
    stripe_location,
)
from listio_pfs.workloads import FlashSpec, flash_file_regions

from oracles import (
    deal_layout,
    expand_runs,
    region_byte_set,
    region_bytes,
    split_by_server_reference,
    useful_fraction,
)

SP8 = StripingParams(0, 8, 16384)


striping_params = st.builds(
    StripingParams,
    base=st.integers(0, 3),
    pcount=st.integers(1, 8),
    ssize=st.integers(1, 64),
).filter(lambda sp: sp.base < sp.pcount)


class TestStripeLocation:
    def test_zero(self):
        assert stripe_location(0, SP8) == (0, 0)

    @pytest.mark.parametrize(
        "offset,expected",
        [(16384, (1, 0)), (131072, (0, 16384)), (16390, (1, 6))],
    )
    def test_examples_match_deal_oracle(self, offset, expected):
        _fill, mapping = deal_layout(0, 8, 16384, offset + 1)
        assert mapping[offset] == expected
        assert stripe_location(offset, SP8) == expected

    @given(sp=striping_params, nbytes=st.integers(1, 2048))
    @settings(max_examples=60, deadline=None)
    def test_matches_deal_oracle(self, sp, nbytes):
        _fill, mapping = deal_layout(sp.base, sp.pcount, sp.ssize, nbytes)
        for offset in range(nbytes):
            assert stripe_location(offset, sp) == mapping[offset]

    @given(sp=striping_params, offset=st.integers(0, 1 << 40))
    @settings(max_examples=100)
    def test_inverse_round_trip(self, sp, offset):
        server, local = stripe_location(offset, sp)
        assert inverse_stripe_location(server, local, sp) == offset


class TestStripingReconstruction:
    @given(
        sp=striping_params,
        payload=st.binary(min_size=1, max_size=1500),
    )
    @settings(max_examples=60, deadline=None)
    def test_write_then_read_back(self, sp, payload):
        # place every byte through the mapping, read back byte-by-byte
        stores = [bytearray(len(payload)) for _ in range(sp.pcount)]
        for i, b in enumerate(payload):
            server, local = stripe_location(i, sp)
            stores[server][local] = b
        out = bytes(
            stores[stripe_location(i, sp)[0]][stripe_location(i, sp)[1]]
            for i in range(len(payload))
        )
        assert out == payload


class TestRegionListChecks:
    edge = st.sampled_from([-1, 0, 1, 2**63, 2**64 - 2, 2**64 - 1])

    @given(st.lists(st.tuples(st.integers(-2, 1000) | edge,
                              st.integers(-2, 1000) | edge), max_size=8))
    def test_columns_are_checked_as_entries_are(self, regions):
        offsets = [o for o, _n in regions]
        lengths = [n for _o, n in regions]
        bad = [r for r in regions
               if r[1] <= 0 or r[0] < 0 or r[0] + r[1] > 2**64 - 1]
        outcomes = []
        for build in (lambda: RegionList(regions),
                      lambda: RegionList.from_columns(offsets, lengths)):
            try:
                rl = build()
            except PlanError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((list(rl), rl.total_length))
        assert outcomes[0] == outcomes[1]
        if bad:
            assert repr(Region(*bad[0])) in outcomes[0]
        else:
            assert outcomes[0] == (regions, sum(lengths))


class TestSplitByServer:
    def test_single_stripe(self):
        (out,) = split_by_server(RegionList([(0, 16384)]), SP8)
        assert (out.slot, out.regions) == (0, RegionList([(0, 16384)]))
        assert expand_runs(out.runs) == [(0, 16384)]

    def test_two_stripes(self):
        out = split_by_server(RegionList([(0, 32768)]), SP8)
        assert [(m.slot, m.regions) for m in out] == [
            (0, RegionList([(0, 16384)])), (1, RegionList([(0, 16384)]))]
        assert [expand_runs(m.runs) for m in out] == [[(0, 16384)],
                                                      [(16384, 16384)]]

    def test_empty(self):
        assert split_by_server(RegionList(), SP8) == []

    @given(
        sp=striping_params,
        raw=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 90)),
                     min_size=0, max_size=12),
        limit=st.integers(1, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_conserves_bytes_through_inverse_map(self, sp, raw, limit):
        regions, pos = [], 0
        for gap, length in raw:
            pos += gap
            regions.append(Region(pos, length))
            pos += length
        rl = RegionList(regions)
        # file offset of every file-order position, flattened independently
        file_byte = [r.offset + j for r in rl for j in range(r.length)]
        out = split_by_server(rl, sp, limit)
        assert [m.slot for m in out] == sorted(m.slot for m in out)
        assert sum(m.regions.total_length for m in out) == rl.total_length
        back = set()
        prev = {}
        for server, part, runs in out:
            assert 1 <= len(part) <= limit
            stretches = expand_runs(runs)
            assert [n for _pos, n in stretches] == [r.length for r in part]
            for r, (at, _n) in zip(part, stretches):
                assert r.offset > prev.get(server, -1)  # sorted by local offset
                prev[server] = r.offset
                for j in range(r.length):
                    here = inverse_stripe_location(server, r.offset + j, sp)
                    assert here == file_byte[at + j]
                    back.add(here)
        assert back == region_byte_set([(r.offset, r.length) for r in rl])


    @given(data=st.data(), pcount=st.integers(1, 9), ssize=st.integers(1, 48),
           limit=st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_fan_out(self, data, pcount, ssize, limit):
        # Short regions mostly sit inside one stripe; long ones cross edges.
        sp = StripingParams(data.draw(st.integers(0, pcount - 1)), pcount, ssize)
        raw = data.draw(st.lists(
            st.tuples(st.integers(0, 2 * ssize),
                      st.integers(1, ssize) | st.integers(ssize, 4 * ssize)),
            max_size=150))
        regions, pos = [], data.draw(st.integers(0, 10 * ssize))
        for gap, length in raw:
            pos += gap
            regions.append((pos, length))
            pos += length
        got = split_by_server(RegionList(regions), sp, limit)
        want = split_by_server_reference(RegionList(regions), sp, limit)
        assert [(m.slot, tuple(m.regions), m.runs) for m in got] == [
            (m.slot, tuple(m.regions), m.runs) for m in want]

    @pytest.mark.parametrize("batch", [
        [(i * 1024, 512) for i in range(64)],            # cyclic-small
        [(i * 262144, 131072) for i in range(64)],       # cyclic-large
        [(i * 16384 + 16000, 768) for i in range(64)],   # each crosses an edge
    ])
    def test_benchmark_batches_match_the_reference(self, batch):
        sp = StripingParams(1, 4, 16384)
        assert split_by_server(batch, sp) == split_by_server_reference(batch, sp)


class TestServerSpans:
    @given(sp=striping_params, offset=st.integers(0, 500),
           length=st.integers(1, 700))
    @settings(max_examples=80, deadline=None)
    def test_spans_aggregate_split(self, sp, offset, length):
        spans = server_spans(offset, length, sp)
        split, split_runs = {}, {}
        for server, part, runs in split_by_server(RegionList([(offset, length)]), sp):
            split.setdefault(server, []).extend(part)
            split_runs.setdefault(server, []).extend(expand_runs(runs))
        assert set(spans) == set(split)
        for server, part in split.items():
            assert spans[server].offset == part[0].offset
            assert spans[server].length == sum(r.length for r in part)
            # fragments of a contiguous range are locally adjacent
            end = part[0].offset
            for r in part:
                assert r.offset == end
                end = r.end
        # the contiguous fan-out sends each server its span as one message
        # of at most three runs carrying the split's file-order bytes
        contiguous = fan_out(offset, length, sp)
        assert [m.slot for m in contiguous] == list(spans)
        for server, (span,), runs in contiguous:
            assert span == spans[server]
            assert len(runs) <= 3
            assert (region_bytes(expand_runs(runs))
                    == region_bytes(split_runs[server]))


class TestFanOutShapes:
    """Message shapes of the benchmark's traffic, pcount 4, ssize 16 KiB."""

    SP4 = StripingParams(0, 4, 16384)

    def test_cyclic_small_batch_is_one_back_to_back_run_a_message(self):
        batch = [(i * 1024, 512) for i in range(64)]
        out = split_by_server(batch, self.SP4)
        assert len(out) == 4
        for m in out:
            ((_pos, _at, size, stride, count),) = m.runs
            assert (size, stride, count) == (512, 512, 16)

    def test_cyclic_large_batch_is_one_strided_run_a_message(self):
        batch = [(i * 262144, 131072) for i in range(64)]
        out = split_by_server(batch, self.SP4)
        assert len(out) == 8
        for m in out:
            ((_pos, _at, size, stride, count),) = m.runs
            assert (size, stride, count) == (16384, 65536, 64)

    @pytest.mark.parametrize("offset", [0, 1, 16383, 100000])
    def test_large_contiguous_range_is_at_most_three_runs(self, offset):
        length = 16 << 20
        out = fan_out(offset, length, self.SP4)
        assert len(out) == 4
        assert all(len(m.runs) <= 3 for m in out)
        assert sum(m.regions.total_length for m in out) == length
        whole = [run for m in out for run in m.runs if run[4] > 1]
        assert {(run[2], run[3]) for run in whole} == {(16384, 65536)}


class TestTransferPieces:
    def test_both_contiguous(self):
        pieces = list(iter_transfer_pieces(
            RegionList([(0, 100)]), RegionList([(50, 100)])
        ))
        assert pieces == [(0, 50, 100)]

    def test_memory_split_forces_two_pieces(self):
        pieces = list(iter_transfer_pieces(
            RegionList([(0, 8), (100, 8)]), RegionList([(0, 16)])
        ))
        assert pieces == [(0, 0, 8), (100, 8, 8)]

    def test_adjacent_entries_stay_separate(self):
        # boundaries of either list end a piece even with no byte gap
        pieces = list(iter_transfer_pieces(
            RegionList([(0, 16)]), RegionList([(0, 8), (8, 8)])
        ))
        assert pieces == [(0, 0, 8), (8, 8, 8)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(PlanError):
            list(iter_transfer_pieces(RegionList([(0, 10)]), RegionList([(0, 11)])))

    def test_flash_default_piece_count(self):
        from listio_pfs.workloads import flash_counts, flash_mem_regions

        assert flash_counts(FlashSpec(procs=1, proc_id=0))[
            "multiple_requests"] == 983040
        # The walk is matched to the formula on a small cube; criterion 1
        # and TestCli::test_verify_counts walk the default one.
        small = FlashSpec(procs=1, proc_id=0, nblocks=2, nvars=2)
        assert count_transfer_pieces(
            flash_mem_regions(small), flash_file_regions(small)
        ) == flash_counts(small)["multiple_requests"] == 2048

    @given(
        mem_cuts=st.lists(st.integers(1, 50), min_size=1, max_size=20),
        file_gaps=st.lists(st.integers(0, 30), min_size=1, max_size=20),
        data=st.randoms(),
    )
    @settings(max_examples=60, deadline=None)
    def test_replay_moves_exactly_the_plan_bytes(self, mem_cuts, file_gaps, data):
        total = sum(mem_cuts)
        # memory regions tile [0, total) in given piece sizes
        mem, pos = [], 0
        for cut in mem_cuts:
            mem.append(Region(pos, cut))
            pos += cut
        # file regions: random gaps, random split of the same total
        import itertools

        remaining, file_regions, fpos = total, [], 0
        gaps = itertools.cycle(file_gaps)
        while remaining:
            fpos += next(gaps)
            ln = min(remaining, data.randint(1, 37))
            file_regions.append(Region(fpos, ln))
            fpos += ln
            remaining -= ln
        pieces = list(iter_transfer_pieces(RegionList(mem), RegionList(file_regions)))
        assert sum(length for _m, _f, length in pieces) == total
        flat = bytes(data.randint(0, 255) for _ in range(fpos + 1))
        buf = bytearray(total)
        for mem_offset, file_offset, length in pieces:
            buf[mem_offset : mem_offset + length] = flat[
                file_offset : file_offset + length
            ]
        expected = b"".join(flat[r.offset : r.end] for r in file_regions)
        assert bytes(buf) == expected


class TestBatching:
    @pytest.mark.parametrize("count,expected", [(1920, 30), (768, 12), (1, 1)])
    def test_checkpoint_and_tile_batch_counts(self, count, expected):
        regions = RegionList([(i * 10, 5) for i in range(count)])
        assert len(batch_regions(regions)) == expected

    def test_65_regions(self):
        batches = batch_regions(RegionList([(i * 2, 1) for i in range(65)]))
        assert [len(b) for b in batches] == [64, 1]

    @given(n=st.integers(0, 300), limit=st.integers(1, 64))
    @settings(max_examples=80)
    def test_batching_laws(self, n, limit):
        regions = RegionList([(i * 3, 2) for i in range(n)])
        batches = batch_regions(regions, limit)
        assert len(batches) == -(-n // limit) if n else len(batches) == 0
        assert all(len(b) <= limit for b in batches)
        flat = [r for b in batches for r in b]
        assert flat == list(regions)


class TestExtent:
    def test_simple(self):
        assert extent(RegionList([(10, 5), (100, 5)])) == Region(10, 95)

    def test_identity(self):
        assert extent(RegionList([(0, 8)])) == Region(0, 8)

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            extent(RegionList())

    def test_flash_two_proc_extents_match_minmax_oracle(self):
        for proc in (0, 1):
            spec = FlashSpec(procs=2, proc_id=proc)
            regions = list(flash_file_regions(spec))
            lo = min(r.offset for r in regions)
            hi = max(r.end for r in regions)
            got = extent(RegionList(regions))
            assert got == Region(lo, hi - lo)
            assert hi - lo == 15724544  # frozen from the min/max scan


class TestUsefulFraction:
    def test_single_region(self):
        assert useful_fraction(RegionList([(0, 16)])) == 1.0

    def test_two_singles(self):
        assert useful_fraction(RegionList([(0, 1), (999, 1)])) == 0.002

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            useful_fraction(RegionList())


class TestRegionList:
    def test_zero_length_rejected(self):
        with pytest.raises(PlanError):
            RegionList([(0, 0)])

    def test_u64_overflow_rejected(self):
        with pytest.raises(PlanError):
            RegionList([(2**64 - 1, 2)])

    def test_sorted_disjoint(self):
        assert RegionList([(0, 4), (4, 1)]).is_sorted_disjoint()
        assert not RegionList([(0, 4), (3, 1)]).is_sorted_disjoint()
        assert RegionList().is_sorted_disjoint()


class TestStripeChunks:
    @given(sp=striping_params, offset=st.integers(0, 300),
           length=st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_chunks_tile_the_range(self, sp, offset, length):
        chunks = list(stripe_chunks(offset, length, sp))
        pos = offset
        for server, local, file_off, take in chunks:
            assert file_off == pos
            assert (server, local) == stripe_location(file_off, sp)
            assert take >= 1
            pos += take
        assert pos == offset + length
