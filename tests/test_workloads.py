import pytest

from listio_pfs.errors import WorkloadError
from listio_pfs.regions import Region, count_transfer_pieces, extent
from listio_pfs.workloads import (
    BlockBlockSpec,
    CyclicSpec,
    FlashSpec,
    TiledSpec,
    client_specs,
    client_stream,
    flash_counts,
    flash_file_regions,
    flash_mem_regions,
    gen_blockblock,
    gen_cyclic,
    gen_flash,
    gen_tiled,
    oracle_file_image,
    tiled_counts,
)

from oracles import (
    blockblock_owner_bytes,
    flash_reference_layout,
    fragment_regions,
    interleave_cyclic,
    offsets_to_regions,
    region_byte_set,
    tiled_reference_rows,
)


class TestCyclic:
    @pytest.mark.parametrize(
        "client,expected_offsets",
        [(0, [0, 16, 32, 48]), (1, [8, 24, 40, 56])],
    )
    def test_small_example_matches_interleaver(self, client, expected_offsets):
        spec = CyclicSpec(clients=2, client_id=client, total_bytes=64, accesses=4)
        plan = gen_cyclic(spec)
        assert [r.offset for r in plan.file] == expected_offsets
        assert all(r.length == 8 for r in plan.file)
        # cross-check with the block-walking interleaver
        streams = [bytes([c]) * 32 for c in range(2)]
        image = interleave_cyclic(2, 64, 4, streams)
        for r in plan.file:
            assert image[r.offset : r.end] == bytes([client]) * 8

    def test_single_access_is_contiguous(self):
        spec = CyclicSpec(clients=2, client_id=1, total_bytes=64, accesses=1)
        plan = gen_cyclic(spec)
        assert list(plan.file) == [Region(32, 32)]
        assert plan.mem[0] == Region(0, 32)

    def test_divisibility_enforced(self):
        with pytest.raises(WorkloadError):
            CyclicSpec(clients=3, client_id=0, total_bytes=64, accesses=4)

    def test_partition_across_clients(self):
        specs = client_specs(CyclicSpec(4, 0, total_bytes=4096, accesses=8))
        seen = set()
        for spec in specs:
            plan = gen_cyclic(spec)
            bytes_here = region_byte_set([(r.offset, r.length) for r in plan.file])
            assert not (seen & bytes_here)
            seen |= bytes_here
        assert seen == set(range(4096))


class TestBlockBlock:
    def test_small_grid_matches_2d_oracle(self):
        # 8x8 byte array, 2x2 grid: client (0,0) owns rows 0..3 x cols 0..3
        spec = BlockBlockSpec(grid=2, row=0, col=0, side_bytes=8, accesses=4)
        plan = gen_blockblock(spec)
        owned = blockblock_owner_bytes(2, 8, 0, 0)
        rows = offsets_to_regions(owned)
        expected = fragment_regions(rows, spec.pieces_per_row)
        assert [(r.offset, r.length) for r in plan.file] == expected
        assert len(plan.file) == 4  # region count equals access count

    def test_fragmented_rows_match_oracle(self):
        spec = BlockBlockSpec(grid=2, row=1, col=0, side_bytes=16, accesses=16)
        plan = gen_blockblock(spec)
        rows = offsets_to_regions(blockblock_owner_bytes(2, 16, 1, 0))
        expected = fragment_regions(rows, spec.pieces_per_row)
        assert [(r.offset, r.length) for r in plan.file] == expected
        assert len(plan.file) == 16

    def test_one_piece_per_row(self):
        spec = BlockBlockSpec(grid=2, row=0, col=1, side_bytes=8, accesses=4)
        plan = gen_blockblock(spec)
        assert len(plan.file) == spec.block_side
        assert all(r.length == spec.block_side for r in plan.file)

    def test_divisibility_enforced(self):
        with pytest.raises(WorkloadError):
            BlockBlockSpec(grid=2, row=0, col=0, side_bytes=10, accesses=4)
        with pytest.raises(WorkloadError):
            BlockBlockSpec(grid=2, row=0, col=0, side_bytes=8, accesses=3)

    def test_partition_across_clients(self):
        specs = client_specs(BlockBlockSpec(2, 0, 0, side_bytes=16, accesses=8))
        seen = set()
        for spec in specs:
            plan = gen_blockblock(spec)
            here = region_byte_set([(r.offset, r.length) for r in plan.file])
            assert not (seen & here)
            seen |= here
        assert seen == set(range(256))


class TestFlash:
    def test_default_parameter_counts(self):
        spec = FlashSpec(procs=1, proc_id=0)
        counts = flash_counts(spec)
        assert counts["file_regions"] == 1920
        assert counts["region_bytes"] == 4096
        assert counts["multiple_requests"] == 983040
        assert counts["list_requests"] == 30
        assert counts["plan_bytes"] == 7864320
        # formula values vs the streaming generators
        assert sum(1 for _ in flash_file_regions(spec)) == 1920
        assert count_transfer_pieces(
            flash_mem_regions(spec), flash_file_regions(spec)
        ) == 983040

    def test_trivial_case(self):
        spec = FlashSpec(procs=1, proc_id=0, nblocks=1, nvars=1)
        plan = gen_flash(spec)
        assert len(plan.file) == 1
        assert plan.file[0].length == 4096
        assert len(plan.mem) == 512
        assert all(r.length == 8 for r in plan.mem)

    def test_matches_elementwise_reference(self):
        spec = FlashSpec(procs=2, proc_id=1, nblocks=3, nb=2, guard=1, nvars=2)
        plan = gen_flash(spec)
        ref_mem, ref_file_offsets = flash_reference_layout(2, 1, 3, 2, 1, 2, 8)
        assert [(r.offset, r.length) for r in plan.mem] == ref_mem
        # plan's k-th byte must land at the reference's k-th file position
        flat = []
        for r in plan.file:
            flat.extend(range(r.offset, r.end))
        ref_flat = []
        for off in ref_file_offsets:
            ref_flat.extend(range(off, off + 8))
        assert flat == ref_flat

    def test_memory_regions_are_single_elements(self):
        spec = FlashSpec(procs=2, proc_id=0, nblocks=2)
        for i, r in enumerate(flash_mem_regions(spec)):
            assert r.length == 8
            if i > 200:
                break

    def test_partition_across_procs(self):
        specs = client_specs(FlashSpec(procs=2, proc_id=0, nblocks=2, nb=2,
                                       guard=1, nvars=3))
        seen = set()
        for spec in specs:
            plan = gen_flash(spec)
            here = region_byte_set([(r.offset, r.length) for r in plan.file])
            assert not (seen & here)
            seen |= here
        assert seen == set(range(specs[0].file_bytes))

    def test_file_grows_per_proc(self):
        assert FlashSpec(procs=3, proc_id=0).file_bytes == 3 * 7864320


class TestTiled:
    def test_default_parameter_counts(self):
        spec = TiledSpec(tile_x=0, tile_y=0)
        counts = tiled_counts(spec)
        assert counts["file_regions"] == 768
        assert counts["region_bytes"] == 3072
        assert counts["multiple_requests"] == 768
        assert counts["list_requests"] == 12
        assert counts["file_bytes"] == 2532 * 1408 * 3 == 10695168

    def test_rows_match_pixel_reference(self):
        for tx, ty in [(0, 0), (2, 1), (1, 0)]:
            spec = TiledSpec(tile_x=tx, tile_y=ty)
            plan = gen_tiled(spec)
            expected = tiled_reference_rows(3, 2, 1024, 768, 3, 270, 128, tx, ty)
            assert [(r.offset, r.length) for r in plan.file] == expected

    def test_first_row_of_origin_tile_starts_at_zero(self):
        plan = gen_tiled(TiledSpec(tile_x=0, tile_y=0))
        assert plan.file[0].offset == 0

    def test_useful_fraction_near_one_third(self):
        plan = gen_tiled(TiledSpec(tile_x=0, tile_y=0))
        ext = extent(plan.file)
        fraction = plan.total_length / ext.length
        # exact rational value; close to one tile width in three being useful
        assert plan.total_length == 1024 * 3 * 768
        assert abs(fraction - 0.405) < 0.001

    def test_overlaps_confined_to_bands(self):
        spec = TiledSpec(tile_x=0, tile_y=0, tile_w=8, tile_h=6,
                         bytes_per_pixel=1, overlap_x=3, overlap_y=2)
        width = spec.width
        x_bands = set()
        for i in range(1, spec.tiles_x):
            start = i * (spec.tile_w - spec.overlap_x)
            x_bands.update(range(start, start + spec.overlap_x))
        y_bands = set()
        for j in range(1, spec.tiles_y):
            start = j * (spec.tile_h - spec.overlap_y)
            y_bands.update(range(start, start + spec.overlap_y))
        plans = [gen_tiled(s) for s in client_specs(spec)]
        sets = [region_byte_set([(r.offset, r.length) for r in p.file])
                for p in plans]
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                for byte in sets[a] & sets[b]:
                    x, y = byte % width, byte // width
                    assert x in x_bands or y in y_bands


class TestPlanBalance:
    @pytest.mark.parametrize(
        "spec",
        [
            CyclicSpec(4, 1, total_bytes=4096, accesses=16),
            BlockBlockSpec(2, 1, 1, side_bytes=16, accesses=16),
            FlashSpec(procs=2, proc_id=1, nblocks=2, nb=2, guard=1, nvars=3),
            TiledSpec(tile_x=1, tile_y=1),
        ],
    )
    def test_mem_and_file_totals_match(self, spec):
        plan = spec.generate()
        assert plan.mem.total_length == plan.file.total_length
        assert plan.file.is_sorted_disjoint()


class TestFragmentationLaw:
    @pytest.mark.parametrize("accesses", [32, 64, 128, 1024])
    def test_region_count_equals_accesses(self, accesses):
        cyclic = gen_cyclic(CyclicSpec(4, 0, total_bytes=65536, accesses=accesses))
        assert len(cyclic.file) == accesses
        bb = gen_blockblock(
            BlockBlockSpec(2, 0, 0, side_bytes=64, accesses=accesses)
        )
        assert len(bb.file) == accesses


class TestOracleImage:
    def test_deterministic(self):
        specs = client_specs(CyclicSpec(2, 0, total_bytes=2048, accesses=4))
        assert oracle_file_image(specs, 9) == oracle_file_image(specs, 9)
        assert oracle_file_image(specs, 9) != oracle_file_image(specs, 10)

    def test_cyclic_image_equals_independent_interleave(self):
        n, total, accesses = 4, 8192, 16
        specs = client_specs(CyclicSpec(n, 0, total_bytes=total, accesses=accesses))
        image = oracle_file_image(specs, 3)
        streams = [client_stream(3, "cyclic", c, total // n) for c in range(n)]
        assert image == interleave_cyclic(n, total, accesses, streams)

    def test_tiled_byte_zero_belongs_to_origin_tile(self):
        specs = client_specs(TiledSpec(tile_x=0, tile_y=0))
        image = oracle_file_image(specs, 1)
        assert len(image) == 10695168
        plan = specs[0].generate()
        assert plan.file[0].offset == 0  # tile (0,0) owns byte 0
        others = [s.generate() for s in specs[1:]]
        assert all(p.file[0].offset != 0 for p in others)
