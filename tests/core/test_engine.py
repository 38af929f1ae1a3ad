"""The channel engine: functional correctness + timing behaviour."""

import numpy as np
import pytest

from repro.core.device import NewtonDevice
from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import FULL, NON_OPT
from repro.dram.commands import CommandKind
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import LayoutError, ProtocolError

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=512)


def make_engine(opt=FULL, functional=True, refresh=True, timing=None):
    return NewtonChannelEngine(
        CFG,
        timing or TimingParams(),
        opt,
        functional=functional,
        refresh_enabled=refresh,
    )


def bf16_reference(matrix, vector):
    """The exact expected output: bf16 tile arithmetic + fp32 host sums."""
    from repro.core.layout import InterleavedLayout
    from repro.core.mac_unit import tile_compute
    from repro.numerics.bfloat16 import quantize_bf16

    layout = InterleavedLayout(CFG, *matrix.shape)
    padded_m = quantize_bf16(layout.pad_matrix(matrix))
    padded_v = quantize_bf16(layout.pad_vector(vector))
    out = np.zeros(matrix.shape[0], dtype=np.float32)
    for chunk in range(layout.num_chunks):
        lo = chunk * 512
        for tile in range(layout.tiles):
            rows = layout.tile_matrix_rows(tile)
            block = np.zeros((16, 512), dtype=np.float32)
            for b, r in enumerate(rows):
                if r >= 0:
                    block[b] = padded_m[r, lo : lo + 512]
            latch = tile_compute(
                block, padded_v[lo : lo + 512], np.zeros(16, dtype=np.float32), 16
            )
            mask = rows >= 0
            np.add.at(out, rows[mask], latch[mask])
    return out


class TestFunctionalCorrectness:
    def test_matches_bitexact_reference(self, rng):
        engine = make_engine()
        m, n = 40, 700
        matrix = (rng.standard_normal((m, n)) / np.sqrt(n)).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        layout = engine.add_matrix(m, n, matrix)
        result = engine.run_gemv(layout, vector)
        assert np.array_equal(result.output, bf16_reference(matrix, vector))

    def test_close_to_float64(self, rng):
        engine = make_engine()
        m, n = 64, 512
        matrix = (rng.standard_normal((m, n)) / np.sqrt(n)).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        layout = engine.add_matrix(m, n, matrix)
        result = engine.run_gemv(layout, vector)
        exact = matrix.astype(np.float64) @ vector.astype(np.float64)
        scale = np.abs(matrix.astype(np.float64)) @ np.abs(vector.astype(np.float64))
        assert np.all(np.abs(result.output - exact) <= scale * 0.02 + 1e-3)

    def test_no_reuse_layout_same_answer(self, rng):
        """Both layouts compute the same product (different traversal)."""
        m, n = 48, 1024
        matrix = (rng.standard_normal((m, n)) / 32).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        full = make_engine(FULL)
        h1 = full.add_matrix(m, n, matrix)
        out1 = full.run_gemv(h1, vector).output
        nr = make_engine(FULL.evolve(interleaved_reuse=False))
        h2 = nr.add_matrix(m, n, matrix)
        out2 = nr.run_gemv(h2, vector).output
        # The traversals accumulate across chunks differently (fp32 host
        # partial sums vs the bf16 latch), so agreement is to bf16
        # accumulation tolerance, not bit-exact.
        scale = np.abs(matrix) @ np.abs(vector) + 1e-3
        assert np.all(np.abs(out1 - out2) <= scale * 0.02)

    def test_all_deoptimized_paths_same_answer(self, rng):
        m, n = 32, 512
        matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        reference = None
        for opt in (
            FULL,
            FULL.evolve(ganged_compute=False),
            FULL.evolve(complex_commands=False),
            FULL.evolve(four_bank_activation=False),
            NON_OPT,
        ):
            engine = make_engine(opt)
            layout = engine.add_matrix(m, n, matrix)
            out = engine.run_gemv(layout, vector).output
            if reference is None:
                reference = out
            else:
                assert np.array_equal(out, reference), opt.label

    def test_four_latch_variant_same_answer(self, rng):
        m, n = 16 * 8, 1024
        matrix = (rng.standard_normal((m, n)) / 32).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        full = make_engine(FULL)
        out1 = full.run_gemv(full.add_matrix(m, n, matrix), vector).output
        latch4 = make_engine(FULL.evolve(interleaved_reuse=False, result_latches=4))
        out2 = latch4.run_gemv(latch4.add_matrix(m, n, matrix), vector).output
        scale = np.abs(matrix) @ np.abs(vector) + 1e-3
        assert np.all(np.abs(out1 - out2) <= scale * 0.02)
        # But the 1-latch and 4-latch row-major variants accumulate in the
        # same order per row, so those two ARE bit-identical.
        latch1 = make_engine(FULL.evolve(interleaved_reuse=False))
        out3 = latch1.run_gemv(latch1.add_matrix(m, n, matrix), vector).output
        assert np.array_equal(out2, out3)

    def test_functional_requires_vector(self):
        engine = make_engine()
        layout = engine.add_matrix(16, 512, np.zeros((16, 512), dtype=np.float32))
        with pytest.raises(ProtocolError):
            engine.run_gemv(layout)

    def test_rejected_fused_input_counts_nothing(self):
        """A fused GEMV whose vector is refused (wrong length, or none)
        neither runs nor counts as a fused run."""
        config = DRAMConfig(num_channels=2, banks_per_channel=16, rows_per_bank=256)
        device = NewtonDevice(config, opt=FULL, functional=True)
        handle = device.load_matrix(np.ones((32, 64), dtype=np.float32))
        with pytest.raises(LayoutError):
            device.gemv(handle, np.ones(63), fused_input=True)
        with pytest.raises(ProtocolError):
            device.gemv(handle, None, fused_input=True)
        fused = device.collect_metrics()["channels"]["0"]["fused"]
        assert fused == {
            "runs": 0, "skipped_gwrites": 0, "estimated_saved_cycles": 0
        }
        assert device.now == 0

    def test_batch_runs_are_independent(self, rng):
        engine = make_engine()
        m, n = 32, 512
        matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
        layout = engine.add_matrix(m, n, matrix)
        v1 = rng.standard_normal(n).astype(np.float32)
        v2 = rng.standard_normal(n).astype(np.float32)
        out1 = engine.run_gemv(layout, v1).output
        engine.run_gemv(layout, v2)
        fresh = make_engine()
        layout_f = fresh.add_matrix(m, n, matrix)
        assert np.array_equal(fresh.run_gemv(layout_f, v1).output, out1)


class TestResidency:
    def test_one_slab_per_layout_and_none_when_timing_only(self, rng):
        """Layouts take consecutive row ranges; a functional engine backs
        each with one slab, zeroed until loaded; a timing-only engine
        with nothing."""
        engine = make_engine()
        first = engine.add_matrix(40, 700, rng.standard_normal((40, 700)))
        second = engine.add_matrix(16, 512)
        assert second.base_row == first.base_row + first.rows_per_bank_used
        assert sorted(engine.slabs) == [first.base_row, second.base_row]
        for layout in (first, second):
            slab = engine.slabs[layout.base_row]
            assert slab.dtype == np.uint16
            assert slab.shape == (
                layout.rows_per_bank_used,
                CFG.banks_per_channel,
                CFG.elems_per_row,
            )
        assert engine.slabs[first.base_row].any()
        assert not engine.slabs[second.base_row].any()
        timing_only = make_engine(functional=False)
        timing_only.add_matrix(40, 700)
        assert timing_only.slabs is None

    def test_storage_independent_per_bank(self):
        """Writing one row of one bank leaves the other banks, the other
        rows and the other layouts' slabs untouched."""
        engine = make_engine()
        first = engine.add_matrix(48, 1024)
        second = engine.add_matrix(16, 512)
        slab = engine.slabs[first.base_row]
        slab[0, 0] = np.ones(CFG.elems_per_row, dtype=np.uint16)
        assert not slab[0, 1:].any()
        assert not slab[1:].any()
        assert not engine.slabs[second.base_row].any()


class TestTiming:
    def test_timing_only_matches_functional_cycles(self, rng):
        """Data must never change timing: functional and timing-only runs
        take identical cycles."""
        m, n = 48, 1024
        matrix = rng.standard_normal((m, n)).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        func = make_engine(functional=True)
        t1 = func.run_gemv(func.add_matrix(m, n, matrix), vector)
        tim = make_engine(functional=False)
        t2 = tim.run_gemv(tim.add_matrix(m, n))
        assert t1.cycles == t2.cycles

    def test_more_rows_take_longer(self):
        small = make_engine(functional=False)
        t_small = small.run_gemv(small.add_matrix(16, 512)).cycles
        big = make_engine(functional=False)
        t_big = big.run_gemv(big.add_matrix(16 * 8, 512)).cycles
        assert t_big > t_small * 4

    def test_sequential_runs_advance_clock(self):
        engine = make_engine(functional=False)
        layout = engine.add_matrix(32, 512)
        r1 = engine.run_gemv(layout)
        r2 = engine.run_gemv(layout)
        assert r2.start_cycle >= r1.end_cycle - engine.timing.t_aa - engine.timing.t_ccd
        assert r2.end_cycle > r1.end_cycle

    def test_aggressive_tfaw_speeds_up(self):
        fast = make_engine(FULL, functional=False)
        slow = make_engine(FULL.evolve(aggressive_tfaw=False), functional=False)
        t_fast = fast.run_gemv(fast.add_matrix(16 * 8, 512)).cycles
        t_slow = slow.run_gemv(slow.add_matrix(16 * 8, 512)).cycles
        assert t_fast < t_slow

    def test_refresh_lengthens_long_runs(self):
        with_ref = make_engine(functional=False, refresh=True)
        t1 = with_ref.run_gemv(with_ref.add_matrix(16 * 20, 1024)).cycles
        without = make_engine(functional=False, refresh=False)
        t2 = without.run_gemv(without.add_matrix(16 * 20, 1024)).cycles
        assert t1 > t2
        assert with_ref.channel.controller.stats.refreshes > 0

    def test_stats_delta_isolated_per_run(self):
        engine = make_engine(functional=False)
        layout = engine.add_matrix(16, 512)
        r1 = engine.run_gemv(layout)
        r2 = engine.run_gemv(layout)
        assert r1.command_count(CommandKind.COMP) == 32
        assert r2.command_count(CommandKind.COMP) == 32

    def test_non_opt_much_slower_same_data(self):
        full = make_engine(functional=False)
        non = make_engine(NON_OPT, functional=False)
        t_full = full.run_gemv(full.add_matrix(16 * 4, 1024)).cycles
        t_non = non.run_gemv(non.add_matrix(16 * 4, 1024)).cycles
        assert t_non > 5 * t_full
