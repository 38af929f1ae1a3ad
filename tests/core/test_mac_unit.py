"""Per-bank MAC datapath: scalar path, vectorized path, and their
bit-exact equivalence (the property the engine's speed rests on)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mac_unit import BankMacUnit, tile_compute
from repro.dram.config import DRAMConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.numerics.bfloat16 import quantize_bf16

CFG = DRAMConfig(num_channels=1, banks_per_channel=8, rows_per_bank=64)

vals = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


class TestBankMacUnit:
    def test_single_compute(self):
        unit = BankMacUnit(CFG)
        unit.compute(np.ones(16, dtype=np.float32), np.ones(16, dtype=np.float32))
        assert unit.latch_value() == 16.0
        assert unit.macs == 16

    def test_accumulates_across_computes(self):
        unit = BankMacUnit(CFG)
        a = np.ones(16, dtype=np.float32)
        unit.compute(a, a)
        unit.compute(a, a)
        assert unit.latch_value() == 32.0

    def test_read_and_clear(self):
        unit = BankMacUnit(CFG)
        unit.compute(np.ones(16, dtype=np.float32), np.ones(16, dtype=np.float32))
        assert unit.read_and_clear() == 16.0
        assert unit.latch_value() == 0.0

    def test_multiple_latches(self):
        unit = BankMacUnit(CFG, num_latches=4)
        a = np.ones(16, dtype=np.float32)
        unit.compute(a, a, latch=2)
        assert unit.latch_value(2) == 16.0
        assert unit.latch_value(0) == 0.0
        with pytest.raises(ProtocolError):
            unit.compute(a, a, latch=4)

    def test_operand_width_validated(self):
        unit = BankMacUnit(CFG)
        with pytest.raises(ProtocolError):
            unit.compute(np.ones(8), np.ones(16))

    def test_latch_count_validated(self):
        with pytest.raises(ConfigurationError):
            BankMacUnit(CFG, num_latches=0)

    def test_tree_pipeline_depth(self):
        assert BankMacUnit(CFG).tree_pipeline_depth == 5


class TestTileCompute:
    def test_shape_validation(self):
        with pytest.raises(ProtocolError):
            tile_compute(
                np.zeros((4, 32), dtype=np.float32),
                np.zeros(16, dtype=np.float32),
                np.zeros(4, dtype=np.float32),
                lanes=16,
            )
        with pytest.raises(ProtocolError):
            tile_compute(
                np.zeros((4, 30), dtype=np.float32),
                np.zeros(30, dtype=np.float32),
                np.zeros(4, dtype=np.float32),
                lanes=16,
            )

    def test_zero_inputs(self):
        out = tile_compute(
            np.zeros((4, 64), dtype=np.float32),
            np.zeros(64, dtype=np.float32),
            np.full(4, 2.0, dtype=np.float32),
            lanes=16,
        )
        assert np.array_equal(out, np.full(4, 2.0, dtype=np.float32))

    @given(
        st.lists(vals, min_size=64, max_size=64),
        st.lists(vals, min_size=64, max_size=64),
        st.lists(vals, min_size=64, max_size=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_vectorized_matches_scalar_path_bitexact(self, row_a, row_b, vec):
        """The engine's vectorized evaluator must be bit-identical to the
        per-COMP scalar MAC path."""
        matrix = quantize_bf16(
            np.stack([row_a, row_b]).astype(np.float32)
        )
        vector = quantize_bf16(np.array(vec, dtype=np.float32))
        # Scalar path: one BankMacUnit per bank, one compute per sub-chunk.
        scalar = []
        for bank_row in matrix:
            unit = BankMacUnit(CFG)
            for s in range(4):
                unit.compute(bank_row[s * 16 : (s + 1) * 16], vector[s * 16 : (s + 1) * 16])
            scalar.append(unit.latch_value())
        vectorized = tile_compute(
            matrix, vector, np.zeros(2, dtype=np.float32), lanes=16
        )
        assert np.array_equal(np.array(scalar, dtype=np.float32), vectorized)

    @given(st.lists(vals, min_size=32, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_accumulation_order_is_ascending_subchunk(self, vec):
        """tile_compute must accumulate sub-chunks in ascending order
        (what the COMP command stream issues): it equals a BankMacUnit
        fed sub-chunk 0, then sub-chunk 1."""
        matrix = quantize_bf16(np.array([vec], dtype=np.float32))
        vector = quantize_bf16(np.array(vec, dtype=np.float32))
        unit = BankMacUnit(CFG)
        for s in (0, 1):
            unit.compute(matrix[0, s * 16 : (s + 1) * 16], vector[s * 16 : (s + 1) * 16])
        out = tile_compute(matrix, vector, np.zeros(1, dtype=np.float32), lanes=16)
        assert np.array_equal(out, np.array([unit.latch_value()], dtype=np.float32))

    def test_respects_starting_latch(self):
        matrix = np.ones((2, 32), dtype=np.float32)
        vector = np.ones(32, dtype=np.float32)
        out = tile_compute(matrix, vector, np.array([10.0, 0.0], dtype=np.float32), lanes=16)
        assert out[0] == 42.0  # 10 + 32
        assert out[1] == 32.0
