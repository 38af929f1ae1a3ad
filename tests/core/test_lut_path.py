"""The in-DRAM LUT activation path (whole-row readouts: the Newton-no-reuse
variant and the tile-major output_stationary family)."""

import numpy as np
import pytest

from repro.core.device import NewtonDevice
from repro.core.optimizations import FULL
from repro.dram.config import DRAMConfig
from repro.numerics.activation import apply_activation
from repro.numerics.lut import ActivationLUT

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=256)
NO_REUSE = FULL.evolve(interleaved_reuse=False)
OUTPUT_STATIONARY = CFG.with_overrides(command_family="output_stationary")


class TestLutThroughDevice:
    def test_lut_applied_in_no_reuse_mode(self, rng):
        m, n = 32, 512
        matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)

        plain = NewtonDevice(CFG, opt=NO_REUSE, functional=True)
        raw = plain.gemv(plain.load_matrix(matrix), vector).output

        lut_device = NewtonDevice(
            CFG, opt=NO_REUSE, functional=True, lut_activation="sigmoid"
        )
        activated = lut_device.gemv(lut_device.load_matrix(matrix), vector).output

        expected = ActivationLUT("sigmoid").apply(raw)
        assert np.array_equal(activated, expected)
        assert np.all((activated >= 0) & (activated <= 1))

    def test_lut_close_to_exact_activation(self, rng):
        m, n = 32, 512
        matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        device = NewtonDevice(
            CFG, opt=NO_REUSE, functional=True, lut_activation="tanh"
        )
        out = device.gemv(device.load_matrix(matrix), vector).output
        plain = NewtonDevice(CFG, opt=NO_REUSE, functional=True)
        raw = plain.gemv(plain.load_matrix(matrix), vector).output
        assert np.allclose(out, apply_activation("tanh", raw), atol=0.02)

    def test_lut_ignored_in_interleaved_mode(self, rng):
        """The full-reuse design applies activations on the host, not in
        the DRAM — the device must not construct a LUT for it."""
        device = NewtonDevice(CFG, opt=FULL, functional=True, lut_activation="sigmoid")
        m, n = 16, 512
        matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        out = device.gemv(device.load_matrix(matrix), vector).output
        plain = NewtonDevice(CFG, opt=FULL, functional=True)
        raw = plain.gemv(plain.load_matrix(matrix), vector).output
        assert np.array_equal(out, raw)  # untouched by any LUT

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_lut_applied_on_output_stationary(self, rng, activation):
        """The tile-major family reads out whole row sums, so its READRES
        goes through the LUT even on the interleaved layout. Ragged
        70x700: partial tiles and a partial second chunk."""
        m, n = 70, 700
        matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)

        plain = NewtonDevice(OUTPUT_STATIONARY, opt=FULL, functional=True)
        raw = plain.gemv(plain.load_matrix(matrix), vector).output
        lut_device = NewtonDevice(
            OUTPUT_STATIONARY, opt=FULL, functional=True, lut_activation=activation
        )
        activated = lut_device.gemv(lut_device.load_matrix(matrix), vector).output

        expected = ActivationLUT(activation).apply(raw)
        assert np.array_equal(activated.view(np.uint32), expected.view(np.uint32))
        assert not np.array_equal(activated, raw)

    @pytest.mark.parametrize(
        "config, opt",
        [(CFG, NO_REUSE), (OUTPUT_STATIONARY, FULL)],
        ids=["no-reuse", "output_stationary"],
    )
    def test_nan_row_sum_reads_canonical_nan(self, config, opt):
        """Row 0 sums +inf and -inf to a NaN; a table LUT must read it as
        the canonical NaN, as the plain readout does, on both whole-row
        walks."""
        matrix = np.ones((16, 64), dtype=np.float32)
        matrix[0, 0], matrix[0, 1] = np.inf, -np.inf
        vector = np.ones(64, dtype=np.float32)
        device = NewtonDevice(
            config, opt=opt, functional=True, lut_activation="sigmoid"
        )
        out = device.gemv(device.load_matrix(matrix), vector).output
        assert out.view(np.uint32)[0] == 0x7FC00000
        expected = ActivationLUT("sigmoid").apply(np.full(15, 64, np.float32))
        assert np.array_equal(out[1:], expected)
