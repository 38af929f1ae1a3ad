"""The per-channel activation lookup table."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.numerics.lut import ActivationLUT


class TestActivationLUT:
    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            ActivationLUT("sigmoid", entries=1000)
        with pytest.raises(ConfigurationError):
            ActivationLUT("sigmoid", entries=1)

    def test_range_validated(self):
        with pytest.raises(ConfigurationError):
            ActivationLUT("sigmoid", lo=1.0, hi=-1.0)

    def test_relu_is_exact(self):
        lut = ActivationLUT("relu", entries=256)
        x = np.array([-3.7, -0.001, 0.0, 0.25, 5.5], dtype=np.float32)
        out = lut.apply(x)
        assert np.array_equal(out, np.maximum(x, 0.0))

    def test_sigmoid_error_small(self):
        lut = ActivationLUT("sigmoid", entries=1024)
        assert lut.max_error() < 0.02

    def test_tanh_error_shrinks_with_entries(self):
        coarse = ActivationLUT("tanh", entries=64)
        fine = ActivationLUT("tanh", entries=2048)
        assert fine.max_error() < coarse.max_error()

    def test_clamping_outside_range(self):
        lut = ActivationLUT("sigmoid", entries=512, lo=-8, hi=8)
        out = lut.apply(np.array([-100.0, 100.0], dtype=np.float32))
        assert out[0] == lut.apply(np.array([-8.0], dtype=np.float32))[0]
        assert out[1] == lut.apply(np.array([8.0], dtype=np.float32))[0]

    @pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu"])
    def test_nan_and_infinities(self, name):
        """A NaN row sum reads the canonical NaN; infinities clamp to the
        table's end entries (ReLU, a mux on the sign bit, passes +inf
        and zeroes -inf)."""
        lut = ActivationLUT(name)
        out = lut.apply(np.array([np.nan, -np.inf, np.inf], dtype=np.float32))
        assert out.view(np.uint32)[0] == 0x7FC00000
        if name == "relu":
            assert list(out[1:]) == [0.0, np.inf]
        else:
            ends = lut.apply(np.array([lut.lo, lut.hi], dtype=np.float32))
            assert np.array_equal(out[1:].view(np.uint32), ends.view(np.uint32))

    def test_lookup_counter(self):
        lut = ActivationLUT("sigmoid", entries=256)
        lut.apply(np.zeros(10, dtype=np.float32))
        lut.apply(np.zeros(6, dtype=np.float32))
        assert lut.lookups == 16

    def test_outputs_on_bf16_grid(self):
        from repro.numerics.bfloat16 import quantize_bf16

        lut = ActivationLUT("tanh", entries=512)
        out = lut.apply(np.linspace(-4, 4, 37, dtype=np.float32))
        assert np.array_equal(out, quantize_bf16(out))
