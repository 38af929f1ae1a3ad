"""The per-channel global input-vector buffer."""

import numpy as np
import pytest

from repro.core.global_buffer import GlobalBuffer
from repro.errors import ProtocolError


@pytest.fixture
def buffer(config):
    return GlobalBuffer(config)


class TestGlobalBuffer:
    def test_load_then_read_roundtrip(self, buffer, rng):
        data = rng.standard_normal(16).astype(np.float32)
        buffer.load_subchunk(3, data)
        from repro.numerics.bfloat16 import quantize_bf16

        assert np.array_equal(buffer.read_subchunk(3), quantize_bf16(data))

    def test_read_before_load_is_protocol_error(self, buffer):
        with pytest.raises(ProtocolError, match="GWRITE"):
            buffer.read_subchunk(0)

    def test_wrong_subchunk_width(self, buffer):
        with pytest.raises(ProtocolError):
            buffer.load_subchunk(0, np.zeros(8, dtype=np.float32))

    def test_index_bounds(self, buffer):
        with pytest.raises(ProtocolError):
            buffer.load_subchunk(32, np.zeros(16, dtype=np.float32))
        with pytest.raises(ProtocolError):
            buffer.read_subchunk(-1)

    def test_invalidate_clears_data_and_validity(self, buffer):
        buffer.load_subchunk(0, np.ones(16, dtype=np.float32))
        buffer.invalidate()
        with pytest.raises(ProtocolError):
            buffer.read_subchunk(0)

    def test_counters(self, buffer):
        buffer.load_subchunk(0, np.zeros(16, dtype=np.float32))
        buffer.load_subchunk(1, np.zeros(16, dtype=np.float32))
        buffer.read_subchunk(0)
        assert buffer.loads == 2
        assert buffer.broadcasts == 1

    def test_values_quantized_to_bf16_on_entry(self, buffer):
        value = np.full(16, 1.0 + 2.0**-10, dtype=np.float32)  # below bf16 grid
        buffer.load_subchunk(0, value)
        assert np.all(buffer.read_subchunk(0) == 1.0)
