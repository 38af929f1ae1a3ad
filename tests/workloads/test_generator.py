"""Synthetic data generation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.generator import generate_layer_data, generate_vector


class TestGenerator:
    def test_deterministic_by_seed(self):
        a = generate_layer_data(8, 16, seed=3)
        b = generate_layer_data(8, 16, seed=3)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.vector, b.vector)

    def test_different_seeds_differ(self):
        a = generate_layer_data(8, 16, seed=3)
        b = generate_layer_data(8, 16, seed=4)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_reference_is_float64_product(self):
        data = generate_layer_data(8, 16, seed=0)
        assert "reference" not in vars(data)  # computed on first access
        expected = data.matrix.astype(np.float64) @ data.vector.astype(np.float64)
        assert np.array_equal(data.reference, expected)

    @pytest.mark.parametrize("m, n", [(3, 7), (1000, 513), (2049, 1100)])
    def test_bits_match_one_whole_draw(self, m, n):
        """Drawing the matrix in row blocks keeps the bits of one whole
        ``(m, n)`` draw, and of the vector drawn after it; 2,049 rows end
        in a one-row block."""
        rng = np.random.default_rng(11)
        matrix = (rng.standard_normal((m, n)) / np.sqrt(n)).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        data = generate_layer_data(m, n, seed=11)
        assert np.array_equal(data.matrix.view(np.uint32), matrix.view(np.uint32))
        assert np.array_equal(data.vector.view(np.uint32), vector.view(np.uint32))

    def test_xavier_scaling(self):
        """Column scaling keeps dot products O(1) for bf16 headroom."""
        data = generate_layer_data(64, 4096, seed=0)
        assert np.std(data.reference) < 3.0

    def test_shapes_and_dtypes(self):
        data = generate_layer_data(5, 7, seed=0)
        assert data.matrix.shape == (5, 7) and data.matrix.dtype == np.float32
        assert data.vector.shape == (7,)
        assert generate_vector(9).shape == (9,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_layer_data(0, 4)
        with pytest.raises(ConfigurationError):
            generate_vector(0)
