"""Seeded synthetic data for the workloads.

Newton's timing depends only on operand shapes and its numerics only on
bit patterns, so seeded Gaussian weights scaled for well-conditioned
bfloat16 accumulation (1/sqrt(n) columns, Xavier-style) stand in for
trained checkpoints; functional results are verified against NumPy on
the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError

ROW_BLOCK = 1024
"""Matrix rows drawn per call. Successive draws from one generator
continue its stream, so block-wise drawing gives the same bits as one
``(m, n)`` draw while the float64 temporaries stay one block large."""


@dataclass(frozen=True)
class WorkloadData:
    """A generated (matrix, vector) pair; its float64 reference product
    is computed on first access."""

    matrix: np.ndarray
    vector: np.ndarray

    @cached_property
    def reference(self) -> np.ndarray:
        """float64 matrix-vector product of the float32 operands."""
        return self.matrix.astype(np.float64) @ self.vector.astype(np.float64)


def generate_vector(n: int, seed: int = 0) -> np.ndarray:
    """A unit-scale random input vector."""
    if n <= 0:
        raise ConfigurationError("vector length must be positive")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n).astype(np.float32)


def generate_layer_data(m: int, n: int, seed: int = 0) -> WorkloadData:
    """Matrix and vector for an ``m x n`` layer (see :class:`WorkloadData`)."""
    if m <= 0 or n <= 0:
        raise ConfigurationError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)
    matrix = np.empty((m, n), dtype=np.float32)
    scale = np.sqrt(n)
    for lo in range(0, m, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, m)
        matrix[lo:hi] = rng.standard_normal((hi - lo, n)) / scale
    vector = rng.standard_normal(n).astype(np.float32)
    return WorkloadData(matrix=matrix, vector=vector)
