"""Per-channel lookup-table activation unit (Section III-C).

The Newton-no-reuse variant applies the neural activation *inside* the
DRAM using a single lookup table per channel ("conceptually multi-ported"
so results in different banks can be served). The table maps a bfloat16
input to a bfloat16 output by indexing on a clamped, uniformly sampled
input range — the standard hardware LUT construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.numerics.activation import apply_activation
from repro.numerics.bfloat16 import quantize_bf16
from repro.numerics.vectorized import CANONICAL_NAN_F32


class ActivationLUT:
    """A uniformly sampled activation lookup table.

    Args:
        name: activation to approximate (see :data:`ACTIVATIONS`).
        entries: number of table entries (a power of two; hardware tables
            are typically 256-2048 entries).
        lo, hi: input clamp range; inputs outside are clamped, which is
            accurate for saturating activations (sigmoid/tanh) and exact
            for ReLU by special-casing.
    """

    def __init__(self, name: str, entries: int = 1024, lo: float = -8.0, hi: float = 8.0):
        if entries <= 1 or (entries & (entries - 1)) != 0:
            raise ConfigurationError(f"LUT entries must be a power of two > 1, got {entries}")
        if not lo < hi:
            raise ConfigurationError(f"LUT range must satisfy lo < hi, got [{lo}, {hi}]")
        self.name = name
        self.entries = entries
        self.lo = float(lo)
        self.hi = float(hi)
        grid = np.linspace(lo, hi, entries, dtype=np.float32)
        self._table = quantize_bf16(apply_activation(name, grid))
        self._step = (self.hi - self.lo) / (entries - 1)
        self.lookups = 0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Look up activations for ``x``, with nearest-entry indexing.

        A NaN indexes no entry: it reads the canonical NaN
        ``0x7FC00000``, which every rounding step makes of a NaN."""
        x = np.asarray(x, dtype=np.float32)
        self.lookups += int(x.size)
        if self.name == "relu":
            # ReLU is exact in hardware (a mux on the sign bit), no table.
            return quantize_bf16(np.maximum(x, np.float32(0.0)))
        nan = np.isnan(x)
        clamped = np.clip(np.where(nan, np.float32(self.lo), x), self.lo, self.hi)
        idx = np.rint((clamped - self.lo) / self._step).astype(np.int64)
        return np.where(nan, CANONICAL_NAN_F32, self._table[idx])

    def max_error(self, probe_points: int = 4096) -> float:
        """Worst absolute error against the exact activation on the range."""
        xs = np.linspace(self.lo, self.hi, probe_points, dtype=np.float32)
        exact = apply_activation(self.name, xs)
        return float(np.max(np.abs(self.apply(xs) - exact)))
