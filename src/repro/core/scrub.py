"""ECC scrubbing by periodic matrix reload (Section III-E).

DRAM ECC is computed and checked by the *memory controller*, but AiM
computation happens inside the DRAM, where the long-resident matrix can
silently collect transient errors. The paper's remedy: "re-loading the
matrix, and thereby discarding any errors, from a non-AiM copy every so
often for a small bandwidth overhead (e.g., once per 1000 inputs)". The
input and output vectors cross the (checked) interface on every
inference, so only the matrix needs scrubbing.

This module quantifies that policy: the bandwidth/time overhead of the
reload amortized over the scrub interval, and a fault-injection check
that a reload really does clear injected bit flips.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.device import MatrixHandle, NewtonDevice
from repro.errors import ConfigurationError, ProtocolError
from repro.numerics.bfloat16 import float_to_bf16_bits


@dataclass(frozen=True)
class ScrubPolicy:
    """Reload the matrix from its non-AiM copy every N inputs."""

    inputs_per_scrub: int = 1000

    def __post_init__(self) -> None:
        if self.inputs_per_scrub <= 0:
            raise ConfigurationError("inputs_per_scrub must be positive")

    def reload_cycles(
        self, matrix_bytes: int, bytes_per_cycle: float
    ) -> float:
        """Cycles to stream the matrix back in over the external bus."""
        if matrix_bytes <= 0 or bytes_per_cycle <= 0:
            raise ConfigurationError("matrix size and bandwidth must be positive")
        return matrix_bytes / bytes_per_cycle

    def overhead_fraction(
        self, matrix_bytes: int, bytes_per_cycle: float, inference_cycles: float
    ) -> float:
        """Scrub time as a fraction of useful inference time.

        This is the paper's "small bandwidth overhead": a reload per
        ``inputs_per_scrub`` inferences.
        """
        if inference_cycles <= 0:
            raise ConfigurationError("inference_cycles must be positive")
        reload = self.reload_cycles(matrix_bytes, bytes_per_cycle)
        return reload / (self.inputs_per_scrub * inference_cycles)


class MatrixScrubber:
    """Fault injection + reload against a functional Newton device."""

    def __init__(self, device: NewtonDevice, handle: MatrixHandle, matrix: np.ndarray):
        if not device.functional:
            raise ProtocolError("scrubbing needs a functional device")
        self.device = device
        self.handle = handle
        self.golden = np.asarray(matrix, dtype=np.float32).copy()
        self.flips_injected = 0

    def _slab(self) -> np.ndarray:
        """The device datapath's copy of the matrix (bf16 bits, rows in
        matrix order; see :class:`~repro.core.datapath.BatchedDatapath`)."""
        return self.device.datapath.slabs[self.handle]

    def inject_faults(self, count: int, seed: int = 0) -> None:
        """Flip ``count`` random bits in the resident matrix."""
        if count <= 0:
            raise ConfigurationError("inject at least one fault")
        rng = np.random.default_rng(seed)
        slab = self._slab()
        for _ in range(count):
            row = int(rng.integers(slab.shape[0]))
            elem = int(rng.integers(slab.shape[1]))
            slab[row, elem] ^= np.uint16(1 << int(rng.integers(16)))
            self.flips_injected += 1

    def scrub(self) -> None:
        """Reload the matrix from the golden (non-AiM, ECC-protected) copy."""
        self.device.store_matrix(self.handle, self.golden)

    def residency_matches_golden(self) -> bool:
        """Bit-compare the resident matrix, padding included, against the
        golden copy."""
        slab = self._slab()
        m, n = self.golden.shape
        return (
            np.array_equal(slab[:m, :n], float_to_bf16_bits(self.golden))
            and not slab[m:].any()
            and not slab[:, n:].any()
        )
