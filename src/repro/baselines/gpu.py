"""A Titan-V-like GPU roofline model.

The paper models its GPU with GPGPU-sim 4.0 configured as a Titan V (80
SMs, 24 memory channels with Newton's DRAM timings) running CUTLASS
GEMV kernels with constant launch overheads factored out. GPGPU-sim is
unavailable here, so we substitute a calibrated roofline with the two
properties the evaluation actually uses:

* at batch 1 the GPU achieves a fraction ``gemv_efficiency`` of the
  external DRAM bandwidth on GEMV (calibrated once so Ideal Non-PIM's
  published 5.4x mean advantage over the GPU holds), and
* with batch k the matrix is read once per batch, with a mild efficiency
  decay ``k ** batch_decay`` (skinnier effective GEMM tiles, growing
  activation traffic), until the compute roofline binds — placing the
  published Newton/GPU crossover near batch 64 (Figure 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GpuModel:
    """Roofline execution-time model for a discrete GPU."""

    config: DRAMConfig
    timing: TimingParams
    gemv_efficiency: float = 0.185
    """Achieved fraction of external bandwidth on batch-1 GEMV
    (1 / 5.4: the paper's Ideal-Non-PIM-over-GPU mean)."""
    batch_decay: float = -0.04
    """Exponent of the mild per-batch efficiency decay."""
    peak_flops_per_cycle: float = 28000.0
    """fp16 FLOPs per DRAM-command-clock cycle (~28 TFLOP/s at 1 GHz)."""
    compute_efficiency: float = 0.5
    """Achieved fraction of peak on dense GEMM."""
    kernel_overhead_cycles: float = 0.0
    """Fixed per-kernel cost. The paper isolates and removes CUTLASS's
    constant overhead (conservatively favouring the GPU), so zero."""

    saturation_bytes: float = 2_000_000.0
    """Working set needed to saturate the GPU's 80 SMs and 24 channels.
    Smaller kernels achieve proportionally (square-root law) less of the
    peak bandwidth — which is why the tiny DLRM layer is one of the
    paper's *highest*-speedup cases."""

    refresh_derate: float = 1.0
    """Time inflation from DRAM refresh (set to match Ideal Non-PIM's,
    since the GPU's DRAM refreshes identically)."""

    def __post_init__(self) -> None:
        if not 0 < self.gemv_efficiency <= 1:
            raise ConfigurationError("gemv_efficiency must be in (0, 1]")
        if not 0 < self.compute_efficiency <= 1:
            raise ConfigurationError("compute_efficiency must be in (0, 1]")
        if self.peak_flops_per_cycle <= 0:
            raise ConfigurationError("peak_flops_per_cycle must be positive")
        if self.batch_decay > 0:
            raise ConfigurationError("batch_decay must be non-positive")
        if self.refresh_derate < 1.0:
            raise ConfigurationError("refresh_derate cannot be below 1")
        if self.saturation_bytes <= 0:
            raise ConfigurationError("saturation_bytes must be positive")

    def bytes_per_cycle(self) -> float:
        """External DRAM bandwidth (same memory system as Newton's host)."""
        return (
            self.config.num_channels
            * self.config.col_io_bytes
            / self.timing.t_ccd
        )

    def efficiency_at_batch(self, batch: int) -> float:
        """Achieved bandwidth fraction at a batch size."""
        if batch <= 0:
            raise ConfigurationError("batch must be positive")
        return self.gemv_efficiency * math.pow(batch, self.batch_decay)

    def saturation_factor(self, matrix_bytes: float) -> float:
        """Bandwidth derate for kernels too small to fill the machine."""
        if matrix_bytes >= self.saturation_bytes:
            return 1.0
        return math.sqrt(matrix_bytes / self.saturation_bytes)

    def gemv_cycles(self, m: int, n: int, batch: int = 1) -> float:
        """Cycles for a k-way batched GEMV (one kernel)."""
        if m <= 0 or n <= 0:
            raise ConfigurationError("dimensions must be positive")
        matrix_bytes = 2 * m * n
        vector_bytes = 2 * batch * (m + n)
        achieved = (
            self.bytes_per_cycle()
            * self.efficiency_at_batch(batch)
            * self.saturation_factor(matrix_bytes)
        )
        memory = (matrix_bytes + vector_bytes) * self.refresh_derate / achieved
        compute = (2.0 * m * n * batch) / (
            self.peak_flops_per_cycle * self.compute_efficiency
        )
        return max(memory, compute) + self.kernel_overhead_cycles

    def gemv_cycles_per_input(self, m: int, n: int, batch: int = 1) -> float:
        """Per-input cycles at a batch size."""
        return self.gemv_cycles(m, n, batch) / batch

    def host_op_cycles(self, flops: int, traffic_bytes: int) -> float:
        """Roofline time for non-FC host work (convs, embeddings, glue)."""
        if flops < 0 or traffic_bytes < 0:
            raise ConfigurationError("host op flops/bytes must be non-negative")
        compute = flops / (self.peak_flops_per_cycle * self.compute_efficiency)
        memory = traffic_bytes / self.bytes_per_cycle()
        return max(compute, memory)


GPU_TUNABLE_FIELDS = (
    "gemv_efficiency",
    "batch_decay",
    "peak_flops_per_cycle",
    "compute_efficiency",
    "kernel_overhead_cycles",
    "saturation_bytes",
    "refresh_derate",
)
"""The roofline parameters :func:`titan_v_like` accepts as overrides.
The CLI exposes six of them as ``--gpu-*`` flags, two under shorter
names (``--gpu-peak-flops``, ``--gpu-kernel-overhead``);
``refresh_derate`` has no flag."""


def titan_v_like(
    config: DRAMConfig, timing: TimingParams, **overrides: float
) -> GpuModel:
    """The calibrated Titan-V-like baseline used across the experiments.

    Keyword ``overrides`` replace individual roofline parameters
    (any of :data:`GPU_TUNABLE_FIELDS`) so calibration and the CLI can
    tune the model without a bespoke constructor call; unknown names
    raise :class:`~repro.errors.ConfigurationError`.
    """
    unknown = set(overrides) - set(GPU_TUNABLE_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown GpuModel override(s) {sorted(unknown)}; choose from "
            f"{GPU_TUNABLE_FIELDS}"
        )
    derate = timing.t_refi / (timing.t_refi - timing.t_rfc)
    params = {"refresh_derate": derate, **overrides}
    return GpuModel(config=config, timing=timing, **params)
