"""The multi-channel Newton accelerator: the library's main entry point.

With multiple (pseudo) channels, "Newton's per-channel operation and
timing are simply repeated in parallel across the channels" (Section
III-D): the matrix's rows are spread across channels, every channel
receives the full input vector into its own global buffer, and the
device's wall clock is the slowest channel.

Two modes:

* **functional** (default): every channel is simulated, data and timing;
  ``gemv`` returns the bit-faithful bfloat16/fp32 output.
* **timing-only** (``functional=False``): only channel 0 is simulated.
  ``partition_rows`` always hands the largest (cumulative) slice to
  channel 0 and refresh is identical across channels, so channel 0 is
  the critical path and its cycle count is the device's wall clock.
  This keeps 24-channel benchmark sweeps fast.

A functional ``gemv`` runs the channels one after another, in channel
order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.engine import NewtonChannelEngine
from repro.core.layout import Layout, partition_rows
from repro.core.optimizations import FULL, OptimizationConfig
from repro.core.result import GemvRunResult
from repro.dram.config import DRAMConfig, hbm2e_like_config
from repro.dram.power import PowerParams, PowerReport
from repro.dram.timing import TimingParams, hbm2e_like_timing
from repro.errors import LayoutError, ProtocolError
from repro.numerics.lut import ActivationLUT

logger = logging.getLogger(__name__)


def validate_batch_vectors(vectors: np.ndarray, n: int) -> np.ndarray:
    """Normalize a batch of input vectors to a (k, n) float32 array.

    Accepts a single 1-D vector (promoted to a batch of one) or a 2-D
    (k, n) array whose trailing dimension matches the matrix width.
    Shared by :meth:`NewtonDevice.gemv_batch` and every
    ``Backend.gemv_batch`` adapter so all batch entry points reject
    malformed input identically.

    Raises:
        LayoutError: for >2-D input or a trailing-dimension mismatch.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if vectors.ndim != 2:
        raise LayoutError(
            f"batch vectors must be 1-D or 2-D (k, n), got shape "
            f"{vectors.shape}"
        )
    if vectors.shape[1] != n:
        raise LayoutError(
            f"batch vectors have width {vectors.shape[1]}, the matrix "
            f"expects n={n}"
        )
    return vectors


@dataclass
class MatrixHandle:
    """A matrix resident in the device (one layout per channel)."""

    m: int
    n: int
    placements: List[Tuple[int, Tuple[int, int], Layout]] = field(default_factory=list)
    """(channel index, (row_lo, row_hi), layout) per participating channel."""

    truncated_channels: int = 0
    """Channel placements dropped by a timing-only load (the device
    simulates channel 0 only; see :meth:`NewtonDevice.load_matrix`)."""

    truncated_rows: int = 0
    """Matrix rows covered by those dropped placements."""

    @property
    def truncated(self) -> bool:
        """Whether any placement was dropped at load time."""
        return self.truncated_channels > 0


class NewtonDevice:
    """A Newton accelerator-in-memory device."""

    def __init__(
        self,
        config: Optional[DRAMConfig] = None,
        timing: Optional[TimingParams] = None,
        opt: OptimizationConfig = FULL,
        *,
        functional: bool = True,
        refresh_enabled: bool = True,
        power_params: PowerParams = PowerParams(),
        lut_activation: Optional[str] = None,
        fast: bool = True,
        telemetry: bool = True,
    ):
        self.config = config if config is not None else hbm2e_like_config()
        self.timing = timing if timing is not None else hbm2e_like_timing()
        self.opt = opt
        self.functional = functional
        self.load_truncations = 0
        """Loads whose per-channel placements were truncated (timing-only
        mode simulates channel 0 only); see :meth:`load_matrix`."""
        # The in-DRAM LUT activates whole row sums at readout; a traversal
        # that reads out per-chunk partials applies activations on the host.
        lut = (
            ActivationLUT(lut_activation)
            if lut_activation is not None
            and self.config.rules.whole_row_readout(opt.interleaved_reuse)
            else None
        )
        active_channels = self.config.num_channels if functional else 1
        self.engines: List[NewtonChannelEngine] = [
            NewtonChannelEngine(
                self.config,
                self.timing,
                opt,
                channel_index=ch,
                functional=functional,
                refresh_enabled=refresh_enabled,
                power_params=power_params,
                lut=lut,
                fast=fast,
                telemetry=telemetry,
            )
            for ch in range(active_channels)
        ]

    # ------------------------------------------------------------------

    def load_matrix(
        self,
        matrix: Optional[np.ndarray] = None,
        *,
        m: Optional[int] = None,
        n: Optional[int] = None,
    ) -> MatrixHandle:
        """Make a matrix resident, spread row-wise across the channels.

        Pass the array itself in functional mode, or just ``m``/``n`` in
        timing-only mode. Loading is not timed (the matrix lives in the
        AiM for the model's lifetime).

        In timing-only mode only channel 0 is simulated: it always holds
        the largest (cumulative) row slice and refresh is identical
        across channels, so it is the critical path and the other
        channels' placements are intentionally dropped. The handle
        records that truncation (``truncated_channels`` /
        ``truncated_rows``), the device counts it
        (:attr:`load_truncations`, exported by
        :meth:`collect_metrics`), and a debug log line is emitted. A
        functional device is never allowed to drop data: if a placement
        ever targets a missing engine there, :class:`ProtocolError` is
        raised instead.
        """
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=np.float32)
            if matrix.ndim != 2:
                raise LayoutError(f"matrix must be 2-D, got shape {matrix.shape}")
            m, n = matrix.shape
        if m is None or n is None:
            raise LayoutError("provide a matrix, or both m and n")
        if matrix is None and self.functional:
            raise ProtocolError(
                "functional mode needs the matrix data; pass functional=False "
                "for timing-only shape runs"
            )
        slices = partition_rows(m, self.config.num_channels)
        handle = MatrixHandle(m=m, n=n)
        for channel, (lo, hi) in enumerate(slices):
            if hi == lo:
                continue
            if channel >= len(self.engines):
                if self.functional:
                    raise ProtocolError(
                        f"channel {channel} placement of rows [{lo}, {hi}) "
                        f"has no engine ({len(self.engines)} present); a "
                        "functional device must simulate every placement"
                    )
                # Timing-only: channel 0 is the critical path; record the
                # dropped placement instead of silently discarding it.
                handle.truncated_channels += 1
                handle.truncated_rows += hi - lo
                continue
            layout = self.engines[channel].add_matrix(
                hi - lo, n, matrix[lo:hi] if matrix is not None else None
            )
            handle.placements.append((channel, (lo, hi), layout))
        if handle.truncated:
            self.load_truncations += 1
            logger.debug(
                "timing-only load of %dx%d: %d channel placement(s) "
                "covering %d rows dropped; channel 0 remains the critical "
                "path",
                m,
                n,
                handle.truncated_channels,
                handle.truncated_rows,
            )
        return handle

    def store_matrix(
        self, handle: MatrixHandle, matrix: np.ndarray
    ) -> None:
        """Rewrite a resident matrix's data in place (functional only).

        The handle keeps its DRAM placements; only the stored bits
        change — the residency-update primitive behind the bank-resident
        KV-cache, whose arena is allocated once and grown in place
        across decode steps. Untimed, like :meth:`load_matrix`.
        """
        if not self.functional:
            raise ProtocolError("store_matrix needs a functional device")
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.shape != (handle.m, handle.n):
            raise LayoutError(
                f"matrix of shape {matrix.shape}; the handle holds "
                f"({handle.m}, {handle.n})"
            )
        for channel, (lo, hi), layout in handle.placements:
            self.engines[channel].update_matrix(layout, matrix[lo:hi])

    def gemv(
        self,
        handle: MatrixHandle,
        vector: Optional[np.ndarray] = None,
        *,
        fused_input: bool = False,
    ) -> GemvRunResult:
        """One matrix-vector product; channels run in simulated parallel.

        ``fused_input=True`` marks the input as already channel-resident
        (fused-layer dataflow): every channel elides the host GWRITEs
        from its command stream while loading its buffer identically, so
        outputs are bit-identical and only cycles change.
        """
        if not handle.placements:
            raise ProtocolError("the matrix handle has no placements")
        channel_results = [
            self.engines[channel].run_gemv(layout, vector, fused_input=fused_input)
            for channel, _, layout in handle.placements
        ]
        output = np.zeros(handle.m, dtype=np.float32) if self.functional else None
        for result, (_, (lo, hi), _) in zip(channel_results, handle.placements):
            result.row_slice = (lo, hi)
            if output is not None and result.output is not None:
                output[lo:hi] = result.output
        # Measured from the device clock at issue: the latest
        # participating start. A channel left idle by an earlier
        # narrower matrix lags behind, and must not count its lag.
        start = max(r.start_cycle for r in channel_results)
        end = max(r.end_cycle for r in channel_results)
        return GemvRunResult(
            cycles=end - start, channel_results=channel_results, output=output
        )

    def gemm(
        self, handle: MatrixHandle, matrix_b: np.ndarray
    ) -> "tuple[np.ndarray, int]":
        """Matrix-matrix product ``A @ B`` via sequential GEMVs.

        Newton has no batch reuse: each of B's columns is an independent
        matrix-vector product, so ``cycles`` is the sum (the Section V-D
        flat-batch behaviour). Returns the (m, k) fp32 product and the
        total cycles.
        """
        if not self.functional:
            raise ProtocolError("gemm needs a functional device")
        matrix_b = np.asarray(matrix_b, dtype=np.float32)
        if matrix_b.ndim != 2 or matrix_b.shape[0] != handle.n:
            raise LayoutError(
                f"B of shape {matrix_b.shape}; expected ({handle.n}, k)"
            )
        columns = []
        cycles = 0
        for j in range(matrix_b.shape[1]):
            run = self.gemv(handle, matrix_b[:, j])
            columns.append(run.output)
            cycles += run.cycles
        return np.stack(columns, axis=1), cycles

    def gemv_batch(
        self,
        handle: MatrixHandle,
        vectors: Optional[np.ndarray] = None,
        *,
        batch: Optional[int] = None,
    ) -> List[GemvRunResult]:
        """A batch of matrix-vector products, run back to back.

        Newton cannot exploit batch reuse (Section V-D): the command
        stream for k inputs is the concatenation of k single-input
        streams, so per-input latency is constant by construction.

        Raises:
            LayoutError: if ``vectors`` is not 1-D or 2-D, or its
                trailing dimension does not match the matrix width.
        """
        if vectors is not None:
            vectors = validate_batch_vectors(vectors, handle.n)
            runs = [self.gemv(handle, vectors[i]) for i in range(vectors.shape[0])]
        elif batch is not None:
            if batch <= 0:
                raise ProtocolError("batch must be positive")
            runs = [self.gemv(handle) for _ in range(batch)]
        else:
            raise ProtocolError("provide vectors or a batch size")
        return runs

    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """The device clock (slowest channel's controller time)."""
        return max(e.channel.controller.now for e in self.engines)

    def power_report(self) -> PowerReport:
        """Per-channel normalized power over everything run so far.

        Channels are statistically identical (slices differ by at most
        one row group), so channel 0's report is the device's
        per-channel average power — the quantity Figure 13 plots.
        """
        return self.engines[0].power_report()

    def conventional_dram_power(self) -> float:
        """The Figure 13 normalization denominator."""
        return self.engines[0].channel.power_model.conventional_streaming_power()

    def collect_metrics(self) -> dict:
        """Per-channel telemetry breakdowns (see :mod:`repro.telemetry`)."""
        from repro.telemetry import device_metrics

        return device_metrics(self)

    def close(self) -> None:
        """Release the device's resources (the ``Backend`` protocol; a
        device holds none beyond its memory, so this does nothing)."""
