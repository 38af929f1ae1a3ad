"""The multi-channel Newton accelerator: the library's main entry point.

With multiple (pseudo) channels, "Newton's per-channel operation and
timing are simply repeated in parallel across the channels" (Section
III-D): the matrix's rows are spread across channels
(:func:`~repro.core.layout.partition_rows`), every channel receives the
full input vector into its own global buffer, and the device's wall
clock is the slowest channel.

The device simulates each repetition once. Channels whose load
histories are equal hold equal layouts and issue equal command streams,
so they form one *class*, timed by one timing-only
:class:`~repro.core.engine.NewtonChannelEngine`
(:attr:`NewtonDevice.engines`, members in :attr:`NewtonDevice.classes`).
A fresh device is one class. :meth:`NewtonDevice.load_matrix` splits a
class only where its members need different layouts — a different tile
or slot count, or no rows at all — and each new class starts from a
copy of the old class's timing state
(:meth:`~repro.core.engine.NewtonChannelEngine.fork`). A GEMV runs each
participating class once, and telemetry gives every member its class's
record.

The arithmetic does not depend on the channel either: a row's result
depends only on that row, the vector and the family's readout rule. A
functional device (the default) keeps each resident matrix once, in its
:class:`~repro.core.datapath.BatchedDatapath`, and ``gemv`` returns the
bit-faithful bfloat16/fp32 output. A timing-only device
(``functional=False``) takes shapes instead of data and has no
datapath; its cycles, telemetry and power equal a functional device's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.datapath import BatchedDatapath
from repro.core.engine import NewtonChannelEngine
from repro.core.layout import Layout, partition_rows
from repro.core.optimizations import FULL, OptimizationConfig
from repro.core.result import GemvRunResult
from repro.dram.config import DRAMConfig, hbm2e_like_config
from repro.dram.power import PowerParams, PowerReport
from repro.dram.timing import TimingParams, hbm2e_like_timing
from repro.errors import LayoutError, ProtocolError
from repro.numerics.lut import ActivationLUT


def validate_batch_vectors(vectors: np.ndarray, n: int) -> np.ndarray:
    """Normalize a batch of input vectors to a (k, n) float32 array.

    Accepts a single 1-D vector (promoted to a batch of one) or a 2-D
    (k, n) array whose trailing dimension matches the matrix width.
    Shared by :meth:`NewtonDevice.gemv_batch` and every
    ``Backend.gemv_batch`` adapter so all batch entry points reject
    malformed input identically.

    Raises:
        LayoutError: for >2-D input, an empty batch or a
            trailing-dimension mismatch.
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
    if not len(vectors):
        raise LayoutError("a batch needs at least one vector")
    return vectors


@dataclass(eq=False)
class MatrixHandle:
    """A matrix resident in the device."""

    m: int
    n: int
    slices: List[Tuple[int, int]] = field(default_factory=list)
    """Each channel's ``(row_lo, row_hi)`` (:func:`partition_rows`)."""
    layouts: List[Optional[Layout]] = field(default_factory=list)
    """Each channel's layout, ``None`` for a channel holding no rows. The
    members of a class share its layout, built for the class's largest
    slice (slices differ by at most a row and have equal tile or slot
    counts, so their streams are equal)."""


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
        # The in-DRAM LUT activates whole row sums at readout; a traversal
        # that reads out per-chunk partials applies activations on the host.
        whole_row = self.config.rules.whole_row_readout(opt.interleaved_reuse)
        lut = (
            ActivationLUT(lut_activation)
            if lut_activation is not None and whole_row
            else None
        )
        self.datapath: Optional[BatchedDatapath] = (
            BatchedDatapath(self.config, whole_row, lut) if functional else None
        )
        """Every resident matrix and the arithmetic (``None`` when
        timing-only)."""
        self.engines: List[NewtonChannelEngine] = [
            NewtonChannelEngine(
                self.config,
                self.timing,
                opt,
                functional=False,
                refresh_enabled=refresh_enabled,
                power_params=power_params,
                fast=fast,
                telemetry=telemetry,
            )
        ]
        """One timing engine per class of identical channels."""
        self.classes: List[range] = [range(self.config.num_channels)]
        """Each engine's member channels; classes are contiguous and in
        channel order, so ``engines[0]`` times channel 0."""

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
        AiM for the model's lifetime). Both modes place every channel's
        rows; a class whose members need different layouts splits here.
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
        banks = self.config.banks_per_channel

        def tiles(channel: int) -> int:  # of the layout the channel needs
            lo, hi = slices[channel]
            return -(-(hi - lo) // banks)

        handle = MatrixHandle(m, n, slices, [None] * len(slices))
        engines: List[NewtonChannelEngine] = []
        classes: List[range] = []
        for engine, members in zip(self.engines, self.classes):
            # Slices shrink along the channels by at most a row, so a
            # class needs at most two layouts: it splits where its
            # members' tile counts first differ.
            first = tiles(members[0])
            groups = [members]
            if tiles(members[-1]) != first:
                cut = next(c for c in members if tiles(c) != first)
                groups = [range(members[0], cut), range(cut, members[-1] + 1)]
            # Every part starts from the class's state before this load.
            parts = [engine] + [engine.fork(group[0]) for group in groups[1:]]
            for part, group in zip(parts, groups):
                engines.append(part)
                classes.append(group)
                lo, hi = slices[group[0]]
                if hi > lo:
                    layout = part.add_matrix(hi - lo, n)
                    handle.layouts[group[0] : group[-1] + 1] = [layout] * len(group)
        self.engines, self.classes = engines, classes
        if self.functional:
            self.datapath.add(handle, matrix)
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
        self.datapath.write(handle, matrix)

    def gemv(
        self,
        handle: MatrixHandle,
        vector: Optional[np.ndarray] = None,
        *,
        fused_input: bool = False,
    ) -> GemvRunResult:
        """One matrix-vector product; channels run in simulated parallel,
        each class once (one result per class).

        ``fused_input=True`` marks the input as already channel-resident
        (fused-layer dataflow): every channel elides the host GWRITEs
        from its command stream while loading its buffer identically, so
        outputs are bit-identical and only cycles change.
        """
        (run,) = self._run(
            handle, 1, None if vector is None else (vector,), fused_input
        )
        return run

    def gemm(
        self, handle: MatrixHandle, matrix_b: np.ndarray
    ) -> "tuple[np.ndarray, int]":
        """Matrix-matrix product ``A @ B``: B's columns as one batch.

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
        runs = self.gemv_batch(handle, matrix_b.T)
        return (
            np.stack([run.output for run in runs], axis=1),
            sum(run.cycles for run in runs),
        )

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
        streams, so per-input latency is constant by construction, and
        each run equals one :meth:`gemv`. Each class runs the batch back
        to back (:meth:`~repro.core.engine.NewtonChannelEngine.run_gemvs`):
        when steady, one record lookup per run, each keyed by the last
        run's end signature, across calls too, and no write-back until
        something reads the controller.

        Raises:
            LayoutError: if ``vectors`` is not 1-D or 2-D, holds no
                vector, or its trailing dimension does not match the
                matrix width.
        """
        if vectors is not None:
            vectors = validate_batch_vectors(vectors, handle.n)
            return self._run(handle, len(vectors), vectors)
        if batch is None:
            raise ProtocolError("provide vectors or a batch size")
        if batch <= 0:
            raise ProtocolError("batch must be positive")
        return self._run(handle, batch, None)

    def pad(self, handle: MatrixHandle, vectors) -> List[np.ndarray]:
        """``vectors`` checked and zero-padded to whole chunks (functional)."""
        if not self.functional:
            raise ProtocolError("compute needs a functional device")
        if vectors is None:
            raise ProtocolError("functional mode requires an input vector")
        return [handle.layouts[0].pad_vector(vector) for vector in vectors]

    def compute(self, handle: MatrixHandle, vectors) -> List[np.ndarray]:
        """The products of ``vectors`` with a resident matrix, from the
        datapath alone: untimed, so no clock moves (functional only)."""
        return [self.datapath.gemv(handle, v) for v in self.pad(handle, vectors)]

    def _run(
        self, handle: MatrixHandle, count: int, vectors, fused_input: bool = False
    ) -> List[GemvRunResult]:
        """``count`` GEMVs back to back: each participating class runs
        them all, and run ``i`` gathers every class's ``i``-th result."""
        if not handle.layouts:
            raise ProtocolError("the matrix handle has no placements")
        # Computed before any class runs: a refused input moves no clock.
        outputs = self.compute(handle, vectors) if self.functional else [None] * count
        per_class = []
        for engine, members in zip(self.engines, self.classes):
            layout = handle.layouts[members[0]]
            if layout is None:
                continue  # the class holds no rows of this matrix
            results = engine.run_gemvs(layout, count, fused_input=fused_input)
            row_slice = (handle.slices[members[0]][0], handle.slices[members[-1]][1])
            for result in results:
                result.row_slice, result.channels = row_slice, len(members)
            per_class.append(results)
        # Each run is timed from the device clock at issue: the latest
        # participating start. A channel left idle by an earlier
        # narrower matrix lags behind, and must not count its lag.
        return [
            GemvRunResult(
                cycles=max(r.end_cycle for r in results)
                - max(r.start_cycle for r in results),
                channel_results=list(results),
                output=output,
            )
            for output, results in zip(outputs, zip(*per_class))
        ]

    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """The device clock (slowest channel's controller time). Reading
        it writes each class's pending chain of runs back."""
        return max(e.channel.controller.now for e in self.engines)

    def power_report(self) -> PowerReport:
        """Per-channel normalized power over everything run so far.

        Channels are statistically identical (slices differ by at most
        one row group), so channel 0's class's report is the device's
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
