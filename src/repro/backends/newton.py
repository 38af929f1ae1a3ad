"""The cycle-accurate Newton device behind the :class:`Backend` protocol.

A thin, behavior-preserving adapter: every method delegates to the
wrapped :class:`~repro.core.device.NewtonDevice`, so a ``NewtonBackend``
(and a 1-device :class:`~repro.cluster.ShardedCluster` built from one)
is bit-identical — outputs *and* cycle counts — to driving the device
directly. The differential suite pins exactly that.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.backends.base import Backend
from repro.core.device import MatrixHandle, NewtonDevice
from repro.core.optimizations import FULL, OptimizationConfig
from repro.core.result import GemvRunResult
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams


class NewtonBackend(Backend):
    """The simulated Newton accelerator as a :class:`Backend`."""

    name = "newton"

    def __init__(
        self,
        config: Optional[DRAMConfig] = None,
        timing: Optional[TimingParams] = None,
        *,
        opt: OptimizationConfig = FULL,
        functional: bool = True,
        refresh_enabled: bool = True,
        fast: bool = True,
        telemetry: bool = True,
        device: Optional[NewtonDevice] = None,
    ):
        """Wrap an existing ``device``, or build one from the knobs."""
        self.device = (
            device
            if device is not None
            else NewtonDevice(
                config,
                timing,
                opt,
                functional=functional,
                refresh_enabled=refresh_enabled,
                fast=fast,
                telemetry=telemetry,
            )
        )

    # ------------------------------------------------------------------
    # the Backend context attributes, proxied from the device

    @property
    def config(self) -> DRAMConfig:  # type: ignore[override]
        return self.device.config

    @property
    def timing(self) -> TimingParams:  # type: ignore[override]
        return self.device.timing

    @property
    def functional(self) -> bool:  # type: ignore[override]
        return self.device.functional

    # ------------------------------------------------------------------

    def load_matrix(
        self,
        matrix: Optional[np.ndarray] = None,
        *,
        m: Optional[int] = None,
        n: Optional[int] = None,
    ) -> MatrixHandle:
        return self.device.load_matrix(matrix, m=m, n=n)

    def store_matrix(self, handle: MatrixHandle, matrix: np.ndarray) -> None:
        self.device.store_matrix(handle, matrix)

    def gemv(
        self,
        handle: MatrixHandle,
        vector: Optional[np.ndarray] = None,
        *,
        fused_input: bool = False,
    ) -> GemvRunResult:
        return self.device.gemv(handle, vector, fused_input=fused_input)

    def gemv_batch(
        self,
        handle: MatrixHandle,
        vectors: Optional[np.ndarray] = None,
        *,
        batch: Optional[int] = None,
    ) -> List[GemvRunResult]:
        return self.device.gemv_batch(handle, vectors, batch=batch)

    def service_cycles(self, handle: MatrixHandle) -> float:
        """One simulated GEMV's wall clock (the deterministic service).

        Advances the device clock by one run — the same steady-state
        regime the serving studies measure in.
        """
        return float(self.device.gemv(handle).cycles)

    def collect_metrics(self) -> dict:
        return self.device.collect_metrics()

    def close(self) -> None:
        self.device.close()
