"""The PIM + GPU hybrid behind the :class:`Backend` protocol.

``make_backend("hetero", ...)`` composes the cycle-accurate Newton
device with the Titan-V-like GPU roofline behind one backend surface
and lets the :mod:`repro.host.hetero` cost model decide, per dispatch,
which side the work lands on: batch-1 interactive GEMVs are
bandwidth-bound and stay in the memory; large batched dispatches cross
the Figure 12 crossover and go to the GPU roofline. Placement is forced
with ``placement="all-newton"`` / ``"all-gpu"``.

Two properties are load-bearing:

* **Bit-identity.** Every *functional* payload executes on the embedded
  Newton datapath regardless of placement — the GPU side contributes
  cycles, never data. A hetero run's outputs are therefore bit-identical
  to an all-Newton run by construction (same device, same seeds, same
  bf16 adder-tree reduction, exact fp32 host accumulation at merge
  points), which is what lets ``--placement auto`` be compared against
  ``all-newton`` differentially.
* **Honest boundaries.** Consecutive dispatches on the same side keep
  activations resident (fused runs stay on one backend); a placement
  crossing forces the host round trip — ``fused_input`` is dropped and
  the double-buffered handoff's *exposed* transfer cycles
  (:func:`repro.host.hetero.overlapped_handoff_cycles` against the
  previous dispatch's compute) are charged to the crossing run.

Every placement decision is recorded — chosen side, both candidates'
costs, predicted vs charged cycles — and exported through
``collect_metrics`` as a ``newton-telemetry/v1`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.backends.base import Backend, BackendRun
from repro.backends.newton import NewtonBackend
from repro.core.device import validate_batch_vectors
from repro.core.optimizations import FULL, OptimizationConfig
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError
from repro.host.hetero import (
    BACKEND_CHOICES,
    PLACEMENT_POLICIES,
    CalibrationReport,
    CostModel,
    TransferModel,
    overlapped_handoff_cycles,
)
from repro.telemetry import SCHEMA

MAX_DECISION_RECORDS = 256
"""Per-decision telemetry detail is bounded; counters keep the totals."""


@dataclass
class HeteroHandle:
    """A matrix resident in the hybrid (always on the Newton device)."""

    m: int
    n: int
    inner: object
    """The embedded Newton device's handle (the functional residency)."""


class HeteroBackend(Backend):
    """Cost-model-driven hybrid of the Newton device and the GPU roofline.

    ``placement`` is one of :data:`~repro.host.hetero.PLACEMENT_POLICIES`
    (``auto`` routes each dispatch to the side the cost model finds
    cheaper — measured Newton cycles vs the roofline closed form);
    ``gpu_overrides`` tunes the roofline
    (:data:`~repro.baselines.gpu.GPU_TUNABLE_FIELDS`). The remaining
    knobs configure the embedded Newton device and are shared with
    :class:`~repro.backends.newton.NewtonBackend`; unknown registry
    knobs are ignored like the model backends do.
    """

    name = "hetero"

    def __init__(
        self,
        config: Optional[DRAMConfig] = None,
        timing: Optional[TimingParams] = None,
        *,
        opt: OptimizationConfig = FULL,
        functional: bool = True,
        refresh_enabled: bool = True,
        placement: str = "auto",
        gpu_overrides: Optional[dict] = None,
        transfer_latency_cycles: float = 500.0,
        **newton_knobs,
    ):
        if placement not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown placement policy {placement!r}; choose from "
                f"{PLACEMENT_POLICIES}"
            )
        self.placement = placement
        self.newton = NewtonBackend(
            config,
            timing,
            opt=opt,
            functional=functional,
            refresh_enabled=refresh_enabled,
            **{
                k: v
                for k, v in newton_knobs.items()
                if k in ("fast", "telemetry")
            },
        )
        from repro.baselines.gpu import titan_v_like

        gpu_model = titan_v_like(
            self.newton.config, self.newton.timing, **(gpu_overrides or {})
        )
        self.cost = CostModel(
            self.newton.config,
            self.newton.timing,
            opt=opt,
            refresh_enabled=refresh_enabled,
            gpu_model=gpu_model,
        )
        self.transfer = TransferModel(
            self.newton.config,
            self.newton.timing,
            latency_cycles=transfer_latency_cycles,
        )
        # Boundary state: which side the last dispatch ran on and how
        # long it computed (the overlap window the next crossing's
        # transfer can hide under).
        self._last_backend: Optional[str] = None
        self._last_compute = 0.0
        self._counts = {b: 0 for b in BACKEND_CHOICES}
        self._crossings = 0
        self._exposed_transfer = 0.0
        self._decisions: List[dict] = []
        self._error_sum = 0.0
        self._error_max = 0.0
        self._error_n = 0

    # ------------------------------------------------------------------
    # the Backend context attributes, proxied from the Newton side

    @property
    def config(self) -> DRAMConfig:  # type: ignore[override]
        return self.newton.config

    @property
    def timing(self) -> TimingParams:  # type: ignore[override]
        return self.newton.timing

    @property
    def functional(self) -> bool:  # type: ignore[override]
        return self.newton.functional

    # ------------------------------------------------------------------
    # placement

    def calibrate(self, layers=None) -> CalibrationReport:
        """Fit the cost model's Newton scale (see
        :meth:`repro.host.hetero.CostModel.calibrate`); returns the
        report that lands in ``collect_metrics``."""
        return self.cost.calibrate(layers)

    def _choose(self, m: int, n: int, batch: int) -> str:
        if self.placement == "all-newton":
            return "newton"
        if self.placement == "all-gpu":
            return "gpu"
        return min(
            BACKEND_CHOICES,
            key=lambda b: self.cost.estimate(
                b, m, n, batch=batch, prefer_measured=True
            ),
        )

    def _check_input(self, handle: HeteroHandle, vectors) -> None:
        """Refuse a bad input before placement, by the device's own pad
        step: a refused call charges no crossing and records nothing."""
        if self.functional:
            self.newton.device.pad(handle.inner, vectors)

    def _boundary(self, chosen: str, elements: int) -> float:
        """Exposed transfer cycles of this dispatch's placement edge.

        Zero when the pipeline stays on one side; a crossing pays the
        double-buffered handoff drain against the previous dispatch's
        compute window.
        """
        if self._last_backend is None or self._last_backend == chosen:
            return 0.0
        cycles = self.transfer.vector_cycles(elements)
        slices = self.transfer.handoff_slices(elements)
        exposed = (
            overlapped_handoff_cycles(self._last_compute, cycles, slices)
            - self._last_compute
        )
        self._crossings += 1
        self._exposed_transfer += exposed
        return exposed

    def _record(
        self, chosen: str, m: int, n: int, batch: int, actual: float
    ) -> None:
        predicted = self.cost.predict(chosen, m, n, batch=batch)
        error = abs(predicted - actual) / (actual or 1.0) * 100.0
        self._counts[chosen] += 1
        self._error_sum += error
        self._error_max = max(self._error_max, error)
        self._error_n += 1
        if len(self._decisions) < MAX_DECISION_RECORDS:
            self._decisions.append(
                {
                    "m": m,
                    "n": n,
                    "batch": batch,
                    "backend": chosen,
                    "predicted_cycles": round(predicted, 1),
                    "actual_cycles": round(actual, 1),
                    "error_pct": round(error, 3),
                }
            )

    # ------------------------------------------------------------------
    # residency

    def load_matrix(
        self,
        matrix: Optional[np.ndarray] = None,
        *,
        m: Optional[int] = None,
        n: Optional[int] = None,
    ) -> HeteroHandle:
        inner = self.newton.load_matrix(matrix, m=m, n=n)
        return HeteroHandle(m=inner.m, n=inner.n, inner=inner)

    def store_matrix(self, handle: HeteroHandle, matrix: np.ndarray) -> None:
        self.newton.store_matrix(handle.inner, matrix)

    # ------------------------------------------------------------------
    # execution

    def gemv(
        self,
        handle: HeteroHandle,
        vector: Optional[np.ndarray] = None,
        *,
        fused_input: bool = False,
    ) -> BackendRun:
        self._check_input(handle, None if vector is None else (vector,))
        chosen = self._choose(handle.m, handle.n, batch=1)
        boundary = self._boundary(chosen, handle.n)
        # Crossing the PIM/GPU boundary forces the host round trip:
        # activations cannot stay latch-resident across it.
        fused = fused_input and boundary == 0.0 and chosen == "newton"
        if chosen == "newton":
            run = self.newton.gemv(handle.inner, vector, fused_input=fused)
            compute = float(run.cycles)
            output = run.output
        else:
            compute = self.cost.predict("gpu", handle.m, handle.n)
            output = None
            if self.functional:
                # The GPU side contributes cycles, never data: the Newton
                # datapath computes the output, untimed, so it equals an
                # all-Newton run's bit for bit and moves no Newton clock.
                (output,) = self.newton.device.compute(handle.inner, (vector,))
        self._record(chosen, handle.m, handle.n, 1, compute)
        self._last_backend = chosen
        self._last_compute = compute
        return BackendRun(cycles=compute + boundary, output=output)

    def gemv_batch(
        self,
        handle: HeteroHandle,
        vectors: Optional[np.ndarray] = None,
        *,
        batch: Optional[int] = None,
    ) -> List[BackendRun]:
        """One placement decision for the whole dispatch window.

        This is the per-request-class routing under mixed traffic: the
        continuous batcher hands interactive requests over in small
        windows (Newton wins below the crossover) and bulk work in large
        ones (the batched roofline wins above it), so class routing
        falls out of batch-aware placement with no gateway changes.
        """
        if vectors is not None:
            vectors = validate_batch_vectors(vectors, handle.n)
            k = vectors.shape[0]
        else:
            if batch is None:
                from repro.errors import ProtocolError

                raise ProtocolError("provide vectors or a batch size")
            if batch <= 0:
                from repro.errors import ProtocolError

                raise ProtocolError("batch must be positive")
            k = batch
        self._check_input(handle, vectors)
        chosen = self._choose(handle.m, handle.n, batch=k)
        boundary = self._boundary(chosen, handle.n * k)
        if chosen == "newton":
            inner_runs = self.newton.gemv_batch(
                handle.inner, vectors, batch=None if vectors is not None else k
            )
            runs = [
                BackendRun(cycles=float(r.cycles), output=r.output)
                for r in inner_runs
            ]
            compute = sum(r.cycles for r in runs)
        else:
            compute = self.cost.predict("gpu", handle.m, handle.n, batch=k)
            outputs = [None] * k
            if self.functional:  # untimed, as in gemv
                outputs = self.newton.device.compute(handle.inner, vectors)
            runs = [BackendRun(cycles=compute / k, output=o) for o in outputs]
        # The exposed handoff is part of the dispatch's occupancy: charge
        # it to the first run so cycle sums stay honest.
        if boundary:
            runs[0].cycles += boundary
        self._record(chosen, handle.m, handle.n, k, compute)
        self._last_backend = chosen
        self._last_compute = compute
        return runs

    def service_cycles(self, handle: HeteroHandle) -> float:
        """Deterministic per-request service time of the *placed* side.

        Uses the cost model's cached per-layout measurement for the
        Newton side (a fresh-device run, not the live clock), so the
        queueing studies see the same deterministic service the placed
        backend would give them.
        """
        chosen = self._choose(handle.m, handle.n, batch=1)
        return self.cost.estimate(
            chosen, handle.m, handle.n, prefer_measured=True
        )

    # ------------------------------------------------------------------
    # introspection

    def collect_metrics(self) -> dict:
        record = {
            "schema": SCHEMA,
            "kind": "hetero",
            "backend": self.name,
            "placement": self.placement,
            "dispatches": dict(self._counts),
            "crossings": self._crossings,
            "exposed_transfer_cycles": round(self._exposed_transfer, 1),
            "measured_layouts": self.cost.measured_layouts,
            "prediction_error_mean_pct": round(
                self._error_sum / self._error_n, 3
            )
            if self._error_n
            else 0.0,
            "prediction_error_max_pct": round(self._error_max, 3),
            "decisions": list(self._decisions),
            "newton": self.newton.collect_metrics(),
        }
        if self.cost.calibration is not None:
            record["calibration"] = self.cost.calibration.to_dict()
        return record

    def close(self) -> None:
        self.newton.close()
