"""The execution-backend protocol every engine implements.

The repository grew four ways to execute (or predict) a matrix-vector
product — the cycle-accurate :class:`~repro.core.device.NewtonDevice`,
the Section III-F :class:`~repro.baselines.analytical.AnalyticalModel`,
the bandwidth-bound :class:`~repro.baselines.ideal_nonpim.IdealNonPim`,
and the Titan-V-like :class:`~repro.baselines.gpu.GpuModel` roofline —
each with its own bespoke call surface. :class:`Backend` is the one
interface they all sit behind, so the runtime, the serving simulator,
the multi-model scheduler, and the cluster layer can treat "a thing
that executes GEMVs" uniformly:

* ``load_matrix`` makes a matrix resident and returns a handle;
* ``gemv`` / ``gemv_batch`` execute against a handle and return run
  records carrying ``cycles`` (and, functionally, ``output``);
* ``service_cycles`` gives the deterministic per-request service time
  the serving simulator needs (Section III-D: Newton's latencies are
  deterministic by design, and the models are closed-form);
* ``collect_metrics`` exports a ``newton-telemetry/v1``-stamped record.

Backends are constructed directly or through the string-keyed factory
(:func:`repro.backends.make_backend`); N of them compose into a
:class:`~repro.cluster.ShardedCluster`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

from repro.core.device import validate_batch_vectors
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import ProtocolError


@dataclass
class BackendRun:
    """One backend GEMV execution (the protocol's run record).

    ``NewtonBackend`` returns the richer
    :class:`~repro.core.result.GemvRunResult` directly (it already
    carries ``cycles`` and ``output``, plus per-channel detail); the
    model backends return this minimal record. Consumers rely only on
    the two shared fields.
    """

    cycles: float
    """Wall-clock cycles of the run."""
    output: Optional[np.ndarray] = None
    """fp32 output vector (``None`` for timing-only execution)."""


class Backend(ABC):
    """A uniform execution engine for matrix-vector workloads.

    Concrete backends expose three context attributes consumers rely on
    in addition to the methods below: ``config`` (the
    :class:`~repro.dram.config.DRAMConfig` the backend models),
    ``timing`` (its :class:`~repro.dram.timing.TimingParams`), and
    ``functional`` (whether runs produce output data).
    """

    name: str = "backend"
    config: DRAMConfig
    timing: TimingParams
    functional: bool

    # ------------------------------------------------------------------
    # residency

    @abstractmethod
    def load_matrix(
        self,
        matrix: Optional[np.ndarray] = None,
        *,
        m: Optional[int] = None,
        n: Optional[int] = None,
    ):
        """Make an ``m x n`` matrix resident; returns an opaque handle.

        Pass the array in functional mode, or just the dimensions for
        timing-only execution (mirroring
        :meth:`repro.core.device.NewtonDevice.load_matrix`).
        """

    def load_model(self, spec, seed: int = 0) -> dict:
        """Make every Newton (FC) layer of a model spec resident.

        Returns ``{layer name: handle}`` — the residency half of
        :meth:`repro.host.runtime.NewtonRuntime.load_model` (which adds
        recurrent cell state and weight bookkeeping on top). Functional
        backends get seeded synthetic weights, matching the runtime's
        generation.
        """
        from repro.workloads.generator import generate_layer_data

        if getattr(spec, "requires_session", False):
            raise ProtocolError(
                f"{spec.name} carries stateful (non-fc) layers; open a "
                "session (open_session) to load and run it"
            )
        handles = {}
        for i, layer in enumerate(spec.layers):
            if not layer.on_newton:
                continue
            if self.functional:
                data = generate_layer_data(layer.m, layer.n, seed=seed + i)
                handles[layer.name] = self.load_matrix(data.matrix)
            else:
                handles[layer.name] = self.load_matrix(m=layer.m, n=layer.n)
        return handles

    def store_matrix(self, handle, matrix: np.ndarray) -> None:
        """Rewrite a resident matrix's data in place (functional only).

        The handle keeps its placement; only the data changes — the
        primitive behind the bank-resident KV-cache arenas, which are
        allocated once at session open and grown in place across decode
        steps. Untimed, like ``load_matrix``.
        """
        raise ProtocolError(
            f"backend {self.name!r} does not support in-place matrix updates"
        )

    # ------------------------------------------------------------------
    # execution

    @abstractmethod
    def gemv(self, handle, vector: Optional[np.ndarray] = None, *, fused_input: bool = False):
        """One matrix-vector product; returns a run with ``cycles`` and
        (functionally) ``output``.

        ``fused_input=True`` declares the input already device-resident
        (fused-layer dataflow): the host GWRITE round trip is elided
        from the modeled timing while outputs stay bit-identical.
        Backends without a fused model simply ignore the flag.
        """

    def open_session(self, spec, *, fused: bool = True, seed: int = 0):
        """Open a model-graph execution session over this backend.

        Returns a :class:`~repro.host.graph_runtime.GraphSession` whose
        ``step(inputs)`` walks the model's layer graph keeping
        activations device-resident between fusable layers (and KV-cache
        arenas bank-resident across decode steps); ``close()`` releases
        session state. ``fused=False`` pins the session to today's
        per-layer host round-trip path — bit-identical outputs, more
        cycles.
        """
        from repro.host.graph_runtime import GraphSession

        return GraphSession(self, spec, fused=fused, seed=seed)

    def gemv_batch(
        self,
        handle,
        vectors: Optional[np.ndarray] = None,
        *,
        batch: Optional[int] = None,
    ) -> List:
        """A batch of products run back to back (no batch reuse).

        Validates the batch shape exactly like
        :meth:`repro.core.device.NewtonDevice.gemv_batch`: 1-D vectors
        are promoted to a batch of one, anything other than a (k, n)
        array raises :class:`~repro.errors.LayoutError`.
        """
        if vectors is not None:
            vectors = validate_batch_vectors(vectors, self.handle_shape(handle)[1])
            return [self.gemv(handle, vectors[i]) for i in range(vectors.shape[0])]
        if batch is not None:
            if batch <= 0:
                raise ProtocolError("batch must be positive")
            return [self.gemv(handle) for _ in range(batch)]
        raise ProtocolError("provide vectors or a batch size")

    @abstractmethod
    def service_cycles(self, handle) -> float:
        """Deterministic per-request service time for the handle's shape.

        This is what the serving simulator's queueing model consumes
        (one request = one GEMV against the resident matrix).
        """

    # ------------------------------------------------------------------
    # introspection

    @staticmethod
    def handle_shape(handle) -> "tuple[int, int]":
        """The (m, n) shape a handle was loaded with."""
        return handle.m, handle.n

    @abstractmethod
    def collect_metrics(self) -> dict:
        """A ``newton-telemetry/v1``-stamped metrics record."""

    def close(self) -> None:
        """Release backend resources (idempotent; default: nothing)."""

    # ------------------------------------------------------------------
    # two-phase calls

    def start(self, method: str, *args, **kwargs) -> Callable[[], Any]:
        """Begin ``method(*args, **kwargs)``; the returned callable waits
        for its result. The default runs the call at once; a
        :class:`~repro.cluster.process_pool.ProcessWorker` returns once
        the request is sent, so starting every member's request before
        waiting on any runs them in parallel."""
        result = getattr(self, method)(*args, **kwargs)
        return lambda: result
