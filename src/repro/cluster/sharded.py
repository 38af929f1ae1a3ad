"""Multi-device execution: one model, N backends (tensor/data parallel).

Newton's channels are fully independent (Section III-D) — and so are
whole devices, which is exactly the property Oliveira et al.'s
edge-to-cloud PIM study exploits: a model can be *row-sharded* across N
devices (tensor parallelism; each device holds a contiguous row slice,
every device receives the full input vector, the host reduces the
per-device partial outputs in fp32 — the Section III-C host-accumulator
semantics lifted from chunks to devices), or *replicated* across N
devices (data parallelism; each replica holds the whole matrix and
requests fan out round-robin for N-fold serving throughput).

The cluster is itself a :class:`~repro.backends.base.Backend`, so
everything that runs on one backend — the runtime, the serving
simulator, the experiments — runs unchanged on N devices. A 1-device
shard cluster over a ``NewtonBackend`` is bit-identical (outputs and
cycles) to driving the device directly; the differential suite pins it.

Members are any backends: in-process ones, or
:class:`~repro.cluster.process_pool.ProcessWorker` members that each
forward their calls to one spawned interpreter. The cluster starts
every member's request (:meth:`~repro.backends.base.Backend.start`)
before it waits on any reply, so worker members compute in parallel,
while in-process members run one after another exactly as a plain loop
would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.backends.registry import make_backend
from repro.core.device import validate_batch_vectors
from repro.core.layout import partition_rows
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError, LayoutError, ProtocolError
from repro.host.accumulator import HostAccumulator
from repro.telemetry import SCHEMA

SHARD = "shard"
"""Tensor-parallel placement: row-slice the matrix across devices."""

REPLICATE = "replicate"
"""Data-parallel placement: full copy per device, round-robin requests."""

_MODES = (SHARD, REPLICATE)


def check_mode(mode: str) -> None:
    """Raise :class:`ConfigurationError` for an unknown placement mode."""
    if mode not in _MODES:
        raise ConfigurationError(
            f"unknown cluster mode {mode!r}; choose from {_MODES}"
        )


@dataclass
class ClusterHandle:
    """A matrix resident across the cluster's devices."""

    m: int
    n: int
    mode: str
    shards: List[Tuple[int, Tuple[int, int], object]] = field(default_factory=list)
    """(device index, (row_lo, row_hi), device handle) per placement.

    Shard mode: disjoint row slices covering [0, m). Replicate mode: one
    (0, m) placement per device."""


@dataclass
class ClusterRun:
    """One cluster GEMV (satisfies the run-record protocol)."""

    cycles: float
    """Wall clock: devices execute concurrently, so the slowest shard
    (shard mode) or the serving replica (replicate mode)."""
    output: Optional[np.ndarray] = None
    device_runs: List[Tuple[int, object]] = field(default_factory=list)
    """(device index, device run record) per participating device."""


class ShardedCluster(Backend):
    """N backend instances serving one logical matrix."""

    name = "cluster"

    def __init__(self, backends: Sequence[Backend], *, mode: str = SHARD):
        check_mode(mode)
        if not backends:
            raise ConfigurationError("a cluster needs at least one backend")
        self.backends: List[Backend] = list(backends)
        self.mode = mode
        self._next_replica = 0

    @classmethod
    def from_spec(
        cls,
        backend: str,
        devices: int,
        *,
        mode: str = SHARD,
        config: Optional[DRAMConfig] = None,
        timing: Optional[TimingParams] = None,
        **kwargs,
    ) -> "ShardedCluster":
        """Build a homogeneous N-device cluster through the registry."""
        return cls(
            [
                make_backend(backend, config=config, timing=timing, **kwargs)
                for _ in range(devices)
            ],
            mode=mode,
        )

    # ------------------------------------------------------------------
    # Backend context attributes (devices are homogeneous by use)

    @property
    def devices(self) -> int:
        """Number of backend instances in the cluster."""
        return len(self.backends)

    @property
    def config(self) -> DRAMConfig:  # type: ignore[override]
        return self.backends[0].config

    @property
    def timing(self) -> TimingParams:  # type: ignore[override]
        return self.backends[0].timing

    @property
    def functional(self) -> bool:  # type: ignore[override]
        return all(backend.functional for backend in self.backends)

    # ------------------------------------------------------------------
    # fan-out

    def _each(self, requests: Iterable[tuple]) -> list:
        """Start every ``(member index, method, args, kwargs)`` request,
        then wait for each reply in order.

        Every request that started is waited on even after one fails,
        so no reply is left behind in a worker's pipe; the first error
        is raised once all have settled.
        """
        waits = []
        error: Optional[Exception] = None
        try:
            for index, method, args, kwargs in requests:
                waits.append(self.backends[index].start(method, *args, **kwargs))
        except Exception as exc:
            error = exc
        results = []
        for wait in waits:
            try:
                results.append(wait())
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error
        return results

    def _next_replica_placement(self, handle: ClusterHandle):
        """The replica that serves the next request (round-robin)."""
        placement = handle.shards[self._next_replica % len(handle.shards)]
        self._next_replica += 1
        return placement

    @staticmethod
    def _served(index: int, run) -> ClusterRun:
        """One replica's run as the cluster's run."""
        return ClusterRun(float(run.cycles), run.output, [(index, run)])

    def _reduce(self, handle: ClusterHandle, runs: Sequence) -> ClusterRun:
        """Fold one run per shard: the fp32 host reduction of the
        disjoint partial outputs, in shard order, and the slowest shard's
        wall clock (devices run concurrently)."""
        accumulator = HostAccumulator(handle.m) if self.functional else None
        device_runs: List[Tuple[int, object]] = []
        for (index, (lo, hi), _), run in zip(handle.shards, runs):
            device_runs.append((index, run))
            if accumulator is not None and run.output is not None:
                accumulator.add_partials(np.arange(lo, hi), run.output)
        return ClusterRun(
            cycles=float(max(run.cycles for run in runs)),
            output=accumulator.output if accumulator is not None else None,
            device_runs=device_runs,
        )

    # ------------------------------------------------------------------
    # residency

    def load_matrix(
        self,
        matrix: Optional[np.ndarray] = None,
        *,
        m: Optional[int] = None,
        n: Optional[int] = None,
    ) -> ClusterHandle:
        """Place a matrix across the cluster.

        Shard mode reuses :func:`~repro.core.layout.partition_rows` one
        level up from the device's own channel partitioning: device i
        gets a contiguous row slice (devices past the row count get
        none). Replicate mode loads the full matrix into every device.
        """
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=np.float32)
            if matrix.ndim != 2:
                raise LayoutError(
                    f"matrix must be 2-D, got shape {matrix.shape}"
                )
            m, n = matrix.shape
        elif m is None or n is None:
            raise ConfigurationError("provide a matrix, or both m and n")
        assert m is not None and n is not None
        if self.mode == REPLICATE:
            spans = [(0, m)] * self.devices
        else:
            spans = partition_rows(m, self.devices)
        placements = [
            (index, (lo, hi)) for index, (lo, hi) in enumerate(spans) if hi > lo
        ]
        subs = self._each(
            (index, "load_matrix", (matrix[lo:hi],), {})
            if matrix is not None
            else (index, "load_matrix", (), {"m": hi - lo, "n": n})
            for index, (lo, hi) in placements
        )
        return ClusterHandle(
            m=m,
            n=n,
            mode=self.mode,
            shards=[
                (index, span, sub) for (index, span), sub in zip(placements, subs)
            ],
        )

    def store_matrix(self, handle: ClusterHandle, matrix: np.ndarray) -> None:
        """Rewrite a resident matrix in place across the cluster.

        Each shard-mode device stores its row slice; replicate mode
        stores the full matrix on every replica. Placement is untouched
        — the in-place-growth primitive behind session KV-cache arenas,
        lifted to N devices.
        """
        if not handle.shards:
            raise ProtocolError("the cluster handle has no placements")
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.shape != (handle.m, handle.n):
            raise LayoutError(
                f"store shape {matrix.shape} does not match the resident "
                f"matrix ({handle.m}, {handle.n})"
            )
        self._each(
            (index, "store_matrix", (sub, matrix[lo:hi]), {})
            for index, (lo, hi), sub in handle.shards
        )

    # ------------------------------------------------------------------
    # execution

    def gemv(
        self,
        handle: ClusterHandle,
        vector: Optional[np.ndarray] = None,
        *,
        fused_input: bool = False,
    ) -> ClusterRun:
        """One matrix-vector product across the cluster.

        Shard mode: every device runs its row slice against the full
        input vector and the host reduces the partial outputs
        (:meth:`_reduce`). Replicate mode: the next replica
        (round-robin) serves the whole request. ``fused_input`` passes
        straight through to every participating device — shard mode
        broadcasts the same vector, so an input resident on one device
        is resident on all.
        """
        if not handle.shards:
            raise ProtocolError("the cluster handle has no placements")
        if self.mode == REPLICATE:
            index, _, sub = self._next_replica_placement(handle)
            run = self.backends[index].gemv(sub, vector, fused_input=fused_input)
            return self._served(index, run)
        runs = self._each(
            (index, "gemv", (sub, vector), {"fused_input": fused_input})
            for index, _, sub in handle.shards
        )
        return self._reduce(handle, runs)

    def gemv_batch(
        self,
        handle: ClusterHandle,
        vectors: Optional[np.ndarray] = None,
        *,
        batch: Optional[int] = None,
    ) -> List[ClusterRun]:
        """A batch of products, one request per participating device.

        Shard mode sends the whole batch to every shard and reduces each
        input in shard order; replicate mode deals the inputs
        round-robin and sends each replica its share. Each device runs
        its inputs in batch order, so the runs equal one :meth:`gemv`
        per input.
        """
        if vectors is not None:
            vectors = validate_batch_vectors(vectors, handle.n)
            count = vectors.shape[0]
        elif batch is not None:
            if batch <= 0:
                raise ProtocolError("batch must be positive")
            count = batch
        else:
            raise ProtocolError("provide vectors or a batch size")
        if not handle.shards:
            raise ProtocolError("the cluster handle has no placements")
        if self.mode == SHARD:
            replies = self._each(
                (index, "gemv_batch", (sub, vectors), {"batch": batch})
                for index, _, sub in handle.shards
            )
            return [
                self._reduce(handle, [reply[item] for reply in replies])
                for item in range(count)
            ]
        shares: Dict[int, Tuple[object, List[int]]] = {}
        for item in range(count):
            index, _, sub = self._next_replica_placement(handle)
            shares.setdefault(index, (sub, []))[1].append(item)
        replies = self._each(
            (index, "gemv_batch", (sub, vectors[items]), {})
            if vectors is not None
            else (index, "gemv_batch", (sub,), {"batch": len(items)})
            for index, (sub, items) in shares.items()
        )
        runs: List[ClusterRun] = [None] * count  # type: ignore[list-item]
        for (index, (_, items)), reply in zip(shares.items(), replies):
            for item, run in zip(items, reply):
                runs[item] = self._served(index, run)
        return runs

    def service_cycles(self, handle: ClusterHandle) -> float:
        """Deterministic per-request service time.

        Shard mode: the slowest shard (devices run concurrently).
        Replicate mode: one replica's whole-matrix service — replication
        multiplies *servers*, not single-request speed; pass the replica
        count to :class:`~repro.host.serving.ServingSimulator` as
        ``servers`` to model the throughput side.
        """
        if not handle.shards:
            raise ProtocolError("the cluster handle has no placements")
        if self.mode == REPLICATE:
            index, _, sub = handle.shards[0]
            return float(self.backends[index].service_cycles(sub))
        cycles = self._each(
            (index, "service_cycles", (sub,), {}) for index, _, sub in handle.shards
        )
        return float(max(cycles))

    # ------------------------------------------------------------------
    # telemetry

    def collect_metrics(self) -> dict:
        """One ``newton-telemetry/v1`` record, namespaced per device.

        ``devices["device<i>"]`` holds backend *i*'s own export (for
        Newton backends: the per-channel breakdowns whose attribution
        buckets sum exactly to each channel's end cycle).
        """
        records = self._each(
            (index, "collect_metrics", (), {}) for index in range(self.devices)
        )
        return {
            "schema": SCHEMA,
            "kind": "cluster",
            "mode": self.mode,
            "backend": self.backends[0].name,
            "devices": {
                f"device{index}": record for index, record in enumerate(records)
            },
        }

    def close(self) -> None:
        """Close every member (worker members shut down in parallel)."""
        self._each((index, "close", (), {}) for index in range(self.devices))

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
