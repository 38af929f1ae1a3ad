"""``repro.cluster`` — sharded / replicated multi-device execution.

Compose N :class:`~repro.backends.base.Backend` instances into one
logical device::

    from repro.cluster import make_cluster

    cluster = make_cluster("newton", devices=4, functional=True)
    handle = cluster.load_matrix(matrix)          # row-sharded 4 ways
    run = cluster.gemv(handle, vector)            # fp32 host reduction

One cluster, two kinds of member: :class:`ShardedCluster` composes any
backends and owns every cluster rule (placement, fp32 reduction,
replica round-robin, service time, telemetry); in-process members run
one after another. :class:`ProcessShardedCluster` is a
``ShardedCluster`` whose members each forward to one spawned worker
process (``workers="process"``), for real N× wall clock on functional
workloads. Outputs and cycles are bit-identical.

See :mod:`repro.cluster.sharded` for the placement-mode semantics and
:mod:`repro.cluster.process_pool` for the worker protocol.
"""

from typing import Optional

from repro.cluster.process_pool import ProcessShardedCluster
from repro.cluster.sharded import (
    REPLICATE,
    SHARD,
    ClusterHandle,
    ClusterRun,
    ShardedCluster,
)
from repro.cluster.shm import SharedNDArray, ShmSpec
from repro.errors import ConfigurationError

WORKER_MODES = ("inline", "process")
"""Recognized cluster execution styles for :func:`make_cluster`."""


def make_cluster(
    backend: str = "newton",
    devices: int = 1,
    *,
    mode: str = SHARD,
    workers: Optional[str] = None,
    seed: int = 0,
    **kwargs,
):
    """Build a homogeneous N-device cluster.

    ``workers="inline"`` (the default) composes backends in-process
    (:meth:`ShardedCluster.from_spec`); ``workers="process"`` gives every
    member its own worker process (:class:`ProcessShardedCluster`). Both
    accept the same backend keyword arguments and are bit-identical in
    output.
    """
    resolved = (workers or "inline").strip().lower()
    if resolved not in WORKER_MODES:
        raise ConfigurationError(
            f"unknown cluster workers style {workers!r}; choose from "
            f"{WORKER_MODES}"
        )
    if resolved == "process":
        return ProcessShardedCluster(
            devices, mode=mode, backend=backend, seed=seed, **kwargs
        )
    return ShardedCluster.from_spec(backend, devices, mode=mode, **kwargs)


__all__ = [
    "SHARD",
    "REPLICATE",
    "WORKER_MODES",
    "ClusterHandle",
    "ClusterRun",
    "ProcessShardedCluster",
    "ShardedCluster",
    "SharedNDArray",
    "ShmSpec",
    "make_cluster",
]
