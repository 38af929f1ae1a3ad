"""Which public callables a traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<callable>``; a layer's self time sums the self
time of its spans. The layer names follow the package's modules
(``dram.controller``, ``core.lowering`` for ``segment_stream``, ...).
"""

from __future__ import annotations

from typing import Dict, List

from tracing import Span, Tracer, call_counts, self_times, total_times

SPAN_LAYERS = {
    "dram.controller.issue": "dram.controller.issue_self_s",
    "core.lowering.segment_stream": "core.lowering.self_s",
    "dram.burst.issue_burst": "dram.burst.self_s",
    "dram.fastpath.apply_delta": "dram.fastpath.replay_self_s",
    "dram.fastpath.relative_signature": "dram.fastpath.signature_self_s",
    "dram.fastpath.capture_delta": "dram.fastpath.capture_self_s",
    "dram.refresh.refresh_barrier": "dram.refresh.barrier_self_s",
    "core.engine.run_gemv": "core.engine.self_s",
    "core.device.load_matrix": "core.device.self_s",
    "core.device.store_matrix": "core.device.self_s",
    "core.device.gemv": "core.device.self_s",
    "core.device.gemv_batch": "core.device.self_s",
    "core.datapath.step": "core.datapath.self_s",
    "core.datapath.finish": "core.datapath.self_s",
    "backends.load_matrix": "backends.self_s",
    "backends.store_matrix": "backends.self_s",
    "backends.gemv": "backends.self_s",
    "backends.gemv_batch": "backends.self_s",
    "host.runtime.load_model": "host.runtime.self_s",
    "host.runtime.run": "host.runtime.self_s",
    "host.graph_runtime.open_session": "host.graph_runtime.self_s",
    "host.graph_runtime.step": "host.graph_runtime.self_s",
    "serving.gateway.run": "serving.gateway.self_s",
}
"""Span name -> the per-layer self-time metric it adds to. Spans not
listed (a replica's batch wrapper, the benchmark's own replica builds)
only keep their time out of the enclosing layer's self time."""

SPAN_CALLS = {
    "dram.controller.issue": "dram.controller.issue_calls",
    "core.lowering.segment_stream": "core.lowering.calls",
    "dram.burst.issue_burst": "dram.burst.calls",
    "dram.fastpath.apply_delta": "dram.fastpath.replay_calls",
}

SPAN_TOTALS = {
    "host.runtime.load_model": "host.runtime.load_s",
    "backends.store_matrix": "host.graph_runtime.store_s",
    "host.graph_runtime.open_session": "host.graph_runtime.open_s",
    "serving.replica.batch_cycles": "serving.replica.batch_s",
}
"""Span name -> a metric of its inclusive seconds."""


def instrument(tracer: Tracer) -> None:
    """Patch a span wrapper onto every callable in :data:`SPAN_LAYERS`."""
    from repro.backends.base import Backend
    from repro.backends.newton import NewtonBackend
    from repro.core import engine
    from repro.core.datapath import FunctionalDatapath, default_datapath
    from repro.core.device import NewtonDevice
    from repro.dram import fastpath
    from repro.dram.controller import ChannelController
    from repro.host.graph_runtime import GraphSession
    from repro.host.runtime import NewtonRuntime
    from repro.serving.gateway import BackendReplica, ServingGateway

    from workloads import ServeTrace

    # Only the active datapath tier's entry points: wrapping a base-class
    # method too would nest a second span inside every step.
    tier = next(
        cls for cls in FunctionalDatapath.__subclasses__() if cls.name == default_datapath()
    )
    targets = [
        (ChannelController, "issue", "dram.controller.issue"),
        (engine, "segment_stream", "core.lowering.segment_stream"),
        (ChannelController, "issue_burst", "dram.burst.issue_burst"),
        (fastpath, "apply_delta", "dram.fastpath.apply_delta"),
        (fastpath, "relative_signature", "dram.fastpath.relative_signature"),
        (fastpath, "capture_delta", "dram.fastpath.capture_delta"),
        (ChannelController, "refresh_barrier", "dram.refresh.refresh_barrier"),
        (engine.NewtonChannelEngine, "run_gemv", "core.engine.run_gemv"),
        (tier, "step", "core.datapath.step"),
        (tier, "finish", "core.datapath.finish"),
        (Backend, "open_session", "host.graph_runtime.open_session"),
        (GraphSession, "step", "host.graph_runtime.step"),
        (NewtonRuntime, "load_model", "host.runtime.load_model"),
        (NewtonRuntime, "run", "host.runtime.run"),
        (ServingGateway, "run", "serving.gateway.run"),
        (BackendReplica, "batch_cycles", "serving.replica.batch_cycles"),
        (ServeTrace, "build_replica", "bench.build_replica"),
    ]
    for method in ("load_matrix", "store_matrix", "gemv", "gemv_batch"):
        targets.append((NewtonDevice, method, f"core.device.{method}"))
        targets.append((NewtonBackend, method, f"backends.{method}"))
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)


def host_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self seconds, call counts and inclusive seconds."""
    metrics: Dict[str, float] = {name: 0.0 for name in SPAN_LAYERS.values()}
    metrics.update({name: 0 for name in SPAN_CALLS.values()})
    metrics.update({name: 0.0 for name in SPAN_TOTALS.values()})
    for span_name, seconds in self_times(spans).items():
        if span_name in SPAN_LAYERS:
            metrics[SPAN_LAYERS[span_name]] += seconds
    for span_name, count in call_counts(spans).items():
        if span_name in SPAN_CALLS:
            metrics[SPAN_CALLS[span_name]] = count
    for span_name, seconds in total_times(spans).items():
        if span_name in SPAN_TOTALS:
            metrics[SPAN_TOTALS[span_name]] = seconds
    return metrics
