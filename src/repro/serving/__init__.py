"""The live serving layer: gateway, traffic, and its async kernel.

This package promotes the offline M/D/c study in
:mod:`repro.host.serving` into a running request gateway (ROADMAP item
1): a deterministic virtual-time kernel of callbacks and coroutines
(:mod:`repro.serving.loop`) drives an admission-controlled,
continuously-batched, autoscaled fleet of backend replicas
(:mod:`repro.serving.gateway`) against seeded traffic traces
(:mod:`repro.serving.traffic`). See
``docs/serving-gateway.md`` for the architecture.
"""

from repro.serving.gateway import (
    BackendReplica,
    ClassStats,
    DecodeSessionSpec,
    FixedServiceReplica,
    GatewayConfig,
    GatewayResult,
    SLOClass,
    ServingGateway,
    SessionStats,
    backend_replica_factory,
    decode_sessions,
    default_classes,
)
from repro.serving.loop import (
    SimEvent,
    SimFuture,
    SimQueue,
    SimTask,
    VirtualLoop,
    first_of,
)
from repro.serving.traffic import (
    DEFAULT_CLASS,
    TRACE_KINDS,
    TRACE_SCHEMA,
    Trace,
    TraceRequest,
    TraceSpec,
    bursty_trace,
    diurnal_trace,
    interarrival_for_load,
    make_trace,
    parse_trace_spec,
    poisson_trace,
    resolve_trace_argument,
    trace_from_json,
    trace_to_json,
)

__all__ = [
    "BackendReplica",
    "ClassStats",
    "DEFAULT_CLASS",
    "DecodeSessionSpec",
    "FixedServiceReplica",
    "GatewayConfig",
    "GatewayResult",
    "SLOClass",
    "ServingGateway",
    "SessionStats",
    "SimEvent",
    "SimFuture",
    "SimQueue",
    "SimTask",
    "TRACE_KINDS",
    "TRACE_SCHEMA",
    "Trace",
    "TraceRequest",
    "TraceSpec",
    "VirtualLoop",
    "backend_replica_factory",
    "bursty_trace",
    "decode_sessions",
    "default_classes",
    "diurnal_trace",
    "first_of",
    "interarrival_for_load",
    "make_trace",
    "parse_trace_spec",
    "poisson_trace",
    "resolve_trace_argument",
    "trace_from_json",
    "trace_to_json",
]
