"""The async serving gateway: admission, continuous batching, autoscaling.

This is ROADMAP item 1 made concrete — the offline M/D/c study in
:mod:`repro.host.serving` promoted to a *live* serving layer in front of
the execution stack. The gateway fronts anything that satisfies the
:class:`~repro.backends.base.Backend` protocol — a single backend, an
in-process :class:`~repro.cluster.ShardedCluster`, or a multiprocess
:class:`~repro.cluster.ProcessShardedCluster` — and serves a seeded
traffic trace (:mod:`repro.serving.traffic`) in deterministic virtual
cycle time (:mod:`repro.serving.loop`):

* **admission control** — a bounded waiting queue with priority
  classes: when the queue is full, a higher-priority arrival evicts the
  newest lowest-priority waiter; otherwise the arrival itself is shed
  (counted per class, never silently dropped);
* **continuous batching** — concurrently-waiting GEMVs merge into one
  ``gemv_batch`` dispatch, triggered by *size* (``max_batch`` waiters)
  or *deadline* (the oldest waiter has aged ``window_cycles``); batch
  inputs go through the backend's own ``validate_batch_vectors`` path.
  With ``window_cycles=0, max_batch=1`` the gateway degenerates to the
  offline simulator's M/D/c discipline exactly (pinned by tests);
* **SLO-aware autoscaling** — a windowed p99 over recent completions
  scales the replica fleet out when it exceeds the strictest class
  budget and back in after sustained idleness, between
  ``min_replicas`` and ``max_replicas`` (retired replicas park warm
  and reactivate without re-simulating residency).

The run is driven by callbacks where it can be. Each arrival source (the
trace, the decode sessions) is a chain of arrival-timer callbacks, and
each batch's service is a ready callback that calls the replica's
``batch_cycles`` and sets a completion-timer callback; only the batcher
and the autoscaler, which wait in several places, are coroutines. Every
timer draws its ``(when, seq)`` key at a fixed point of the run, so the
event order, and with it every result and each replica's sequence of
batch sizes, follows from the trace and the configuration alone
(``tests/serving/test_gateway_recorded.py`` replays recorded results).
The callbacks are bound methods that keep their position on the gateway,
not closures that reschedule themselves, so nothing a finished run
leaves on the loop refers back to the gateway: a dropped gateway frees
its replicas by reference counting alone.

Results export through the ``newton-telemetry/v1`` schema: per-class
p50/p99, goodput, shed rate, the batch-size histogram, and the replica
timeline. The orchestrator/statistics split mirrors the multi-source
coordinator + web app separation the related job-search repo uses: the
gateway orchestrates; :class:`GatewayResult` owns measurement and
rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServingError
from repro.serving.loop import (
    SimEvent,
    SimFuture,
    SimQueue,
    VirtualLoop,
    first_of,
)
from repro.serving.traffic import Trace
from repro.telemetry import MetricsRegistry
from repro.utils.tables import render_table

from collections import deque


# ----------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class SLOClass:
    """One request class: a priority and a p99 latency budget (cycles).

    Higher ``priority`` wins admission fights; ``p99_budget`` defines
    both the class's goodput criterion and (for the strictest class)
    the autoscaler's scale-out trigger.
    """

    name: str
    priority: int = 1
    p99_budget: float = float("inf")


def default_classes(
    service_cycles: float, slo_multiple: float = 5.0
) -> Tuple[SLOClass, ...]:
    """The CLI's two-class default: latency-critical ``interactive``
    (budget ``slo_multiple`` x service) and throughput-oriented ``bulk``
    (4x looser, lower priority)."""
    return (
        SLOClass("interactive", priority=2, p99_budget=slo_multiple * service_cycles),
        SLOClass("bulk", priority=1, p99_budget=4 * slo_multiple * service_cycles),
    )


@dataclass(frozen=True)
class DecodeSessionSpec:
    """One multi-step decode session offered to the gateway.

    A session is a chain of ``steps`` dependent requests: step *t+1*
    enters the waiting queue only when step *t* completes (the KV-cache
    makes decode steps strictly serial), each step individually subject
    to its class's per-step p99 budget. Sessions ride the same
    admission, batching, and autoscaling machinery as one-shot requests
    — a decode step batches with whatever else is waiting.
    """

    arrival: float
    """Virtual cycle the session's first step arrives."""
    steps: int
    """Tokens to decode (requests the session contributes)."""
    cls: str = "decode"
    """SLO class every step is accounted under."""

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ServingError("session arrival must be non-negative")
        if self.steps < 1:
            raise ServingError("a decode session needs at least one step")


def decode_sessions(
    count: int, steps: int, interarrival: float, *, cls: str = "decode"
) -> Tuple[DecodeSessionSpec, ...]:
    """``count`` equally spaced sessions of ``steps`` tokens each."""
    if count < 1:
        raise ServingError("need at least one session")
    if interarrival < 0:
        raise ServingError("interarrival must be non-negative")
    return tuple(
        DecodeSessionSpec(arrival=i * interarrival, steps=steps, cls=cls)
        for i in range(count)
    )


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway policy knobs (all times in DRAM cycles)."""

    window_cycles: float = 0.0
    """Max age of the oldest waiter before a batch dispatches anyway
    (the deadline trigger; finite). 0 dispatches as soon as a replica
    frees."""
    max_batch: int = 1
    """Size trigger: dispatch as soon as this many requests wait."""
    queue_depth: int = 512
    """Bound on waiting requests; beyond it, admission sheds."""
    min_replicas: int = 1
    max_replicas: Optional[int] = None
    """Autoscale ceiling; ``None`` pins the fleet at ``min_replicas``."""
    classes: Tuple[SLOClass, ...] = (SLOClass("interactive"),)
    autoscale_interval: Optional[float] = None
    """Cycles between autoscale decisions (finite, > 0; default: 10x
    service). An autoscaled fleet whose replicas report no
    ``service_cycles`` must set this and ``autoscale_window``."""
    autoscale_window: Optional[float] = None
    """Sliding window the scaling p99 is computed over (finite, > 0;
    default: 50x service)."""
    min_autoscale_samples: int = 20
    """Completions required in the window before p99 is trusted."""
    scale_in_idle_intervals: int = 3
    """Consecutive idle decisions before one replica is retired."""

    def __post_init__(self) -> None:
        # A NaN or infinite window would slip past a plain `< 0` check
        # and corrupt batching or drive the clock to infinity; a zero or
        # negative autoscale interval would pin the clock (its timer is
        # always the earliest) and hang the run.
        if not (math.isfinite(self.window_cycles) and self.window_cycles >= 0):
            raise ServingError("window_cycles must be finite and non-negative")
        for name in ("autoscale_interval", "autoscale_window"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ServingError(f"{name} must be finite and positive")
        if self.max_batch < 1:
            raise ServingError("max_batch must be at least 1")
        if self.queue_depth < 1:
            raise ServingError("queue_depth must be at least 1")
        if self.min_replicas < 1:
            raise ServingError("min_replicas must be at least 1")
        if self.max_replicas is not None and self.max_replicas < self.min_replicas:
            raise ServingError("max_replicas must be >= min_replicas")
        if not self.classes:
            raise ServingError("at least one SLO class is required")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate SLO class names in {names}")
        if self.scale_in_idle_intervals < 1:
            raise ServingError("scale_in_idle_intervals must be at least 1")

    @property
    def replica_ceiling(self) -> int:
        return self.max_replicas if self.max_replicas is not None else self.min_replicas

    @property
    def scale_budget(self) -> float:
        """The strictest class budget (the scale-out trigger)."""
        return min(cls.p99_budget for cls in self.classes)


# ----------------------------------------------------------------------
# replicas

class BackendReplica:
    """One serving replica: a Backend (or cluster) plus its resident
    matrix handle.

    ``batch_cycles(k)`` is the wall-clock occupancy of one continuous
    batch: the backend runs the k GEMVs back to back (``gemv_batch``),
    so occupancy is the *sum* of the per-run cycles — Newton has no
    batch-compute reuse to model (that is the paper's point); batching
    amortizes queueing windows and host round-trips, not MACs. In
    functional mode the batch goes through the backend's stacked-vector
    path, exercising its ``validate_batch_vectors`` contract.
    """

    def __init__(self, backend, handle, *, seed: int = 0):
        self.backend = backend
        self.handle = handle
        self.index = -1  # assigned by the gateway
        self.active = True
        self.service_cycles = float(backend.service_cycles(handle))
        self._rng = np.random.default_rng(seed)

    def batch_cycles(self, batch_size: int) -> float:
        if getattr(self.backend, "functional", False):
            n = self.backend.handle_shape(self.handle)[1]
            vectors = self._rng.standard_normal((batch_size, n)).astype(
                np.float32
            )
            runs = self.backend.gemv_batch(self.handle, vectors)
        else:
            runs = self.backend.gemv_batch(self.handle, batch=batch_size)
        return float(sum(run.cycles for run in runs))

    def close(self) -> None:
        self.backend.close()


class FixedServiceReplica:
    """A replica with a hand-fed deterministic service time.

    The queueing-study stand-in: experiments that already measured a
    layer's cycles (e.g. through
    :func:`repro.experiments.common.newton_layer_cycles`) can drive the
    gateway without re-simulating the device per request. Batches are
    served back to back, matching :class:`BackendReplica`.
    """

    def __init__(self, service_cycles: float):
        # `<= 0` alone would let NaN through, and the loop clamps a NaN
        # delay to zero: every batch would finish instantly.
        if not (math.isfinite(service_cycles) and service_cycles > 0):
            raise ServingError("service time must be finite and positive")
        self.service_cycles = float(service_cycles)
        self.index = -1
        self.active = True

    def batch_cycles(self, batch_size: int) -> float:
        return self.service_cycles * batch_size

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


def backend_replica_factory(
    backend: str = "analytical",
    *,
    devices: int = 1,
    workers: str = "inline",
    m: int,
    n: int,
    matrix: Optional[np.ndarray] = None,
    seed: int = 0,
    **backend_kwargs,
) -> Callable[[], BackendReplica]:
    """A factory producing independent replicas through the registry.

    Each call builds a fresh backend (``devices > 1`` composes a
    cluster via :func:`repro.cluster.make_cluster`, honoring
    ``workers="process"``) and makes the matrix resident, so every
    replica owns its device state — exactly what the autoscaler spawns
    on scale-out.
    """
    from repro.backends import make_backend
    from repro.cluster import make_cluster

    counter = {"built": 0}

    def build() -> BackendReplica:
        if devices == 1:
            engine = make_backend(backend, **backend_kwargs)
        else:
            engine = make_cluster(
                backend, devices, workers=workers, **backend_kwargs
            )
        handle = (
            engine.load_matrix(matrix)
            if matrix is not None
            else engine.load_matrix(m=m, n=n)
        )
        replica = BackendReplica(
            engine, handle, seed=seed + counter["built"]
        )
        counter["built"] += 1
        return replica

    return build


# ----------------------------------------------------------------------
# results

@dataclass(frozen=True)
class ClassStats:
    """Per-SLO-class latency and shedding statistics."""

    name: str
    priority: int
    p99_budget: float
    requests: int
    shed: int
    completed: int
    slo_met: int
    p50: float
    p95: float
    p99: float
    mean: float

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class SessionStats:
    """Decode-session aggregates: per-step latency tail and makespans."""

    offered: int
    completed: int
    aborted: int
    steps_completed: int
    step_p50: float
    step_p99: float
    mean_makespan: float
    """Mean first-arrival-to-last-completion span of completed sessions."""


@dataclass(frozen=True)
class GatewayResult:
    """One gateway run's measurements (the statistics half of the
    orchestrator/stats split)."""

    trace_kind: str
    trace_seed: int
    requests: int
    admitted: int
    shed: int
    completed: int
    batches: int
    makespan: float
    p50: float
    p95: float
    p99: float
    mean: float
    mean_batch: float
    max_batch_served: int
    per_class: Dict[str, ClassStats]
    batch_histogram: Dict[int, int]
    replica_timeline: Tuple[Tuple[float, int], ...]
    replicas_final: int
    replicas_max: int
    service_cycles: float
    sessions: Optional[SessionStats] = None
    """Decode-session aggregates (``None`` when none were offered)."""

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def slo_met(self) -> int:
        return sum(stats.slo_met for stats in self.per_class.values())

    @property
    def goodput_fraction(self) -> float:
        """SLO-meeting completions over *offered* requests (shed and
        SLO-missing completions both count against it)."""
        return self.slo_met / self.requests if self.requests else 0.0

    @property
    def goodput_per_mcycle(self) -> float:
        """SLO-meeting completions per million cycles of makespan."""
        return 1e6 * self.slo_met / self.makespan if self.makespan else 0.0

    def publish(self, registry: MetricsRegistry, prefix: str = "gateway") -> None:
        """Export through the ``newton-telemetry/v1`` registry schema."""
        registry.counter(f"{prefix}.requests").inc(self.requests)
        registry.counter(f"{prefix}.admitted").inc(self.admitted)
        registry.counter(f"{prefix}.shed").inc(self.shed)
        registry.counter(f"{prefix}.completed").inc(self.completed)
        registry.counter(f"{prefix}.batches").inc(self.batches)
        for gauge in ("p50", "p95", "p99", "mean"):
            registry.gauge(f"{prefix}.{gauge}").set(getattr(self, gauge))
        registry.gauge(f"{prefix}.shed_rate").set(self.shed_rate)
        registry.gauge(f"{prefix}.goodput_fraction").set(self.goodput_fraction)
        registry.gauge(f"{prefix}.goodput_per_mcycle").set(
            self.goodput_per_mcycle
        )
        registry.gauge(f"{prefix}.mean_batch").set(self.mean_batch)
        registry.gauge(f"{prefix}.max_batch_served").set(self.max_batch_served)
        registry.gauge(f"{prefix}.makespan_cycles").set(self.makespan)
        registry.gauge(f"{prefix}.replicas_final").set(self.replicas_final)
        registry.gauge(f"{prefix}.replicas_max").set(self.replicas_max)
        for stats in self.per_class.values():
            base = f"{prefix}.class.{stats.name}"
            registry.counter(f"{base}.requests").inc(stats.requests)
            registry.counter(f"{base}.shed").inc(stats.shed)
            registry.counter(f"{base}.slo_met").inc(stats.slo_met)
            registry.gauge(f"{base}.p50").set(stats.p50)
            registry.gauge(f"{base}.p99").set(stats.p99)
        if self.sessions is not None:
            base = f"{prefix}.sessions"
            registry.counter(f"{base}.offered").inc(self.sessions.offered)
            registry.counter(f"{base}.completed").inc(self.sessions.completed)
            registry.counter(f"{base}.aborted").inc(self.sessions.aborted)
            registry.counter(f"{base}.steps_completed").inc(
                self.sessions.steps_completed
            )
            registry.gauge(f"{base}.step_p50").set(self.sessions.step_p50)
            registry.gauge(f"{base}.step_p99").set(self.sessions.step_p99)
            registry.gauge(f"{base}.mean_makespan").set(
                self.sessions.mean_makespan
            )
        registry.section(
            prefix,
            {
                "trace": {
                    "kind": self.trace_kind,
                    "seed": self.trace_seed,
                    "requests": self.requests,
                },
                "service_cycles": self.service_cycles,
                "batch_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_histogram.items())
                },
                "replica_timeline": [
                    [time, count] for time, count in self.replica_timeline
                ],
            },
        )

    def render(self) -> str:
        """The run as a per-class table plus a fleet summary."""
        rows = []
        for stats in sorted(
            self.per_class.values(), key=lambda s: -s.priority
        ):
            budget = (
                f"{stats.p99_budget:,.0f}"
                if stats.p99_budget != float("inf")
                else "-"
            )
            rows.append(
                (
                    stats.name,
                    f"{stats.requests}",
                    f"{stats.shed}",
                    f"{stats.p50:,.0f}",
                    f"{stats.p99:,.0f}",
                    budget,
                    f"{stats.slo_met}/{stats.completed}",
                )
            )
        body = render_table(
            ["class", "requests", "shed", "p50 (cyc)", "p99 (cyc)", "budget", "SLO met"],
            rows,
            title=(
                f"Serving gateway: {self.trace_kind} trace, "
                f"{self.requests} requests"
            ),
        )
        footer = (
            f"\ngoodput {self.goodput_fraction:.3f} of offered "
            f"({self.goodput_per_mcycle:.2f}/Mcycle), shed rate "
            f"{self.shed_rate:.3f}, {self.batches} batches "
            f"(mean {self.mean_batch:.2f}, max {self.max_batch_served}), "
            f"replicas {self.replica_timeline[0][1]}->"
            f"{self.replicas_max} peak ->{self.replicas_final} final, "
            f"makespan {self.makespan:,.0f} cycles"
        )
        if self.sessions is not None:
            s = self.sessions
            footer += (
                f"\ndecode sessions: {s.completed}/{s.offered} completed"
                f" ({s.aborted} aborted), {s.steps_completed} steps, "
                f"per-step p50 {s.step_p50:,.0f} / p99 {s.step_p99:,.0f} "
                f"cycles, mean session makespan {s.mean_makespan:,.0f}"
            )
        return body + footer


# ----------------------------------------------------------------------
# the gateway

class _Pending:
    """One admitted request waiting for a batch slot."""

    __slots__ = ("cls", "arrival", "admitted", "session")

    def __init__(
        self,
        cls: SLOClass,
        arrival: float,
        admitted: float,
        session: "Optional[_SessionState]" = None,
    ):
        self.cls = cls
        self.arrival = arrival
        self.admitted = admitted
        self.session = session


class _SessionState:
    """A live decode session: remaining steps and per-step latencies."""

    __slots__ = (
        "spec",
        "cls",
        "arrival",
        "steps_done",
        "step_latencies",
        "completion",
        "aborted",
    )

    def __init__(self, spec: DecodeSessionSpec, cls: SLOClass, arrival: float):
        self.spec = spec
        self.cls = cls
        self.arrival = arrival
        self.steps_done = 0
        self.step_latencies: List[float] = []
        self.completion: Optional[float] = None
        self.aborted = False


class ServingGateway:
    """Serve one traffic trace through a replica fleet, in virtual time.

    ``replica_factory`` builds one replica per call (see
    :func:`backend_replica_factory` and :class:`FixedServiceReplica`);
    the gateway owns replica lifecycle, including autoscaling. A
    :class:`~repro.telemetry.MetricsRegistry` passed as ``metrics``
    receives the full ``newton-telemetry/v1`` export after the run.
    """

    def __init__(
        self,
        replica_factory: Callable[[], object],
        config: GatewayConfig,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.factory = replica_factory
        self.config = config
        self.metrics = metrics
        self._classes = {cls.name: cls for cls in config.classes}
        # priority-descending pop order; FIFO within a class
        self._class_order = sorted(
            config.classes, key=lambda cls: -cls.priority
        )
        self._replicas: List[object] = []
        self._parked: List[object] = []

    # -- state reset per run -------------------------------------------

    def _reset(
        self,
        loop: VirtualLoop,
        trace: Trace,
        sessions: Tuple[DecodeSessionSpec, ...],
    ) -> None:
        self._loop = loop
        self._waiting: Dict[str, Deque[_Pending]] = {
            cls.name: deque() for cls in self.config.classes
        }
        self._waiting_total = 0
        self._arrival_event = SimEvent(loop)
        self._stop_event = SimEvent(loop)
        self._free = SimQueue(loop)
        self._replicas: List[object] = []
        self._parked: List[object] = []
        self._active_count = 0
        self._next_replica_index = 0
        self._requests = trace.requests
        self._next_request = 0
        self._session_specs = sorted(sessions, key=lambda spec: spec.arrival)
        self._next_session = 0
        self._source_done = False
        self._sources_open = 1 + (1 if sessions else 0)
        self._sessions: List[_SessionState] = []
        self._open_sessions = 0
        self._in_flight = 0
        self._all_served: Optional[SimFuture] = None
        self._recent: Deque[Tuple[float, float]] = deque()
        self._completions: List[Tuple[str, float, float, float, int]] = []
        self._batch_histogram: Dict[int, int] = {}
        self._timeline: List[Tuple[float, int]] = []
        self._counts = {"requests": 0, "admitted": 0, "shed": 0}
        self._class_counts: Dict[str, Dict[str, int]] = {
            cls.name: {"requests": 0, "shed": 0} for cls in self.config.classes
        }
        self._service_estimate = 0.0

    # -- replica lifecycle ---------------------------------------------

    def _spawn_replica(self) -> None:
        """Activate one replica (warm-parked first, else the factory)."""
        if self._parked:
            replica = self._parked.pop()
        else:
            replica = self.factory()
            replica.index = self._next_replica_index
            self._next_replica_index += 1
        replica.active = True
        self._replicas.append(replica)
        self._active_count += 1
        self._free.put_nowait(replica)
        self._record_timeline()

    def _retire_replica(self) -> None:
        """Deactivate one replica (immediately if idle, else lazily when
        its in-flight batch completes); it parks warm for re-scale-out."""
        idle = self._free.get_nowait()
        if idle is not None:
            idle.active = False
            self._replicas.remove(idle)
            self._parked.append(idle)
        else:
            for replica in self._replicas:
                if replica.active:
                    replica.active = False
                    break
            else:  # pragma: no cover - retire below min is never requested
                return
        self._active_count -= 1
        self._record_timeline()

    def _record_timeline(self) -> None:
        """Append the fleet size (coalescing same-cycle changes, e.g.
        the initial spawns all at cycle zero)."""
        entry = (self._loop.now, self._active_count)
        if self._timeline and self._timeline[-1][0] == entry[0]:
            self._timeline[-1] = entry
        else:
            self._timeline.append(entry)

    # -- arrival sources (timer callbacks) -----------------------------

    def _arrive(self, _=None) -> None:
        """The trace source: admit every request due by now, then set a
        timer for the next one. A bound method that keeps its position
        on the gateway, not a closure that reschedules itself: such a
        closure refers to itself, and that cycle would keep the gateway
        and its replicas alive until a garbage collection."""
        requests = self._requests
        now = self._loop.now
        while self._next_request < len(requests):
            request = requests[self._next_request]
            if request.arrival > now:
                self._loop.call_at(request.arrival, self._arrive)
                return
            self._next_request += 1
            self._admit(request.cls)
        self._source_end()

    def _open_due_sessions(self, _=None) -> None:
        """The session source: open each decode session at its arrival
        (first step only — later steps are re-admitted by
        :meth:`_complete`), like :meth:`_arrive`."""
        specs = self._session_specs
        now = self._loop.now
        while self._next_session < len(specs):
            spec = specs[self._next_session]
            if spec.arrival > now:
                self._loop.call_at(spec.arrival, self._open_due_sessions)
                return
            self._next_session += 1
            state = _SessionState(spec, self._resolve_class(spec.cls), now)
            self._sessions.append(state)
            self._open_sessions += 1
            self._admit_step(state)
        self._source_end()

    def _source_end(self) -> None:
        self._sources_open -= 1
        if self._sources_open <= 0:
            self._source_done = True
        self._arrival_event.set()

    @property
    def _drained(self) -> bool:
        """No future arrivals possible: every arrival source finished
        and no session can re-admit a continuation step."""
        return self._source_done and self._open_sessions == 0

    def _resolve_class(self, cls_name: str) -> SLOClass:
        cls = self._classes.get(cls_name)
        if cls is None:
            raise ServingError(
                f"trace request class {cls_name!r} has no SLO class; "
                f"configured: {sorted(self._classes)}"
            )
        return cls

    def _admit(self, cls_name: str) -> None:
        cls = self._resolve_class(cls_name)
        now = self._loop.now
        self._enqueue(_Pending(cls, now, now))

    def _admit_step(self, session: _SessionState) -> None:
        """Admit a session's next step (its first, or a continuation
        entering as the previous step completes)."""
        now = self._loop.now
        self._enqueue(_Pending(session.cls, now, now, session=session))

    def _enqueue(self, pending: _Pending) -> None:
        cls = pending.cls
        self._counts["requests"] += 1
        self._class_counts[cls.name]["requests"] += 1
        if self._waiting_total >= self.config.queue_depth:
            victim_cls = self._shed_victim(cls)
            if victim_cls is None:
                self._counts["shed"] += 1
                self._class_counts[cls.name]["shed"] += 1
                if pending.session is not None:
                    # A dropped continuation orphans its KV-cache: the
                    # whole session aborts rather than stalling forever.
                    self._abort_session(pending.session)
                return
            victim = self._waiting[victim_cls.name].pop()  # newest of class
            self._waiting_total -= 1
            self._counts["shed"] += 1
            self._class_counts[victim_cls.name]["shed"] += 1
            if victim.session is not None:
                self._abort_session(victim.session)
        self._waiting[cls.name].append(pending)
        self._waiting_total += 1
        self._counts["admitted"] += 1
        self._arrival_event.set()

    def _abort_session(self, session: _SessionState) -> None:
        session.aborted = True
        self._close_session(session)

    def _close_session(self, session: _SessionState) -> None:
        self._open_sessions -= 1
        # The batcher may be blocked waiting for this session's next
        # step; wake it so the drain condition is re-checked.
        self._arrival_event.set()

    def _shed_victim(self, incoming: SLOClass) -> Optional[SLOClass]:
        """The class whose newest waiter yields to ``incoming`` (the
        lowest-priority non-empty class strictly below it), or ``None``
        when the incoming request itself must shed."""
        for cls in reversed(self._class_order):
            if cls.priority >= incoming.priority:
                break
            if self._waiting[cls.name]:
                return cls
        return None

    def _oldest_admitted(self) -> float:
        return min(
            queue[0].admitted
            for queue in self._waiting.values()
            if queue
        )

    def _pop_batch(self) -> List[_Pending]:
        batch: List[_Pending] = []
        for cls in self._class_order:
            queue = self._waiting[cls.name]
            while queue and len(batch) < self.config.max_batch:
                batch.append(queue.popleft())
                self._waiting_total -= 1
        return batch

    # -- the batcher and the autoscaler (coroutines) ---------------------

    async def _batcher(self) -> None:
        loop = self._loop
        config = self.config
        while True:
            if self._waiting_total == 0:
                if self._drained:
                    return
                self._arrival_event.clear()
                # Re-check after the clear: a continuation or session
                # close between the check and the clear must not strand
                # the batcher on an already-consumed event.
                if self._drained:
                    return
                await self._arrival_event.wait_future()
                continue
            # Deadline trigger: the batch closes when the oldest waiter
            # has aged window_cycles (or instantly for a zero window).
            while (
                self._waiting_total < config.max_batch
                and not self._drained
            ):
                deadline = self._oldest_admitted() + config.window_cycles
                if config.window_cycles <= 0 or loop.now >= deadline:
                    break
                self._arrival_event.clear()
                fired, _ = await first_of(self._arrival_event, deadline)
                if fired == 1:
                    break  # deadline: dispatch what we have
            batch = self._pop_batch()
            replica = await self._free.get()
            self._in_flight += 1
            loop.call_soon(self._serve, (replica, batch))

    # -- batch service (ready and timer callbacks) ----------------------

    def _serve(self, job: Tuple[object, List[_Pending]]) -> None:
        """Start a batch: its replica's cycles time the completion."""
        replica, batch = job
        loop = self._loop
        cycles = replica.batch_cycles(len(batch))
        loop.call_later(cycles, self._complete, (replica, batch, loop.now))

    def _complete(self, job: Tuple[object, List[_Pending], float]) -> None:
        """Finish a batch: record it, admit decode continuations, and
        free (or park) its replica."""
        replica, batch, start = job
        completion = self._loop.now
        size = len(batch)
        self._batch_histogram[size] = self._batch_histogram.get(size, 0) + 1
        for pending in batch:
            latency = completion - pending.arrival
            self._completions.append(
                (pending.cls.name, pending.arrival, start, completion, size)
            )
            self._recent.append((completion, latency))
            session = pending.session
            if session is not None and not session.aborted:
                session.step_latencies.append(latency)
                session.steps_done += 1
                if session.steps_done >= session.spec.steps:
                    session.completion = completion
                    self._close_session(session)
                else:
                    # The decode dependency chain: the next token's
                    # request exists only now that this one finished.
                    self._admit_step(session)
        if replica.active:
            self._free.put_nowait(replica)
        else:
            self._parked.append(replica)
        self._in_flight -= 1
        if not self._in_flight and self._all_served is not None:
            self._all_served.resolve()

    async def _autoscaler(self) -> None:
        loop = self._loop
        config = self.config
        interval = self._autoscale_interval
        window = self._autoscale_window
        idle_intervals = 0
        while True:
            fired, _ = await first_of(self._stop_event, loop.now + interval)
            if fired == 0:
                return
            horizon = loop.now - window
            while self._recent and self._recent[0][0] < horizon:
                self._recent.popleft()
            p99 = (
                float(np.percentile([lat for _, lat in self._recent], 99))
                if self._recent
                else 0.0
            )
            if (
                len(self._recent) >= config.min_autoscale_samples
                and self._active_count < config.replica_ceiling
                and p99 > config.scale_budget
            ):
                self._spawn_replica()
                idle_intervals = 0
                continue
            # Idle: no backlog, at least one replica sitting free, and
            # the windowed tail comfortably inside budget (half of it).
            idle = (
                self._waiting_total == 0
                and len(self._free) > 0
                and p99 <= 0.5 * config.scale_budget
            )
            if idle:
                idle_intervals += 1
                if (
                    idle_intervals >= config.scale_in_idle_intervals
                    and self._active_count > config.min_replicas
                ):
                    self._retire_replica()
                    idle_intervals = 0
            else:
                idle_intervals = 0

    async def _main(self) -> None:
        loop = self._loop
        for _ in range(self.config.min_replicas):
            self._spawn_replica()
        self._service_estimate = max(
            getattr(replica, "service_cycles", 0.0)
            for replica in self._replicas
        )
        self._autoscale_interval = (
            self.config.autoscale_interval
            if self.config.autoscale_interval is not None
            else 10.0 * self._service_estimate
        )
        self._autoscale_window = (
            self.config.autoscale_window
            if self.config.autoscale_window is not None
            else 50.0 * self._service_estimate
        )
        if self.config.replica_ceiling > self.config.min_replicas and not all(
            math.isfinite(value) and value > 0
            for value in (self._autoscale_interval, self._autoscale_window)
        ):
            # Derived from replicas that report no service time: a zero
            # interval would pin the clock and the run would never end.
            raise ServingError(
                "autoscaling needs a finite, positive autoscale_interval "
                "and autoscale_window; configure them when the replicas "
                "report no service_cycles"
            )
        loop.call_soon(self._arrive)
        if self._session_specs:
            loop.call_soon(self._open_due_sessions)
        batcher = loop.create_task(self._batcher(), name="batcher")
        autoscaler = None
        if self.config.replica_ceiling > self.config.min_replicas:
            autoscaler = loop.create_task(self._autoscaler(), name="autoscaler")
        # The batcher returns once every source has ended and the queue
        # is empty; then only the batches in flight are left.
        await batcher.future
        if self._in_flight:
            self._all_served = SimFuture(loop)
            await self._all_served
        self._stop_event.set()
        if autoscaler is not None:
            await autoscaler.future

    # -- entry point ----------------------------------------------------

    def run(
        self,
        trace: Trace,
        sessions: Tuple[DecodeSessionSpec, ...] = (),
    ) -> GatewayResult:
        """Serve the whole trace (plus any decode sessions); returns the
        measured statistics.

        Deterministic: the same trace (hence seed), sessions, and
        configuration produce the identical result on every run.
        """
        if not trace.requests and not sessions:
            raise ServingError("cannot serve an empty trace")
        loop = VirtualLoop()
        self._reset(loop, trace, sessions)
        for spec in sessions:
            # Fail fast, before any coroutine is created: a session
            # with an unconfigured class must not start the run.
            self._resolve_class(spec.cls)
        loop.run_until_complete(self._main(), name="gateway")
        result = self._build_result(trace)
        if self.metrics is not None:
            result.publish(self.metrics)
        return result

    def close(self) -> None:
        """Release every replica built so far (idempotent)."""
        for replica in [*self._replicas, *self._parked]:
            replica.close()
        self._replicas.clear()
        self._parked.clear()

    def _build_result(self, trace: Trace) -> GatewayResult:
        latencies = np.array(
            [completion - arrival for _, arrival, _, completion, _ in self._completions]
        ) if self._completions else np.zeros(0)
        per_class: Dict[str, ClassStats] = {}
        for cls in self.config.classes:
            class_latencies = np.array(
                [
                    completion - arrival
                    for name, arrival, _, completion, _ in self._completions
                    if name == cls.name
                ]
            )
            counts = self._class_counts[cls.name]
            completed = int(class_latencies.size)
            if completed:
                p50 = float(np.percentile(class_latencies, 50))
                p95 = float(np.percentile(class_latencies, 95))
                p99 = float(np.percentile(class_latencies, 99))
                mean = float(np.mean(class_latencies))
                slo_met = int(np.sum(class_latencies <= cls.p99_budget))
            else:
                p50 = p95 = p99 = mean = 0.0
                slo_met = 0
            per_class[cls.name] = ClassStats(
                name=cls.name,
                priority=cls.priority,
                p99_budget=cls.p99_budget,
                requests=counts["requests"],
                shed=counts["shed"],
                completed=completed,
                slo_met=slo_met,
                p50=p50,
                p95=p95,
                p99=p99,
                mean=mean,
            )
        batches = sum(self._batch_histogram.values())
        total_batched = sum(
            size * count for size, count in self._batch_histogram.items()
        )
        makespan = max(
            (completion for _, _, _, completion, _ in self._completions),
            default=0.0,
        )
        session_stats: Optional[SessionStats] = None
        if self._sessions:
            step_latencies = np.array(
                [
                    latency
                    for session in self._sessions
                    for latency in session.step_latencies
                ]
            )
            finished = [
                session
                for session in self._sessions
                if session.completion is not None
            ]
            session_stats = SessionStats(
                offered=len(self._sessions),
                completed=len(finished),
                aborted=sum(1 for s in self._sessions if s.aborted),
                steps_completed=int(step_latencies.size),
                step_p50=(
                    float(np.percentile(step_latencies, 50))
                    if step_latencies.size
                    else 0.0
                ),
                step_p99=(
                    float(np.percentile(step_latencies, 99))
                    if step_latencies.size
                    else 0.0
                ),
                mean_makespan=(
                    float(
                        np.mean(
                            [s.completion - s.arrival for s in finished]
                        )
                    )
                    if finished
                    else 0.0
                ),
            )
        return GatewayResult(
            trace_kind=trace.kind,
            trace_seed=trace.seed,
            requests=self._counts["requests"],
            admitted=self._counts["admitted"],
            shed=self._counts["shed"],
            completed=len(self._completions),
            batches=batches,
            makespan=makespan,
            p50=float(np.percentile(latencies, 50)) if latencies.size else 0.0,
            p95=float(np.percentile(latencies, 95)) if latencies.size else 0.0,
            p99=float(np.percentile(latencies, 99)) if latencies.size else 0.0,
            mean=float(np.mean(latencies)) if latencies.size else 0.0,
            mean_batch=total_batched / batches if batches else 0.0,
            max_batch_served=max(self._batch_histogram, default=0),
            per_class=per_class,
            batch_histogram=dict(sorted(self._batch_histogram.items())),
            replica_timeline=tuple(self._timeline),
            replicas_final=self._active_count,
            replicas_max=max(count for _, count in self._timeline),
            service_cycles=self._service_estimate,
            sessions=session_stats,
        )
