"""The serving gateway: admission, batching, autoscaling, telemetry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServingError
from repro.host.serving import ServingSimulator
from repro.serving import (
    BackendReplica,
    DecodeSessionSpec,
    FixedServiceReplica,
    GatewayConfig,
    ServingGateway,
    SLOClass,
    Trace,
    backend_replica_factory,
    bursty_trace,
    decode_sessions,
    default_classes,
    interarrival_for_load,
    poisson_trace,
)
from repro.telemetry import MetricsRegistry

SERVICE = 1000.0


def fixed_gateway(config, service=SERVICE, metrics=None):
    return ServingGateway(
        lambda: FixedServiceReplica(service), config, metrics=metrics
    )


def degenerate_config(servers, classes=(SLOClass("interactive"),), **kwargs):
    """window->0, max_batch->1: the offline M/D/c discipline."""
    return GatewayConfig(
        window_cycles=0.0,
        max_batch=1,
        min_replicas=servers,
        classes=classes,
        **kwargs,
    )


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        for kwargs in (
            dict(window_cycles=-1.0),
            dict(max_batch=0),
            dict(queue_depth=0),
            dict(min_replicas=0),
            dict(min_replicas=3, max_replicas=2),
            dict(classes=()),
            dict(classes=(SLOClass("a"), SLOClass("a"))),
            dict(scale_in_idle_intervals=0),
            dict(window_cycles=float("nan")),
            dict(window_cycles=float("inf")),
            dict(min_replicas=1, max_replicas=2, autoscale_interval=0.0),
            dict(min_replicas=1, max_replicas=2, autoscale_interval=-5.0),
            dict(autoscale_interval=float("nan")),
            dict(autoscale_interval=float("inf")),
            dict(autoscale_window=0.0),
            dict(autoscale_window=-1.0),
            dict(autoscale_window=float("nan")),
            dict(autoscale_window=float("inf")),
        ):
            with pytest.raises(ServingError):
                GatewayConfig(**kwargs)

    def test_unknown_request_class_is_an_error(self):
        trace = poisson_trace(100.0, 5, seed=0, class_mix=(("mystery", 1.0),))
        with pytest.raises(ServingError, match="mystery"):
            fixed_gateway(degenerate_config(1)).run(trace)

    def test_empty_trace_is_an_error(self):
        trace = poisson_trace(100.0, 1, seed=0)
        empty = type(trace)(
            kind="poisson", seed=0, mean_interarrival=100.0, requests=()
        )
        with pytest.raises(ServingError, match="empty"):
            fixed_gateway(degenerate_config(1)).run(empty)

    def test_fixed_replica_needs_a_finite_service_time(self):
        """NaN slips past `<= 0`; the loop would then serve every batch
        in zero cycles."""
        for service in (float("nan"), float("inf")):
            with pytest.raises(ServingError, match="finite and positive"):
                FixedServiceReplica(service)

    def test_autoscaling_needs_an_interval_the_replicas_cannot_derive(self):
        """Replicas that report no service time leave a zero derived
        autoscale interval, which pins the clock: the run refuses it
        at once, and configuring the interval and window serves."""

        class Untimed:
            def __init__(self):
                self.index, self.active = -1, True

            def batch_cycles(self, batch_size):
                return SERVICE * batch_size

            def close(self):
                pass

        trace = poisson_trace(2 * SERVICE, 50, seed=0)
        config = GatewayConfig(min_replicas=1, max_replicas=2)
        with pytest.raises(ServingError, match="autoscale_interval"):
            ServingGateway(Untimed, config).run(trace)
        configured = GatewayConfig(
            min_replicas=1, max_replicas=2,
            autoscale_interval=10 * SERVICE, autoscale_window=50 * SERVICE,
        )
        assert ServingGateway(Untimed, configured).run(trace).completed == 50


class TestClose:
    def test_close_before_any_run(self):
        gateway = fixed_gateway(degenerate_config(1))
        gateway.close()
        gateway.close()

    def test_close_after_a_refused_run_keeps_the_error(self):
        """``run`` refuses an empty trace before building a fleet; the
        ``try/finally: close()`` pattern must surface that refusal."""
        trace = poisson_trace(100.0, 1, seed=0)
        empty = type(trace)(
            kind="poisson", seed=0, mean_interarrival=100.0, requests=()
        )
        gateway = fixed_gateway(degenerate_config(1))
        with pytest.raises(ServingError, match="empty"):
            try:
                gateway.run(empty)
            finally:
                gateway.close()


class TestReplicaLifetime:
    """A finished gateway frees its replicas by reference counting
    alone: nothing a run leaves behind (pending timers, callbacks,
    finished tasks) may close a cycle through the gateway, or every
    run's replicas would live until the next collection."""

    @staticmethod
    def _setup(kind):
        trace = poisson_trace(interarrival_for_load(SERVICE, 0.9), 300, seed=2)
        sessions = ()
        build = lambda: FixedServiceReplica(SERVICE)  # noqa: E731
        config = GatewayConfig(
            window_cycles=2 * SERVICE,
            max_batch=4,
            min_replicas=2,
            classes=(SLOClass("interactive", p99_budget=3 * SERVICE),),
        )
        if kind == "autoscale":
            trace = bursty_trace(interarrival_for_load(SERVICE, 0.6), 600, seed=3)
            config = GatewayConfig(
                min_replicas=1,
                max_replicas=4,
                classes=(SLOClass("interactive", p99_budget=3 * SERVICE),),
            )
        elif kind == "sessions":
            sessions = decode_sessions(
                3, steps=4, interarrival=SERVICE, cls="interactive"
            )
        elif kind == "newton":
            build = backend_replica_factory(
                "newton", m=64, n=256, functional=False
            )
            trace = poisson_trace(interarrival_for_load(644.0, 0.8, 2), 200, seed=4)
        return build, config, trace, sessions

    @pytest.mark.parametrize("kind", ["fixed", "autoscale", "sessions", "newton"])
    def test_finished_gateway_frees_replicas_without_gc(self, kind):
        import gc
        import weakref

        build, config, trace, sessions = self._setup(kind)
        replicas = []

        def factory():
            replica = build()
            replicas.append(weakref.ref(replica))
            return replica

        gc.disable()
        try:
            gateway = ServingGateway(factory, config)
            result = gateway.run(trace, sessions)
            gateway.close()
            gateway_ref = weakref.ref(gateway)
            del gateway
            assert result.completed > 0 and replicas
            assert gateway_ref() is None
            assert all(ref() is None for ref in replicas)
        finally:
            gc.enable()


class TestOfflineEquivalence:
    """The acceptance cross-check: at window->0, max_batch->1 the
    gateway must reproduce the offline M/D/c simulator."""

    def test_poisson_08_load_two_replicas_p99_within_15pct(self):
        """The ISSUE acceptance criterion — in fact the shared RNG
        stream and FIFO replica dispatch make the match exact."""
        load, servers, requests, seed = 0.8, 2, 2000, 0
        offline = ServingSimulator(SERVICE, seed=seed, servers=servers).simulate(
            load, requests=requests
        )
        trace = poisson_trace(
            interarrival_for_load(SERVICE, load, servers), requests, seed=seed
        )
        result = fixed_gateway(degenerate_config(servers)).run(trace)
        assert result.completed == requests
        assert result.shed == 0
        assert abs(result.p99 - offline.p99) / offline.p99 < 0.15
        assert abs(result.p50 - offline.p50) / offline.p50 < 0.15
        # The implementation actually matches float for float.
        assert result.p99 == offline.p99
        assert result.p50 == offline.p50
        assert result.mean == offline.mean

    @settings(deadline=None, max_examples=12)
    @given(
        load=st.floats(0.1, 0.95),
        servers=st.integers(1, 4),
        seed=st.integers(0, 50),
    )
    def test_degenerate_gateway_matches_simulate(self, load, servers, seed):
        """Property form of the same degeneracy, across loads, fleet
        sizes, and seeds."""
        requests = 300
        offline = ServingSimulator(
            SERVICE, seed=seed, servers=servers
        ).simulate(load, requests=requests)
        trace = poisson_trace(
            interarrival_for_load(SERVICE, load, servers), requests, seed=seed
        )
        result = fixed_gateway(degenerate_config(servers)).run(trace)
        assert result.p99 == pytest.approx(offline.p99, rel=1e-9)
        assert result.mean == pytest.approx(offline.mean, rel=1e-9)

    def test_determinism_across_runs(self):
        trace = bursty_trace(500.0, 800, seed=11)
        config = GatewayConfig(
            window_cycles=2 * SERVICE,
            max_batch=4,
            min_replicas=1,
            max_replicas=3,
            classes=(SLOClass("interactive", p99_budget=6 * SERVICE),),
        )
        a = fixed_gateway(config).run(trace)
        b = fixed_gateway(config).run(trace)
        assert a == b


class TestContinuousBatching:
    def test_size_trigger_fills_batches_under_backlog(self):
        """At several times batch-1 capacity, batches run at max size."""
        trace = poisson_trace(
            interarrival_for_load(SERVICE, 3.0), 1200, seed=1
        )
        config = GatewayConfig(
            window_cycles=2 * SERVICE,
            max_batch=8,
            queue_depth=4096,
            classes=(SLOClass("interactive"),),
        )
        result = fixed_gateway(config).run(trace)
        assert result.shed == 0
        assert result.max_batch_served == 8
        assert result.mean_batch > 6.0
        assert result.batch_histogram[8] > 100

    def test_deadline_trigger_bounds_wait_at_light_load(self):
        """At a trickle, batches dispatch as singletons once the window
        expires — latency is service plus at most the window."""
        window = 3 * SERVICE
        trace = poisson_trace(
            interarrival_for_load(SERVICE, 0.01), 300, seed=2
        )
        config = GatewayConfig(
            window_cycles=window, max_batch=64,
            classes=(SLOClass("interactive"),),
        )
        result = fixed_gateway(config).run(trace)
        assert result.mean_batch < 1.5
        assert result.p99 <= SERVICE + window + SERVICE  # service+window(+rare queue)
        assert result.p50 >= SERVICE + window * 0.99

    def test_batch_cycles_sum_like_newton(self):
        """Continuous batches occupy the replica for the *sum* of the
        per-request service (no batch-compute reuse in Newton)."""
        replica = FixedServiceReplica(100.0)
        assert replica.batch_cycles(5) == 500.0


class TestAdmissionControl:
    def test_queue_bound_sheds_and_counts(self):
        trace = poisson_trace(
            interarrival_for_load(SERVICE, 5.0), 800, seed=3
        )
        config = GatewayConfig(
            window_cycles=SERVICE, max_batch=2, queue_depth=8,
            classes=(SLOClass("interactive"),),
        )
        result = fixed_gateway(config).run(trace)
        assert result.shed > 0
        assert result.admitted + result.shed == result.requests == 800
        assert result.completed == result.admitted

    def test_priority_evicts_lower_class_first(self):
        """When the queue is full, an arriving high-priority request
        evicts the newest low-priority waiter instead of shedding."""
        classes = (
            SLOClass("interactive", priority=2),
            SLOClass("bulk", priority=1),
        )
        trace = poisson_trace(
            interarrival_for_load(SERVICE, 6.0),
            1500,
            seed=4,
            class_mix=(("interactive", 0.5), ("bulk", 0.5)),
        )
        config = GatewayConfig(
            window_cycles=SERVICE, max_batch=2, queue_depth=6, classes=classes
        )
        result = fixed_gateway(config).run(trace)
        inter = result.per_class["interactive"]
        bulk = result.per_class["bulk"]
        assert result.shed > 0
        assert bulk.shed_rate > inter.shed_rate
        # The favored class wins nearly all the serving capacity.
        assert inter.completed > 10 * max(1, bulk.completed)

    def test_no_shedding_at_low_load(self):
        trace = poisson_trace(
            interarrival_for_load(SERVICE, 0.2), 500, seed=5
        )
        result = fixed_gateway(degenerate_config(1)).run(trace)
        assert result.shed == 0
        assert result.completed == 500


class TestAutoscaling:
    def test_scales_out_and_back_on_bursty_trace(self):
        """The ISSUE acceptance criterion: 1 -> N under a burst, back
        toward 1 in the calm."""
        mean = interarrival_for_load(SERVICE, 0.45)
        trace = bursty_trace(
            mean, 3000, seed=3, burst_factor=8.0,
            calm_dwell=300.0, burst_dwell=60.0,
        )
        config = GatewayConfig(
            min_replicas=1,
            max_replicas=4,
            classes=(SLOClass("interactive", p99_budget=5 * SERVICE),),
        )
        result = fixed_gateway(config).run(trace)
        counts = [count for _, count in result.replica_timeline]
        assert result.replica_timeline[0] == (0.0, 1)
        assert result.replicas_max > 1  # scaled out...
        peak = counts.index(max(counts))
        assert min(counts[peak:]) < result.replicas_max  # ...and back in
        assert result.replicas_final < result.replicas_max
        assert result.completed == 3000

    def test_fleet_pinned_without_headroom(self):
        trace = bursty_trace(interarrival_for_load(SERVICE, 0.9), 600, seed=6)
        result = fixed_gateway(degenerate_config(2)).run(trace)
        assert result.replicas_max == result.replicas_final == 2
        # The initial spawns coalesce into one cycle-zero entry.
        assert result.replica_timeline == ((0.0, 2),)

    def test_timeline_cycles_are_monotone(self):
        mean = interarrival_for_load(SERVICE, 0.5)
        trace = bursty_trace(mean, 1500, seed=9, burst_factor=10.0)
        config = GatewayConfig(
            min_replicas=1, max_replicas=3,
            classes=(SLOClass("interactive", p99_budget=4 * SERVICE),),
        )
        result = fixed_gateway(config).run(trace)
        times = [time for time, _ in result.replica_timeline]
        assert times == sorted(times)


class TestTelemetry:
    def test_newton_telemetry_v1_export(self):
        registry = MetricsRegistry()
        trace = poisson_trace(
            interarrival_for_load(SERVICE, 0.5),
            400,
            seed=7,
            class_mix=(("interactive", 0.8), ("bulk", 0.2)),
        )
        config = GatewayConfig(
            window_cycles=SERVICE,
            max_batch=4,
            classes=default_classes(SERVICE),
        )
        result = fixed_gateway(config, metrics=registry).run(trace)
        record = registry.to_dict()
        assert record["schema"] == "newton-telemetry/v1"
        assert set(record) == {"schema", "counters", "gauges", "sections"}
        import json

        json.dumps(record)  # export must be JSON-serializable
        assert record["counters"]["gateway.requests"] == 400
        assert record["counters"]["gateway.shed"] == result.shed
        assert record["gauges"]["gateway.p99"] == result.p99
        assert record["gauges"]["gateway.goodput_fraction"] == (
            result.goodput_fraction
        )
        assert record["gauges"]["gateway.class.interactive.p99"] == (
            result.per_class["interactive"].p99
        )
        section = record["sections"]["gateway"]
        assert section["trace"]["kind"] == "poisson"
        assert sum(section["batch_histogram"].values()) == result.batches
        assert section["replica_timeline"][0] == [0.0, 1]

    def test_render_mentions_every_class(self):
        trace = poisson_trace(
            interarrival_for_load(SERVICE, 0.4),
            200,
            seed=8,
            class_mix=(("interactive", 0.6), ("bulk", 0.4)),
        )
        config = GatewayConfig(classes=default_classes(SERVICE))
        text = fixed_gateway(config).run(trace).render()
        assert "interactive" in text and "bulk" in text
        assert "goodput" in text


class TestBackendIntegration:
    def test_analytical_backend_replicas(self):
        factory = backend_replica_factory(
            "analytical", m=1024, n=1024, functional=False
        )
        replica = factory()
        service = replica.service_cycles
        trace = poisson_trace(
            interarrival_for_load(service, 0.5, 2), 200, seed=0
        )
        config = GatewayConfig(
            min_replicas=2,
            classes=(SLOClass("interactive", p99_budget=10 * service),),
        )
        gateway = ServingGateway(factory, config)
        result = gateway.run(trace)
        assert result.completed == 200
        assert result.service_cycles == service
        gateway.close()

    def test_functional_backend_goes_through_batch_validation(self):
        """With a functional backend the batch path must stack real
        vectors through gemv_batch's validate_batch_vectors contract."""
        from repro.backends import make_backend

        backend = make_backend("analytical", functional=True)
        matrix = np.random.default_rng(0).standard_normal((64, 64))
        handle = backend.load_matrix(matrix.astype(np.float32))
        replica = BackendReplica(backend, handle, seed=1)
        single = replica.batch_cycles(1)
        triple = replica.batch_cycles(3)
        assert triple == pytest.approx(3 * single)
        backend.close()

    def test_cluster_replicas(self):
        factory = backend_replica_factory(
            "analytical", devices=2, m=1024, n=1024, functional=False
        )
        replica = factory()
        trace = poisson_trace(
            interarrival_for_load(replica.service_cycles, 0.4), 100, seed=1
        )
        config = GatewayConfig(classes=(SLOClass("interactive"),))
        gateway = ServingGateway(factory, config)
        result = gateway.run(trace)
        assert result.completed == 100
        gateway.close()
        replica.close()


# ----------------------------------------------------------------------
# property tests (ISSUE satellite): heap vs sorted-free-list reference

def sorted_free_list_simulate(service, load, servers, requests, seed):
    """Reference M/D/c: the free list kept sorted instead of heapified."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(
        rng.exponential(service / (load * servers), size=requests)
    )
    free = [0.0] * servers
    latencies = np.empty(requests)
    for i in range(requests):
        free.sort()
        start = max(arrivals[i], free[0])
        free[0] = start + service
        latencies[i] = free[0] - arrivals[i]
    return latencies


class TestHeapInvariance:
    @settings(deadline=None, max_examples=20)
    @given(
        servers=st.integers(1, 6),
        load=st.floats(0.05, 1.4),
        seed=st.integers(0, 100),
    )
    def test_simulate_matches_sorted_free_list(self, servers, load, seed):
        """simulate()'s earliest-free heap must be observationally
        identical to a sorted-free-list reference model."""
        requests = 200
        result = ServingSimulator(
            SERVICE, seed=seed, servers=servers
        ).simulate(load, requests=requests)
        reference = sorted_free_list_simulate(
            SERVICE, load, servers, requests, seed
        )
        assert result.mean == pytest.approx(float(np.mean(reference)))
        assert result.p99 == pytest.approx(float(np.percentile(reference, 99)))


class TestDecodeSessions:
    """Multi-step decode sessions as a traffic class."""

    def _sessions_config(self, **kwargs):
        base = dict(
            window_cycles=0.0,
            max_batch=2,
            min_replicas=1,
            classes=(SLOClass("decode", priority=2),),
        )
        base.update(kwargs)
        return GatewayConfig(**base)

    def _empty_trace(self):
        return Trace(
            kind="sessions", seed=0, mean_interarrival=0.0, requests=()
        )

    def test_sessions_complete_serially(self):
        result = fixed_gateway(self._sessions_config()).run(
            self._empty_trace(),
            decode_sessions(3, steps=4, interarrival=2 * SERVICE),
        )
        assert result.sessions is not None
        assert result.sessions.offered == 3
        assert result.sessions.completed == 3
        assert result.sessions.aborted == 0
        assert result.sessions.steps_completed == 12
        assert result.completed == 12
        # Steps are strictly serial: a session's makespan covers at
        # least steps x service.
        assert result.sessions.mean_makespan >= 4 * SERVICE
        assert result.sessions.step_p99 >= result.sessions.step_p50 > 0

    def test_spec_and_helper_validation(self):
        with pytest.raises(ServingError):
            DecodeSessionSpec(arrival=-1.0, steps=4)
        with pytest.raises(ServingError):
            DecodeSessionSpec(arrival=0.0, steps=0)
        with pytest.raises(ServingError):
            decode_sessions(0, steps=4, interarrival=100.0)
        with pytest.raises(ServingError):
            decode_sessions(2, steps=4, interarrival=-1.0)

    def test_empty_trace_allowed_with_sessions(self):
        result = fixed_gateway(self._sessions_config()).run(
            self._empty_trace(),
            decode_sessions(1, steps=2, interarrival=0.0),
        )
        assert result.sessions.completed == 1
        with pytest.raises(ServingError, match="empty"):
            fixed_gateway(self._sessions_config()).run(self._empty_trace())

    def test_unknown_session_class_is_an_error(self):
        with pytest.raises(ServingError, match="mystery"):
            fixed_gateway(self._sessions_config()).run(
                self._empty_trace(),
                decode_sessions(1, steps=2, interarrival=0.0, cls="mystery"),
            )

    def test_shed_continuation_aborts_whole_session(self):
        """queue_depth=1 with simultaneous sessions: a shed step kills
        its session, and the gateway still drains."""
        result = fixed_gateway(
            self._sessions_config(queue_depth=1)
        ).run(
            self._empty_trace(),
            decode_sessions(4, steps=3, interarrival=0.0),
        )
        assert result.sessions.offered == 4
        assert result.sessions.aborted > 0
        assert (
            result.sessions.completed + result.sessions.aborted
            == result.sessions.offered
        )
        # Aborted sessions stop issuing steps.
        assert result.sessions.steps_completed < 4 * 3

    def test_sessions_mix_with_oneshot_traffic(self):
        trace = poisson_trace(
            2 * SERVICE, 20, seed=3, class_mix=(("interactive", 1.0),)
        )
        config = self._sessions_config(
            classes=(
                SLOClass("interactive", priority=1),
                SLOClass("decode", priority=2),
            )
        )
        result = fixed_gateway(config).run(
            trace, decode_sessions(2, steps=5, interarrival=SERVICE)
        )
        assert result.completed == 20 + 10
        assert result.sessions.completed == 2
        assert result.per_class["decode"].completed == 10
        assert result.per_class["interactive"].completed == 20

    def test_determinism(self):
        runs = [
            fixed_gateway(self._sessions_config()).run(
                self._empty_trace(),
                decode_sessions(3, steps=4, interarrival=SERVICE / 2),
            )
            for _ in range(2)
        ]
        assert runs[0].sessions == runs[1].sessions
        assert runs[0].p99 == runs[1].p99

    def test_session_stats_published_to_registry(self):
        registry = MetricsRegistry()
        result = fixed_gateway(
            self._sessions_config(), metrics=registry
        ).run(
            self._empty_trace(),
            decode_sessions(2, steps=3, interarrival=SERVICE),
        )
        record = registry.to_dict()
        assert record["counters"]["gateway.sessions.completed"] == 2
        assert (
            record["gauges"]["gateway.sessions.step_p99"]
            == result.sessions.step_p99
        )
        assert "session" in result.render()
