"""Multi-device sharded/replicated execution (``repro.cluster``).

The differential suite is the load-bearing part: a 1-device shard
cluster over the cycle-accurate backend must be *bit-identical* —
outputs and cycles — to driving the device directly, across the Table II
layers with the fast path on and off; and an N-device shard's reduced
output must be bit-identical to the single-device functional result
(disjoint fp32 row slices fold exactly through the host accumulator).
"""

import numpy as np
import pytest

from repro.backends import Backend, NewtonBackend, make_backend
from repro.cluster import REPLICATE, SHARD, ClusterHandle, ShardedCluster
from repro.core.device import NewtonDevice
from repro.core.optimizations import FULL
from repro.dram.config import hbm2e_like_config
from repro.dram.timing import hbm2e_like_timing
from repro.errors import ConfigurationError, LayoutError, ProtocolError
from repro.telemetry import SCHEMA
from repro.workloads.catalog import TABLE_II_LAYERS
from repro.workloads.generator import generate_layer_data, generate_vector

CHANNELS, BANKS = 8, 8
"""A reduced system keeps the full-catalog differential sweep fast; the
equality being pinned is configuration-independent."""

SMALL_LAYERS = [l for l in TABLE_II_LAYERS if l.m * l.n <= 4 * 1024 * 1024]
"""Layers small enough to run functionally in the test budget."""


def _config():
    return hbm2e_like_config(num_channels=CHANNELS, banks_per_channel=BANKS)


def _newton_backend(**kwargs):
    return NewtonBackend(_config(), hbm2e_like_timing(), **kwargs)


@pytest.mark.slow
class TestDifferentialOneDevice:
    """1-device shard cluster == direct NewtonDevice, bit for bit."""

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize(
        "layer", TABLE_II_LAYERS, ids=[l.name for l in TABLE_II_LAYERS]
    )
    def test_cycles_identical_all_layers(self, layer, fast):
        device = NewtonDevice(
            _config(), hbm2e_like_timing(), FULL, functional=False, fast=fast
        )
        handle = device.load_matrix(m=layer.m, n=layer.n)
        direct = device.gemv(handle)

        cluster = ShardedCluster(
            [_newton_backend(functional=False, fast=fast)], mode=SHARD
        )
        chandle = cluster.load_matrix(m=layer.m, n=layer.n)
        run = cluster.gemv(chandle)
        assert run.cycles == direct.cycles

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize(
        "layer", SMALL_LAYERS, ids=[l.name for l in SMALL_LAYERS]
    )
    def test_outputs_and_cycles_identical_functional(self, layer, fast):
        data = generate_layer_data(layer.m, layer.n, seed=11)
        vector = generate_vector(layer.n, seed=13)

        device = NewtonDevice(
            _config(), hbm2e_like_timing(), FULL, functional=True, fast=fast
        )
        direct = device.gemv(device.load_matrix(data.matrix), vector)

        cluster = ShardedCluster(
            [_newton_backend(functional=True, fast=fast)], mode=SHARD
        )
        run = cluster.gemv(cluster.load_matrix(data.matrix), vector)
        assert run.cycles == direct.cycles
        assert np.array_equal(run.output, direct.output)


@pytest.mark.slow
class TestDifferentialMultiDevice:
    """Row-sharded outputs fold back exactly to the 1-device result."""

    @pytest.mark.parametrize("devices", [2, 4])
    @pytest.mark.parametrize(
        "layer", SMALL_LAYERS, ids=[l.name for l in SMALL_LAYERS]
    )
    def test_shard_output_bit_identical(self, layer, devices):
        data = generate_layer_data(layer.m, layer.n, seed=5)
        vector = generate_vector(layer.n, seed=7)

        single = ShardedCluster([_newton_backend(functional=True)])
        expected = single.gemv(single.load_matrix(data.matrix), vector).output

        cluster = ShardedCluster(
            [_newton_backend(functional=True) for _ in range(devices)],
            mode=SHARD,
        )
        handle = cluster.load_matrix(data.matrix)
        run = cluster.gemv(handle, vector)
        assert np.array_equal(run.output, expected)
        # every device participated with a disjoint row slice
        spans = sorted(span for _, span, _ in handle.shards)
        assert spans[0][0] == 0 and spans[-1][1] == layer.m
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_two_device_cold_run_bit_identical_to_per_command(self):
        """2-device shard, replay disabled: the burst kernel handles every
        tile on every shard, and the cold first run must still be bit-
        identical (cycles and reduced output) to the per-command
        reference cluster."""
        layer = SMALL_LAYERS[0]
        data = generate_layer_data(layer.m, layer.n, seed=23)
        vector = generate_vector(layer.n, seed=29)

        reference = ShardedCluster(
            [_newton_backend(functional=True, fast=False) for _ in range(2)],
            mode=SHARD,
        )
        cold = ShardedCluster(
            [_newton_backend(functional=True, fast=True) for _ in range(2)],
            mode=SHARD,
        )
        for backend in cold.backends:
            for engine in backend.device.engines:
                engine.schedule_cache.lookup = lambda *a, **k: None

        a = reference.gemv(reference.load_matrix(data.matrix), vector)
        b = cold.gemv(cold.load_matrix(data.matrix), vector)
        assert b.cycles == a.cycles
        assert np.array_equal(b.output, a.output)
        # the cold path actually ran through the burst kernel per shard
        for backend in cold.backends:
            assert any(
                engine.burst_commands > 0
                for engine in backend.device.engines
            )

    def test_shard_wall_clock_is_slowest_shard(self):
        cluster = ShardedCluster.from_spec(
            "newton",
            2,
            config=_config(),
            timing=hbm2e_like_timing(),
            functional=False,
        )
        handle = cluster.load_matrix(m=1024, n=1024)
        run = cluster.gemv(handle)
        assert run.cycles == max(float(r.cycles) for _, r in run.device_runs)
        assert len(run.device_runs) == 2

    def test_sharding_shortens_service(self):
        def service(devices):
            cluster = ShardedCluster.from_spec(
                "newton",
                devices,
                config=_config(),
                timing=hbm2e_like_timing(),
                functional=False,
            )
            return cluster.service_cycles(cluster.load_matrix(m=4096, n=1024))

        assert service(4) < service(2) < service(1)


class TestReplicate:
    def test_round_robin_fan_out(self):
        cluster = ShardedCluster(
            [_newton_backend(functional=False) for _ in range(3)],
            mode=REPLICATE,
        )
        handle = cluster.load_matrix(m=256, n=256)
        assert len(handle.shards) == 3
        order = [cluster.gemv(handle).device_runs[0][0] for _ in range(5)]
        assert order == [0, 1, 2, 0, 1]

    def test_replicas_hold_the_full_matrix(self):
        data = generate_layer_data(128, 64, seed=1)
        cluster = ShardedCluster(
            [_newton_backend(functional=True) for _ in range(2)],
            mode=REPLICATE,
        )
        handle = cluster.load_matrix(data.matrix)
        vector = generate_vector(64, seed=2)
        first = cluster.gemv(handle, vector).output
        second = cluster.gemv(handle, vector).output  # the other replica
        assert np.array_equal(first, second)

    def test_service_cycles_is_one_replica(self):
        single = _newton_backend(functional=False)
        expected = single.service_cycles(single.load_matrix(m=512, n=512))
        cluster = ShardedCluster(
            [_newton_backend(functional=False) for _ in range(3)],
            mode=REPLICATE,
        )
        got = cluster.service_cycles(cluster.load_matrix(m=512, n=512))
        assert got == expected


class TestValidation:
    def test_needs_backends(self):
        with pytest.raises(ConfigurationError):
            ShardedCluster([])

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            ShardedCluster([_newton_backend()], mode="scatter")

    def test_from_spec_needs_devices(self):
        with pytest.raises(ConfigurationError):
            ShardedCluster.from_spec("newton", 0)

    def test_non_2d_matrix_rejected(self):
        cluster = ShardedCluster([_newton_backend()])
        with pytest.raises(LayoutError):
            cluster.load_matrix(np.ones(16, dtype=np.float32))

    def test_batch_shape_validated(self):
        cluster = ShardedCluster([_newton_backend(functional=False)])
        handle = cluster.load_matrix(m=64, n=32)
        with pytest.raises(LayoutError):
            cluster.gemv_batch(handle, np.ones((2, 33), dtype=np.float32))
        with pytest.raises(ProtocolError):
            cluster.gemv_batch(handle, batch=0)

    def test_empty_handle_rejected(self):
        cluster = ShardedCluster([_newton_backend(functional=False)])
        with pytest.raises(ProtocolError):
            cluster.gemv(ClusterHandle(m=4, n=4, mode=SHARD))


class TestModelBackendClusters:
    """The cluster runs any registered backend, not just the simulator."""

    @pytest.mark.parametrize("name", ["analytical", "ideal", "gpu"])
    def test_model_backend_shards(self, name):
        cluster = ShardedCluster.from_spec(name, 2, functional=True)
        data = generate_layer_data(256, 128, seed=3)
        handle = cluster.load_matrix(data.matrix)
        run = cluster.gemv(handle, generate_vector(128, seed=4))
        assert run.cycles > 0
        assert run.output.shape == (256,)

    def test_batch_reaches_each_member_whole(self):
        """A member with its own batch model (the GPU roofline reads the
        matrix once per batch) sees the cluster's batch as one call, as a
        process worker does."""
        cluster = ShardedCluster.from_spec("gpu", 2, functional=False)
        runs = cluster.gemv_batch(cluster.load_matrix(m=256, n=128), batch=4)
        single = make_backend("gpu", functional=False)
        expected = single.gemv_batch(single.load_matrix(m=128, n=128), batch=4)
        assert [run.cycles for run in runs] == [float(r.cycles) for r in expected]

    def test_mixed_construction_through_registry(self):
        cluster = ShardedCluster(
            [make_backend("analytical"), make_backend("analytical")]
        )
        assert cluster.devices == 2


class TestClusterTelemetry:
    def test_per_device_namespacing(self):
        cluster = ShardedCluster(
            [_newton_backend(functional=False) for _ in range(2)]
        )
        handle = cluster.load_matrix(m=512, n=512)
        cluster.gemv(handle)
        record = cluster.collect_metrics()
        assert record["schema"] == SCHEMA
        assert record["kind"] == "cluster"
        assert record["mode"] == SHARD
        assert set(record["devices"]) == {"device0", "device1"}
        for sub in record["devices"].values():
            assert sub["schema"] == SCHEMA
            assert sub["kind"] == "device"
            assert "channels" in sub


class TestStoreAndFused:
    """In-place arena updates and fused GEMVs across the shard boundary."""

    def test_store_matrix_updates_shards_in_place(self):
        data = generate_layer_data(64, 32, seed=1)
        cluster = ShardedCluster(
            [_newton_backend(functional=True) for _ in range(2)], mode=SHARD
        )
        handle = cluster.load_matrix(np.zeros_like(data.matrix))
        vector = generate_vector(32, seed=2)
        assert np.all(cluster.gemv(handle, vector).output == 0.0)
        cluster.store_matrix(handle, data.matrix)
        single = ShardedCluster([_newton_backend(functional=True)])
        shandle = single.load_matrix(data.matrix)
        assert np.array_equal(
            cluster.gemv(handle, vector).output,
            single.gemv(shandle, vector).output,
        )

    def test_store_matrix_shape_validated(self):
        cluster = ShardedCluster([_newton_backend(functional=True)])
        handle = cluster.load_matrix(np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(LayoutError):
            cluster.store_matrix(handle, np.zeros((4, 8), dtype=np.float32))

    @pytest.mark.parametrize("devices", [1, 2])
    def test_fused_gemv_bit_identical_and_cheaper(self, devices):
        data = generate_layer_data(128, 64, seed=3)
        vector = generate_vector(64, seed=4)
        cluster = ShardedCluster(
            [_newton_backend(functional=True) for _ in range(devices)],
            mode=SHARD,
        )
        handle = cluster.load_matrix(data.matrix)
        roundtrip = cluster.gemv(handle, vector)
        fused = cluster.gemv(handle, vector, fused_input=True)
        assert np.array_equal(
            fused.output.view(np.uint32), roundtrip.output.view(np.uint32)
        )
        assert fused.cycles < roundtrip.cycles

    def test_session_over_cluster_matches_single_device(self):
        from repro.workloads.scenarios import decode_model

        spec = decode_model(d=32, window=4, blocks=1)
        outputs = {}
        for devices in (1, 2):
            cluster = ShardedCluster(
                [_newton_backend(functional=True) for _ in range(devices)],
                mode=SHARD,
            )
            session = cluster.open_session(spec, fused=True, seed=0)
            try:
                outputs[devices] = [r.output for r in session.run_steps(3)]
            finally:
                session.close()
        for one, two in zip(outputs[1], outputs[2]):
            assert np.array_equal(one.view(np.uint32), two.view(np.uint32))


class _Recorder(Backend):
    """A member double that logs when each request starts and when its
    reply is awaited, and runs the call only when awaited, as a member
    in another process would."""

    def __init__(self, inner: Backend, index: int, log: list):
        self.inner, self.index, self.log = inner, index, log
        self.name = inner.name
        self.config, self.timing = inner.config, inner.timing
        self.functional = inner.functional

    def start(self, method, *args, **kwargs):
        self.log.append(("send", method, self.index))

        def wait():
            self.log.append(("wait", method, self.index))
            return getattr(self.inner, method)(*args, **kwargs)

        return wait

    def load_matrix(self, *args, **kwargs):
        return self.start("load_matrix", *args, **kwargs)()

    def gemv(self, *args, **kwargs):
        return self.start("gemv", *args, **kwargs)()

    def service_cycles(self, handle):
        return self.start("service_cycles", handle)()

    def collect_metrics(self):
        return self.start("collect_metrics")()


def _overlapped(method, members=2):
    """Every member's request sent before any reply is awaited."""
    return [("send", method, i) for i in range(members)] + [
        ("wait", method, i) for i in range(members)
    ]


class TestRequestsOverlap:
    """The cluster starts every member's request before waiting on any
    reply, which is what lets worker members run in parallel."""

    def _cluster(self, log, mode=SHARD, functional=True):
        return ShardedCluster(
            [
                _Recorder(_newton_backend(functional=functional), i, log)
                for i in range(2)
            ],
            mode=mode,
        )

    def test_shard_mode_requests_overlap(self):
        log = []
        cluster = self._cluster(log)
        data = generate_layer_data(64, 32, seed=1)
        vector = generate_vector(32, seed=2)
        handle = cluster.load_matrix(data.matrix)
        assert log == _overlapped("load_matrix")
        log.clear()
        cluster.store_matrix(handle, data.matrix)
        assert log == _overlapped("store_matrix")
        log.clear()
        run = cluster.gemv(handle, vector)
        assert log == _overlapped("gemv")
        log.clear()
        batch = cluster.gemv_batch(handle, np.stack([vector, vector]))
        assert log == _overlapped("gemv_batch")
        log.clear()
        record = cluster.collect_metrics()
        assert log == _overlapped("collect_metrics")
        assert set(record["devices"]) == {"device0", "device1"}
        # Deferred execution changes nothing: the plain cluster agrees.
        plain = ShardedCluster([_newton_backend(functional=True) for _ in range(2)])
        phandle = plain.load_matrix(data.matrix)
        expected = plain.gemv(phandle, vector)
        assert run.cycles == expected.cycles
        assert np.array_equal(run.output, expected.output)
        for got in batch:
            assert np.array_equal(got.output, expected.output)

    def test_service_time_requests_overlap(self):
        log = []
        cluster = self._cluster(log, functional=False)
        handle = cluster.load_matrix(m=64, n=32)
        log.clear()
        cluster.service_cycles(handle)
        assert log == _overlapped("service_cycles")

    def test_replicas_share_a_batch_in_one_round(self):
        log = []
        cluster = self._cluster(log, mode=REPLICATE, functional=False)
        handle = cluster.load_matrix(m=64, n=32)
        log.clear()
        runs = cluster.gemv_batch(handle, batch=3)
        assert log == _overlapped("gemv_batch")
        assert [run.device_runs[0][0] for run in runs] == [0, 1, 0]
        # The round-robin continues across calls.
        assert cluster.gemv(handle).device_runs[0][0] == 1

    def test_every_started_request_is_awaited_after_a_failure(self):
        log = []
        cluster = self._cluster(log)
        handle = cluster.load_matrix(np.ones((64, 32), dtype=np.float32))
        bogus = ClusterHandle(m=64, n=32, mode=SHARD)
        bogus.shards = [(0, (0, 32), None), handle.shards[1]]
        log.clear()
        with pytest.raises(AttributeError):
            cluster.gemv(bogus, np.ones(32, dtype=np.float32))
        assert log == _overlapped("gemv")
