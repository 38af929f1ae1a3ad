"""The multiprocessing shard fleet (``repro.cluster.process_pool``).

The fleet's contract is that process workers are *invisible* semantics:
bit-identical outputs and cycles to the in-process cluster (and hence to
a directly driven device), the same telemetry record shape plus an
``execution`` block, and no shared-memory segments left behind. Spawning
an interpreter per worker costs real seconds, so the differential cases
share module-scoped fleets and the wide sweeps are marked slow.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    REPLICATE,
    SHARD,
    ProcessShardedCluster,
    ShardedCluster,
    make_cluster,
)
from repro.cluster.process_pool import ProcessWorker, derive_worker_seed
from repro.cluster.shm import SharedNDArray
from repro.dram.config import hbm2e_like_config
from repro.dram.timing import hbm2e_like_timing
from repro.errors import (
    ConfigurationError,
    LayoutError,
    ProtocolError,
    WorkerError,
)
from repro.telemetry import SCHEMA
from repro.workloads.generator import generate_layer_data

CHANNELS, BANKS = 4, 8
M, N = 96, 512


def _kwargs(**extra):
    base = dict(
        config=hbm2e_like_config(
            num_channels=CHANNELS, banks_per_channel=BANKS
        ),
        timing=hbm2e_like_timing(),
        functional=True,
    )
    base.update(extra)
    return base


@pytest.fixture(scope="module")
def fleet2():
    """One 2-worker shard fleet shared by the differential cases."""
    cluster = ProcessShardedCluster(2, mode=SHARD, **_kwargs())
    yield cluster
    cluster.close()


@pytest.fixture(scope="module")
def inproc2(fleet2):
    """The in-process reference, kept in load lockstep with ``fleet2``.

    Matrix placement advances a per-device base row, and cycle counts
    depend on it — so the reference cluster must receive the *same
    sequence of loads* as the fleet for cycles to be comparable. Every
    differential test therefore loads into both, in the same order.
    """
    return ShardedCluster.from_spec("newton", 2, mode=SHARD, **_kwargs())


@pytest.fixture(scope="module")
def data():
    return generate_layer_data(M, N, seed=21)


def _assert_runs_equal(a, b):
    assert a.cycles == b.cycles
    assert np.array_equal(
        a.output.view(np.uint32), b.output.view(np.uint32)
    )


class TestDifferentialAgainstInProcess:
    """process fleet == in-process cluster, bit for bit."""

    def test_shard_outputs_and_cycles(self, fleet2, inproc2, data):
        reference = inproc2.gemv(
            inproc2.load_matrix(data.matrix), data.vector
        )
        run = fleet2.gemv(fleet2.load_matrix(data.matrix), data.vector)
        _assert_runs_equal(run, reference)

    def test_one_worker_equals_inprocess_single(self, data):
        inproc = ShardedCluster.from_spec("newton", 1, mode=SHARD, **_kwargs())
        reference = inproc.gemv(inproc.load_matrix(data.matrix), data.vector)
        with ProcessShardedCluster(1, mode=SHARD, **_kwargs()) as fleet:
            run = fleet.gemv(fleet.load_matrix(data.matrix), data.vector)
        _assert_runs_equal(run, reference)

    def test_batch_matches_inprocess(self, fleet2, inproc2, data):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((3, N)).astype(np.float32)
        reference = inproc2.gemv_batch(
            inproc2.load_matrix(data.matrix), vectors
        )
        runs = fleet2.gemv_batch(fleet2.load_matrix(data.matrix), vectors)
        assert len(runs) == len(reference)
        for run, ref in zip(runs, reference):
            _assert_runs_equal(run, ref)

    def test_timing_only_service_cycles_match(self):
        # Shape-only loads are a timing-only affordance (a functional
        # device refuses to drop data), so this pair is non-functional.
        kwargs = _kwargs(functional=False)
        inproc = ShardedCluster.from_spec("newton", 2, mode=SHARD, **kwargs)
        expected = inproc.service_cycles(inproc.load_matrix(m=M, n=N))
        with ProcessShardedCluster(2, mode=SHARD, **kwargs) as fleet:
            handle = fleet.load_matrix(m=M, n=N)
            assert handle.m == M and handle.n == N
            assert len(handle.shards) == 2
            assert fleet.service_cycles(handle) == expected


class TestReplicateMode:
    def test_round_robin_replicas(self, data):
        vectors = np.tile(data.vector, (4, 1))
        inproc = ShardedCluster.from_spec(
            "newton", 2, mode=REPLICATE, **_kwargs()
        )
        reference = inproc.gemv_batch(inproc.load_matrix(data.matrix), vectors)
        with ProcessShardedCluster(
            2, mode=REPLICATE, **_kwargs()
        ) as fleet:
            handle = fleet.load_matrix(data.matrix)
            runs = fleet.gemv_batch(handle, vectors)
            # Same round-robin assignment, same per-item runs as the
            # in-process cluster; each item served by exactly one worker.
            for run, ref in zip(runs, reference):
                _assert_runs_equal(run, ref)
                assert len(run.device_runs) == 1
                assert run.device_runs[0][0] == ref.device_runs[0][0]
            served = {run.device_runs[0][0] for run in runs}
            assert served == {0, 1}


class TestTelemetry:
    def test_record_shape_mirrors_inprocess(self, fleet2, data):
        fleet2.gemv(fleet2.load_matrix(data.matrix), data.vector)
        record = fleet2.collect_metrics()
        assert record["schema"] == SCHEMA
        assert record["kind"] == "cluster"
        assert record["mode"] == SHARD
        assert record["backend"] == "newton"
        assert set(record["devices"]) == {"device0", "device1"}
        for device_record in record["devices"].values():
            assert device_record["schema"] == SCHEMA
        assert record["execution"] == {
            "workers": "process",
            "start_method": "spawn",
            "seeds": [derive_worker_seed(0, 0), derive_worker_seed(0, 1)],
        }

    def test_worker_seeds_deterministic(self):
        assert derive_worker_seed(0, 0) == derive_worker_seed(0, 0)
        assert derive_worker_seed(0, 0) != derive_worker_seed(0, 1)
        assert derive_worker_seed(0, 1) != derive_worker_seed(1, 1)


class TestLifecycleAndFailure:
    def test_no_shm_leak_after_load(self, fleet2, data):
        fleet2.load_matrix(data.matrix)
        # Transfer segments are create → copy-out → unlink within
        # load_matrix; nothing may survive it.
        assert not SharedNDArray.live_segments()

    def test_close_is_idempotent(self, data):
        fleet = ProcessShardedCluster(1, mode=SHARD, **_kwargs())
        fleet.gemv(fleet.load_matrix(data.matrix), data.vector)
        fleet.close()
        fleet.close()
        with pytest.raises(ProtocolError):
            fleet.load_matrix(data.matrix)

    def test_worker_exception_surfaces_as_worker_error(self, fleet2, data):
        # A forged handle id fails *inside* the worker (vector shape
        # problems are caught parent-side before any send).
        from repro.cluster import ClusterHandle

        bogus = ClusterHandle(m=M, n=N, mode=SHARD)
        bogus.shards.append((0, (0, M), 9999))
        with pytest.raises(WorkerError) as excinfo:
            fleet2.gemv(bogus, data.vector)
        # The remote traceback travels with the error.
        assert "Traceback" in str(excinfo.value)
        # The fleet survives a failed request.
        handle = fleet2.load_matrix(data.matrix)
        run = fleet2.gemv(handle, data.vector)
        assert run.cycles > 0

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessShardedCluster(0, **_kwargs())
        with pytest.raises(ConfigurationError):
            ProcessShardedCluster(1, mode="scatter", **_kwargs())


class TestMakeCluster:
    def test_dispatches_by_workers(self):
        inline = make_cluster("newton", 1, workers="inline", **_kwargs())
        assert isinstance(inline, ShardedCluster)
        fleet = make_cluster("newton", 1, workers="process", **_kwargs())
        try:
            assert isinstance(fleet, ProcessShardedCluster)
        finally:
            fleet.close()

    def test_default_is_inline(self):
        cluster = make_cluster("newton", 1, **_kwargs())
        assert isinstance(cluster, ShardedCluster)

    def test_rejects_unknown_style(self):
        with pytest.raises(ConfigurationError):
            make_cluster("newton", 1, workers="thread", **_kwargs())


class TestStoreAndFusedAcrossWorkers:
    """store_matrix and fused GEMVs are invisible-semantics too."""

    def test_store_matrix_matches_inprocess(self, fleet2, inproc2, data):
        fresh = generate_layer_data(M, N, seed=31)
        fhandle = fleet2.load_matrix(data.matrix)
        ihandle = inproc2.load_matrix(data.matrix)
        fleet2.store_matrix(fhandle, fresh.matrix)
        inproc2.store_matrix(ihandle, fresh.matrix)
        _assert_runs_equal(
            fleet2.gemv(fhandle, fresh.vector),
            inproc2.gemv(ihandle, fresh.vector),
        )

    def test_store_matrix_shape_validated(self, fleet2, data):
        handle = fleet2.load_matrix(data.matrix)
        with pytest.raises(LayoutError):
            fleet2.store_matrix(
                handle, np.zeros((M // 2, N), dtype=np.float32)
            )

    def test_fused_gemv_matches_inprocess(self, fleet2, inproc2, data):
        fhandle = fleet2.load_matrix(data.matrix)
        ihandle = inproc2.load_matrix(data.matrix)
        fused = fleet2.gemv(fhandle, data.vector, fused_input=True)
        _assert_runs_equal(
            fused, inproc2.gemv(ihandle, data.vector, fused_input=True)
        )
        roundtrip = fleet2.gemv(fhandle, data.vector)
        assert np.array_equal(
            fused.output.view(np.uint32), roundtrip.output.view(np.uint32)
        )


class TestParallelStartUp:
    def test_every_worker_starts_before_any_handshake(self, monkeypatch):
        events = []
        spawn, connect = ProcessWorker.__init__, ProcessWorker.connect

        def logged_spawn(self, index, *args):
            spawn(self, index, *args)
            events.append(("spawned", index))

        def logged_connect(self):
            events.append(("awaited", self.index))
            return connect(self)

        monkeypatch.setattr(ProcessWorker, "__init__", logged_spawn)
        monkeypatch.setattr(ProcessWorker, "connect", logged_connect)
        with ProcessShardedCluster(2, mode=SHARD, **_kwargs()) as fleet:
            assert fleet.devices == 2
        assert events == [
            ("spawned", 0),
            ("spawned", 1),
            ("awaited", 0),
            ("awaited", 1),
        ]


class TestBoundedReplies:
    """A killed or stopped worker fails within the reply deadline, and
    the cluster still closes cleanly."""

    DEADLINE_S = 3.0

    @pytest.mark.parametrize(
        "signum", [signal.SIGKILL, signal.SIGSTOP], ids=["killed", "stopped"]
    )
    def test_lost_worker_raises_within_deadline(self, monkeypatch, data, signum):
        fleet = ProcessShardedCluster(2, mode=SHARD, **_kwargs())
        try:
            handle = fleet.load_matrix(data.matrix)
            monkeypatch.setattr(
                "repro.cluster.process_pool.REPLY_DEADLINE_S", self.DEADLINE_S
            )
            victim = fleet.backends[0].process
            os.kill(victim.pid, signum)
            if signum == signal.SIGKILL:
                victim.join()  # dead before the request is sent
            began = time.monotonic()
            # A store carries a shared-memory segment to every worker.
            with pytest.raises(WorkerError):
                fleet.store_matrix(handle, data.matrix)
            assert time.monotonic() - began < self.DEADLINE_S + 5.0
        finally:
            fleet.close()
        assert not any(worker.process.is_alive() for worker in fleet.backends)
        assert SharedNDArray.live_segments() == []

    def test_large_send_to_a_stopped_worker_raises_within_deadline(
        self, monkeypatch
    ):
        """A request bigger than the pipe buffer (64 vectors of 4,096
        floats, about 1 MiB pickled) to a stopped worker fails within the
        deadline, instead of blocking in the send."""
        config = hbm2e_like_config(num_channels=1, banks_per_channel=16)
        worker = ProcessWorker(
            0, 0, "newton", _kwargs(config=config)
        ).connect()
        outcome = []

        def send():
            try:
                worker.start("gemv_batch", handle, np.ones((64, 4096), np.float32))
                outcome.append("sent")
            except WorkerError as exc:
                outcome.append(exc)

        try:
            handle = worker.load_matrix(np.ones((16, 4096), np.float32))
            monkeypatch.setattr(
                "repro.cluster.process_pool.REPLY_DEADLINE_S", self.DEADLINE_S
            )
            os.kill(worker.process.pid, signal.SIGSTOP)
            caller = threading.Thread(target=send, daemon=True)
            began = time.monotonic()
            caller.start()
            caller.join(self.DEADLINE_S + 10.0)
            assert not caller.is_alive(), "the send is still blocked"
            assert time.monotonic() - began < self.DEADLINE_S + 5.0
            assert len(outcome) == 1 and isinstance(outcome[0], WorkerError)
        finally:
            if worker.process.is_alive():
                worker.process.kill()
            worker.close()
        assert not worker.process.is_alive()
        assert SharedNDArray.live_segments() == []
