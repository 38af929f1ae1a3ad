"""A batch equals its runs one at a time.

A device runs a batch of k GEMVs as one chain per channel class
(:meth:`~repro.core.engine.NewtonChannelEngine.run_gemvs`): one start
signature, one record lookup per run and one write-back. The oracle is a
twin given the same loads that runs each batch as k single ``gemv``
calls, and each ``gemm`` as one ``gemv`` per column. Compared after
every call:

* each run's cycles and output (as ``uint32``), and each class result's
  start, end, cycles, stats, ``row_slice`` and ``channels``;
* every class engine's controller (``controller_fingerprint``), its
  refresh log and its cache's hits, misses, whole runs and replayed
  commands;

and ``collect_metrics()`` at every read and at the end.
"""

import numpy as np
import pytest

from repro.backends.newton import NewtonBackend
from repro.cluster import REPLICATE, SHARD, ProcessShardedCluster, ShardedCluster
from repro.core.device import NewtonDevice
from repro.core.optimizations import FULL, NON_OPT, figure9_ladder
from repro.dram.config import DRAMConfig
from repro.experiments.common import eval_config, eval_timing
from repro.telemetry import validate_metrics
from tests.core.test_fastpath_differential import controller_fingerprint, make_engine

TIMING = eval_timing()

SHAPES = ((1024, 1024), (64, 512), (389, 1100), (8, 256))
"""On the 24-channel eval config, 389 and 8 rows split the device's
class; on three channels 8 x 256 is one tile per channel."""

SMALL_SHAPES = ((64, 512), (389, 1100), (8, 256))

FAMILIES = ("newton", "output_stationary", "bankgroup_ext")


def small_config(channels: int, family: str = "newton") -> DRAMConfig:
    return DRAMConfig(
        num_channels=channels, banks_per_channel=16, rows_per_bank=512
    ).with_overrides(command_family=family)


def ladder(family: str):
    """Every Figure 9 step the family accepts (``output_stationary``
    walks only the interleaved traversal)."""
    return [
        pytest.param(family, opt, id=f"{family}-{name.strip('+').split()[0].lower()}")
        for name, opt in figure9_ladder()
        if family != "output_stationary" or opt.interleaved_reuse
    ]


def program(shapes, rounds=3):
    """Load each shape and run a batch on it (a second load comes
    between batches), read telemetry, then ``rounds`` more batches of
    every shape."""
    steps = []
    for index, shape in enumerate(shapes):
        steps += [("load", *shape), ("batch", index)]
    steps.append(("read",))
    for _ in range(rounds):
        steps += [("batch", index) for index in range(len(shapes))]
    return steps


def class_fields(result):
    return (
        result.channel_index,
        result.start_cycle,
        result.end_cycle,
        result.cycles,
        result.stats,
        result.row_slice,
        result.channels,
    )


def assert_same_output(expected, got):
    if expected is None:
        assert got is None
    else:
        assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))


def assert_same_runs(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.cycles == b.cycles
        assert_same_output(b.output, a.output)
        assert [class_fields(r) for r in a.channel_results] == [
            class_fields(r) for r in b.channel_results
        ]


def device_state(device):
    """Every class's members, controller, refresh log and cache counters."""
    state = []
    for engine, members in zip(device.engines, device.classes):
        controller = engine.channel.controller
        cache = engine.schedule_cache
        state.append(
            (
                members,
                controller_fingerprint(controller),
                list(controller.refresh.log),
                (cache.hits, cache.misses, cache.whole_runs, cache.replayed_commands),
            )
        )
    return state


def whole_runs(device):
    return sum(engine.schedule_cache.whole_runs for engine in device.engines)


def run_twins(config, steps, *, opt=FULL, functional=True, seed=0, **kwargs):
    """Run ``steps`` on a device, batches whole, and on its twin, one
    GEMV at a time; compare after every call. Returns the device."""
    device = NewtonDevice(config, TIMING, opt, functional=functional, **kwargs)
    twin = NewtonDevice(config, TIMING, opt, functional=functional, **kwargs)
    rng = np.random.default_rng(seed)
    loads = []
    for step in steps:
        if step[0] == "load":
            _, m, n = step
            if functional:
                matrix = (rng.standard_normal((m, n)) / np.sqrt(n)).astype(np.float32)
                loads.append((device.load_matrix(matrix), twin.load_matrix(matrix)))
            else:
                loads.append((device.load_matrix(m=m, n=n), twin.load_matrix(m=m, n=n)))
            continue
        if step[0] == "read":
            assert device.collect_metrics() == twin.collect_metrics()
            continue
        ours, theirs = loads[step[1]]
        count = int(rng.integers(1, 9))
        if step[0] == "gemm":
            matrix_b = rng.standard_normal((ours.n, count)).astype(np.float32)
            product, cycles = device.gemm(ours, matrix_b)
            runs = [twin.gemv(theirs, matrix_b[:, j]) for j in range(count)]
            assert cycles == sum(run.cycles for run in runs)
            assert_same_output(np.stack([run.output for run in runs], axis=1), product)
        elif functional or rng.random() < 0.5:
            vectors = rng.standard_normal((count, ours.n)).astype(np.float32)
            assert_same_runs(
                device.gemv_batch(ours, vectors),
                [twin.gemv(theirs, vector) for vector in vectors],
            )
        else:
            assert_same_runs(
                device.gemv_batch(ours, batch=count),
                [twin.gemv(theirs) for _ in range(count)],
            )
        assert device_state(device) == device_state(twin)
    assert device.collect_metrics() == twin.collect_metrics()
    assert device.power_report() == twin.power_report()
    return device


class TestBatchEqualsRuns:
    """Fast cases; :class:`TestBatchEqualsRunsExhaustive` sweeps the grid."""

    @pytest.mark.parametrize("refresh", [True, False], ids=["ref", "noref"])
    def test_eval_config_timing_only(self, refresh):
        device = run_twins(
            eval_config(), program(SHAPES), functional=False, refresh_enabled=refresh
        )
        assert len(device.engines) > 1
        assert whole_runs(device) > 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_on_three_channels(self, family):
        device = run_twins(small_config(3, family), program(SMALL_SHAPES), seed=1)
        assert whole_runs(device) > 0

    def test_gemm_is_its_columns(self):
        steps = [("load", 64, 512), ("gemm", 0), ("load", 389, 1100), ("gemm", 1)]
        run_twins(small_config(3), steps + [("read",), ("gemm", 0), ("gemm", 1)])

    def test_per_command_tier(self):
        run_twins(small_config(3), program(SMALL_SHAPES[::2], rounds=1), fast=False)

    def test_under_the_invariant_verifier(self, monkeypatch):
        monkeypatch.setenv("NEWTON_CHECK_INVARIANTS", "1")
        device = run_twins(small_config(3), program(SMALL_SHAPES[::2], rounds=1))
        assert all(engine.verifier is not None for engine in device.engines)

    @pytest.mark.parametrize("mode", [SHARD, REPLICATE])
    def test_two_device_cluster(self, mode):
        clusters = [
            ShardedCluster(
                [NewtonBackend(device=NewtonDevice(small_config(3), TIMING)) for _ in range(2)],
                mode=mode,
            )
            for _ in range(2)
        ]
        ours, theirs = clusters
        rng = np.random.default_rng(2)
        handles = []
        for m, n in SMALL_SHAPES:
            matrix = rng.standard_normal((m, n)).astype(np.float32)
            handles.append((ours.load_matrix(matrix), theirs.load_matrix(matrix)))
        for _ in range(3):
            for a, b in handles:
                vectors = rng.standard_normal((int(rng.integers(1, 9)), a.n))
                runs = ours.gemv_batch(a, vectors)
                expected = [theirs.gemv(b, vector) for vector in vectors]
                assert len(runs) == len(expected)
                for run, reference in zip(runs, expected):
                    assert run.cycles == reference.cycles
                    assert_same_output(reference.output, run.output)
                    assert [index for index, _ in run.device_runs] == [
                        index for index, _ in reference.device_runs
                    ]
                for x, y in zip(ours.backends, theirs.backends):
                    assert device_state(x.device) == device_state(y.device)
        assert ours.collect_metrics() == theirs.collect_metrics()
        assert sum(whole_runs(backend.device) for backend in ours.backends) > 0

    def test_process_workers(self):
        kwargs = dict(config=small_config(3), timing=TIMING, functional=True)
        theirs = ShardedCluster.from_spec("newton", 2, mode=SHARD, **kwargs)
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((389, 1100)).astype(np.float32)
        with ProcessShardedCluster(2, mode=SHARD, **kwargs) as ours:
            a, b = ours.load_matrix(matrix), theirs.load_matrix(matrix)
            for count in (3, 8, 1, 5):
                vectors = rng.standard_normal((count, 1100)).astype(np.float32)
                runs = ours.gemv_batch(a, vectors)
                expected = [theirs.gemv(b, vector) for vector in vectors]
                for run, reference in zip(runs, expected):
                    assert run.cycles == reference.cycles
                    assert_same_output(reference.output, run.output)
            assert ours.collect_metrics()["devices"] == theirs.collect_metrics()["devices"]


class TestChainedSignatures:
    @pytest.mark.parametrize("refresh", [True, False], ids=["ref", "noref"])
    def test_reads_past_the_end_between_batches(self, refresh):
        """A telemetry read past the end leaves the attribution cursor
        ahead of ``now``, so a batch's first run starts from a signature
        its later runs do not: each later run must look its record up
        under its predecessor's end signature."""
        batched = make_engine(True, FULL, refresh=refresh)
        single = make_engine(True, FULL, refresh=refresh)
        layouts = [engine.add_matrix(64, 1024) for engine in (batched, single)]
        for _ in range(6):
            runs = batched.run_gemvs(layouts[0], 3)
            expected = [single.run_gemv(layouts[1]) for _ in runs]
            assert [(r.start_cycle, r.end_cycle, r.stats) for r in runs] == [
                (r.start_cycle, r.end_cycle, r.stats) for r in expected
            ]
            assert controller_fingerprint(
                batched.channel.controller
            ) == controller_fingerprint(single.channel.controller)
            for engine in (batched, single):
                validate_metrics(engine.collect_metrics(end=runs[-1].end_cycle + 2000))
        assert batched.schedule_cache.whole_runs > 0


@pytest.mark.slow
class TestBatchEqualsRunsExhaustive:
    """Every ladder step of every family, refresh on and off, with and
    without data."""

    @pytest.mark.parametrize("functional", [True, False], ids=["data", "shapes"])
    @pytest.mark.parametrize("refresh", [True, False], ids=["ref", "noref"])
    @pytest.mark.parametrize(
        "family, opt", [p for family in FAMILIES for p in ladder(family)]
    )
    def test_three_channels(self, family, opt, refresh, functional):
        run_twins(
            small_config(3, family),
            program(SHAPES),
            opt=opt,
            functional=functional,
            refresh_enabled=refresh,
        )

    @pytest.mark.parametrize("refresh", [True, False], ids=["ref", "noref"])
    @pytest.mark.parametrize("opt", [FULL, NON_OPT], ids=["full", "non-opt"])
    def test_eval_config(self, opt, refresh):
        run_twins(eval_config(), program(SHAPES), opt=opt, refresh_enabled=refresh)

    def test_per_command_tier(self):
        run_twins(small_config(3), program(SHAPES, rounds=1), functional=False, fast=False)

    def test_under_the_invariant_verifier(self, monkeypatch):
        monkeypatch.setenv("NEWTON_CHECK_INVARIANTS", "1")
        run_twins(small_config(3, "bankgroup_ext"), program(SMALL_SHAPES, rounds=1))
