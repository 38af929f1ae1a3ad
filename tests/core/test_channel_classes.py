"""A C-channel device equals C one-channel devices, each given its slice.

Section III-D: "Newton's per-channel operation and timing are simply
repeated in parallel across the channels". The device times each class
of identical channels once and computes every row in one datapath. The
oracle here does neither: :class:`PerChannelDevices` is C one-channel
devices, channel c holding the ``partition_rows`` slice c, with the
device's composition rule written out — outputs concatenated in channel
order, a GEMV timed from the latest participating start to the latest
end, telemetry and power read per channel. Compared, for every case:

* outputs as ``uint32`` (NaN payloads and signed zeros count);
* each GEMV's cycles;
* every per-channel telemetry record, and the power report.
"""

import dataclasses

import numpy as np
import pytest

from repro.backends.base import Backend, BackendRun
from repro.backends.newton import NewtonBackend
from repro.cluster import ShardedCluster
from repro.core import engine as engine_module
from repro.core.datapath import BLOCK_ELEMS, BatchedDatapath
from repro.core.device import NewtonDevice
from repro.core.layout import partition_rows
from repro.core.optimizations import FULL, NON_OPT
from repro.dram.config import DRAMConfig
from repro.errors import LayoutError, ProtocolError
from repro.experiments.common import eval_config, eval_timing
from repro.telemetry import SCHEMA
from repro.workloads.catalog import TABLE_II_LAYERS
from repro.workloads.models import (
    alexnet_model,
    bert_large_model,
    dlrm_model,
    gnmt_model,
)
from repro.workloads.scenarios import decode_model

TIMING = eval_timing()


def small_config(channels: int, family: str = "newton") -> DRAMConfig:
    return DRAMConfig(
        num_channels=channels, banks_per_channel=16, rows_per_bank=512
    ).with_overrides(command_family=family)


@dataclasses.dataclass(eq=False)
class OracleHandle:
    m: int
    n: int
    shards: list
    """(device, (row_lo, row_hi), handle) per channel holding rows."""


class PerChannelDevices(Backend):
    """C one-channel devices behind the Backend protocol: the oracle."""

    name = "newton"

    def __init__(self, config, timing=TIMING, opt=FULL, **kwargs):
        self.config = config
        self.timing = timing
        self.functional = kwargs.get("functional", True)
        single = dataclasses.replace(config, num_channels=1)
        self.devices = [
            NewtonDevice(single, timing, opt, **kwargs)
            for _ in range(config.num_channels)
        ]

    def load_matrix(self, matrix=None, *, m=None, n=None):
        if matrix is not None:
            m, n = matrix.shape
        shards = []
        for device, (lo, hi) in zip(self.devices, partition_rows(m, len(self.devices))):
            if hi == lo:
                continue
            sub = (
                device.load_matrix(matrix[lo:hi])
                if matrix is not None
                else device.load_matrix(m=hi - lo, n=n)
            )
            shards.append((device, (lo, hi), sub))
        return OracleHandle(m, n, shards)

    def store_matrix(self, handle, matrix):
        for device, (lo, hi), sub in handle.shards:
            device.store_matrix(sub, np.asarray(matrix)[lo:hi])

    def gemv(self, handle, vector=None, *, fused_input=False):
        runs = [
            device.gemv(sub, vector, fused_input=fused_input)
            for device, _, sub in handle.shards
        ]
        channels = [run.channel_results[0] for run in runs]
        cycles = max(r.end_cycle for r in channels) - max(
            r.start_cycle for r in channels
        )
        output = None
        if self.functional:
            output = np.concatenate([run.output for run in runs])
        return BackendRun(cycles, output)

    def service_cycles(self, handle):
        return float(self.gemv(handle).cycles)

    def collect_metrics(self):
        return {
            "schema": SCHEMA,
            "kind": "device",
            "channels": {
                str(c): device.collect_metrics()["channels"]["0"]
                for c, device in enumerate(self.devices)
            },
        }

    def power_report(self):
        return self.devices[0].power_report()


def assert_same_output(expected, got):
    if expected is None:
        assert got is None
    else:
        assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))


def assert_same_state(device, oracle):
    assert device.collect_metrics() == oracle.collect_metrics()
    assert device.power_report() == oracle.power_report()


def run_program(config, program, *, opt=FULL, functional=True, seed=0, **kwargs):
    """Run ``program`` on a device and on the oracle, comparing every
    GEMV as it completes and the telemetry and power at the end.

    ``program`` is a list of ``("load", m, n)``, ``("gemv", i)``,
    ``("fused", i)`` and ``("store", i)`` steps; ``i`` indexes the loads.
    Returns the device's GEMV cycles, in order.
    """
    device = NewtonDevice(config, TIMING, opt, functional=functional, **kwargs)
    oracle = PerChannelDevices(config, TIMING, opt, functional=functional, **kwargs)
    rng = np.random.default_rng(seed)
    loads, cycles = [], []
    for step in program:
        if step[0] == "load":
            _, m, n = step
            if functional:
                matrix = (rng.standard_normal((m, n)) / np.sqrt(n)).astype(np.float32)
                loads.append((device.load_matrix(matrix), oracle.load_matrix(matrix)))
            else:
                loads.append(
                    (device.load_matrix(m=m, n=n), oracle.load_matrix(m=m, n=n))
                )
            continue
        ours, theirs = loads[step[1]]
        if step[0] == "store":
            matrix = rng.standard_normal((ours.m, ours.n)).astype(np.float32)
            device.store_matrix(ours, matrix)
            oracle.store_matrix(theirs, matrix)
            continue
        vector = (
            rng.standard_normal(ours.n).astype(np.float32) if functional else None
        )
        fused = step[0] == "fused"
        run = device.gemv(ours, vector, fused_input=fused)
        expected = oracle.gemv(theirs, vector, fused_input=fused)
        assert run.cycles == expected.cycles
        assert_same_output(expected.output, run.output)
        cycles.append(run.cycles)
    assert_same_state(device, oracle)
    return cycles


def sequence(*shapes, repeats=2):
    """Load every shape, then run each ``repeats`` times, in order."""
    program = [("load", m, n) for m, n in shapes]
    for _ in range(repeats):
        program += [("gemv", i) for i in range(len(shapes))]
    return program


class TestOracle:
    """The device against one-channel devices; fast cases."""

    @pytest.mark.parametrize("functional", [True, False])
    def test_ragged_tile_counts(self, functional):
        """389 x 1100 on 24 channels: five channels hold 17 rows (two
        tiles) and nineteen hold 16 (one), so the load splits the device
        into two classes."""
        config = small_config(24)
        run_program(config, sequence((389, 1100)), functional=functional)
        device = NewtonDevice(config, TIMING, functional=False)
        device.load_matrix(m=389, n=1100)
        assert device.classes == [range(0, 5), range(5, 24)]

    def test_rows_beyond_one_tile_block(self):
        """1,100 rows are 69 tiles of the device's datapath: two kernel
        blocks, the second partial; each channel holds 35 tiles."""
        run_program(small_config(2), sequence((1100, 300), repeats=1))

    def test_narrow_matrix_leaves_channels_idle(self):
        """8 x 256 on 24 channels: sixteen channels hold no rows."""
        run_program(small_config(24), sequence((8, 256), (389, 1100), (8, 256)))

    @pytest.mark.parametrize("functional", [True, False])
    def test_idle_channel_sequence(self, functional):
        """A 1-row and a 64-row matrix on two channels, alternating; the
        idle channel's lag is not counted."""
        config = DRAMConfig(num_channels=2, banks_per_channel=16)
        program = [("load", 1, 512), ("load", 64, 512)]
        program += [("gemv", 0), ("gemv", 1)] * 3
        cycles = run_program(config, program, functional=functional)
        assert cycles == [352, 560, 356, 560, 356, 560]

    def test_split_after_gemvs_copies_timing_state(self):
        """GEMVs first move one class's clock, refresh and replay state;
        then a ragged load splits it, and both parts carry on from it."""
        program = [("load", 96, 700), ("gemv", 0), ("fused", 0), ("gemv", 0)]
        program += [("load", 49, 300), ("gemv", 1), ("gemv", 0), ("fused", 1)]
        program += [("load", 2, 512), ("gemv", 2), ("gemv", 1), ("gemv", 0)]
        run_program(small_config(3), program)
        device = NewtonDevice(small_config(3), TIMING, functional=False)
        for m, n in ((96, 700), (49, 300), (2, 512)):
            device.load_matrix(m=m, n=n)
        assert device.classes == [range(0, 1), range(1, 2), range(2, 3)]

    @pytest.mark.parametrize(
        "family, opt, lut",
        [
            ("newton", FULL, None),
            ("newton", FULL.evolve(interleaved_reuse=False), "sigmoid"),
            ("newton", FULL.evolve(interleaved_reuse=False, result_latches=4), None),
            ("output_stationary", FULL, "sigmoid"),
            ("bankgroup_ext", FULL, None),
        ],
        ids=["newton", "no-reuse-sigmoid", "four-latch", "output_stationary-sigmoid", "bankgroup_ext"],
    )
    def test_families(self, family, opt, lut):
        # 66 rows on four channels are two tiles on channels 0-1 and one
        # on 2-3; three rows leave channel 3 idle.
        program = sequence((66, 1100), (140, 700), (3, 300))
        program += [("store", 1), ("gemv", 1), ("fused", 0)]
        run_program(small_config(4, family), program, opt=opt, lut_activation=lut)

    def test_per_command_tier(self):
        run_program(small_config(3), sequence((70, 600), (2, 512)), fast=False)

    def test_under_the_invariant_verifier(self, monkeypatch):
        monkeypatch.setenv("NEWTON_CHECK_INVARIANTS", "1")
        program = sequence((70, 600), (2, 512)) + [("fused", 0)]
        run_program(small_config(3), program, opt=NON_OPT)
        device = NewtonDevice(small_config(3), TIMING)
        device.load_matrix(np.ones((2, 512), dtype=np.float32))
        assert all(engine.verifier is not None for engine in device.engines)
        record = device.collect_metrics()["channels"]
        assert all(record[c]["verify"]["enabled"] for c in record)

    def test_infinite_inputs(self):
        """Infinities make NaNs in the padding rows of every tile; only
        the real rows reach the output."""
        config = small_config(4)
        device = NewtonDevice(config, TIMING)
        oracle = PerChannelDevices(config, TIMING)
        matrix = np.random.default_rng(3).standard_normal((70, 600)).astype(np.float32)
        vector = np.ones(600, dtype=np.float32)
        vector[[5, 517]] = [np.inf, -np.inf]
        run = device.gemv(device.load_matrix(matrix), vector)
        expected = oracle.gemv(oracle.load_matrix(matrix), vector)
        assert_same_output(expected.output, run.output)


def _session_steps(backend, steps=3):
    # d = 33 puts 17 and 16 rows on two channels: two tiles and one.
    session = backend.open_session(decode_model(d=33, window=8, blocks=1), seed=0)
    try:
        return session.run_steps(steps)
    finally:
        session.close()


def assert_same_steps(ours, theirs):
    assert [r.total_cycles for r in ours] == [r.total_cycles for r in theirs]
    for a, b in zip(ours, theirs):
        assert_same_output(b.output, a.output)


class TestSessions:
    def test_fused_decode_session_on_two_channels(self):
        config = small_config(2)
        device = NewtonDevice(config, TIMING)
        oracle = PerChannelDevices(config, TIMING)
        ours = _session_steps(NewtonBackend(device=device))
        assert sum(r.fused_gemvs for r in ours) > 0
        assert_same_steps(ours, _session_steps(oracle))
        assert_same_state(device, oracle)

    def test_fused_decode_session_on_a_two_device_cluster(self):
        config = small_config(2)
        devices = [NewtonDevice(config, TIMING) for _ in range(2)]
        oracles = [PerChannelDevices(config, TIMING) for _ in range(2)]
        ours = _session_steps(
            ShardedCluster([NewtonBackend(device=d) for d in devices])
        )
        assert_same_steps(ours, _session_steps(ShardedCluster(oracles)))
        for device, oracle in zip(devices, oracles):
            assert_same_state(device, oracle)


class TestOneRuleForBothModes:
    def test_timing_only_equals_functional(self):
        """Same loads and GEMVs, with and without data: same cycles, same
        telemetry, same power."""
        config = small_config(24)
        program = sequence((389, 1100), (8, 256), (64, 512))
        assert run_program(config, program) == run_program(
            config, program, functional=False
        )
        devices = []
        for functional in (True, False):
            device = NewtonDevice(config, TIMING, functional=functional)
            for m, n in ((389, 1100), (8, 256)):
                handle = (
                    device.load_matrix(np.ones((m, n), dtype=np.float32))
                    if functional
                    else device.load_matrix(m=m, n=n)
                )
                device.gemv(handle, np.ones(n, dtype=np.float32))
            devices.append(device)
        assert devices[0].collect_metrics() == devices[1].collect_metrics()
        assert devices[0].power_report() == devices[1].power_report()


class TestClasses:
    def test_fresh_device_is_one_class(self):
        for functional in (True, False):
            device = NewtonDevice(eval_config(), TIMING, functional=functional)
            assert len(device.engines) == 1
            assert device.classes == [range(24)]

    def test_equal_layouts_do_not_split(self):
        """1024 rows on 24 channels: 43 or 42 rows each, three tiles."""
        device = NewtonDevice(eval_config(), TIMING, functional=False)
        handle = device.load_matrix(m=1024, n=1024)
        assert device.classes == [range(24)]
        assert len({id(layout) for layout in handle.layouts}) == 1
        (result,) = device.gemv(handle).channel_results
        assert (result.channels, result.row_slice) == (24, (0, 1024))

    def test_telemetry_gives_every_member_its_class_record(self):
        device = NewtonDevice(small_config(24), TIMING, functional=False)
        device.gemv(device.load_matrix(m=389, n=1100))
        channels = device.collect_metrics()["channels"]
        assert list(channels) == [str(c) for c in range(24)]
        assert all(channels[str(c)] == channels["0"] for c in range(5))
        assert all(channels[str(c)] == channels["5"] for c in range(5, 24))
        assert channels["0"]["end_cycle"] > channels["5"]["end_cycle"]
        channels["1"]["end_cycle"] = -1
        assert channels["0"]["end_cycle"] != -1  # copies, not one record

    @pytest.mark.parametrize("functional", [True, False])
    def test_refused_input_moves_nothing(self, functional):
        """A wrong-length vector or an empty handle raises before any
        class runs: no clock moves, nothing is counted."""
        from repro.core.device import MatrixHandle

        device = NewtonDevice(small_config(4), TIMING, functional=functional)
        if functional:
            handle = device.load_matrix(np.ones((70, 600), dtype=np.float32))
        else:
            handle = device.load_matrix(m=70, n=600)
        device.gemv(handle, np.ones(600, dtype=np.float32))
        before = device.collect_metrics()
        with pytest.raises(ProtocolError):
            device.gemv(MatrixHandle(m=4, n=4), fused_input=True)
        if functional:
            with pytest.raises(LayoutError):
                device.gemv(handle, np.ones(599, dtype=np.float32), fused_input=True)
            with pytest.raises(ProtocolError):
                device.gemv(handle, fused_input=True)
        assert device.collect_metrics() == before


class TestWorkDrops:
    def test_kernel_calls_per_chunk(self, monkeypatch):
        """A 1,024 x 1,024 GEMV on the 24-channel eval config: the device
        computes every channel's rows in one datapath, so the kernel runs
        one ``step`` per block of whole tiles across the whole width, and
        the latch walk one ``finish`` for the GEMV."""
        steps, finishes = [], []
        step, finish = BatchedDatapath.step, BatchedDatapath.finish

        def counting_step(self, bits, *args):
            steps.append(bits.shape)
            step(self, bits, *args)

        def counting_finish(self, *args):
            finishes.append(1)
            finish(self, *args)

        monkeypatch.setattr(BatchedDatapath, "step", counting_step)
        monkeypatch.setattr(BatchedDatapath, "finish", counting_finish)
        device = NewtonDevice(eval_config(), TIMING)
        matrix = np.ones((1024, 1024), dtype=np.float32)
        device.gemv(device.load_matrix(matrix), np.ones(1024, dtype=np.float32))
        rows = BLOCK_ELEMS // (16 * 1024) * 16
        assert steps == [(rows, 1024)] * -(-1024 // rows)
        assert finishes == [1]

    def test_one_lowering_per_layout(self, monkeypatch):
        """Every model layer on 24 channels lowers once, not per channel."""
        lowered = []
        real = engine_module.segment_stream

        def counting(*args, **kwargs):
            lowered.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "segment_stream", counting)
        device = NewtonDevice(eval_config(), TIMING, functional=False)
        layers = [layer for layer in dlrm_model().layers if layer.on_newton]
        for layer in layers:
            device.gemv(device.load_matrix(m=layer.m, n=layer.n))
        assert len(lowered) == len(layers)


@pytest.mark.slow
class TestOracleExhaustive:
    """The device against one-channel devices on the paper's shapes."""

    @pytest.mark.parametrize("layer", TABLE_II_LAYERS, ids=lambda layer: layer.name)
    @pytest.mark.parametrize("opt", [FULL, NON_OPT], ids=["full", "non-opt"])
    def test_table_ii(self, layer, opt):
        run_program(
            eval_config(), sequence((layer.m, layer.n)), opt=opt, functional=False
        )

    @pytest.mark.parametrize(
        "spec",
        [gnmt_model(), bert_large_model(blocks=1), alexnet_model(), dlrm_model()],
        ids=lambda spec: spec.name,
    )
    def test_model_shapes(self, spec):
        shapes = list(
            dict.fromkeys((layer.m, layer.n) for layer in spec.layers if layer.on_newton)
        )
        run_program(eval_config(), sequence(*shapes))
