"""The multi-channel device: partitioning, parallel timing, batching."""

import numpy as np
import pytest

from repro.core.device import NewtonDevice
from repro.core.optimizations import FULL
from repro.dram.config import DRAMConfig, hbm2e_like_config
from repro.dram.timing import hbm2e_like_timing
from repro.errors import ConfigurationError, LayoutError, ProtocolError

CFG2 = DRAMConfig(num_channels=2, banks_per_channel=16, rows_per_bank=512)
CFG1 = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=512)


class TestConstruction:
    @pytest.mark.parametrize("functional", [True, False])
    def test_family_traversal_checked_at_construction(self, functional):
        """output_stationary walks the interleaved layout tile-major, so
        pairing it with the no-reuse traversal fails when the device is
        built, not at its first gemv."""
        config = DRAMConfig(num_channels=1, command_family="output_stationary")
        with pytest.raises(ConfigurationError, match="interleaved_reuse"):
            NewtonDevice(
                config,
                opt=FULL.evolve(interleaved_reuse=False),
                functional=functional,
            )
        NewtonDevice(config, opt=FULL, functional=functional)


class TestLoadMatrix:
    def test_functional_needs_matrix_data(self):
        device = NewtonDevice(CFG1, functional=True)
        with pytest.raises(ProtocolError):
            device.load_matrix(m=16, n=512)

    def test_matrix_must_be_2d(self):
        device = NewtonDevice(CFG1)
        with pytest.raises(LayoutError):
            device.load_matrix(np.zeros(16, dtype=np.float32))

    def test_shape_only_requires_both_dims(self):
        device = NewtonDevice(CFG1, functional=False)
        with pytest.raises(LayoutError):
            device.load_matrix(m=16)

    def test_rows_partitioned_across_channels(self, rng):
        device = NewtonDevice(CFG2)
        matrix = rng.standard_normal((33, 512)).astype(np.float32)
        handle = device.load_matrix(matrix)
        assert [slice_ for _, slice_, _ in handle.placements] == [(0, 17), (17, 33)]

    def test_timing_mode_keeps_critical_channel_only(self):
        device = NewtonDevice(CFG2, functional=False)
        handle = device.load_matrix(m=33, n=512)
        assert len(handle.placements) == 1
        assert handle.placements[0][1] == (0, 17)  # the largest slice


class TestGemv:
    def test_multi_channel_output_matches_single_channel(self, rng):
        m, n = 48, 1024
        matrix = (rng.standard_normal((m, n)) / 32).astype(np.float32)
        vector = rng.standard_normal(n).astype(np.float32)
        one = NewtonDevice(CFG1)
        out1 = one.gemv(one.load_matrix(matrix), vector).output
        two = NewtonDevice(CFG2)
        out2 = two.gemv(two.load_matrix(matrix), vector).output
        # Channel partitioning changes which bank holds which row but not
        # the per-row arithmetic: outputs are bit-identical.
        assert np.array_equal(out1, out2)

    def test_channels_run_in_parallel(self):
        """Two channels should take about half the wall clock of one."""
        one = NewtonDevice(CFG1, functional=False)
        t1 = one.gemv(one.load_matrix(m=64, n=512)).cycles
        two = NewtonDevice(CFG2, functional=False)
        t2 = two.gemv(two.load_matrix(m=64, n=512)).cycles
        assert t2 < t1 * 0.75

    @pytest.mark.parametrize("functional", [True, False])
    def test_idle_channel_lag_is_not_counted(self, functional, rng):
        """A 1-row matrix runs on channel 0 only, so channel 1's clock
        falls behind; the next 64-row GEMV is timed from the device clock
        at issue, not from the lagging channel, in both modes."""
        device = NewtonDevice(
            hbm2e_like_config(num_channels=2, banks_per_channel=16),
            hbm2e_like_timing(),
            FULL,
            functional=functional,
        )
        if functional:
            narrow = device.load_matrix(
                rng.standard_normal((1, 512)).astype(np.float32)
            )
            wide = device.load_matrix(
                rng.standard_normal((64, 512)).astype(np.float32)
            )
            vector = rng.standard_normal(512).astype(np.float32)
        else:
            narrow = device.load_matrix(m=1, n=512)
            wide = device.load_matrix(m=64, n=512)
            vector = None
        cycles = []
        for _ in range(3):
            cycles.append(device.gemv(narrow, vector).cycles)
            cycles.append(device.gemv(wide, vector).cycles)
        assert cycles == [352, 560, 356, 560, 356, 560]

    def test_empty_handle_rejected(self):
        device = NewtonDevice(CFG1)
        from repro.core.device import MatrixHandle

        with pytest.raises(ProtocolError):
            device.gemv(MatrixHandle(m=4, n=4))

    def test_result_aggregation(self, rng):
        device = NewtonDevice(CFG2)
        matrix = (rng.standard_normal((32, 512)) / 16).astype(np.float32)
        result = device.gemv(device.load_matrix(matrix), rng.standard_normal(512).astype(np.float32))
        assert result.total_commands > 0
        assert len(result.channel_results) == 2
        assert result.output.shape == (32,)


class TestGemm:
    def test_matches_column_gemvs(self, rng):
        device = NewtonDevice(CFG1)
        matrix = (rng.standard_normal((32, 512)) / 16).astype(np.float32)
        handle = device.load_matrix(matrix)
        b = rng.standard_normal((512, 3)).astype(np.float32)
        product, cycles = device.gemm(handle, b)
        assert product.shape == (32, 3)
        assert cycles > 0
        for j in range(3):
            col = device.gemv(handle, b[:, j]).output
            assert np.array_equal(product[:, j], col)

    def test_close_to_numpy(self, rng):
        device = NewtonDevice(CFG1)
        matrix = (rng.standard_normal((32, 512)) / 16).astype(np.float32)
        handle = device.load_matrix(matrix)
        b = rng.standard_normal((512, 2)).astype(np.float32)
        product, _ = device.gemm(handle, b)
        exact = matrix.astype(np.float64) @ b.astype(np.float64)
        scale = np.abs(matrix).astype(np.float64) @ np.abs(b).astype(np.float64)
        assert np.all(np.abs(product - exact) <= scale * 0.03 + 1e-3)

    def test_shape_validation(self, rng):
        device = NewtonDevice(CFG1)
        handle = device.load_matrix(
            (rng.standard_normal((16, 512)) / 16).astype(np.float32)
        )
        with pytest.raises(LayoutError):
            device.gemm(handle, np.zeros((100, 2), dtype=np.float32))

    def test_requires_functional(self):
        device = NewtonDevice(CFG1, functional=False)
        handle = device.load_matrix(m=16, n=512)
        with pytest.raises(ProtocolError):
            device.gemm(handle, np.zeros((512, 1), dtype=np.float32))


class TestBatch:
    def test_batch_via_vectors(self, rng):
        device = NewtonDevice(CFG1)
        matrix = (rng.standard_normal((16, 512)) / 16).astype(np.float32)
        handle = device.load_matrix(matrix)
        vectors = rng.standard_normal((3, 512)).astype(np.float32)
        runs = device.gemv_batch(handle, vectors)
        assert len(runs) == 3
        singles = [device.gemv(handle, v).output for v in vectors]
        for run, single in zip(runs, singles):
            assert np.array_equal(run.output, single)

    def test_batch_per_input_time_constant(self):
        """Newton cannot exploit batch reuse: per-input cycles constant."""
        device = NewtonDevice(CFG1, functional=False, refresh_enabled=False)
        handle = device.load_matrix(m=32, n=512)
        runs = device.gemv_batch(handle, batch=4)
        cycles = [r.cycles for r in runs]
        assert max(cycles) - min(cycles) <= device.timing.t_cmd * 2

    def test_batch_validation(self):
        device = NewtonDevice(CFG1, functional=False)
        handle = device.load_matrix(m=16, n=512)
        with pytest.raises(ProtocolError):
            device.gemv_batch(handle)
        with pytest.raises(ProtocolError):
            device.gemv_batch(handle, batch=0)


class TestPower:
    def test_power_report_available(self):
        device = NewtonDevice(CFG1, functional=False)
        device.gemv(device.load_matrix(m=32, n=512))
        report = device.power_report()
        assert report.average_power > 0
        assert device.conventional_dram_power() > 1.0

    def test_newton_power_in_paper_range(self):
        """Per-channel average power should land near the paper's ~2.8x."""
        device = NewtonDevice(CFG1, functional=False)
        device.gemv(device.load_matrix(m=16 * 20, n=1024))
        ratio = device.power_report().average_power / device.conventional_dram_power()
        assert 2.0 < ratio < 3.5


class TestLoadTruncationContract:
    """Timing-only loads drop channels 1+ by design; the handle and the
    device must record it, and a functional device must never do it."""

    def test_timing_only_load_records_truncation(self):
        device = NewtonDevice(CFG2, functional=False)
        handle = device.load_matrix(m=100, n=512)
        assert handle.truncated
        assert handle.truncated_channels == 1
        assert handle.truncated_rows == 50
        assert device.load_truncations == 1

    def test_single_channel_load_is_not_truncated(self):
        device = NewtonDevice(CFG1, functional=False)
        handle = device.load_matrix(m=100, n=512)
        assert not handle.truncated
        assert handle.truncated_channels == 0
        assert handle.truncated_rows == 0
        assert device.load_truncations == 0

    def test_truncation_counts_accumulate_per_device(self):
        device = NewtonDevice(CFG2, functional=False)
        device.load_matrix(m=64, n=512)
        device.load_matrix(m=64, n=512)
        assert device.load_truncations == 2

    def test_truncation_logged(self, caplog):
        import logging

        device = NewtonDevice(CFG2, functional=False)
        with caplog.at_level(logging.DEBUG, logger="repro.core.device"):
            device.load_matrix(m=100, n=512)
        assert "placement(s)" in caplog.text and "dropped" in caplog.text

    def test_truncated_rows_cover_dropped_placements(self):
        from repro.core.layout import partition_rows

        device = NewtonDevice(CFG2, functional=False)
        handle = device.load_matrix(m=101, n=512)
        dropped = sum(
            hi - lo
            for ch, (lo, hi) in enumerate(partition_rows(101, 2))
            if ch >= 1
        )
        assert handle.truncated_rows == dropped

    def test_functional_device_never_truncates(self):
        """A functional device simulates every channel, so a multi-channel
        load places everything (truncation would silently drop data)."""
        device = NewtonDevice(CFG2, functional=True)
        matrix = np.ones((100, 512), dtype=np.float32)
        handle = device.load_matrix(matrix)
        assert not handle.truncated
        assert len(handle.placements) == 2

    def test_telemetry_exports_the_counter(self):
        device = NewtonDevice(CFG2, functional=False)
        device.gemv(device.load_matrix(m=100, n=512))
        record = device.collect_metrics()
        assert record["load_truncations"] == 1


class TestBatchShapeValidation:
    """gemv_batch rejects malformed vector batches (not just missing ones)."""

    def _functional_handle(self):
        device = NewtonDevice(CFG1, functional=True)
        matrix = np.ones((16, 512), dtype=np.float32)
        return device, device.load_matrix(matrix)

    def test_width_mismatch_rejected(self):
        device, handle = self._functional_handle()
        with pytest.raises(LayoutError, match="512"):
            device.gemv_batch(handle, np.ones((2, 100), dtype=np.float32))

    def test_3d_rejected(self):
        device, handle = self._functional_handle()
        with pytest.raises(LayoutError):
            device.gemv_batch(handle, np.ones((2, 2, 512), dtype=np.float32))

    def test_1d_vector_promoted_to_batch_of_one(self):
        device, handle = self._functional_handle()
        runs = device.gemv_batch(handle, np.ones(512, dtype=np.float32))
        assert len(runs) == 1
        assert runs[0].output.shape == (16,)
