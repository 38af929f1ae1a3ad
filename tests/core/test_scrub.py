"""ECC scrubbing: fault injection, reload, and overhead accounting."""

import numpy as np
import pytest

from repro.core.device import NewtonDevice
from repro.core.scrub import MatrixScrubber, ScrubPolicy
from repro.dram.config import DRAMConfig
from repro.errors import ConfigurationError, ProtocolError

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=256)


def loaded_device(rng, m=32, n=512):
    device = NewtonDevice(CFG, functional=True)
    matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
    handle = device.load_matrix(matrix)
    return device, handle, matrix


class TestScrubPolicy:
    def test_reload_cycles(self):
        policy = ScrubPolicy()
        assert policy.reload_cycles(800, 8.0) == 100.0

    def test_overhead_is_small_at_paper_interval(self):
        """'a small bandwidth overhead (e.g., once per 1000 inputs)':
        at the paper's interval the overhead must be well under 1%."""
        policy = ScrubPolicy(inputs_per_scrub=1000)
        # GNMTs1: 8.4 MB matrix, ~5300-cycle inference, 8 B/cycle channel.
        overhead = policy.overhead_fraction(
            matrix_bytes=2 * 4096 * 1024, bytes_per_cycle=192.0,
            inference_cycles=5300.0,
        )
        assert overhead < 0.01

    def test_more_frequent_scrubs_cost_more(self):
        every_10 = ScrubPolicy(inputs_per_scrub=10)
        every_1000 = ScrubPolicy(inputs_per_scrub=1000)
        args = dict(matrix_bytes=10**6, bytes_per_cycle=100.0, inference_cycles=1000.0)
        assert every_10.overhead_fraction(**args) == pytest.approx(
            100 * every_1000.overhead_fraction(**args)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScrubPolicy(inputs_per_scrub=0)
        with pytest.raises(ConfigurationError):
            ScrubPolicy().reload_cycles(0, 1.0)
        with pytest.raises(ConfigurationError):
            ScrubPolicy().overhead_fraction(1, 1.0, 0.0)


class TestMatrixScrubber:
    def test_fresh_residency_matches_golden(self, rng):
        device, handle, matrix = loaded_device(rng)
        scrubber = MatrixScrubber(device, handle, matrix)
        assert scrubber.residency_matches_golden()

    def test_faults_corrupt_results(self, rng):
        device, handle, matrix = loaded_device(rng)
        scrubber = MatrixScrubber(device, handle, matrix)
        vector = rng.standard_normal(512).astype(np.float32)
        clean = device.gemv(handle, vector).output
        scrubber.inject_faults(64, seed=1)
        assert not scrubber.residency_matches_golden()
        corrupted = device.gemv(handle, vector).output
        assert not np.array_equal(clean, corrupted)

    def test_scrub_restores_exact_results(self, rng):
        """The paper's remedy: reloading from the non-AiM copy discards
        any accumulated transient errors."""
        device, handle, matrix = loaded_device(rng)
        scrubber = MatrixScrubber(device, handle, matrix)
        vector = rng.standard_normal(512).astype(np.float32)
        clean = device.gemv(handle, vector).output
        scrubber.inject_faults(64, seed=2)
        scrubber.scrub()
        assert scrubber.residency_matches_golden()
        assert np.array_equal(device.gemv(handle, vector).output, clean)

    def test_scrub_clears_padding_banks(self, rng):
        """A ragged matrix (40 rows on 16 banks) leaves padding banks in
        its last tile; the reload rewrites those too."""
        device, handle, matrix = loaded_device(rng, m=40)
        scrubber = MatrixScrubber(device, handle, matrix)
        slab = device.datapath.slabs[handle]
        slab[-1, 0] ^= 1  # bank 15 of the last tile holds no matrix row
        assert not scrubber.residency_matches_golden()
        scrubber.scrub()
        assert scrubber.residency_matches_golden()

    def test_requires_functional_device(self):
        device = NewtonDevice(CFG, functional=False)
        handle = device.load_matrix(m=16, n=512)
        with pytest.raises(ProtocolError):
            MatrixScrubber(device, handle, np.zeros((16, 512), dtype=np.float32))

    def test_inject_validation(self, rng):
        device, handle, matrix = loaded_device(rng)
        scrubber = MatrixScrubber(device, handle, matrix)
        with pytest.raises(ConfigurationError):
            scrubber.inject_faults(0)
