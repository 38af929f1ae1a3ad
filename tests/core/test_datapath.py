"""Differential validation of the batched functional datapath.

The engine's datapath evaluates whole buffer groups of tiles as single
vector kernels, deferring emits to flush points. The contract is that
its outputs are bit-identical (compared as ``uint32``, so NaN payloads
and the sign of zero count) to the per-command
:class:`~repro.core.reference.ReferenceExecutor`, which walks the same
stream COMP by COMP through one ``BankMacUnit`` per bank — for every
optimization combination, layout, batch, and the LUT path.
"""

import itertools

import numpy as np
import pytest

from repro.core.datapath import (
    BatchedDatapath,
    FunctionalDatapath,
    default_datapath,
)
from repro.core.device import NewtonDevice
from repro.core.optimizations import FULL
from repro.core.reference import ReferenceExecutor
from repro.dram.config import DRAMConfig
from repro.numerics.lut import ActivationLUT
from repro.workloads.generator import generate_layer_data

CFG = DRAMConfig(num_channels=2, banks_per_channel=16, rows_per_bank=256)

FLAGS = (
    "ganged_compute",
    "complex_commands",
    "interleaved_reuse",
    "four_bank_activation",
)


def reference_output(device, handle, matrix, vector):
    """The per-command reference, channel slice by channel slice."""
    output = np.zeros(handle.m, dtype=np.float32)
    for _, (lo, hi), layout in handle.placements:
        reference = ReferenceExecutor(device.config, device.opt)
        reference.load_matrix(layout, matrix[lo:hi])
        output[lo:hi] = reference.run_gemv(device.timing, layout, vector)
    return output


def assert_bits_equal(expected, got):
    assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))


def check_against_reference(opt, m, n, seed=5, batch=1, lut_activation=None):
    """Run ``batch`` back-to-back GEMVs on one device; each output must
    match its own reference run (with the LUT applied on top)."""
    data = generate_layer_data(m, n, seed=seed)
    device = NewtonDevice(
        CFG, opt=opt, functional=True, lut_activation=lut_activation
    )
    handle = device.load_matrix(data.matrix)
    if batch == 1:
        vectors = data.vector[None, :]
    else:
        rng = np.random.default_rng(seed + 1)
        vectors = rng.standard_normal((batch, n)).astype(np.float32)
    runs = device.gemv_batch(handle, vectors)
    assert len(runs) == batch
    for run, vector in zip(runs, vectors):
        expected = reference_output(device, handle, data.matrix, vector)
        if lut_activation is not None:
            expected = ActivationLUT(lut_activation).apply(expected)
        assert_bits_equal(expected, run.output)


class TestTierDifferential:
    """The batched datapath == the per-command reference, bit for bit."""

    @pytest.mark.parametrize("disabled", [None, *FLAGS])
    def test_all_opt_combinations(self, disabled):
        opt = FULL if disabled is None else FULL.evolve(**{disabled: False})
        check_against_reference(opt, 96, 768)

    def test_multi_latch_no_reuse(self):
        """The Section III-C four-latch row-major variant exercises the
        batched datapath's latch-conflict flushes."""
        opt = FULL.evolve(interleaved_reuse=False, result_latches=4)
        check_against_reference(opt, 64, 512)

    def test_lut_path(self):
        """Deferred emits must apply the LUT exactly like immediate ones."""
        opt = FULL.evolve(interleaved_reuse=False)
        check_against_reference(opt, 48, 512, lut_activation="sigmoid")

    def test_batch_runs(self):
        """Back-to-back inputs reuse the resident matrix; the per-run row
        cache and deferred state must reset cleanly between runs."""
        check_against_reference(FULL, 64, 512, batch=3)

    def test_ragged_shape(self):
        """A shape that pads both dimensions (partial final chunk/tile)."""
        check_against_reference(FULL, 70, 300)

    def test_special_values_in_matrix(self):
        """NaN/inf/subnormal matrix entries flow through identically."""
        data = generate_layer_data(32, 256, seed=7)
        matrix = data.matrix.copy()
        matrix[0, 0] = np.nan
        matrix[1, 1] = np.inf
        matrix[2, 2] = -np.inf
        matrix[3, 3] = np.float32(1e-42)  # subnormal after bf16 rounding
        device = NewtonDevice(CFG, opt=FULL, functional=True)
        handle = device.load_matrix(matrix)
        run = device.gemv(handle, data.vector)
        assert np.isnan(run.output[:3]).any()
        assert_bits_equal(
            reference_output(device, handle, matrix, data.vector), run.output
        )


class TestTierSelection:
    def test_default_is_batched(self):
        """Every engine runs the one datapath ``default_datapath`` names,
        a direct :class:`FunctionalDatapath` subclass (the benchmark's
        tracer resolves it that way)."""
        assert default_datapath() == "batched"
        device = NewtonDevice(CFG, functional=True)
        assert type(device.engines[0].datapath) is BatchedDatapath
        assert [
            cls.name for cls in FunctionalDatapath.__subclasses__()
        ] == ["batched"]


@pytest.mark.slow
class TestTierDifferentialExhaustive:
    """Every subset of the four layout/command flags."""

    @pytest.mark.parametrize(
        "bits", list(itertools.product([True, False], repeat=4))
    )
    def test_flag_subset(self, bits):
        opt = FULL.evolve(**dict(zip(FLAGS, bits)))
        check_against_reference(opt, 64, 512)
