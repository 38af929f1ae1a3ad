"""Differential validation of the batched functional datapath.

The device's datapath computes each GEMV from the matrix's slab in two
phases: the multipliers and adder trees in blocks of whole tiles, then
one walk of the result latches. The contract is that its outputs are
bit-identical (compared as ``uint32``, so NaN payloads and the sign of
zero count) to the per-command
:class:`~repro.core.reference.ReferenceExecutor`, which walks the
lowered stream COMP by COMP through one ``BankMacUnit`` per bank — for
every optimization combination, command family, layout, batch, and the
LUT path.
"""

import itertools

import numpy as np
import pytest

from repro.core.datapath import (
    BLOCK_ELEMS,
    BatchedDatapath,
    FunctionalDatapath,
    default_datapath,
)
from repro.core.device import NewtonDevice
from repro.core.layout import make_layout, partition_rows
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

RIVAL_FAMILIES = [
    pytest.param("output_stationary", None, id="output_stationary"),
    pytest.param("output_stationary", "sigmoid", id="output_stationary-sigmoid"),
    pytest.param("bankgroup_ext", None, id="bankgroup_ext"),
]
"""The rival command families, the tile-major one with and without the
in-DRAM LUT its whole-row readout applies."""

FAMILY_SUBSETS = [
    pytest.param(
        family, bits, id=family + "-" + "".join(str(int(b)) for b in bits)
    )
    for family in ("newton", "output_stationary", "bankgroup_ext")
    for bits in itertools.product([True, False], repeat=4)
    # The tile-major family walks only the interleaved layout.
    if family != "output_stationary" or bits[FLAGS.index("interleaved_reuse")]
]


RAGGED_SHAPES = [(70, 300), (40, 700), (20, 9000), (200, 700)]
"""Shapes that pad both dimensions. 20 x 9,000 is wider than a block's
element budget allows a tile (:data:`BLOCK_ELEMS`), so each block is one
tile and the rows end in the second; 200 x 700 is a block of 11 tiles
and one of 2, the rows ending in the second; every shape has a ragged
last chunk."""


def reference_output(device, handle, matrix, vector):
    """The per-command reference, channel slice by channel slice, each
    in a layout of its own."""
    output = np.zeros(handle.m, dtype=np.float32)
    for lo, hi in partition_rows(handle.m, device.config.num_channels):
        if hi == lo:
            continue
        layout = make_layout(
            device.config,
            hi - lo,
            handle.n,
            interleaved=device.opt.interleaved_reuse,
            latches_per_bank=device.opt.result_latches,
        )
        reference = ReferenceExecutor(device.config, device.opt)
        reference.load_matrix(layout, matrix[lo:hi])
        output[lo:hi] = reference.run_gemv(device.timing, layout, vector)
    return output


def assert_bits_equal(expected, got):
    assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))


def check_against_reference(
    opt, m, n, seed=5, batch=1, lut_activation=None, store=False, config=CFG
):
    """Run ``batch`` back-to-back GEMVs on one device; each output must
    match its own reference run (with the LUT applied on top). With
    ``store`` the matrix arrives through ``store_matrix`` over a
    zero-loaded residency, as the KV-cache writes it."""
    data = generate_layer_data(m, n, seed=seed)
    device = NewtonDevice(
        config, opt=opt, functional=True, lut_activation=lut_activation
    )
    if store:
        handle = device.load_matrix(np.zeros_like(data.matrix))
        device.store_matrix(handle, data.matrix)
    else:
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
        """The Section III-C four-latch row-major variant: two slots per
        channel share one pass."""
        opt = FULL.evolve(interleaved_reuse=False, result_latches=4)
        check_against_reference(opt, 64, 512)

    def test_multi_latch_no_reuse_ragged(self):
        """Five slots per channel with four latches: a full pass and a
        one-slot pass, over a partial second chunk."""
        opt = FULL.evolve(interleaved_reuse=False, result_latches=4)
        check_against_reference(opt, 140, 700)

    def test_lut_path(self):
        """The whole-row read applies the LUT to the reference's sums,
        also over more than one block (20 x 9,000 is two of one tile)."""
        assert 16 * 9000 > BLOCK_ELEMS
        opt = FULL.evolve(interleaved_reuse=False)
        for m, n in [(48, 512), (20, 9000)]:
            check_against_reference(opt, m, n, lut_activation="sigmoid")

    def test_batch_runs(self):
        """Back-to-back inputs reuse the resident matrix; each run starts
        from zeroed latches."""
        check_against_reference(FULL, 64, 512, batch=3)

    @pytest.mark.parametrize("interleaved", [True, False])
    def test_store_matrix(self, interleaved):
        """A matrix rewritten in place lands in the slab exactly where
        the reference's ``place`` puts it, in both layouts (ragged, so
        padding banks and a partial chunk are covered)."""
        opt = FULL.evolve(interleaved_reuse=interleaved)
        check_against_reference(opt, 70, 300, store=True)

    def test_ragged_shape(self):
        """Shapes that pad both dimensions (partial final chunk/tile),
        across block boundaries (:data:`RAGGED_SHAPES`)."""
        assert 16 * 9000 > BLOCK_ELEMS
        for m, n in RAGGED_SHAPES:
            check_against_reference(FULL, m, n)

    @pytest.mark.parametrize("m, n", RAGGED_SHAPES)
    @pytest.mark.parametrize("family, lut", RIVAL_FAMILIES)
    def test_ragged_shape_per_family(self, family, lut, m, n):
        """The rival families' walks on shapes that pad both dimensions:
        the tile-major walk chains each tile's latch across chunks, and
        ``bankgroup_ext`` reads out per chunk like Newton."""
        config = CFG.with_overrides(command_family=family)
        check_against_reference(FULL, m, n, lut_activation=lut, config=config)

    def test_special_values_in_matrix(self):
        """NaN/inf/subnormal/-0 matrix entries flow through identically.

        Row 4 puts +inf and -inf in one sub-chunk against positive
        inputs, so the adder tree makes a NaN from float32 arithmetic;
        row 5 puts them in two sub-chunks, so the latch makes it. Both
        outputs must still carry the canonical ``0x7FC00000``. The
        second matrix puts the same cases, and a row of -0, in the
        sub-chunks of a ragged last chunk, after a full one."""
        data = generate_layer_data(32, 256, seed=7)
        matrix = data.matrix.copy()
        vector = data.vector.copy()
        matrix[0, 0] = np.nan
        matrix[1, 1] = np.inf
        matrix[2, 2] = -np.inf
        matrix[3, 3] = np.float32(1e-42)  # subnormal after bf16 rounding
        matrix[4, 16] = np.inf
        matrix[4, 17] = -np.inf
        matrix[5, 32] = np.inf
        matrix[5, 48] = -np.inf
        vector[16:18] = 1.0
        vector[[32, 48]] = 1.0
        self.check_special_values(matrix, vector, [4, 5])

        data = generate_layer_data(32, 700, seed=8)
        matrix = data.matrix.copy()
        vector = data.vector.copy()
        matrix[0, 520] = np.nan
        matrix[1, 530] = np.inf
        matrix[2, 545] = -np.inf
        matrix[3, 560] = np.float32(1e-42)
        matrix[4, 592] = np.inf
        matrix[4, 593] = -np.inf
        matrix[5, 640] = np.inf
        matrix[5, 656] = -np.inf
        matrix[6, 699] = np.nan  # the last column, in a padded sub-chunk
        matrix[7] = -0.0
        matrix[8, 512:] = -0.0
        vector[512:] = 1.0
        self.check_special_values(matrix, vector, [0, 4, 5, 6])

    @staticmethod
    def check_special_values(matrix, vector, nan_rows):
        device = NewtonDevice(CFG, opt=FULL, functional=True)
        handle = device.load_matrix(matrix)
        run = device.gemv(handle, vector)
        assert np.isnan(run.output[:3]).any()
        assert list(run.output.view(np.uint32)[nan_rows]) == [0x7FC00000] * len(
            nan_rows
        )
        assert_bits_equal(
            reference_output(device, handle, matrix, vector), run.output
        )


class TestKernelCalls:
    @pytest.mark.parametrize(
        "family, opt",
        [
            ("newton", FULL),
            ("newton", FULL.evolve(interleaved_reuse=False)),
            ("newton", FULL.evolve(interleaved_reuse=False, result_latches=4)),
            ("output_stationary", FULL),
        ],
        ids=["interleaved", "no-reuse", "four-latch", "tile-major"],
    )
    def test_one_kernel_call_per_chunk(self, monkeypatch, family, opt):
        """70x1100 on one channel is 5 tiles (or slots) of rows and 3
        chunks, 69 sub-chunks wide: every walk runs the kernel once
        (``step``) over all 80 padded rows and the whole width, and walks
        the latches once (``finish``); a timing-only device does
        neither. (The name is older than the row blocks.)"""
        steps, finishes = [], []
        step, finish = BatchedDatapath.step, BatchedDatapath.finish

        def counting_step(self, bits, *args):
            steps.append(bits.shape)
            step(self, bits, *args)

        def counting_finish(self, sums, *args):
            finishes.append(sums.shape)
            finish(self, sums, *args)

        monkeypatch.setattr(BatchedDatapath, "step", counting_step)
        monkeypatch.setattr(BatchedDatapath, "finish", counting_finish)
        config = DRAMConfig(
            num_channels=1, banks_per_channel=16, rows_per_bank=256
        ).with_overrides(command_family=family)
        data = generate_layer_data(70, 1100, seed=3)
        device = NewtonDevice(config, opt=opt, functional=True)
        device.gemv(device.load_matrix(data.matrix), data.vector)
        assert steps == [(80, 1104)]
        assert finishes == [(69, 80)]
        timing_only = NewtonDevice(config, opt=opt, functional=False)
        timing_only.gemv(timing_only.load_matrix(m=70, n=1100))
        assert len(steps) == len(finishes) == 1


class TestTierSelection:
    def test_default_is_batched(self):
        """Every functional device runs the one datapath
        ``default_datapath`` names, a direct :class:`FunctionalDatapath`
        subclass (the benchmark's tracer resolves it that way); its
        timing engines and a timing-only device have none."""
        assert default_datapath() == "batched"
        device = NewtonDevice(CFG, functional=True)
        assert type(device.datapath) is BatchedDatapath
        assert all(engine.datapath is None for engine in device.engines)
        assert NewtonDevice(CFG, functional=False).datapath is None
        assert [
            cls.name for cls in FunctionalDatapath.__subclasses__()
        ] == ["batched"]


@pytest.mark.slow
class TestTierDifferentialExhaustive:
    """Every subset of the four layout/command flags, in every command
    family that can walk it (16 + 16 + 8 cases)."""

    @pytest.mark.parametrize("family, bits", FAMILY_SUBSETS)
    def test_flag_subset(self, family, bits):
        opt = FULL.evolve(**dict(zip(FLAGS, bits)))
        config = CFG.with_overrides(command_family=family)
        check_against_reference(opt, 64, 512, config=config)
