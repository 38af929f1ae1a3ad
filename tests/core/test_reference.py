"""The per-command reference executor vs the fast engine.

The strongest correctness statement in the repository: a completely
independent interpretation of the command stream (per-command MAC units,
protocol-checked buffer reads, explicit open-row tracking) produces
bit-identical outputs to the vectorized engine — for every optimization
combination.
"""

import numpy as np
import pytest

from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import FULL, NON_OPT
from repro.core.reference import ReferenceExecutor
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=256)
TIMING = TimingParams()

VARIANTS = [
    FULL,
    FULL.evolve(ganged_compute=False),
    FULL.evolve(complex_commands=False),
    FULL.evolve(ganged_compute=False, complex_commands=False),
    FULL.evolve(four_bank_activation=False),
    FULL.evolve(interleaved_reuse=False),
    FULL.evolve(interleaved_reuse=False, result_latches=4),
    NON_OPT,
]


def run_both(opt, m, n, seed):
    rng = np.random.default_rng(seed)
    matrix = (rng.standard_normal((m, n)) / 16).astype(np.float32)
    vector = rng.standard_normal(n).astype(np.float32)
    engine = NewtonChannelEngine(CFG, TIMING, opt, functional=True)
    layout = engine.add_matrix(m, n, matrix)
    fast = engine.run_gemv(layout, vector).output
    reference = ReferenceExecutor(CFG, opt)
    reference.load_matrix(layout, matrix)
    slow = reference.run_gemv(TIMING, layout, vector)
    return fast, slow


def assert_bits_equal(fast, slow):
    """Bitwise, so ``-0.0`` vs ``+0.0`` differs and equal NaNs match."""
    assert np.array_equal(fast.view(np.uint32), slow.view(np.uint32))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("opt", VARIANTS, ids=lambda o: o.label)
    def test_bit_identical_to_engine(self, opt):
        fast, slow = run_both(opt, m=40, n=700, seed=11)
        assert_bits_equal(fast, slow)

    def test_bit_identical_multi_chunk_partial(self):
        fast, slow = run_both(FULL, m=19, n=1100, seed=4)
        assert_bits_equal(fast, slow)

    def test_small_vector_partial_chunk(self):
        fast, slow = run_both(FULL, m=16, n=100, seed=2)
        assert_bits_equal(fast, slow)

    def test_reference_checks_protocol(self):
        """The reference path actually exercises the buffer protocol —
        a stream reading an unloaded sub-chunk must raise."""
        from repro.core.global_buffer import GlobalBuffer
        from repro.errors import ProtocolError

        buffer = GlobalBuffer(CFG)
        with pytest.raises(ProtocolError):
            buffer.read_subchunk(0)
