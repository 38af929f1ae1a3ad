"""Command stream structure under every optimization combination."""

from collections import Counter

import pytest

from repro.core.command_gen import CommandStreamGenerator, Step
from repro.core.layout import make_layout
from repro.core.optimizations import FULL, NON_OPT, OptimizationConfig
from repro.dram.commands import CommandKind
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=1024)
TIMING = TimingParams()


def stream(opt: OptimizationConfig, m: int, n: int):
    layout = make_layout(
        CFG,
        m,
        n,
        interleaved=opt.interleaved_reuse,
        latches_per_bank=opt.result_latches,
    )
    gen = CommandStreamGenerator(CFG, TIMING, opt, layout)
    return list(gen.gemv_steps())


def kind_counts(steps) -> Counter:
    return Counter(s.command.kind for s in steps if s.command is not None)


class TestFullNewtonStream:
    def test_figure7_structure_one_tile(self):
        """One chunk, one tile: GWRITEs, then G_ACT x4, COMP x32, READRES."""
        steps = stream(FULL, m=16, n=512)
        kinds = [s.command.kind for s in steps if s.command is not None]
        assert kinds[:32] == [CommandKind.GWRITE] * 32
        assert kinds[32:36] == [CommandKind.G_ACT] * 4
        assert kinds[36:68] == [CommandKind.COMP] * 32
        assert kinds[68] == CommandKind.READRES
        assert len(kinds) == 69

    def test_comp_subchunk_equals_column(self):
        """Table I: COMP# names the sub-chunk; it tracks the column."""
        steps = stream(FULL, m=16, n=512)
        comps = [s.command for s in steps if s.command and s.command.kind is CommandKind.COMP]
        assert all(c.col == c.subchunk for c in comps)
        assert [c.col for c in comps] == list(range(32))

    def test_last_comp_auto_precharges(self):
        steps = stream(FULL, m=16, n=512)
        comps = [s.command for s in steps if s.command and s.command.kind is CommandKind.COMP]
        assert comps[-1].auto_precharge
        assert not any(c.auto_precharge for c in comps[:-1])

    def test_gwrites_once_per_chunk(self):
        """Full input reuse: the chunk is loaded once, reused for all tiles."""
        steps = stream(FULL, m=16 * 10, n=1024)
        counts = kind_counts(steps)
        assert counts[CommandKind.GWRITE] == 2 * 32  # once per chunk
        assert counts[CommandKind.READRES] == 2 * 10  # once per tile
        assert counts[CommandKind.COMP] == 2 * 10 * 32

    def test_barrier_before_every_tile(self):
        steps = stream(FULL, m=16 * 3, n=1024)
        barriers = [s for s in steps if s.barrier_cycles > 0]
        assert len(barriers) == 6  # chunks x tiles

    def test_compute_fires_on_last_comp(self):
        """The tile's result is read (its emit fires) only after its last
        COMP, column 31."""
        steps = stream(FULL, m=16, n=512)
        (emit,) = [i for i, s in enumerate(steps) if s.emit is not None]
        comps = [i for i, s in enumerate(steps) if s.command is not None
                 and s.command.kind is CommandKind.COMP]
        assert max(comps) < emit
        assert steps[max(comps)].command.col == 31

    def test_partial_chunk_fewer_comps(self):
        steps = stream(FULL, m=16, n=256)
        counts = kind_counts(steps)
        assert counts[CommandKind.COMP] == 16
        assert counts[CommandKind.GWRITE] == 16


class TestDeOptimizedStreams:
    def test_no_gang_issues_per_bank_compute(self):
        opt = FULL.evolve(ganged_compute=False)
        steps = stream(opt, m=16, n=512)
        counts = kind_counts(steps)
        assert counts[CommandKind.COMP_BANK] == 16 * 32
        assert counts[CommandKind.READRES_BANK] == 16
        assert CommandKind.COMP not in counts

    def test_no_complex_issues_three_step_sequence(self):
        opt = FULL.evolve(complex_commands=False)
        steps = stream(opt, m=16, n=512)
        counts = kind_counts(steps)
        assert counts[CommandKind.BUF_READ] == 32
        assert counts[CommandKind.COL_READ_ALL] == 32
        assert counts[CommandKind.MAC_ALL] == 32

    def test_no_gang_no_complex(self):
        opt = FULL.evolve(ganged_compute=False, complex_commands=False)
        steps = stream(opt, m=16, n=512)
        counts = kind_counts(steps)
        assert counts[CommandKind.BUF_READ] == 16 * 32
        assert counts[CommandKind.COL_READ] == 16 * 32
        assert counts[CommandKind.MAC] == 16 * 32

    def test_command_bandwidth_reductions_match_paper(self):
        """Ganging cuts compute commands 16x; complex a further 3x."""
        non_opt = kind_counts(stream(NON_OPT, m=16, n=512))
        gang = kind_counts(stream(NON_OPT.evolve(ganged_compute=True), m=16, n=512))
        fused = kind_counts(
            stream(
                NON_OPT.evolve(ganged_compute=True, complex_commands=True),
                m=16,
                n=512,
            )
        )
        compute_kinds = (
            CommandKind.BUF_READ,
            CommandKind.COL_READ,
            CommandKind.MAC,
            CommandKind.COL_READ_ALL,
            CommandKind.MAC_ALL,
            CommandKind.COMP,
            CommandKind.COMP_BANK,
        )

        def compute_cmds(counts):
            return sum(counts.get(k, 0) for k in compute_kinds)

        assert compute_cmds(non_opt) == 16 * compute_cmds(gang)
        assert compute_cmds(gang) == 3 * compute_cmds(fused)

    def test_no_four_bank_uses_per_bank_acts(self):
        opt = FULL.evolve(four_bank_activation=False)
        counts = kind_counts(stream(opt, m=16, n=512))
        assert counts[CommandKind.ACT] == 16
        assert CommandKind.G_ACT not in counts


class TestNoReuseStream:
    def test_input_refetched_every_pass(self):
        """The no-reuse traffic explosion: GWRITEs scale with passes."""
        opt = FULL.evolve(interleaved_reuse=False)
        steps = stream(opt, m=16 * 5, n=1024)
        counts = kind_counts(steps)
        assert counts[CommandKind.GWRITE] == 5 * 2 * 32  # passes x chunks x subchunks

    def test_readres_once_per_matrix_row_group(self):
        """Output reuse: the latch accumulates the whole matrix row."""
        opt = FULL.evolve(interleaved_reuse=False)
        steps = stream(opt, m=16 * 5, n=1024)
        counts = kind_counts(steps)
        assert counts[CommandKind.READRES] == 5

    def test_emit_has_no_chunk_in_row_major(self):
        opt = FULL.evolve(interleaved_reuse=False)
        steps = stream(opt, m=16, n=1024)
        emits = [s.emit for s in steps if s.emit is not None]
        assert len(emits) == 1
        assert emits[0].chunk is None

    def test_four_latch_variant_reduces_input_fetches(self):
        """Section III-C: input fetched once per 4 matrix rows per bank."""
        one = kind_counts(stream(FULL.evolve(interleaved_reuse=False), m=16 * 8, n=1024))
        four = kind_counts(
            stream(
                FULL.evolve(interleaved_reuse=False, result_latches=4),
                m=16 * 8,
                n=1024,
            )
        )
        assert one[CommandKind.GWRITE] == 4 * four[CommandKind.GWRITE]
        assert one[CommandKind.COMP] == four[CommandKind.COMP]


class TestStreamValidation:
    def test_layout_kind_must_match_opt(self):
        interleaved = make_layout(CFG, 16, 512, interleaved=True)
        with pytest.raises(ConfigurationError):
            CommandStreamGenerator(
                CFG, TIMING, FULL.evolve(interleaved_reuse=False), interleaved
            )
        row_major = make_layout(CFG, 16, 512, interleaved=False)
        with pytest.raises(ConfigurationError):
            CommandStreamGenerator(CFG, TIMING, FULL, row_major)

    def test_duration_estimate_covers_command_bound_streams(self):
        layout = make_layout(CFG, 16, 512, interleaved=False)
        gen = CommandStreamGenerator(CFG, TIMING, NON_OPT, layout)
        # Non-opt tiles are command-bandwidth bound: 32 cols x 3 x 16 banks.
        assert gen.tile_duration_estimate() >= 32 * 3 * 16 * TIMING.t_cmd
