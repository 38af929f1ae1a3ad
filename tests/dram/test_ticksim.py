"""Differential validation: tick simulator vs the constraint-based controller.

The two engines share rules but not mechanism (per-cycle polling vs
closed-form max). Cycle-identical schedules across the full command
streams of every command family — every optimization combination the
family can walk, both layouts, partial chunks — is the strongest
internal evidence that the production timing engine is correct.
"""

import itertools

import pytest

from repro.core.command_gen import CommandStreamGenerator
from repro.core.layout import make_layout
from repro.core.optimizations import FULL, NON_OPT, OptimizationConfig
from repro.dram.config import (
    COMMAND_FAMILIES,
    COMMAND_FAMILY_NEWTON,
    DRAMConfig,
    family_rules,
)
from repro.dram.controller import ChannelController
from repro.dram.ticksim import TickSimulator
from repro.dram.timing import TimingParams

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=256)
TIMING = TimingParams()

FLAGS = (
    "ganged_compute",
    "complex_commands",
    "interleaved_reuse",
    "four_bank_activation",
    "aggressive_tfaw",
)


def gemv_commands(opt: OptimizationConfig, m: int, n: int, config=CFG):
    layout = make_layout(
        config, m, n, interleaved=opt.interleaved_reuse,
        latches_per_bank=opt.result_latches,
    )
    generator = CommandStreamGenerator(config, TIMING, opt, layout)
    return [s.command for s in generator.gemv_steps() if s.command is not None]


def controller_issues(opt: OptimizationConfig, commands, config=CFG):
    controller = ChannelController(
        config, TIMING, aggressive_tfaw=opt.aggressive_tfaw, refresh_enabled=False
    )
    return [controller.issue(c).issue for c in commands]


def tick_issues(opt: OptimizationConfig, commands, config=CFG):
    sim = TickSimulator(config, TIMING, aggressive_tfaw=opt.aggressive_tfaw)
    return sim.run(commands)


def _family_combinations():
    """Every (optimization bits, family) pair the family can walk. Newton
    keeps its bare bit-pattern ids; the rival families add a prefix."""
    for family in COMMAND_FAMILIES:
        for bits in itertools.product((False, True), repeat=5):
            interleaved = bits[FLAGS.index("interleaved_reuse")]
            if not family_rules(family).can_walk(interleaved):
                continue
            label = "".join("X" if x else "." for x in bits)
            if family != COMMAND_FAMILY_NEWTON:
                label = f"{family}-{label}"
            yield pytest.param(bits, family, id=label)


class TestDifferential:
    @pytest.mark.parametrize("bits,family", list(_family_combinations()))
    def test_cycle_identical_all_combinations(self, bits, family):
        config = CFG.with_overrides(command_family=family)
        opt = OptimizationConfig(**dict(zip(FLAGS, bits)))
        commands = gemv_commands(opt, m=40, n=700, config=config)
        assert tick_issues(opt, commands, config) == controller_issues(
            opt, commands, config
        )

    def test_cycle_identical_partial_chunk(self):
        commands = gemv_commands(FULL, m=16, n=100)
        assert tick_issues(FULL, commands) == controller_issues(FULL, commands)

    def test_cycle_identical_four_latch_variant(self):
        opt = FULL.evolve(interleaved_reuse=False, result_latches=4)
        commands = gemv_commands(opt, m=16 * 6, n=1024)
        assert tick_issues(opt, commands) == controller_issues(opt, commands)

    def test_cycle_identical_multi_run(self):
        """Two back-to-back GEMVs (a batch) also agree."""
        commands = gemv_commands(FULL, m=32, n=512)
        doubled = commands + commands
        assert tick_issues(FULL, doubled) == controller_issues(FULL, doubled)

    def test_cycle_identical_alternate_timing(self):
        """Agreement must hold for perturbed timing values too."""
        timing = TimingParams().with_overrides(t_cmd=2, t_ccd=6, t_faw_aim=20)
        layout = make_layout(CFG, 32, 512, interleaved=True)
        generator = CommandStreamGenerator(CFG, timing, FULL, layout)
        commands = [s.command for s in generator.gemv_steps() if s.command is not None]
        controller = ChannelController(
            CFG, timing, aggressive_tfaw=True, refresh_enabled=False
        )
        expected = [controller.issue(c).issue for c in commands]
        sim = TickSimulator(CFG, timing, aggressive_tfaw=True)
        assert sim.run(commands) == expected
