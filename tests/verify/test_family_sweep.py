"""Verifier sweep across every FamilyPreset (satellite of the DSE PR).

Every preset — the four Newton product geometries plus the two rival
command families — runs a small GEMV through the per-command tier with
a trace attached, and both independent validators must come back empty:
the protocol-invariant checker (zero violations) and the cycle oracle
(zero divergences). The PR gate runs the full-optimization point per
preset; the nightly ``slow`` sweep crosses every preset with the
optimization ladder variants.
"""

from __future__ import annotations

import pytest

from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import FULL, OptimizationConfig
from repro.dram.families import FAMILIES, family_by_name
from repro.dram.trace import CommandTrace
from repro.verify import invariants as inv
from repro.verify import oracle as orc


def sweep_gemv(preset, opt: OptimizationConfig):
    """Run one traced GEMV on a preset; return (violations, divergences)."""
    config = preset.config.with_overrides(num_channels=1, rows_per_bank=256)
    timing = preset.timing
    trace = CommandTrace(capacity=400_000)
    engine = NewtonChannelEngine(
        config,
        timing,
        opt,
        functional=False,
        refresh_enabled=True,
        fast=False,
    )
    controller = engine.channel.controller
    controller.trace = trace
    layout = engine.add_matrix(2 * config.banks_per_channel, config.elems_per_row + 5)
    result = engine.run_gemv(layout)
    records = inv.require_complete(trace)
    assert records, "the sweep case must actually issue commands"
    checker = inv.InvariantChecker(
        config,
        timing,
        aggressive_tfaw=opt.aggressive_tfaw,
        check_latch=not config.rules.whole_row_readout(opt.interleaved_reuse),
        check_refresh_interval=True,
    )
    violations = inv.check_trace(
        records,
        config,
        timing,
        refresh_log=controller.refresh.log,
        end=result.end_cycle,
        checker=checker,
    )
    divergences = orc.check_trace(
        records,
        config,
        timing,
        aggressive_tfaw=opt.aggressive_tfaw,
        refresh_log=controller.refresh.log,
    )
    return violations, divergences


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_preset_verifies_clean(name):
    """PR gate: each preset's full-optimization point has zero
    violations and zero oracle divergences."""
    violations, divergences = sweep_gemv(family_by_name(name), FULL)
    assert violations == [], [v.render() for v in violations[:5]]
    assert divergences == [], [d.render() for d in divergences[:5]]


LADDER_VARIANTS = (
    FULL,
    FULL.evolve(aggressive_tfaw=False),
    FULL.evolve(four_bank_activation=False),
    FULL.evolve(ganged_compute=False, complex_commands=False),
    FULL.evolve(interleaved_reuse=False),
    FULL.evolve(interleaved_reuse=False, result_latches=4),
)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("variant", range(len(LADDER_VARIANTS)))
def test_nightly_full_cross_product(name, variant):
    """Nightly: every preset x every optimization-ladder variant."""
    preset = family_by_name(name)
    opt = LADDER_VARIANTS[variant]
    if not preset.config.rules.can_walk(opt.interleaved_reuse):
        pytest.skip(
            f"{preset.config.command_family} requires the interleaved traversal"
        )
    violations, divergences = sweep_gemv(preset, opt)
    assert violations == [], [v.render() for v in violations[:5]]
    assert divergences == [], [d.render() for d in divergences[:5]]
