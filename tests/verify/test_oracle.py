"""The issue-cycle oracle: ticksim cross-check and divergence detection.

Two independent re-derivations of issue cycles exist — the flat
max-of-constraints :class:`~repro.verify.oracle.CycleOracle` and the
event-driven :class:`~repro.dram.ticksim.TickSimulator`. Pinning them
to each other (and the oracle to real controller traces) means a
controller bug has to fool three different formulations at once.
"""

from __future__ import annotations

import pytest

from repro.dram import commands as cmd
from repro.dram.config import COMMAND_FAMILIES, COMMAND_FAMILY_NEWTON, DRAMConfig
from repro.dram.controller import IssueRecord
from repro.dram.ticksim import TickSimulator
from repro.dram.timing import TimingParams
from repro.verify.fuzz import REFRESH_FAST, FuzzCase, run_case
from repro.verify.oracle import CycleOracle, Divergence, check_trace

CFG = DRAMConfig(num_channels=1)


def mixed_stream():
    """A refresh-free stream touching every constraint family.

    PRE_ALL / COL_READ_ALL stay out: the tick simulator deliberately
    does not model them, and the cross-check only covers shared kinds.
    """
    return [
        cmd.act(0, 0),
        cmd.act(1, 0),
        cmd.gwrite(0),
        cmd.comp_bank(0, 0, 0),
        cmd.comp_bank(1, 0, 0),
        cmd.readres_bank(0),
        cmd.rd(0, 1),
        cmd.wr(1, 2),
        cmd.pre(0),
        cmd.act(0, 3),
        cmd.rd(0, 0),
        cmd.pre(1),
        cmd.g_act(1, 5),
        cmd.buf_read(0),
        cmd.col_read(4, 0),
        cmd.mac(4),
        cmd.readres_bank(4),
    ]


CROSS_CHECK_TIMINGS = {
    "default": TimingParams(),
    "fast-cmd": TimingParams(t_cmd=2),
    "wide-ccd": TimingParams(t_ccd=6),
    "slow-cmd": TimingParams(t_cmd=7, t_ccd=2),
}


def _cross_check_cases():
    """(timing, aggressive, family) for every command family. Newton
    keeps its ``aggressive-timing`` ids; the rival families add a
    suffix."""
    for family in COMMAND_FAMILIES:
        suffix = "" if family == COMMAND_FAMILY_NEWTON else f"-{family}"
        for aggressive in (False, True):
            for name, timing in CROSS_CHECK_TIMINGS.items():
                yield pytest.param(
                    timing, aggressive, family, id=f"{aggressive}-{name}{suffix}"
                )


class TestTicksimCrossCheck:
    @pytest.mark.parametrize(
        "timing,aggressive,family", list(_cross_check_cases())
    )
    def test_predict_matches_ticksim(self, timing, aggressive, family):
        config = CFG.with_overrides(command_family=family)
        commands = mixed_stream()
        expected = TickSimulator(
            config, timing, aggressive_tfaw=aggressive
        ).run(commands)
        oracle = CycleOracle(config, timing, aggressive_tfaw=aggressive)
        assert oracle.predict(commands) == expected

    def test_activation_burst_tfaw(self):
        commands = [cmd.act(bank, 0) for bank in range(10)]
        for aggressive in (False, True):
            expected = TickSimulator(
                CFG, TimingParams(), aggressive_tfaw=aggressive
            ).run(commands)
            oracle = CycleOracle(
                CFG, TimingParams(), aggressive_tfaw=aggressive
            )
            assert oracle.predict(commands) == expected


class TestControllerAgreement:
    def test_real_trace_has_no_divergences(self):
        case = FuzzCase(
            index=0,
            seed=123,
            banks=8,
            m=3,
            n=48,
            batch=2,
            ganged_compute=False,
            complex_commands=False,
            interleaved_reuse=True,
            four_bank_activation=True,
            aggressive_tfaw=False,
            result_latches=1,
            refresh=REFRESH_FAST,
            t_cmd=4,
            t_ccd=4,
            devices=1,
        )
        result = run_case(case)
        assert result.ok, result.render()
        assert result.commands > 0
        assert result.divergences == []


class TestDivergenceDetection:
    def records(self):
        commands = mixed_stream()
        issues = TickSimulator(
            CFG, TimingParams(), aggressive_tfaw=False
        ).run(commands)
        return [
            IssueRecord(command=c, issue=at, complete=at)
            for c, at in zip(commands, issues)
        ]

    def test_clean_records_pass(self):
        assert check_trace(self.records(), CFG, TimingParams()) == []

    def test_single_tampered_cycle_is_reported_once(self):
        records = self.records()
        last = records[-1]
        records[-1] = IssueRecord(
            command=last.command, issue=last.issue + 1, complete=last.complete
        )
        divergences = check_trace(records, CFG, TimingParams())
        assert len(divergences) == 1
        d = divergences[0]
        assert d.index == len(records) - 1
        assert (d.recorded, d.recomputed) == (last.issue + 1, last.issue)

    def test_render(self):
        d = Divergence(index=3, command="RD b0 c1", recorded=7, recomputed=9)
        text = d.render()
        assert "#3" in text and "7" in text and "9" in text
