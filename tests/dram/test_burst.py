"""The cold-path burst kernel (``repro.dram.burst``) vs per-command issue.

Controller-level differential pinning: issuing a homogeneous run through
:meth:`ChannelController.issue_burst` must leave the controller in a
state bit-identical to issuing the same commands one by one — every bank
field, both buses, all stats, the full telemetry attribution — and the
per-command issue cycles recovered from the closed form must equal the
per-command solver's. Includes the splitting edge case: a refresh
barrier landing *inside* a conceptual COMP burst, which the stream
compiler must split into two runs exactly as it splits replay segments.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.optimizations import FULL
from repro.core.schedule_cache import ScheduleCache, segment_stream
from repro.core.command_gen import BlockStep, Fragment, Step
from repro.dram import commands as cmds
from repro.dram.burst import BurstRecord, issue_burst
from repro.dram.commands import (
    CommandKind,
    CommandRun,
    comp_bank_run,
    comp_run,
    gwrite_run,
)
from repro.dram.config import DRAMConfig
from repro.dram.controller import ChannelController
from repro.dram.timing import TimingParams
from repro.dram.trace import CommandTrace
from repro.errors import ProtocolError

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=64)


def fresh_controller(timing=None, *, refresh=False, open_rows=True):
    controller = ChannelController(
        CFG, timing or TimingParams(), refresh_enabled=refresh
    )
    if open_rows:
        for group in range(CFG.bank_groups):
            controller.issue(cmds.g_act(group, 0))
    return controller


def fingerprint(controller):
    stats = controller.stats
    return (
        controller.now,
        tuple(
            (
                b.open_row,
                b.ready_for_act,
                b.column_ready,
                b.precharge_ready,
                b.last_column_issue,
                b.activations,
                b.column_accesses,
            )
            for b in controller.banks
        ),
        (
            controller.cmd_bus.next_free,
            controller.cmd_bus.slots_used,
            controller.cmd_bus.busy_cycles,
        ),
        (
            controller.data_bus.next_free,
            controller.data_bus.slots_used,
            controller.data_bus.busy_cycles,
        ),
        controller._last_tree_feed,
        controller._attr_cursor,
        dict(stats.command_counts),
        dict(stats.cycle_attribution),
        stats.bank_activations,
        stats.bank_column_accesses,
        stats.compute_column_accesses,
        stats.data_transfers,
        stats.open_bank_cycles,
        (controller.refresh.refreshes_issued, controller.refresh.next_due),
    )


def run_both(run, timing=None):
    """Issue ``run`` as a burst and per-command; return both controllers."""
    burst = fresh_controller(timing)
    reference = fresh_controller(timing)
    record = burst.issue_burst(run)
    cycles = []
    complete = 0
    for command in run.commands():
        ref = reference.issue(command)
        cycles.append(ref.issue)
        complete = max(complete, ref.complete)
    assert fingerprint(burst) == fingerprint(reference)
    assert list(record.issue_cycles()) == cycles
    assert record.first_issue == cycles[0]
    assert record.last_issue == cycles[-1]
    assert record.complete == complete
    assert record.count == len(cycles)
    return burst, record


RUN_MAKERS = {
    "comp": lambda cols: comp_run(cols),
    "comp_no_ap": lambda cols: comp_run(cols, auto_precharge_last=False),
    "comp_bank": lambda cols: comp_bank_run(5, cols),
    "gwrite": lambda cols: gwrite_run(cols),
}


class TestBurstMatchesPerCommand:
    @pytest.mark.parametrize("maker", RUN_MAKERS.values(), ids=RUN_MAKERS)
    @pytest.mark.parametrize("count", [1, 2, 3, 32])
    def test_state_and_cycles_identical(self, maker, count):
        run_both(maker(count))

    @pytest.mark.parametrize("maker", RUN_MAKERS.values(), ids=RUN_MAKERS)
    @pytest.mark.parametrize("t_cmd", [1, 4, 7])
    def test_identical_when_cmd_bus_binds(self, maker, t_cmd):
        """The tail's binding bucket flips to cmd_bus when t_cmd > t_ccd."""
        run_both(maker(16), TimingParams(t_cmd=t_cmd))

    def test_attribution_sums_to_end_cycle(self):
        controller, _ = run_both(comp_run(32))
        end = controller.finalize(controller.now + 50)
        assert controller.stats.attributed_cycles == end

    def test_back_to_back_runs(self):
        """Chained runs: each burst starts from the previous burst's exit
        state, covering non-trivial entry constraints (data-bus phase,
        column cadence carried across runs)."""
        burst = fresh_controller()
        reference = fresh_controller()
        sequence = [
            gwrite_run(32),
            comp_bank_run(0, 8, auto_precharge_last=False),
            comp_bank_run(1, 8, auto_precharge_last=False),
            comp_run(32, auto_precharge_last=False),
            gwrite_run(4),
        ]
        for run in sequence:
            burst.issue_burst(run)
            for command in run.commands():
                reference.issue(command)
        assert fingerprint(burst) == fingerprint(reference)


class TestFallbacks:
    def test_trace_forces_per_command_records(self):
        controller = fresh_controller()
        trace = CommandTrace()
        controller.trace = trace
        reference = fresh_controller()
        run = comp_run(16)
        record = controller.issue_burst(run)
        for command in run.commands():
            reference.issue(command)
        assert fingerprint(controller) == fingerprint(reference)
        assert trace.total_recorded == 16
        assert list(record.issue_cycles()) == [
            r.issue for r in trace.records(kinds=[CommandKind.COMP])
        ]

    def test_single_command_run(self):
        _, record = run_both(gwrite_run(1))
        assert record.stride == 0

    def test_closed_form_matches_fallback_cycles(self):
        """The explicit (fallback) cycle list and the affine closed form
        agree command for command."""
        _, record = run_both(comp_run(24))
        affine = record.first_issue + record.stride * np.arange(24)
        assert np.array_equal(record.issue_cycles(), affine)


class TestCommandRunContainer:
    def test_run_kinds_are_validated(self):
        with pytest.raises(ProtocolError):
            CommandRun(CommandKind.ACT, 4)

    def test_comp_bank_requires_bank(self):
        with pytest.raises(ProtocolError):
            CommandRun(CommandKind.COMP_BANK, 4)

    def test_operand_shape_is_validated(self):
        with pytest.raises(ProtocolError):
            CommandRun(CommandKind.GWRITE, 4, subchunks=np.arange(3))

    def test_materialized_commands_match_constructors(self):
        run = comp_run(4)
        expected = [cmds.comp(c, c, auto_precharge=c == 3) for c in range(4)]
        assert list(run.commands()) == expected
        assert run.first_command() == expected[0]
        assert len(run) == 4

    def test_timing_key_distinguishes_scope_and_operands(self):
        keys = {
            comp_run(8).timing_key,
            comp_run(8, auto_precharge_last=False).timing_key,
            comp_run(9).timing_key,
            comp_bank_run(0, 8).timing_key,
            comp_bank_run(1, 8).timing_key,
            gwrite_run(8).timing_key,
        }
        assert len(keys) == 6
        assert comp_run(8).timing_key == comp_run(8).timing_key

    def test_burst_kinds_cover_run_kinds(self):
        """Every kind a run may encode takes the closed form once the
        run has a tail: none falls back to per-command issue."""
        builders = {
            CommandKind.COMP: comp_run,
            CommandKind.COMP_BANK: lambda count: comp_bank_run(0, count),
            CommandKind.GWRITE: gwrite_run,
        }
        assert set(builders) == set(cmds.RUN_KINDS)
        for kind in cmds.RUN_KINDS:
            for count in (2, 5):
                record = issue_burst(fresh_controller(), builders[kind](count))
                assert record._cycles is None, (kind, count)
                assert record.count == count


# ----------------------------------------------------------------------
# the splitting edge case: a refresh barrier inside a COMP burst


class _SplitBurstGenerator:
    """Stub stream: one tile whose COMP burst a barrier splits in two.

    Real streams only place barriers between tiles; this is the
    adversarial shape the compiler must still handle — the barrier has
    to flush the open segment, so the conceptual ``total``-column burst
    compiles to two separate runs and the refresh decision happens
    between them, never inside one.
    """

    def __init__(self, split, total, *, reactivate):
        self.split = split
        self.total = total
        self.reactivate = reactivate

    def gemv_items(self, *, payloads=True):
        activations = tuple(
            cmds.g_act(group, 0) for group in range(CFG.bank_groups)
        )
        yield Step(barrier_cycles=600)
        yield _block(*activations)
        yield _block(comp_run(self.split, auto_precharge_last=False))
        yield Step(barrier_cycles=600)
        if self.reactivate:
            # The barrier fired a refresh and closed every bank: the
            # stream must re-open the tile rows before continuing.
            yield _block(*activations)
        yield _block(
            CommandRun(
                CommandKind.COMP,
                self.total - self.split,
                cols=np.arange(self.split, self.total, dtype=np.int32),
                subchunks=np.arange(self.split, self.total, dtype=np.int32),
                auto_precharge_last=True,
            )
        )
        yield _block(cmds.readres())


def _block(*items):
    return BlockStep(Fragment(items), items)


def _execute(stream, controller, *, use_burst):
    end = 0
    for segment in stream.segments:
        if segment.barrier_cycles:
            controller.refresh_barrier(segment.barrier_cycles)
        if use_burst:
            for item in segment.items:
                if isinstance(item, CommandRun):
                    end = max(end, controller.issue_burst(item).complete)
                else:
                    end = max(end, controller.issue(item).complete)
        else:
            for command in segment.commands:
                end = max(end, controller.issue(command).complete)
    return end


class TestBarrierSplitsBurst:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        split=st.integers(min_value=1, max_value=31),
        total=st.integers(min_value=2, max_value=32),
        refresh=st.booleans(),
        t_refi=st.integers(min_value=360, max_value=4000),
    )
    def test_split_burst_matches_per_command(
        self, split, total, refresh, t_refi
    ):
        split = min(split, total - 1)
        timing = TimingParams(t_refi=t_refi)
        # Whether the mid-burst barrier fires is decided by replaying the
        # stream prefix per-command on a probe controller, so both
        # executions see the same stream shape (a fired refresh closes
        # the banks, which the stream must re-open; a no-op barrier must
        # leave the split runs seamless).
        probe = ChannelController(CFG, timing, refresh_enabled=refresh)
        probe.refresh_barrier(600)
        for group in range(CFG.bank_groups):
            probe.issue(cmds.g_act(group, 0))
        for command in comp_run(split, auto_precharge_last=False).commands():
            probe.issue(command)
        before = probe.refresh.refreshes_issued
        probe.refresh_barrier(600)
        fires = probe.refresh.refreshes_issued > before
        generator = _SplitBurstGenerator(split, total, reactivate=fires)
        stream = segment_stream(generator, ScheduleCache())
        assert sum(1 for s in stream.segments if s.barrier_cycles) == 2

        burst = ChannelController(CFG, timing, refresh_enabled=refresh)
        reference = ChannelController(CFG, timing, refresh_enabled=refresh)
        end_a = _execute(stream, burst, use_burst=True)
        end_b = _execute(stream, reference, use_burst=False)
        assert end_a == end_b
        assert fingerprint(burst) == fingerprint(reference)
        assert burst.finalize(end_a) == reference.finalize(end_b)
        assert (
            burst.stats.attributed_cycles
            == reference.stats.attributed_cycles
            == burst.finalize(end_a)
        )

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        cols=st.integers(min_value=1, max_value=32),
        banks_first=st.booleans(),
        t_cmd=st.integers(min_value=1, max_value=8),
        t_ccd=st.integers(min_value=1, max_value=8),
    )
    def test_randomized_tile_shapes(self, cols, banks_first, t_cmd, t_ccd):
        """Random stride regimes (t_cmd vs t_ccd) and run shapes."""
        timing = TimingParams(t_cmd=t_cmd, t_ccd=t_ccd)
        burst = fresh_controller(timing)
        reference = fresh_controller(timing)
        runs = [gwrite_run(cols), comp_run(cols, auto_precharge_last=False)]
        if banks_first:
            runs.reverse()
        for run in runs:
            burst.issue_burst(run)
            for command in run.commands():
                reference.issue(command)
        assert fingerprint(burst) == fingerprint(reference)
