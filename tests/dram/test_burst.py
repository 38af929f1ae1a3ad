"""The cold-path burst kernel (``repro.dram.burst``) vs per-command issue.

Controller-level differential pinning: issuing a command run through
:meth:`ChannelController.issue_burst` must leave the controller in a
state bit-identical to issuing the same commands one by one — every bank
field, both buses, all stats, the full telemetry attribution — and the
per-command issue cycles recovered from the closed form must equal the
per-command solver's. Runs of the micro-command triplet (BUF_READ +
COL_READ + MAC, per bank or ganged) are held there in every stride
regime, including the column-bound ones no timing preset reaches.
Includes the splitting edge case: a refresh barrier landing *inside* a
conceptual COMP burst, which the stream compiler must split into two
runs exactly as it splits replay segments.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.optimizations import FULL
from repro.core.schedule_cache import ScheduleCache, segment_stream
from repro.core.command_gen import BlockStep, Fragment, Step, StreamRun
from repro.dram import commands as cmds
from repro.dram.burst import BurstRecord, issue_burst
from repro.dram.commands import (
    CommandKind,
    CommandRun,
    comp_bank_run,
    comp_run,
    gwrite_run,
    micro_run,
)
from repro.dram.config import DRAMConfig
from repro.dram.controller import ChannelController
from repro.dram.timing import TimingParams
from repro.dram.trace import CommandTrace
from repro.errors import ProtocolError

CFG = DRAMConfig(num_channels=1, banks_per_channel=16, rows_per_bank=64)


def fresh_controller(timing=None, *, refresh=False, open_rows=True, telemetry=True):
    controller = ChannelController(
        CFG, timing or TimingParams(), refresh_enabled=refresh, telemetry=telemetry
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


def run_both(run, timing=None, *, telemetry=True):
    """Issue ``run`` as a burst and per-command; return both controllers."""
    burst = fresh_controller(timing, telemetry=telemetry)
    reference = fresh_controller(timing, telemetry=telemetry)
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
    "micro_bank": lambda cols: micro_run(cols, bank=5),
    "micro_bank_no_ap": lambda cols: micro_run(
        cols, bank=5, auto_precharge_last=False
    ),
    "micro_all": lambda cols: micro_run(cols),
    "micro_all_no_ap": lambda cols: micro_run(cols, auto_precharge_last=False),
}

STRIDE_REGIMES = {
    # p * t_cmd > t_ccd for every period p: the command bus paces.
    "4": TimingParams(t_cmd=4),
    "7": TimingParams(t_cmd=7),
    # A triplet ties, 3 * t_cmd == t_ccd: the solver charges the column.
    "2-6": TimingParams(t_cmd=2, t_ccd=6),
    # 3 * t_cmd < t_ccd: the column cadence paces a triplet too.
    "1": TimingParams(t_cmd=1),
    "2-8": TimingParams(t_cmd=2, t_ccd=8),
}
"""``t_cmd``/``t_ccd`` pairs on each side of ``max(p * t_cmd, t_ccd)``
(``t_ccd`` 4 unless named). Every timing preset has
``t_ccd <= 2 * t_cmd``, so outside this file a triplet run meets only
the bus-bound regime and the tie."""


class TestBurstMatchesPerCommand:
    @pytest.mark.parametrize("maker", RUN_MAKERS.values(), ids=RUN_MAKERS)
    @pytest.mark.parametrize("count", [1, 2, 3, 32])
    def test_state_and_cycles_identical(self, maker, count):
        run_both(maker(count))

    @pytest.mark.parametrize("maker", RUN_MAKERS.values(), ids=RUN_MAKERS)
    @pytest.mark.parametrize("timing", STRIDE_REGIMES.values(), ids=STRIDE_REGIMES)
    def test_identical_when_cmd_bus_binds(self, maker, timing):
        """The tail's binding bucket flips to cmd_bus when
        ``p * t_cmd > t_ccd``, in every stride regime, with telemetry on
        and off."""
        for telemetry in (True, False):
            run_both(maker(16), timing, telemetry=telemetry)

    @pytest.mark.parametrize("maker", RUN_MAKERS.values(), ids=RUN_MAKERS)
    @pytest.mark.parametrize("timing", STRIDE_REGIMES.values(), ids=STRIDE_REGIMES)
    def test_cursor_past_the_first_period(self, maker, timing):
        """A finalize moves the attribution cursor past ``now``; the
        tail's cycles before the cursor stay uncharged, wherever in the
        run the cursor falls."""
        for ahead in (1, 7, 40, 1000):
            burst = fresh_controller(timing)
            reference = fresh_controller(timing)
            run = maker(8)
            for controller in (burst, reference):
                controller.finalize(controller.now + ahead)
            burst.issue_burst(run)
            for command in run.commands():
                reference.issue(command)
            assert fingerprint(burst) == fingerprint(reference), ahead

    def test_attribution_sums_to_end_cycle(self):
        controller, _ = run_both(comp_run(32))
        end = controller.finalize(controller.now + 50)
        assert controller.stats.attributed_cycles == end

    def test_back_to_back_runs(self):
        """Chained runs: each burst starts from the previous burst's exit
        state, covering non-trivial entry constraints (data-bus phase,
        column cadence carried across runs, a triplet run entering
        behind another period), in every stride regime."""
        for timing in STRIDE_REGIMES.values():
            burst = fresh_controller(timing)
            reference = fresh_controller(timing)
            sequence = [
                gwrite_run(32),
                comp_bank_run(0, 8, auto_precharge_last=False),
                micro_run(8, bank=0, auto_precharge_last=False),
                micro_run(8, bank=1, auto_precharge_last=False),
                comp_bank_run(1, 8, auto_precharge_last=False),
                micro_run(8, auto_precharge_last=False),
                comp_run(32, auto_precharge_last=False),
                gwrite_run(4),
                micro_run(32, auto_precharge_last=False),
                micro_run(5, bank=2),
            ]
            for run in sequence:
                burst.issue_burst(run)
                for command in run.commands():
                    reference.issue(command)
            assert fingerprint(burst) == fingerprint(reference), timing


class TestFallbacks:
    def test_trace_forces_per_command_records(self):
        for run in (comp_run(16), micro_run(16, bank=3)):
            controller = fresh_controller()
            trace = CommandTrace()
            controller.trace = trace
            reference = fresh_controller()
            record = controller.issue_burst(run)
            for command in run.commands():
                reference.issue(command)
            assert fingerprint(controller) == fingerprint(reference)
            assert trace.total_recorded == len(run)
            assert list(record.issue_cycles()) == [
                r.issue for r in trace.records(kinds=run.kinds)
            ]

    def test_single_command_run(self):
        """A run of one period (one command, or one triplet) has no tail
        and issues per command."""
        for run in (gwrite_run(1), micro_run(1, bank=3)):
            _, record = run_both(run)
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
        with pytest.raises(ProtocolError):
            CommandRun((CommandKind.COL_READ, CommandKind.MAC), 4, bank=0)

    def test_comp_bank_requires_bank(self):
        with pytest.raises(ProtocolError):
            CommandRun(CommandKind.COMP_BANK, 4)
        with pytest.raises(ProtocolError):
            CommandRun(
                (CommandKind.BUF_READ, CommandKind.COL_READ, CommandKind.MAC),
                4,
                cols=np.arange(4),
                subchunks=np.arange(4),
            )
        with pytest.raises(ProtocolError):
            CommandRun(
                CommandKind.COMP, 4, bank=0, cols=np.arange(4), subchunks=np.arange(4)
            )

    def test_operand_shape_is_validated(self):
        with pytest.raises(ProtocolError):
            CommandRun(CommandKind.GWRITE, 4, subchunks=np.arange(3))

    def test_materialized_commands_match_constructors(self):
        run = comp_run(4)
        expected = [cmds.comp(c, c, auto_precharge=c == 3) for c in range(4)]
        assert list(run.commands()) == expected
        assert run.first_period() == (expected[0],)
        assert len(run) == 4

    def test_triplets_expand_to_the_micro_commands(self):
        per_bank = [
            command
            for c in range(4)
            for command in (
                cmds.buf_read(c),
                cmds.Command(
                    CommandKind.COL_READ, bank=2, col=c, auto_precharge=c == 3
                ),
                cmds.mac(2),
            )
        ]
        ganged = [
            command
            for c in range(4)
            for command in (
                cmds.buf_read(c),
                cmds.col_read_all(c, auto_precharge=c == 3),
                cmds.mac_all(),
            )
        ]
        for run, expected in ((micro_run(4, bank=2), per_bank), (micro_run(4), ganged)):
            assert list(run.commands()) == expected
            assert run.first_period() == tuple(expected[:3])
            assert len(run) == 12
            assert run.count == 4

    def test_timing_key_distinguishes_scope_and_operands(self):
        keys = {
            comp_run(8).timing_key,
            comp_run(8, auto_precharge_last=False).timing_key,
            comp_run(9).timing_key,
            comp_bank_run(0, 8).timing_key,
            comp_bank_run(1, 8).timing_key,
            gwrite_run(8).timing_key,
            micro_run(8).timing_key,
            micro_run(8, bank=0).timing_key,
            micro_run(8, bank=1).timing_key,
            micro_run(8, bank=0, auto_precharge_last=False).timing_key,
        }
        assert len(keys) == 10
        assert comp_run(8).timing_key == comp_run(8).timing_key

    def test_burst_kinds_cover_run_kinds(self):
        """Every period a run may repeat takes the closed form once the
        run has a second period: the solver places the first period
        alone, and none falls back to per-command issue."""
        builders = {
            (CommandKind.COMP,): comp_run,
            (CommandKind.COMP_BANK,): lambda count: comp_bank_run(0, count),
            (CommandKind.GWRITE,): gwrite_run,
            (
                CommandKind.BUF_READ,
                CommandKind.COL_READ,
                CommandKind.MAC,
            ): lambda count: micro_run(count, bank=0),
            (
                CommandKind.BUF_READ,
                CommandKind.COL_READ_ALL,
                CommandKind.MAC_ALL,
            ): micro_run,
        }
        assert set(builders) == set(cmds.RUN_KINDS)
        for kinds in cmds.RUN_KINDS:
            for count in (2, 5):
                run = builders[kinds](count)
                assert run.kinds == kinds
                record = issue_burst(fresh_controller(), run)
                assert len(record._solved) == len(kinds), (kinds, count)
                assert run._commands is None  # never materialized
                assert record.count == len(run) == count * len(kinds)


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

    def gemv_runs(self, *, payloads=True):
        yield StreamRun(tuple(self._items()))

    def _items(self):
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
    for segment in stream.segments():
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
        assert sum(1 for s in stream.segments() if s.barrier_cycles) == 2

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
