"""The constraint-based channel controller: the timing heart of the model.

Every command's issue cycle is computed as the maximum over the timing
constraints that bind it:

* the shared **command bus** (one command per ``t_cmd`` cycles — the
  resource Newton's ganged/complex commands conserve),
* the target **bank state** (tRCD / tRAS / tRP, open row, no double
  buffering),
* the channel **activation window** (tRRD and tFAW, with Newton's
  aggressive tFAW selectable),
* the shared **data bus** (for transfers that cross the channel I/O:
  RD / WR / GWRITE / READRES — ganged COMP never does),
* per-bank **column cadence** (one column access per tCCD), and
* the **adder-tree drain** before a result read.

Because a Newton channel has a single master issuing an in-order stream,
this earliest-legal-issue computation is cycle-exact and avoids per-cycle
ticking entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dram.bank import BankState
from repro.dram.bus import BusTimer
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig
from repro.dram.faw import ActivationWindow
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import TimingParams
from repro.errors import TimingViolationError

# ----------------------------------------------------------------------
# cycle-attribution categories
#
# Every cycle of a run is charged to exactly one bucket: the constraint
# that *bound* the command issued at the end of the waiting interval
# (the argmax of the controller's earliest-legal-issue computation).
# This is the simulator-level form of the paper's Section III-F
# decomposition: ATTR_ACT_WINDOW + ATTR_BANK is the activation
# serialization term (tRRD/tFAW and row readiness — the numerator of the
# overhead ratio ``o``), ATTR_COLUMN is the ``col x tCCD`` compute term,
# and the rest are the shared-resource and refresh overheads.

ATTR_CMD_BUS = "cmd_bus"
"""Command-bus serialization (``t_cmd`` between any two commands)."""
ATTR_ACT_WINDOW = "act_window"
"""Activation-window stalls: tRRD spacing and the tFAW budget."""
ATTR_BANK = "bank"
"""Bank-state readiness: tRCD after ACT, tRAS/tRP row cycling."""
ATTR_COLUMN = "column"
"""Per-bank column cadence (one column access per tCCD)."""
ATTR_DATA_BUS = "data_bus"
"""Shared data-I/O slot conflicts (RD/WR/GWRITE/READRES only)."""
ATTR_TREE = "tree_drain"
"""Adder-tree drain before a result read."""
ATTR_REFRESH = "refresh"
"""Refresh stalls under Newton's delay rule."""
ATTR_TAIL = "tail"
"""End-of-run drain: cycles between the last command's issue and the
run's end cycle (in-flight completions), closed out by :meth:`finalize`."""

ATTRIBUTION_CATEGORIES = (
    ATTR_CMD_BUS,
    ATTR_ACT_WINDOW,
    ATTR_BANK,
    ATTR_COLUMN,
    ATTR_DATA_BUS,
    ATTR_TREE,
    ATTR_REFRESH,
    ATTR_TAIL,
)
"""Every bucket :attr:`ControllerStats.cycle_attribution` may contain."""


@dataclass(frozen=True)
class IssueRecord:
    """Outcome of issuing one command."""

    command: Command
    issue: int
    """Cycle the command left the command bus."""
    complete: int
    """Cycle its effect is usable (data at host, row open, ...)."""


@dataclass
class ControllerStats:
    """Aggregated accounting the power model and tests consume."""

    command_counts: Dict[CommandKind, int] = field(default_factory=dict)
    bank_activations: int = 0
    bank_column_accesses: int = 0
    compute_column_accesses: int = 0
    data_transfers: int = 0
    open_bank_cycles: int = 0
    refreshes: int = 0
    refresh_stall_cycles: int = 0
    cycle_attribution: Dict[str, int] = field(default_factory=dict)
    """Cycles charged per binding constraint (keys from
    :data:`ATTRIBUTION_CATEGORIES`); empty when telemetry is disabled.
    After :meth:`ChannelController.finalize` the values sum to the end
    cycle — the invariant the telemetry JSON schema validates."""

    def count(self, kind: CommandKind) -> int:
        """Commands issued of the given kind."""
        return self.command_counts.get(kind, 0)

    @property
    def total_commands(self) -> int:
        """All commands placed on the command bus."""
        return sum(self.command_counts.values())

    @property
    def attributed_cycles(self) -> int:
        """Total cycles charged to any attribution bucket."""
        return sum(self.cycle_attribution.values())


class ChannelController:
    """Timing engine for one (pseudo) channel."""

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams,
        *,
        aggressive_tfaw: bool = False,
        refresh_enabled: bool = True,
        telemetry: bool = True,
    ):
        self.config = config
        self.timing = timing
        self.aggressive_tfaw = aggressive_tfaw
        self.telemetry = telemetry
        """When True, every cycle is charged to the constraint that bound
        it (see :data:`ATTRIBUTION_CATEGORIES`); False skips the
        accounting entirely (the bench's overhead reference point)."""
        self.banks: List[BankState] = [
            BankState(index=i) for i in range(config.banks_per_channel)
        ]
        self.cmd_bus = BusTimer(timing.t_cmd, name="command bus")
        self.data_bus = BusTimer(timing.t_ccd, name="data bus")
        self.rules = config.rules
        """The command family's rules (:class:`~repro.dram.config.FamilyRules`),
        resolved once: the activation handlers read its tFAW scope."""
        self.window = ActivationWindow(
            timing.t_rrd,
            timing.faw_window(aggressive_tfaw),
            groups=self.rules.faw_windows(config),
        )
        self.refresh = RefreshScheduler(
            t_refi=timing.t_refi, t_rfc=timing.t_rfc, enabled=refresh_enabled
        )
        self.stats = ControllerStats()
        self.now = 0
        self.trace = None
        """Optional :class:`~repro.dram.trace.CommandTrace` recorder."""
        self._last_tree_feed: int = -(10**18)
        self._bank_opened_at: List[int] = [0] * config.banks_per_channel
        self._attr_cursor: int = 0
        """Last cycle already charged to an attribution bucket: the later
        of ``now`` and the last cycle :meth:`finalize` closed out. So it
        equals ``now`` until a telemetry read finalizes past ``now``; the
        next issue then charges its wait from the cursor, which is why
        the fast path carries the cursor's offset from ``now`` in every
        signature and delta."""

    # ------------------------------------------------------------------
    # internals

    def _bank(self, index: Optional[int]) -> BankState:
        if index is None:
            raise TimingViolationError("command requires a bank operand")
        if not 0 <= index < len(self.banks):
            raise TimingViolationError(f"bank {index} outside the channel")
        return self.banks[index]

    def _group_banks(self, group: Optional[int]) -> Sequence[BankState]:
        if group is None:
            raise TimingViolationError("G_ACT requires a bank-group operand")
        size = self.config.bank_group_size
        if not 0 <= group < self.config.bank_groups:
            raise TimingViolationError(f"bank group {group} outside the channel")
        return self.banks[group * size : (group + 1) * size]

    def _record(self, command: Command, issue: int, complete: int) -> IssueRecord:
        counts = self.stats.command_counts
        counts[command.kind] = counts.get(command.kind, 0) + 1
        self.now = max(self.now, issue)
        record = IssueRecord(command=command, issue=issue, complete=complete)
        if self.trace is not None:
            self.trace.record(record)
        return record

    def _occupy_cmd(self, earliest: int) -> int:
        at = self.cmd_bus.earliest(earliest)
        self.cmd_bus.occupy(at)
        return at

    def _charge(self, category: str, until: int) -> None:
        """Charge the cycles since the attribution cursor to a bucket."""
        gap = until - self._attr_cursor
        if gap > 0:
            attr = self.stats.cycle_attribution
            attr[category] = attr.get(category, 0) + gap
            self._attr_cursor = until

    def _issue_after(self, *candidates: "tuple[str, int]") -> int:
        """Issue at the earliest legal cycle over named constraints.

        Each candidate is ``(attribution category, earliest cycle)``. The
        binding constraint is the argmax (first wins ties); the command
        bus binds when its own serialization pushes the issue later than
        every candidate. With telemetry on, the wait since the previous
        issue is charged to the binding bucket.
        """
        earliest = 0
        binding = ATTR_CMD_BUS
        for category, cycle in candidates:
            if cycle > earliest:
                earliest = cycle
                binding = category
        at = self._occupy_cmd(earliest)
        if self.telemetry:
            if at > earliest:
                binding = ATTR_CMD_BUS
            self._charge(binding, at)
        return at

    def _data_slot_constraint(self, data_offset: int) -> int:
        """Earliest issue such that the data-bus slot (starting
        ``data_offset`` after issue) does not overlap the previous one."""
        return self.data_bus.next_free - data_offset

    def _activate_banks(self, banks: Sequence[BankState], row: int, at: int) -> None:
        for bank in banks:
            bank.do_activate(row, at, self.timing.t_rcd, self.timing.t_ras)
            self._bank_opened_at[bank.index] = at
        self.stats.bank_activations += len(banks)

    def _close_bank(self, bank: BankState, at: int) -> None:
        self.stats.open_bank_cycles += max(0, at - self._bank_opened_at[bank.index])
        bank.do_precharge(at, self.timing.t_rp)

    def _auto_precharge(self, bank: BankState, column_issue: int) -> None:
        ap_at = max(bank.precharge_ready, column_issue + self.timing.t_ccd)
        self._close_bank(bank, ap_at)

    # ------------------------------------------------------------------
    # refresh

    def refresh_barrier(self, op_duration: int) -> int:
        """Apply Newton's refresh rule before a row-long operation.

        If a refresh would mature within ``op_duration`` of the current
        time, the controller stalls, refreshes (closing every bank), and
        returns the post-refresh start cycle; otherwise returns ``now``.
        """
        before = self.refresh.refreshes_issued
        start = self.refresh.stall_for_refresh(self.now, op_duration)
        issued = self.refresh.refreshes_issued - before
        if issued:
            for bank in self.banks:
                if bank.is_open:
                    self._close_bank(bank, max(self.now, bank.precharge_ready))
                bank.do_refresh_done(start)
            self.cmd_bus.advance_to(start)
            self.data_bus.advance_to(start)
            self.stats.refreshes += issued
            self.stats.refresh_stall_cycles += start - self.now
            self.stats.command_counts[CommandKind.REF] = (
                self.stats.command_counts.get(CommandKind.REF, 0) + issued
            )
            if self.telemetry:
                self._charge(ATTR_REFRESH, start)
            self.now = start
        return self.now

    # ------------------------------------------------------------------
    # command issue

    def issue(self, command: Command) -> IssueRecord:
        """Issue one command at its earliest legal cycle."""
        handler = self._HANDLERS[command.kind]
        return handler(self, command)

    def _issue_act(self, command: Command) -> IssueRecord:
        bank = self._bank(command.bank)
        if command.row is None:
            raise TimingViolationError("ACT requires a row operand")
        scope = self.rules.faw_window(bank.index // self.config.bank_group_size)
        at = self._issue_after(
            (ATTR_BANK, bank.ready_for_act),
            (ATTR_ACT_WINDOW, self.window.earliest(1, scope)),
        )
        self.window.record(at, 1, scope)
        self._activate_banks([bank], command.row, at)
        return self._record(command, at, at + self.timing.t_rcd)

    def _issue_g_act(self, command: Command) -> IssueRecord:
        banks = self._group_banks(command.group)
        if command.row is None:
            raise TimingViolationError("G_ACT requires a row operand")
        scope = self.rules.faw_window(command.group)
        at = self._issue_after(
            (ATTR_BANK, max(b.ready_for_act for b in banks)),
            (ATTR_ACT_WINDOW, self.window.earliest(len(banks), scope)),
        )
        self.window.record(at, len(banks), scope)
        self._activate_banks(banks, command.row, at)
        return self._record(command, at, at + self.timing.t_rcd)

    def _issue_pre(self, command: Command) -> IssueRecord:
        bank = self._bank(command.bank)
        if not bank.is_open:
            raise TimingViolationError(f"PRE on closed bank {bank.index}")
        at = self._issue_after(
            (ATTR_BANK, bank.precharge_ready),
            (ATTR_COLUMN, bank.last_column_issue + self.timing.t_ccd),
        )
        self._close_bank(bank, at)
        return self._record(command, at, at + self.timing.t_rp)

    def _issue_pre_all(self, command: Command) -> IssueRecord:
        open_banks = [b for b in self.banks if b.is_open]
        if not open_banks:
            raise TimingViolationError("PRE_ALL with no open banks")
        at = self._issue_after(
            (ATTR_BANK, max(b.precharge_ready for b in open_banks)),
            (
                ATTR_COLUMN,
                max(b.last_column_issue for b in open_banks) + self.timing.t_ccd,
            ),
        )
        for bank in open_banks:
            self._close_bank(bank, at)
        return self._record(command, at, at + self.timing.t_rp)

    def _issue_column_transfer(self, command: Command, write: bool) -> IssueRecord:
        bank = self._bank(command.bank)
        at = self._issue_after(
            (ATTR_BANK, bank.column_ready),
            (ATTR_COLUMN, bank.last_column_issue + self.timing.t_ccd),
            (ATTR_DATA_BUS, self._data_slot_constraint(self.timing.t_aa)),
        )
        bank.do_column(at, write_recovery=self.timing.t_wr if write else 0)
        self.stats.bank_column_accesses += 1
        self.data_bus.occupy(at + self.timing.t_aa)
        self.stats.data_transfers += 1
        if command.auto_precharge:
            self._auto_precharge(bank, at)
        return self._record(command, at, at + self.timing.t_aa + self.timing.t_ccd)

    def _issue_rd(self, command: Command) -> IssueRecord:
        return self._issue_column_transfer(command, write=False)

    def _issue_wr(self, command: Command) -> IssueRecord:
        return self._issue_column_transfer(command, write=True)

    def _issue_gwrite(self, command: Command) -> IssueRecord:
        # Loads one sub-chunk into the per-channel global buffer: occupies
        # the command bus and the channel data I/O, touches no bank.
        at = self._issue_after(
            (ATTR_DATA_BUS, self._data_slot_constraint(self.timing.t_aa))
        )
        self.data_bus.occupy(at + self.timing.t_aa)
        self.stats.data_transfers += 1
        return self._record(command, at, at + self.timing.t_aa + self.timing.t_ccd)

    def _issue_comp(self, command: Command) -> IssueRecord:
        # Ganged complex compute: column access + MAC in every bank at once.
        for bank in self.banks:
            if not bank.is_open:
                raise TimingViolationError(
                    f"COMP with bank {bank.index} closed; all banks must hold "
                    "their tile row"
                )
        at = self._issue_after(
            (ATTR_BANK, max(b.column_ready for b in self.banks)),
            (
                ATTR_COLUMN,
                max(b.last_column_issue for b in self.banks) + self.timing.t_ccd,
            ),
        )
        for bank in self.banks:
            bank.do_column(at)
        self.stats.bank_column_accesses += len(self.banks)
        self.stats.compute_column_accesses += len(self.banks)
        self._last_tree_feed = at
        if command.auto_precharge:
            for bank in self.banks:
                self._auto_precharge(bank, at)
        return self._record(command, at, at + self.timing.t_ccd)

    def _issue_comp_bank(self, command: Command) -> IssueRecord:
        bank = self._bank(command.bank)
        at = self._issue_after(
            (ATTR_BANK, bank.column_ready),
            (ATTR_COLUMN, bank.last_column_issue + self.timing.t_ccd),
        )
        bank.do_column(at)
        self.stats.bank_column_accesses += 1
        self.stats.compute_column_accesses += 1
        self._last_tree_feed = at
        if command.auto_precharge:
            self._auto_precharge(bank, at)
        return self._record(command, at, at + self.timing.t_ccd)

    def _issue_buf_read(self, command: Command) -> IssueRecord:
        at = self._issue_after()
        return self._record(command, at, at + 1)

    def _issue_col_read(self, command: Command) -> IssueRecord:
        bank = self._bank(command.bank)
        at = self._issue_after(
            (ATTR_BANK, bank.column_ready),
            (ATTR_COLUMN, bank.last_column_issue + self.timing.t_ccd),
        )
        bank.do_column(at)
        self.stats.bank_column_accesses += 1
        self.stats.compute_column_accesses += 1
        if command.auto_precharge:
            self._auto_precharge(bank, at)
        return self._record(command, at, at + self.timing.t_ccd)

    def _issue_mac(self, command: Command) -> IssueRecord:
        at = self._issue_after()
        self._last_tree_feed = at
        return self._record(command, at, at + self.timing.t_ccd)

    def _issue_col_read_all(self, command: Command) -> IssueRecord:
        for bank in self.banks:
            if not bank.is_open:
                raise TimingViolationError(
                    f"COL_READ_ALL with bank {bank.index} closed"
                )
        at = self._issue_after(
            (ATTR_BANK, max(b.column_ready for b in self.banks)),
            (
                ATTR_COLUMN,
                max(b.last_column_issue for b in self.banks) + self.timing.t_ccd,
            ),
        )
        for bank in self.banks:
            bank.do_column(at)
        self.stats.bank_column_accesses += len(self.banks)
        self.stats.compute_column_accesses += len(self.banks)
        if command.auto_precharge:
            for bank in self.banks:
                self._auto_precharge(bank, at)
        return self._record(command, at, at + self.timing.t_ccd)

    def _issue_mac_all(self, command: Command) -> IssueRecord:
        at = self._issue_after()
        self._last_tree_feed = at
        return self._record(command, at, at + self.timing.t_ccd)

    def _issue_readres(self, command: Command) -> IssueRecord:
        # The host memory controller inserts the adder-tree drain delay
        # before reading the result latches (Section III-D, issue (2)).
        at = self._issue_after(
            (ATTR_TREE, self._last_tree_feed + self.timing.t_tree_drain),
            (ATTR_DATA_BUS, self._data_slot_constraint(self.timing.t_aa)),
        )
        self.data_bus.occupy(at + self.timing.t_aa)
        self.stats.data_transfers += 1
        return self._record(command, at, at + self.timing.t_aa + self.timing.t_ccd)

    def _issue_readres_bank(self, command: Command) -> IssueRecord:
        bank = self._bank(command.bank)
        at = self._issue_after(
            (
                ATTR_TREE,
                max(bank.last_column_issue, self._last_tree_feed)
                + self.timing.t_tree_drain,
            ),
            (ATTR_DATA_BUS, self._data_slot_constraint(self.timing.t_aa)),
        )
        self.data_bus.occupy(at + self.timing.t_aa)
        self.stats.data_transfers += 1
        return self._record(command, at, at + self.timing.t_aa + self.timing.t_ccd)

    def _issue_ref(self, command: Command) -> IssueRecord:
        for bank in self.banks:
            if bank.is_open:
                raise TimingViolationError(
                    "REF requires all banks precharged; issue PRE_ALL first"
                )
        at = self._issue_after(
            (ATTR_BANK, max(b.ready_for_act for b in self.banks))
        )
        done = at + self.timing.t_rfc
        for bank in self.banks:
            bank.do_refresh_done(done)
        self.stats.refreshes += 1
        return self._record(command, at, done)

    def issue_burst(self, run) -> "object":
        """Issue a :class:`~repro.dram.commands.CommandRun`.

        The cold-path entry point: the first period goes through the
        ordinary constraint solver, the rest are applied in closed form
        by :func:`repro.dram.burst.issue_burst` — bit-identical to
        issuing :meth:`issue` per command (the differential suite pins
        end cycle, stats, and full cycle attribution). Falls back to
        per-command issue under a trace recorder. Returns a
        :class:`~repro.dram.burst.BurstRecord`.
        """
        from repro.dram.burst import issue_burst as _issue_burst

        return _issue_burst(self, run)

    _HANDLERS = {
        CommandKind.ACT: _issue_act,
        CommandKind.G_ACT: _issue_g_act,
        CommandKind.PRE: _issue_pre,
        CommandKind.PRE_ALL: _issue_pre_all,
        CommandKind.RD: _issue_rd,
        CommandKind.WR: _issue_wr,
        CommandKind.REF: _issue_ref,
        CommandKind.GWRITE: _issue_gwrite,
        CommandKind.COMP: _issue_comp,
        CommandKind.COMP_BANK: _issue_comp_bank,
        CommandKind.BUF_READ: _issue_buf_read,
        CommandKind.COL_READ: _issue_col_read,
        CommandKind.MAC: _issue_mac,
        CommandKind.COL_READ_ALL: _issue_col_read_all,
        CommandKind.MAC_ALL: _issue_mac_all,
        CommandKind.READRES: _issue_readres,
        CommandKind.READRES_BANK: _issue_readres_bank,
    }

    # ------------------------------------------------------------------
    # finalization

    def finalize(self, end: Optional[int] = None) -> int:
        """Close open-bank and attribution accounting; return the end cycle.

        With telemetry on, the cycles between the last issued command and
        ``end`` (in-flight completions draining) are charged to
        :data:`ATTR_TAIL`, making the attribution buckets sum exactly to
        the returned end cycle. Idempotent for a fixed ``end``.
        """
        end_cycle = max(self.now, end if end is not None else self.now)
        for bank in self.banks:
            if bank.is_open:
                self.stats.open_bank_cycles += max(
                    0, end_cycle - self._bank_opened_at[bank.index]
                )
                self._bank_opened_at[bank.index] = end_cycle
        if self.telemetry:
            self._charge(ATTR_TAIL, end_cycle)
        return end_cycle
