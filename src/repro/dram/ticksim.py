"""A per-cycle ("tick") reference simulator for differential validation.

The production controller computes each command's issue cycle as a
closed-form max over constraints. This module executes the same command
stream the way textbook DRAM simulators do — advancing one cycle at a
time and issuing the head-of-queue command the first cycle every
constraint is satisfied — with the constraints expressed as per-cycle
*predicates* over recorded event times rather than the controller's
incremental bookkeeping.

Because the mechanism is different (polling vs. computation) while the
rules are the same, agreement between the two is meaningful: a mistake
in either engine's handling of, say, the tFAW sliding window or the
auto-precharge timing shows up as a cycle-level divergence. The two
share only the rule tables — the kind sets and
:func:`~repro.dram.commands.target_banks` of :mod:`repro.dram.commands`
and the family's :class:`~repro.dram.config.FamilyRules` (here, its tFAW
scope) — never their bookkeeping. `tests/dram/test_ticksim.py` pins them
identical on the full command streams every command family generates,
for every optimization combination.

The tick loop is O(cycles), so use it on small streams only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dram.commands import (
    ACTIVATION_KINDS,
    COLUMN_KINDS,
    DATA_KINDS,
    TREE_FEED_KINDS,
    Command,
    CommandKind,
    bank_group,
    target_banks,
)
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError, TimingViolationError

@dataclass
class _TickBank:
    open_row: Optional[int] = None
    act_time: int = -(10**9)
    pre_done: int = 0
    last_col: int = -(10**9)
    wr_recovery_until: int = -(10**9)


class TickSimulator:
    """Issues a command list cycle by cycle under the same timing rules."""

    def __init__(self, config: DRAMConfig, timing: TimingParams, *, aggressive_tfaw: bool):
        self.config = config
        self.timing = timing
        self.faw = timing.faw_window(aggressive_tfaw)
        self.rules = config.rules

    # ------------------------------------------------------------------

    def _window(self, command: Command, histories: List[List[int]]) -> List[int]:
        """The activation history of the tFAW window ``command`` counts in."""
        return histories[self.rules.faw_window(bank_group(command, self.config))]

    def _can_issue(
        self,
        command: Command,
        now: int,
        banks: List[_TickBank],
        act_histories: List[List[int]],
        last_act: int,
        bus_free: int,
        data_free: int,
        last_tree_feed: int,
    ) -> bool:
        t = self.timing
        kind = command.kind
        if now < bus_free:
            return False
        if kind in ACTIVATION_KINDS:
            targets = target_banks(command, self.config)
            count = len(targets)
            for b in targets:
                if banks[b].open_row is not None:
                    raise TimingViolationError(f"tick sim: ACT on open bank {b}")
                if now < banks[b].pre_done:
                    return False
            # tRRD spaces activations channel-wide; tFAW counts only the
            # activations of the family's window this command lands in.
            if now - last_act < t.t_rrd:
                return False
            # Appending `count` activations at `now`: every new one must
            # start >= tFAW after its fourth-previous activation. The
            # binding anchor is the (4 - count + 1)-th most recent entry.
            act_history = self._window(command, act_histories)
            back = 4 - count + 1
            if len(act_history) >= back:
                if now - act_history[-back] < self.faw:
                    return False
            return True
        if kind in COLUMN_KINDS:
            for b in target_banks(command, self.config):
                bank = banks[b]
                if bank.open_row is None:
                    raise TimingViolationError(f"tick sim: column on closed bank {b}")
                if now < bank.act_time + t.t_rcd:
                    return False
                if now - bank.last_col < t.t_ccd:
                    return False
            if kind in DATA_KINDS and now + t.t_aa < data_free:
                return False
            return True
        if kind in (CommandKind.GWRITE,):
            return now + t.t_aa >= data_free
        if kind in (CommandKind.READRES, CommandKind.READRES_BANK):
            if now < last_tree_feed + t.t_tree_drain:
                return False
            if kind is CommandKind.READRES_BANK and command.bank is not None:
                if now < banks[command.bank].last_col + t.t_tree_drain:
                    return False
            return now + t.t_aa >= data_free
        if kind in (CommandKind.BUF_READ, CommandKind.MAC, CommandKind.MAC_ALL):
            return True
        if kind is CommandKind.PRE:
            bank = banks[command.bank]
            return (
                now >= bank.act_time + t.t_ras
                and now >= bank.wr_recovery_until
                and now - bank.last_col >= t.t_ccd
            )
        raise ConfigurationError(f"tick sim does not model {kind}")

    def run(self, commands: Sequence[Command], max_cycles: int = 2_000_000) -> List[int]:
        """Issue every command in order; return per-command issue cycles."""
        t = self.timing
        banks = [_TickBank() for _ in range(self.config.banks_per_channel)]
        act_histories: List[List[int]] = [
            [] for _ in range(self.rules.faw_windows(self.config))
        ]
        last_act = -(10**9)
        issues: List[int] = []
        bus_free = 0
        data_free = 0
        last_tree_feed = -(10**9)
        now = 0
        for command in commands:
            while not self._can_issue(
                command, now, banks, act_histories, last_act, bus_free,
                data_free, last_tree_feed,
            ):
                now += 1
                if now > max_cycles:
                    raise TimingViolationError(
                        f"tick sim: {command.describe()} never became legal"
                    )
            issues.append(now)
            bus_free = now + t.t_cmd
            kind = command.kind
            if kind in ACTIVATION_KINDS:
                targets = target_banks(command, self.config)
                for b in targets:
                    banks[b].open_row = command.row
                    banks[b].act_time = now
                self._window(command, act_histories).extend([now] * len(targets))
                last_act = now
            elif kind in COLUMN_KINDS:
                for b in target_banks(command, self.config):
                    banks[b].last_col = now
                    if kind is CommandKind.WR:
                        banks[b].wr_recovery_until = now + t.t_wr
                    if command.auto_precharge:
                        ap_at = max(banks[b].act_time + t.t_ras, now + t.t_ccd)
                        ap_at = max(ap_at, banks[b].wr_recovery_until)
                        banks[b].open_row = None
                        banks[b].pre_done = ap_at + t.t_rp
                if kind in TREE_FEED_KINDS:
                    last_tree_feed = now
                if kind in DATA_KINDS:
                    data_free = now + t.t_aa + t.t_ccd
            elif kind in DATA_KINDS:  # GWRITE / READRES / READRES_BANK
                data_free = now + t.t_aa + t.t_ccd
            elif kind in (CommandKind.MAC, CommandKind.MAC_ALL):
                last_tree_feed = now
            elif kind is CommandKind.PRE:
                banks[command.bank].open_row = None
                banks[command.bank].pre_done = now + t.t_rp
        return issues
