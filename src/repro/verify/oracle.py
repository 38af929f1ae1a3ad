"""A deliberately-simple issue-cycle oracle for trace cross-checking.

The production :class:`~repro.dram.controller.ChannelController` computes
issue cycles with incremental bookkeeping spread across bank state
machines, bus timers and the activation-window tracker; the burst kernel
and fast-path replay then reproduce its answers in closed form. This
oracle is the third, structurally different implementation of the same
timing rules: one flat function of explicit state per command, with no
attribution and no fast paths. It shares only the rule tables with the
other two — the kind sets and
:func:`~repro.dram.commands.target_banks` of :mod:`repro.dram.commands`
and the family's :class:`~repro.dram.config.FamilyRules` — never their
bookkeeping. Three independent derivations (controller,
:mod:`repro.dram.ticksim`, this oracle) that agree cycle-for-cycle make a
bookkeeping bug in any one of them visible.

Two entry points:

* :meth:`CycleOracle.check_trace` — re-derive every issue cycle of a
  recorded trace and report each :class:`Divergence` from what the
  controller actually did. Refresh windows are applied *exogenously*
  from the scheduler's log (Newton's refresh rule decides *when* to
  refresh — policy, not protocol — so the oracle replays the decision
  and re-derives only its timing consequences).
* :meth:`CycleOracle.predict` — run the oracle forward over a command
  list with no trace to compare against, returning the issue cycles it
  derives. This is what the ticksim cross-check tests consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

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
from repro.dram.controller import IssueRecord
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError

NEG_INF = -(10**18)

@dataclass(frozen=True)
class Divergence:
    """One command whose recorded issue cycle the oracle derives differently."""

    index: int
    """Position in the checked record stream."""
    command: str
    """``Command.describe()`` text."""
    recorded: int
    """Issue cycle the controller recorded."""
    recomputed: int
    """Issue cycle the oracle derives from the same history."""

    def render(self) -> str:
        return (
            f"#{self.index} {self.command}: controller issued at "
            f"{self.recorded}, oracle derives {self.recomputed}"
        )


@dataclass
class _OracleBank:
    open_row: Optional[int] = None
    act_time: int = NEG_INF
    ready_for_act: int = 0
    precharge_ready: int = 0
    last_col: int = NEG_INF


class CycleOracle:
    """Recomputes issue cycles one command at a time from explicit state."""

    FAW_WINDOW = 4

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams,
        *,
        aggressive_tfaw: bool = False,
    ):
        self.config = config
        self.timing = timing
        self.faw = timing.faw_window(aggressive_tfaw)
        self._banks = [_OracleBank() for _ in range(config.banks_per_channel)]
        self.rules = config.rules
        # One four-activation history per tFAW window of the family;
        # tRRD stays channel-wide.
        self._acts: List[Deque[int]] = [
            deque(maxlen=self.FAW_WINDOW)
            for _ in range(self.rules.faw_windows(config))
        ]
        self._last_act = NEG_INF
        self._cmd_free = 0
        self._data_free = 0
        self._last_tree_feed = NEG_INF

    # ------------------------------------------------------------------
    # state queries

    def _act_scope(self, command: Command) -> int:
        """The tFAW window an activation command's targets land in."""
        return self.rules.faw_window(bank_group(command, self.config))

    def _window_earliest(self, count: int, scope: int = 0) -> int:
        """Earliest cycle ``count`` simultaneous activations satisfy
        tRRD and the four-activation window (JEDEC: any activation and
        its fourth-previous one are >= tFAW apart)."""
        bound = self._last_act + self.timing.t_rrd
        history = list(self._acts[scope])
        back = self.FAW_WINDOW - count + 1
        if len(history) >= back:
            bound = max(bound, history[-back] + self.faw)
        return bound

    def earliest_issue(self, command: Command) -> int:
        """The earliest cycle this command may legally issue."""
        t = self.timing
        kind = command.kind
        bound = self._cmd_free
        if kind in ACTIVATION_KINDS:
            targets = target_banks(command, self.config)
            bound = max(
                bound,
                max(self._banks[b].ready_for_act for b in targets),
                self._window_earliest(len(targets), self._act_scope(command)),
            )
        elif kind in COLUMN_KINDS:
            for b in target_banks(command, self.config):
                bank = self._banks[b]
                bound = max(
                    bound, bank.act_time + t.t_rcd, bank.last_col + t.t_ccd
                )
            if kind in DATA_KINDS:
                bound = max(bound, self._data_free - t.t_aa)
        elif kind is CommandKind.GWRITE:
            bound = max(bound, self._data_free - t.t_aa)
        elif kind in (CommandKind.READRES, CommandKind.READRES_BANK):
            anchor = self._last_tree_feed
            if kind is CommandKind.READRES_BANK and command.bank is not None:
                anchor = max(anchor, self._banks[command.bank].last_col)
            bound = max(
                bound, anchor + t.t_tree_drain, self._data_free - t.t_aa
            )
        elif kind is CommandKind.PRE:
            bank = self._banks[command.bank]
            bound = max(
                bound, bank.precharge_ready, bank.last_col + t.t_ccd
            )
        elif kind is CommandKind.PRE_ALL:
            open_banks = [b for b in self._banks if b.open_row is not None]
            if open_banks:
                bound = max(
                    bound,
                    max(b.precharge_ready for b in open_banks),
                    max(b.last_col for b in open_banks) + t.t_ccd,
                )
        elif kind is CommandKind.REF:
            bound = max(
                bound, max(b.ready_for_act for b in self._banks)
            )
        elif kind in (CommandKind.BUF_READ, CommandKind.MAC, CommandKind.MAC_ALL):
            pass  # only the command bus binds
        else:  # pragma: no cover - the kind enum is closed
            raise ConfigurationError(f"oracle does not model {kind}")
        return max(bound, 0)

    def apply(self, command: Command, at: int) -> None:
        """Evolve the oracle's state as if ``command`` issued at ``at``."""
        t = self.timing
        kind = command.kind
        self._cmd_free = at + t.t_cmd
        if kind in ACTIVATION_KINDS:
            targets = target_banks(command, self.config)
            for b in targets:
                bank = self._banks[b]
                bank.open_row = command.row
                bank.act_time = at
                bank.precharge_ready = at + t.t_ras
            acts = self._acts[self._act_scope(command)]
            for _ in targets:
                acts.append(at)
            self._last_act = at
        elif kind in COLUMN_KINDS:
            for b in target_banks(command, self.config):
                bank = self._banks[b]
                bank.last_col = at
                if kind is CommandKind.WR:
                    bank.precharge_ready = max(
                        bank.precharge_ready, at + t.t_wr
                    )
                if command.auto_precharge:
                    ap_at = max(bank.precharge_ready, at + t.t_ccd)
                    bank.open_row = None
                    bank.ready_for_act = ap_at + t.t_rp
            if kind in TREE_FEED_KINDS:
                self._last_tree_feed = at
            if kind in DATA_KINDS:
                self._data_free = at + t.t_aa + t.t_ccd
        elif kind in DATA_KINDS:  # GWRITE / READRES / READRES_BANK
            self._data_free = at + t.t_aa + t.t_ccd
        elif kind in (CommandKind.MAC, CommandKind.MAC_ALL):
            self._last_tree_feed = at
        elif kind is CommandKind.PRE:
            bank = self._banks[command.bank]
            bank.open_row = None
            bank.ready_for_act = at + t.t_rp
        elif kind is CommandKind.PRE_ALL:
            for bank in self._banks:
                if bank.open_row is not None:
                    bank.open_row = None
                    bank.ready_for_act = at + t.t_rp
        elif kind is CommandKind.REF:
            done = at + t.t_rfc
            for bank in self._banks:
                bank.open_row = None
                bank.act_time = NEG_INF
                bank.ready_for_act = done
                bank.precharge_ready = done

    def apply_refresh(self, issue: int, done: int) -> None:
        """Apply one exogenous refresh window from the scheduler's log.

        The refresh closes every bank and holds them (and both buses)
        until ``done`` — the oracle's rendering of the controller's
        barrier refresh.
        """
        for bank in self._banks:
            bank.open_row = None
            bank.act_time = NEG_INF
            bank.ready_for_act = max(bank.ready_for_act, done)
            bank.precharge_ready = max(bank.precharge_ready, done)
        self._cmd_free = max(self._cmd_free, done)
        self._data_free = max(self._data_free, done)

    # ------------------------------------------------------------------
    # entry points

    def check_trace(
        self,
        records: Sequence[IssueRecord],
        refresh_log: Sequence[Tuple[int, int]] = (),
    ) -> List[Divergence]:
        """Re-derive every recorded issue cycle; report disagreements.

        State evolves from the *recorded* cycles, not the recomputed
        ones, so one divergence is reported once instead of cascading
        into a different answer for every subsequent command.
        """
        divergences: List[Divergence] = []
        refreshes = sorted(refresh_log)
        next_refresh = 0
        for index, record in enumerate(records):
            # A refresh whose issue cycle ties a command's happened after
            # it: the barrier stalls from the controller's current time,
            # which already covers every prior issue.
            while (
                next_refresh < len(refreshes)
                and refreshes[next_refresh][0] < record.issue
            ):
                self.apply_refresh(*refreshes[next_refresh])
                next_refresh += 1
            expected = self.earliest_issue(record.command)
            if expected != record.issue:
                divergences.append(
                    Divergence(
                        index=index,
                        command=record.command.describe(),
                        recorded=record.issue,
                        recomputed=expected,
                    )
                )
            self.apply(record.command, record.issue)
        return divergences

    def predict(self, commands: Sequence[Command]) -> List[int]:
        """Derive issue cycles for a refresh-free command list."""
        issues: List[int] = []
        for command in commands:
            at = self.earliest_issue(command)
            self.apply(command, at)
            issues.append(at)
        return issues


def check_trace(
    records: Sequence[IssueRecord],
    config: DRAMConfig,
    timing: TimingParams,
    *,
    aggressive_tfaw: bool = False,
    refresh_log: Sequence[Tuple[int, int]] = (),
) -> List[Divergence]:
    """One-shot wrapper: oracle-check a whole trace."""
    oracle = CycleOracle(config, timing, aggressive_tfaw=aggressive_tfaw)
    return oracle.check_trace(records, refresh_log)
