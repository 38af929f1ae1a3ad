"""Post-hoc protocol-invariant validation of command traces.

The simulator has three execution tiers (per-command solver, burst
kernel, fast-path replay) pinned pairwise by differential tests — but a
differential test only proves the tiers agree with *each other*. This
module independently re-checks the DRAM command protocol Newton defines
(Table I and Section III) against the one artifact every tier must
produce the same way: the issued command trace.

:class:`InvariantChecker` consumes :class:`~repro.dram.controller.IssueRecord`
events (plus refresh windows from the
:class:`~repro.dram.refresh.RefreshScheduler` log) in issue order and
emits a structured :class:`Violation` for every breach of the invariant
catalog:

========================== ============================================
Rule                       Invariant
========================== ============================================
``issue_order``            issues are monotonically non-decreasing
``cmd_bus``                >= tCMD between any two commands
``tRRD``                   >= tRRD between activation commands
``tFAW``                   any activation and its fourth-previous one
                           are >= tFAW apart (sliding window)
``tRCD``                   no column access within tRCD of the ACT
``tCCD``                   >= tCCD between column accesses per bank
``tRAS``                   no (auto-)precharge within tRAS of the ACT
``tRP``                    no ACT within tRP of the precharge
``tWR``                    no (auto-)precharge within the write recovery
``bank_state``             no ACT on an open bank, no column access or
                           PRE on a closed bank (rows are not
                           double-buffered)
``data_bus``               data-I/O slots (RD/WR/GWRITE/READRES) never
                           overlap
``tree_drain``             READRES waits out the adder-tree drain after
                           the last compute feed
``gwrite_before_comp``     COMP/BUF_READ only read global-buffer
                           sub-chunks a GWRITE has loaded
``latch_overwrite``        a result latch holding unread data is never
                           accumulated into by a later tile (full-reuse
                           single-latch traversal only)
``refresh``                no command inside a refresh blackout, refresh
                           windows are well-formed, and the pending
                           (postponed) refresh debt stays bounded
========================== ============================================

The checker is *incremental*: the engine's opt-in
``NEWTON_CHECK_INVARIANTS=1`` hook feeds it run by run, and the fuzz
harness (:mod:`repro.verify.fuzz`) feeds it whole traces through
:func:`check_trace`. It shares only the rule tables with the controller,
the burst kernel and the tick simulator — the kind sets and
:func:`~repro.dram.commands.target_banks` of :mod:`repro.dram.commands`
and the family's :class:`~repro.dram.config.FamilyRules` — and no
mechanism: its bookkeeping is spelled out from the timing spec so a bug
in any engine shows up as a violation rather than being faithfully
reproduced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.dram.commands import (
    ACTIVATION_KINDS,
    BUFFER_READ_KINDS,
    COLUMN_KINDS,
    DATA_KINDS,
    TREE_FEED_KINDS,
    CommandKind,
    bank_group,
    target_banks,
)
from repro.dram.config import DRAMConfig
from repro.dram.controller import IssueRecord
from repro.dram.timing import TimingParams
from repro.errors import VerificationError

NEG_INF = -(10**18)

# Rule identifiers (the ``Violation.rule`` vocabulary).
R_ORDER = "issue_order"
R_CMD_BUS = "cmd_bus"
R_TRRD = "tRRD"
R_TFAW = "tFAW"
R_TRCD = "tRCD"
R_TCCD = "tCCD"
R_TRAS = "tRAS"
R_TRP = "tRP"
R_TWR = "tWR"
R_BANK_STATE = "bank_state"
R_DATA_BUS = "data_bus"
R_TREE = "tree_drain"
R_GBUF = "gwrite_before_comp"
R_LATCH = "latch_overwrite"
R_REFRESH = "refresh"

ALL_RULES = (
    R_ORDER,
    R_CMD_BUS,
    R_TRRD,
    R_TFAW,
    R_TRCD,
    R_TCCD,
    R_TRAS,
    R_TRP,
    R_TWR,
    R_BANK_STATE,
    R_DATA_BUS,
    R_TREE,
    R_GBUF,
    R_LATCH,
    R_REFRESH,
)
"""Every rule a :class:`Violation` may carry."""

MAX_POSTPONED_REFRESHES = 8
"""JEDEC's refresh-postponement ceiling: at most this many matured
refresh intervals may be outstanding at any time. The checker enforces
it only on request (``max_postponed_refreshes=8``): the simulator's
refresh model deliberately postpones *without* a cap across a long
un-barriered operation (see :mod:`repro.dram.refresh` — the debt is paid
at the next barrier and the average rate is preserved), so the ceiling
is a stricter policy than the model guarantees."""

@dataclass(frozen=True)
class Violation:
    """One breach of a protocol invariant, located in the trace."""

    rule: str
    """Which invariant broke (one of :data:`ALL_RULES`)."""
    cycle: int
    """Issue cycle of the offending event."""
    index: int
    """Position in the checked record stream (-1 for refresh/end-of-run
    checks that are not anchored to a command)."""
    command: Optional[str]
    """``Command.describe()`` text of the offender, if any."""
    detail: str
    """Human-readable explanation with the numbers that disagree."""

    def render(self) -> str:
        where = f"#{self.index} " if self.index >= 0 else ""
        what = f" {self.command}" if self.command else ""
        return f"[{self.rule}] {where}@{self.cycle}{what}: {self.detail}"


@dataclass
class _BankView:
    """The checker's independent model of one bank's timing state."""

    open_row: Optional[int] = None
    act_time: int = NEG_INF
    ready_for_act: int = 0
    last_column_issue: int = NEG_INF
    wr_recovery_until: int = NEG_INF
    latch_dirty: bool = False
    acted_since_feed: bool = False


class InvariantChecker:
    """Incrementally validates an issued command stream against the spec.

    Feed events in issue order: :meth:`observe` per command record,
    :meth:`observe_refresh` per refresh window (interleaved where they
    occurred — :func:`check_trace` does the merge for whole traces), and
    :meth:`finish` once the run's end cycle is known. Violations
    accumulate on :attr:`violations`; :attr:`checks` counts every
    individual invariant evaluation performed, which is what the
    telemetry counters export.
    """

    FAW_WINDOW = 4

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams,
        *,
        aggressive_tfaw: bool = False,
        check_latch: bool = False,
        check_refresh_interval: bool = True,
        max_postponed_refreshes: Optional[int] = None,
    ):
        self.config = config
        self.timing = timing
        self.faw = timing.faw_window(aggressive_tfaw)
        self.check_latch = check_latch
        """Enable the single-latch overwrite rule. Only sound where
        READRES reads per-chunk partials (``not
        FamilyRules.whole_row_readout``): a whole-row readout
        deliberately accumulates one latch across tiles or chunks."""
        self.check_refresh_interval = check_refresh_interval
        self.max_postponed = max_postponed_refreshes
        self.violations: List[Violation] = []
        self.checks = 0
        self.records_checked = 0
        self.refreshes_checked = 0

        self._banks = [_BankView() for _ in range(config.banks_per_channel)]
        self._last_issue: Optional[int] = None
        self.rules = config.rules
        # One four-activation history per tFAW window of the family;
        # tRRD stays channel-wide.
        self._acts: List[Deque[int]] = [
            deque(maxlen=self.FAW_WINDOW)
            for _ in range(self.rules.faw_windows(config))
        ]
        self._last_act = NEG_INF
        self._data_free = 0
        self._last_tree_feed = NEG_INF
        self._loaded_subchunks: set = set()
        self._refresh_blackout_until = NEG_INF
        self._last_refresh_done = NEG_INF
        self._refreshes_seen = 0
        self._index = 0

    # ------------------------------------------------------------------
    # plumbing

    def _flag(
        self,
        rule: str,
        cycle: int,
        detail: str,
        *,
        command: Optional[str] = None,
        index: Optional[int] = None,
    ) -> None:
        self.violations.append(
            Violation(
                rule=rule,
                cycle=cycle,
                index=self._index if index is None else index,
                command=command,
                detail=detail,
            )
        )

    def _check(
        self,
        ok: bool,
        rule: str,
        cycle: int,
        detail: str,
        *,
        command: Optional[str] = None,
    ) -> None:
        self.checks += 1
        if not ok:
            self._flag(rule, cycle, detail, command=command)

    # ------------------------------------------------------------------
    # refresh events

    def observe_refresh(self, issue: int, done: int) -> None:
        """Feed one refresh window from the scheduler's log."""
        t = self.timing
        self.refreshes_checked += 1
        self._check(
            done - issue == t.t_rfc,
            R_REFRESH,
            issue,
            f"refresh window [{issue}, {done}) spans {done - issue} cycles, "
            f"tRFC is {t.t_rfc}",
        )
        self._check(
            issue >= self._last_refresh_done,
            R_REFRESH,
            issue,
            f"refresh at {issue} overlaps the previous refresh ending at "
            f"{self._last_refresh_done}",
        )
        if self.check_refresh_interval:
            due = (self._refreshes_seen + 1) * t.t_refi
            self._check(
                issue >= due,
                R_REFRESH,
                issue,
                f"refresh #{self._refreshes_seen} issued at {issue}, before "
                f"its interval matured at {due}",
            )
            if self.max_postponed is not None:
                pending = issue // t.t_refi - (self._refreshes_seen + 1)
                self._check(
                    pending <= self.max_postponed,
                    R_REFRESH,
                    issue,
                    f"{pending} refresh intervals still pending at {issue}; "
                    f"the postponement ceiling is {self.max_postponed}",
                )
        self._refreshes_seen += 1
        self._last_refresh_done = done
        self._refresh_blackout_until = max(self._refresh_blackout_until, done)
        # Refresh closes every bank; the implicit precharges the
        # controller performs first are policy, not traced commands.
        for bank in self._banks:
            bank.open_row = None
            bank.act_time = NEG_INF
            bank.ready_for_act = done
            bank.acted_since_feed = bank.latch_dirty

    # ------------------------------------------------------------------
    # command events

    def observe(self, record: IssueRecord) -> None:
        """Feed one issued command; check every invariant that binds it."""
        command = record.command
        at = record.issue
        described = command.describe()
        t = self.timing
        self.records_checked += 1

        if self._last_issue is not None:
            self._check(
                at >= self._last_issue,
                R_ORDER,
                at,
                f"issue {at} precedes the previous issue {self._last_issue}",
                command=described,
            )
            self._check(
                at - self._last_issue >= t.t_cmd,
                R_CMD_BUS,
                at,
                f"only {at - self._last_issue} cycles since the previous "
                f"command, tCMD is {t.t_cmd}",
                command=described,
            )
        self._check(
            at >= self._refresh_blackout_until,
            R_REFRESH,
            at,
            f"command issued inside a refresh blackout ending at "
            f"{self._refresh_blackout_until}",
            command=described,
        )
        self._last_issue = at

        kind = command.kind
        if kind in ACTIVATION_KINDS:
            self._observe_activation(command, at, described)
        elif kind in COLUMN_KINDS:
            self._observe_column(command, at, described)
        elif kind is CommandKind.PRE:
            self._observe_pre(command, at, described)
        elif kind is CommandKind.PRE_ALL:
            for index, bank in enumerate(self._banks):
                if bank.open_row is not None:
                    self._precharge_checks(index, bank, at, described)
                    bank.open_row = None
                    bank.ready_for_act = at + t.t_rp
        elif kind is CommandKind.GWRITE:
            self._loaded_subchunks.add(command.subchunk)
        elif kind in (CommandKind.READRES, CommandKind.READRES_BANK):
            self._observe_readres(command, at, described)
        elif kind is CommandKind.REF:
            for index, bank in enumerate(self._banks):
                self._check(
                    bank.open_row is None,
                    R_BANK_STATE,
                    at,
                    f"REF with bank {index} open (all banks must be "
                    "precharged)",
                    command=described,
                )
                bank.open_row = None
                bank.act_time = NEG_INF
                bank.ready_for_act = at + t.t_rfc
            self._refreshes_seen += 0  # explicit REF is not a barrier refresh
        # BUF_READ / MAC / MAC_ALL carry no bank timing constraints.

        if kind in BUFFER_READ_KINDS:
            self._check(
                command.subchunk in self._loaded_subchunks,
                R_GBUF,
                at,
                f"sub-chunk {command.subchunk} read before any GWRITE "
                "loaded it",
                command=described,
            )
        if kind in DATA_KINDS:
            self._check(
                at + t.t_aa >= self._data_free,
                R_DATA_BUS,
                at,
                f"data slot at {at + t.t_aa} overlaps the previous transfer "
                f"ending at {self._data_free}",
                command=described,
            )
            self._data_free = at + t.t_aa + t.t_ccd
        if kind in TREE_FEED_KINDS:
            self._last_tree_feed = at
            if self.check_latch:
                self._observe_latch_feed(command, at, described)
        self._index += 1

    # ------------------------------------------------------------------
    # per-kind checks

    def _observe_activation(self, command, at: int, described: str) -> None:
        t = self.timing
        targets = target_banks(command, self.config)
        for index in targets:
            bank = self._banks[index]
            self._check(
                bank.open_row is None,
                R_BANK_STATE,
                at,
                f"ACT on bank {index} while row {bank.open_row} is open "
                "(rows are not double-buffered)",
                command=described,
            )
            self._check(
                at >= bank.ready_for_act,
                R_TRP,
                at,
                f"bank {index} not precharge-complete until "
                f"{bank.ready_for_act}",
                command=described,
            )
        self._check(
            at - self._last_act >= t.t_rrd,
            R_TRRD,
            at,
            f"only {at - self._last_act} cycles since the previous "
            f"activation, tRRD is {t.t_rrd}",
            command=described,
        )
        scope = self.rules.faw_window(bank_group(command, self.config))
        acts = self._acts[scope]
        where = f" (bank group {scope})" if len(self._acts) > 1 else ""
        for _ in targets:
            if len(acts) == self.FAW_WINDOW:
                anchor = acts[0]
                self._check(
                    at - anchor >= self.faw,
                    R_TFAW,
                    at,
                    f"fifth activation only {at - anchor} cycles after its "
                    f"fourth-previous one at {anchor}, tFAW window is "
                    f"{self.faw}{where}",
                    command=described,
                )
            acts.append(at)
        self._last_act = at
        for index in targets:
            bank = self._banks[index]
            bank.open_row = command.row
            bank.act_time = at
            bank.wr_recovery_until = NEG_INF
            if bank.latch_dirty:
                bank.acted_since_feed = True

    def _observe_column(self, command, at: int, described: str) -> None:
        t = self.timing
        for index in target_banks(command, self.config):
            bank = self._banks[index]
            if bank.open_row is None:
                self._check(
                    False,
                    R_BANK_STATE,
                    at,
                    f"column access on bank {index} with no open row",
                    command=described,
                )
                continue
            self._check(
                at - bank.act_time >= t.t_rcd,
                R_TRCD,
                at,
                f"bank {index} activated at {bank.act_time}, column access "
                f"only {at - bank.act_time} cycles later (tRCD {t.t_rcd})",
                command=described,
            )
            self._check(
                at - bank.last_column_issue >= t.t_ccd,
                R_TCCD,
                at,
                f"bank {index} column cadence {at - bank.last_column_issue} "
                f"below tCCD {t.t_ccd}",
                command=described,
            )
            bank.last_column_issue = at
            if command.kind is CommandKind.WR:
                bank.wr_recovery_until = at + t.t_wr
            if command.auto_precharge:
                # The deferred close is controller policy, not a traced
                # command: its time is *derived* as the earliest legal
                # cycle, so there is nothing to assert — only bank state
                # to evolve for the checks that follow.
                ap_at = max(
                    bank.act_time + t.t_ras,
                    bank.wr_recovery_until,
                    at + t.t_ccd,
                )
                bank.open_row = None
                bank.ready_for_act = ap_at + t.t_rp

    def _precharge_checks(
        self,
        index: int,
        bank: _BankView,
        at: int,
        described: str,
        *,
        implicit: bool = False,
    ) -> None:
        t = self.timing
        label = "auto-precharge" if implicit else "PRE"
        self._check(
            at - bank.act_time >= t.t_ras,
            R_TRAS,
            at,
            f"{label} on bank {index} only {at - bank.act_time} cycles "
            f"after its ACT at {bank.act_time} (tRAS {t.t_ras})",
            command=described,
        )
        self._check(
            at >= bank.wr_recovery_until,
            R_TWR,
            at,
            f"{label} on bank {index} before write recovery completes at "
            f"{bank.wr_recovery_until}",
            command=described,
        )

    def _observe_pre(self, command, at: int, described: str) -> None:
        t = self.timing
        index = command.bank
        bank = self._banks[index]
        if bank.open_row is None:
            self._check(
                False,
                R_BANK_STATE,
                at,
                f"PRE on closed bank {index}",
                command=described,
            )
            return
        self._precharge_checks(index, bank, at, described)
        self._check(
            at - bank.last_column_issue >= t.t_ccd,
            R_TCCD,
            at,
            f"PRE on bank {index} only {at - bank.last_column_issue} cycles "
            f"after its last column access (tCCD {t.t_ccd})",
            command=described,
        )
        bank.open_row = None
        bank.ready_for_act = at + t.t_rp

    def _observe_readres(self, command, at: int, described: str) -> None:
        t = self.timing
        anchor = self._last_tree_feed
        scope = "the last compute feed"
        if command.kind is CommandKind.READRES_BANK and command.bank is not None:
            bank = self._banks[command.bank]
            if bank.last_column_issue > anchor:
                anchor = bank.last_column_issue
                scope = f"bank {command.bank}'s last column access"
        if anchor != NEG_INF:
            self._check(
                at - anchor >= t.t_tree_drain,
                R_TREE,
                at,
                f"result read only {at - anchor} cycles after {scope} "
                f"(adder-tree drain is {t.t_tree_drain})",
                command=described,
            )
        if self.check_latch:
            for index in target_banks(command, self.config):
                self._banks[index].latch_dirty = False
                self._banks[index].acted_since_feed = False

    def _observe_latch_feed(self, command, at: int, described: str) -> None:
        for index in target_banks(command, self.config):
            bank = self._banks[index]
            self._check(
                not (bank.latch_dirty and bank.acted_since_feed),
                R_LATCH,
                at,
                f"bank {index}'s result latch holds unread data from a "
                "previous tile; this compute overwrites it before a "
                "READRES drained it",
                command=described,
            )
            bank.latch_dirty = True
            bank.acted_since_feed = False

    # ------------------------------------------------------------------
    # end of run

    def finish(self, end: Optional[int] = None) -> List[Violation]:
        """Close out run-level checks; returns all violations so far.

        ``end`` is the run's end cycle; when a postponement ceiling was
        requested (``max_postponed_refreshes``), the outstanding
        (matured but unissued) refresh debt at ``end`` must not exceed
        it. Safe to call after every run of a persistent engine.
        """
        if (
            self.check_refresh_interval
            and end is not None
            and self.max_postponed is not None
        ):
            pending = end // self.timing.t_refi - self._refreshes_seen
            self._check(
                pending <= self.max_postponed,
                R_REFRESH,
                end,
                f"{pending} refresh intervals matured but unissued by the "
                f"end of the run (ceiling {self.max_postponed})",
                command=None,
            )
            # Anchor run-level violations to no particular command.
            if self.violations and self.violations[-1].cycle == end and (
                self.violations[-1].rule == R_REFRESH
                and self.violations[-1].index == self._index
            ):
                last = self.violations[-1]
                self.violations[-1] = Violation(
                    rule=last.rule,
                    cycle=last.cycle,
                    index=-1,
                    command=None,
                    detail=last.detail,
                )
        return self.violations


def merge_events(
    records: Sequence[IssueRecord],
    refresh_log: Sequence[Tuple[int, int]] = (),
) -> List[Tuple[int, int, object]]:
    """Interleave command records and refresh windows in event order.

    Refreshes happen at barriers *between* commands: a refresh whose
    issue cycle ties a command's was triggered after it (the barrier
    stalls from the controller's current time). Returns
    ``(cycle, kind, payload)`` triples where kind 0 is a command and
    kind 1 a refresh window.
    """
    events: List[Tuple[int, int, object]] = [
        (record.issue, 0, record) for record in records
    ]
    events.extend((issue, 1, (issue, done)) for issue, done in refresh_log)
    events.sort(key=lambda event: (event[0], event[1]))
    return events


def check_trace(
    records: Sequence[IssueRecord],
    config: DRAMConfig,
    timing: TimingParams,
    *,
    aggressive_tfaw: bool = False,
    check_latch: bool = False,
    refresh_log: Sequence[Tuple[int, int]] = (),
    check_refresh_interval: bool = True,
    end: Optional[int] = None,
    checker: Optional[InvariantChecker] = None,
) -> List[Violation]:
    """Validate a whole trace; returns the violations found.

    The one-shot wrapper around :class:`InvariantChecker`: merges the
    refresh log into the record stream, feeds everything, and closes
    with :meth:`InvariantChecker.finish`. Pass ``checker`` to reuse (and
    inspect) the checker instance — e.g. for its ``checks`` counter.
    """
    if checker is None:
        checker = InvariantChecker(
            config,
            timing,
            aggressive_tfaw=aggressive_tfaw,
            check_latch=check_latch,
            check_refresh_interval=check_refresh_interval,
        )
    for _, kind, payload in merge_events(records, refresh_log):
        if kind == 1:
            issue, done = payload  # type: ignore[misc]
            checker.observe_refresh(issue, done)
        else:
            checker.observe(payload)  # type: ignore[arg-type]
    return checker.finish(end)


def require_complete(trace) -> List[IssueRecord]:
    """All records of a :class:`~repro.dram.trace.CommandTrace`, or raise.

    A ring-buffer trace that already dropped records cannot be verified
    — the checker would start from unknown bank/window state and flag
    phantom violations.
    """
    if trace.truncated:
        raise VerificationError(
            f"trace ring dropped {trace.total_recorded - len(trace)} "
            "records; raise the trace capacity to verify this run"
        )
    return trace.records()
