"""Refresh scheduling with Newton's delay rule (Section III-E).

Newton's result latch accumulates across an entire DRAM row, so a refresh
maturing mid-row would destroy the open row and the partial result. The
paper's fix: "the memory controller simply waits for the pending refresh
to mature, sends the refresh command, and then sends the Newton command."
:meth:`RefreshScheduler.last_safe_start` states that check once, at
row-operation granularity; :meth:`RefreshScheduler.stall_for_refresh`
applies it, and the engine's replay walk compares its local clock
against it so that a barrier that cannot fire costs one comparison.

The scheduler reads one absolute time, ``next_due``, so what a run does
to it depends on the run's start state and on :meth:`RefreshScheduler.phase`
alone. :meth:`RefreshScheduler.advance_since` records that effect
relative to the run's start, and :meth:`RefreshScheduler.replay` applies
it at any later start of the same phase: the engine's whole-run replay
(see :mod:`repro.core.schedule_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

NEVER = 1 << 62
"""A cycle no simulation reaches: :meth:`RefreshScheduler.last_safe_start`
with refresh disabled."""


@dataclass(frozen=True)
class RefreshAdvance:
    """A run's effect on the scheduler, relative to the run's start."""

    issued: int
    """Refreshes issued."""
    stall_cycles: int
    next_due: int
    """``next_due`` offset at the run's end."""
    log: Tuple[Tuple[int, int], ...]
    """(issue, completion) offsets of the refreshes issued."""


@dataclass
class RefreshScheduler:
    """Tracks refresh deadlines and the stalls they impose."""

    t_refi: int
    t_rfc: int
    enabled: bool = True
    next_due: int = field(init=False)
    refreshes_issued: int = 0
    stall_cycles: int = 0
    log: List[Tuple[int, int]] = field(default_factory=list)
    """(issue_cycle, completion_cycle) of every refresh, for tests."""

    def __post_init__(self) -> None:
        self.next_due = self.t_refi

    def last_safe_start(self, op_duration: int) -> int:
        """The latest cycle a row operation of ``op_duration`` may start
        without a refresh maturing inside it.

        A refresh matures within an operation starting at ``now`` exactly
        when ``next_due < now + min(op_duration, tREFI - tRFC)``, i.e.
        when ``now`` exceeds the returned cycle. An operation longer than
        a refresh interval can never be fully protected, so the
        protection window is capped at ``tREFI - tRFC``. The value only
        moves when a refresh is issued.
        """
        if not self.enabled:
            return NEVER
        return self.next_due - min(op_duration, self.t_refi - self.t_rfc)

    def stall_for_refresh(self, now: int, op_duration: int) -> int:
        """Return the cycle at which a row operation of ``op_duration`` may start.

        If a refresh would mature inside the operation (see
        :meth:`last_safe_start`), it is performed first and the
        operation starts after it completes. A refresh that overflows
        the capped protection window is postponed to the next barrier
        (JEDEC permits postponing refreshes), so the average refresh rate
        is always preserved.
        """
        start = now
        while start > self.last_safe_start(op_duration):
            issue_at = max(start, self.next_due)
            done_at = issue_at + self.t_rfc
            self.log.append((issue_at, done_at))
            self.refreshes_issued += 1
            self.stall_cycles += done_at - start
            self.next_due += self.t_refi
            start = done_at
        return start

    def phase(self, now: int) -> Optional[int]:
        """``next_due - now``, the only absolute time the scheduler reads
        (``None`` with refresh disabled: nothing ever fires)."""
        return self.next_due - now if self.enabled else None

    def advance_since(
        self, start: int, issued: int, stall_cycles: int
    ) -> RefreshAdvance:
        """The advance since a run started at ``start``, when
        ``refreshes_issued`` and ``stall_cycles`` read ``issued`` and
        ``stall_cycles``."""
        count = self.refreshes_issued - issued
        return RefreshAdvance(
            issued=count,
            stall_cycles=self.stall_cycles - stall_cycles,
            next_due=self.next_due - start,
            log=tuple(
                (issue_at - start, done_at - start)
                for issue_at, done_at in self.log[len(self.log) - count :]
            ),
        )

    def replay(self, advance: RefreshAdvance, start: int) -> None:
        """Apply a recorded advance to a run starting at ``start``, whose
        phase equals the recorded run's."""
        self.refreshes_issued += advance.issued
        self.stall_cycles += advance.stall_cycles
        self.next_due = start + advance.next_due
        self.log.extend(
            (start + issue_at, start + done_at) for issue_at, done_at in advance.log
        )

    def snapshot(self) -> "dict[str, object]":
        """Refresh counters for the telemetry export."""
        return {
            "enabled": self.enabled,
            "refreshes_issued": self.refreshes_issued,
            "stall_cycles": self.stall_cycles,
            "next_due": self.next_due,
        }
