"""The cold-path burst timing kernel: solve a command run in O(1).

The steady-state fast path (:mod:`repro.dram.fastpath`) exploits the
periodicity of Newton's streams *across* tiles; this module exploits the
same regularity *within* one. Inside a tile, the compute phase repeats
one command period (:data:`~repro.dram.commands.RUN_KINDS`): a COMP or
COMP_BANK, or for the designs without complex commands the
BUF_READ + COL_READ + MAC triplet, column after column. Each period
holds one *paced* command — a column access, bound by the per-bank
column cadence ``t_ccd``, or a GWRITE, bound by the data-bus slot, which
frees exactly ``t_ccd`` after the previous slot began — and ``p - 1``
bus-only commands that only the command bus paces. After the first
period is placed, the paced command of period ``k`` issues at

    c[k] = max(c[k-1] + p * t_cmd,  c[k-1] + t_ccd)  =  c[k-1] + stride

with ``stride = max(p * t_cmd, t_ccd)``: the commands after it in the
period take the next command-bus slots, and those before it in the
next period the slots after those, so ``p * t_cmd`` after ``c[k-1]``
the bus is free again. Every other constraint — bank ``column_ready``,
the activation window, the adder-tree anchor — was already satisfied in
the first period and never moves during the run. So from the second
period on, each period is the previous one shifted rigidly by
``stride`` (``max(t_cmd, t_ccd)`` for a one-command period), and the
whole run can be applied to the controller in one step instead of
``len(run)`` solver iterations, with the per-command issue cycles still
available on demand.

The binding-constraint attribution survives the same argument. Each
bus-only command waits exactly ``t_cmd`` and charges it to ``cmd_bus``.
The paced command's candidate set is won by the column cadence (or the
data-bus slot) unless the command bus pushes the issue strictly later —
i.e. unless ``p * t_cmd > t_ccd`` — so it charges the rest of the stride
to one statically known bucket, a tie going to the cadence as the
solver's argmax gives. The run's attribution still sums exactly to the
finalized end cycle (the telemetry invariant of :mod:`repro.telemetry`).

Exactness is pinned differentially: the per-command constraint solver
stays in the codebase as the reference, and the suites in
``tests/dram/test_burst.py`` / ``tests/core/test_fastpath_differential.py``
hold the two bit-identical (issue cycles, end state, every statistic,
full cycle attribution) across all optimization combinations with
refresh on and off, and across bus-bound, tied and column-bound
``t_cmd``/``t_ccd`` regimes no timing preset reaches.

Refresh never lands inside a burst on a well-formed stream — Newton's
barrier rule (Section III-E) protects whole row operations — and the
stream compiler (:func:`repro.core.schedule_cache.segment_stream`)
guarantees it structurally by splitting runs at every barrier, exactly
as it splits replay segments for the fast path.

The functional side goes further: the datapath (:mod:`repro.core.datapath`)
reads no command at all. It computes a GEMV from its layout with one
:func:`repro.numerics.vectorized.batched_tile_compute` call per input
chunk, covering every tile's compute runs for that chunk — so in both
domains a command run costs a share of one kernel application, not
``len(run)`` interpreter iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.dram.commands import (
    COLUMN_KINDS,
    DATA_KINDS,
    TREE_FEED_KINDS,
    CommandRun,
    target_banks,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.controller import ChannelController

@dataclass(frozen=True)
class BurstRecord:
    """Outcome of issuing one command run.

    The analogue of :class:`~repro.dram.controller.IssueRecord` for a
    whole run: the first/last issue cycles, the stride from one period
    to the next, and the latest completion cycle. Per-command issue
    cycles are derived on demand by :meth:`issue_cycles` — O(period)
    storage either way.
    """

    count: int
    """Commands the run issued (``len(run)``)."""
    first_issue: int
    stride: int
    """Cycles from one period to the next (0: issued per command)."""
    last_issue: int
    complete: int
    """Latest completion cycle across the run."""
    _solved: Tuple[int, ...]
    """Issue cycles the solver placed: the first period, or every
    command when the run was issued per command (the fallback)."""
    _shifted: Tuple[int, ...] = ()
    """The second period's issue cycles, each later period ``stride``
    after the one before; empty for the fallback."""

    def issue_cycles(self) -> np.ndarray:
        """Every command's issue cycle, materialized on demand."""
        solved = np.asarray(self._solved, dtype=np.int64)
        if not self._shifted:
            return solved
        periods = (self.count - len(solved)) // len(self._shifted)
        shifted = np.add.outer(
            self.stride * np.arange(periods, dtype=np.int64),
            np.asarray(self._shifted, dtype=np.int64),
        )
        return np.concatenate((solved, shifted.ravel()))


def _fallback(controller: "ChannelController", run: CommandRun) -> BurstRecord:
    """Issue the run per-command (trace attached, or a single period)."""
    records = [controller.issue(command) for command in run.commands()]
    cycles = tuple(record.issue for record in records)
    return BurstRecord(
        count=len(cycles),
        first_issue=cycles[0],
        stride=0,
        last_issue=cycles[-1],
        complete=max(record.complete for record in records),
        _solved=cycles,
    )


def issue_burst(controller: "ChannelController", run: CommandRun) -> BurstRecord:
    """Issue a command run at its exact per-command schedule, fast.

    The first period goes through the ordinary constraint solver (it
    faces the run's arbitrary entry state: bank readiness after the
    activation phase, bus phases, the previous tile's cadence); the
    later periods are applied in closed form, building no command.
    Every period a :class:`CommandRun` accepts
    (:data:`~repro.dram.commands.RUN_KINDS`) satisfies the recurrence;
    the run falls back to per-command issue only when a trace recorder
    needs individual records or there is no second period.
    """
    if controller.trace is not None or run.count < 2:
        return _fallback(controller, run)

    from repro.dram.controller import (
        ATTR_CMD_BUS,
        ATTR_COLUMN,
        ATTR_DATA_BUS,
    )

    timing = controller.timing
    t_cmd = timing.t_cmd
    first = [controller.issue(command) for command in run.first_period()]
    period = len(first)
    paced = next(
        slot
        for slot, kind in enumerate(run.kinds)
        if kind in COLUMN_KINDS or kind in DATA_KINDS
    )
    tail = run.count - 1
    stride = max(period * t_cmd, timing.t_ccd)
    c0 = first[paced].issue
    # The second period: the commands before the paced one take the bus
    # slots after the first period's last command, the paced command
    # issues one stride after the first's, and the rest take the next
    # bus slots.
    shifted = tuple(
        first[-1].issue + (slot + 1) * t_cmd
        if slot < paced
        else c0 + stride + (slot - paced) * t_cmd
        for slot in range(period)
    )
    offset = (tail - 1) * stride
    last = shifted[-1] + offset

    controller.cmd_bus.fastforward(
        last + t_cmd, tail * period, tail * period * t_cmd
    )
    stats = controller.stats
    counts = stats.command_counts
    complete = max(record.complete for record in first)
    for record, at in zip(first, shifted):
        # Bulk effects of the slot's tail, from the kind table; ``at`` is
        # the slot's issue in the last period.
        at += offset
        command = record.command
        kind = command.kind
        counts[kind] += tail
        complete = max(complete, at + record.complete - record.issue)
        if kind in COLUMN_KINDS:
            banks = [
                controller.banks[b] for b in target_banks(command, controller.config)
            ]
            for bank in banks:
                bank.last_column_issue = at
                bank.column_accesses += tail
                if run.auto_precharge_last:
                    controller._auto_precharge(bank, at)
            # Every runnable column kind is a compute access.
            stats.bank_column_accesses += tail * len(banks)
            stats.compute_column_accesses += tail * len(banks)
        if kind in TREE_FEED_KINDS:
            controller._last_tree_feed = at
        if kind in DATA_KINDS:
            controller.data_bus.fastforward(
                at + timing.t_aa + timing.t_ccd, tail, tail * timing.t_ccd
            )
            stats.data_transfers += tail
    controller.now = last

    if controller.telemetry:
        # Per period the bus-only commands charge t_cmd each to cmd_bus
        # and the paced command the rest of the stride, ``gap``, to its
        # bucket. Cycles a finalize already closed out (a cursor past
        # the first period) stay uncharged: ``k`` is the first period
        # whose paced command issues after the cursor.
        cursor = controller._attr_cursor
        gap = stride - (period - 1) * t_cmd
        k = (cursor - c0) // stride + 1
        paced_share = (
            min(gap, c0 + k * stride - cursor) + (tail - k) * gap
            if k <= tail
            else 0
        )
        controller._charge(ATTR_CMD_BUS, last - paced_share)
        controller._charge(
            ATTR_CMD_BUS
            if period * t_cmd > timing.t_ccd
            else ATTR_COLUMN
            if run.kinds[paced] in COLUMN_KINDS
            else ATTR_DATA_BUS,
            last,
        )

    return BurstRecord(
        count=len(run),
        first_issue=first[0].issue,
        stride=stride,
        last_issue=last,
        complete=complete,
        _solved=tuple(record.issue for record in first),
        _shifted=shifted,
    )
