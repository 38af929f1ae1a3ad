"""The cold-path burst timing kernel: solve a homogeneous run in O(1).

The steady-state fast path (:mod:`repro.dram.fastpath`) exploits the
periodicity of Newton's streams *across* tiles; this module exploits the
same regularity *within* one: inside a tile, the COMP sequence is
homogeneous — every command is the same class against the same banks,
every issue cycle is a max over a fixed set of state fields plus timing
constants, and every state update adds a constant. After the first
command of such a run is placed, the remaining issue cycles satisfy the
one-step recurrence

    at[i] = max(at[i-1] + t_cmd,  at[i-1] + t_ccd)  =  at[i-1] + stride

with ``stride = max(t_cmd, t_ccd)``, because the run's only live
constraints are the command bus (``t_cmd`` after the previous command)
and the per-bank column cadence (``t_ccd`` after the previous column
access; for GWRITE, the data-bus slot, which frees exactly ``t_ccd``
after the previous slot began). Every other constraint — bank
``column_ready``, the activation window, the adder-tree anchor — was
already satisfied at ``at[0]`` and never moves during the run. So the
whole burst is an arithmetic progression that can be applied to the
controller in one step instead of ``count`` solver iterations, with the
per-command issue cycles still available on demand.

The binding-constraint attribution survives the same argument: for every
tail command the argmax of the candidate set is the column cadence (or
the data-bus slot, for GWRITE) unless the command bus pushes the issue
strictly later — i.e. unless ``t_cmd > t_ccd`` — so the whole tail
charges ``stride`` cycles per command to one statically known bucket,
and the run's attribution still sums exactly to the finalized end cycle
(the telemetry invariant of :mod:`repro.telemetry`).

Exactness is pinned differentially: the per-command constraint solver
stays in the codebase as the reference, and the suites in
``tests/dram/test_burst.py`` / ``tests/core/test_fastpath_differential.py``
hold the two bit-identical (issue cycles, end state, every statistic,
full cycle attribution) across all optimization combinations with
refresh on and off.

Refresh never lands inside a burst on a well-formed stream — Newton's
barrier rule (Section III-E) protects whole row operations — and the
stream compiler (:func:`repro.core.schedule_cache.segment_stream`)
guarantees it structurally by splitting runs at every barrier, exactly
as it splits replay segments for the fast path.

The functional side goes further: the datapath (:mod:`repro.core.datapath`)
reads no command at all. It computes a GEMV from its layout with one
:func:`repro.numerics.vectorized.batched_tile_compute` call per input
chunk, covering every tile's COMP runs for that chunk — so in both
domains a homogeneous command run costs a share of one kernel
application, not ``count`` interpreter iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.dram.commands import CommandKind, CommandRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.controller import ChannelController

@dataclass(frozen=True)
class BurstRecord:
    """Outcome of issuing one command run.

    The analogue of :class:`~repro.dram.controller.IssueRecord` for a
    whole run: the first/last issue cycles, the stride between them, and
    the latest completion cycle. Per-command issue cycles are derived on
    demand by :meth:`issue_cycles` — O(1) storage either way.
    """

    kind: CommandKind
    count: int
    first_issue: int
    stride: int
    last_issue: int
    complete: int
    """Latest completion cycle across the run (the last command's)."""
    _cycles: Optional[Tuple[int, ...]] = None
    """Explicit issue cycles when the run was issued per-command (the
    fallback path); ``None`` when the closed form applies."""

    def issue_cycles(self) -> np.ndarray:
        """Every command's issue cycle, materialized on demand."""
        if self._cycles is not None:
            return np.asarray(self._cycles, dtype=np.int64)
        return self.first_issue + self.stride * np.arange(
            self.count, dtype=np.int64
        )


def _fallback(controller: "ChannelController", run: CommandRun) -> BurstRecord:
    """Issue the run per-command (trace attached, or a single command)."""
    cycles = []
    complete = 0
    for command in run.commands():
        record = controller.issue(command)
        cycles.append(record.issue)
        complete = max(complete, record.complete)
    stride = cycles[1] - cycles[0] if len(cycles) > 1 else 0
    return BurstRecord(
        kind=run.kind,
        count=run.count,
        first_issue=cycles[0],
        stride=stride,
        last_issue=cycles[-1],
        complete=complete,
        _cycles=tuple(cycles),
    )


def issue_burst(controller: "ChannelController", run: CommandRun) -> BurstRecord:
    """Issue a homogeneous run at its exact per-command schedule, fast.

    The first command goes through the ordinary constraint solver (it
    faces the run's arbitrary entry state: bank readiness after the
    activation phase, bus phases, the previous tile's cadence); the tail
    is applied in closed form. Every kind a :class:`CommandRun` accepts
    (:data:`~repro.dram.commands.RUN_KINDS`) satisfies the recurrence;
    the run falls back to per-command issue only when a trace recorder
    needs individual records or there is no tail.
    """
    if controller.trace is not None or run.count < 2:
        return _fallback(controller, run)

    from repro.dram.controller import (
        ATTR_CMD_BUS,
        ATTR_COLUMN,
        ATTR_DATA_BUS,
    )

    timing = controller.timing
    first_record = controller.issue(run.first_command())
    first = first_record.issue
    tail = run.count - 1
    stride = max(timing.t_cmd, timing.t_ccd)
    last = first + tail * stride

    # Shared command bus: one slot per tail command, t_cmd busy each.
    controller.cmd_bus.fastforward(
        last + timing.t_cmd, tail, tail * timing.t_cmd
    )
    counts = controller.stats.command_counts
    counts[run.kind] = counts.get(run.kind, 0) + tail

    if run.kind is CommandKind.GWRITE:
        # Each GWRITE occupies a data-I/O slot t_aa after issue; no bank.
        controller.data_bus.fastforward(
            last + timing.t_aa + timing.t_ccd, tail, tail * timing.t_ccd
        )
        controller.stats.data_transfers += tail
        banks = ()
        bucket = ATTR_CMD_BUS if timing.t_cmd > timing.t_ccd else ATTR_DATA_BUS
        complete = last + timing.t_aa + timing.t_ccd
    else:
        banks = (
            controller.banks
            if run.kind is CommandKind.COMP
            else (controller._bank(run.bank),)
        )
        for bank in banks:
            bank.last_column_issue = last
            bank.column_accesses += tail
        controller.stats.bank_column_accesses += tail * len(banks)
        controller.stats.compute_column_accesses += tail * len(banks)
        controller._last_tree_feed = last
        bucket = ATTR_CMD_BUS if timing.t_cmd > timing.t_ccd else ATTR_COLUMN
        complete = last + timing.t_ccd

    controller.now = last
    if controller.telemetry:
        controller._charge(bucket, last)
    if run.auto_precharge_last and banks:
        for bank in banks:
            controller._auto_precharge(bank, last)

    return BurstRecord(
        kind=run.kind,
        count=run.count,
        first_issue=first,
        stride=stride,
        last_issue=last,
        complete=max(first_record.complete, complete),
    )
