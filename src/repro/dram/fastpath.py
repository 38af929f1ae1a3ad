"""Steady-state fast-forwarding of the channel controller.

Newton's command streams are periodic by construction (Figure 7): every
DRAM row repeats the same GWRITE/G_ACT/COMP/READRES tile pattern. The
constraint solver in :class:`~repro.dram.controller.ChannelController`
is *time-shift invariant*: every issue cycle is a max over state time
fields plus timing constants, and every state update adds a constant to
the issue cycle. So if two tile boundaries present the same *relative*
timing state (every time field expressed as an offset from ``now``) and
the same command sequence follows, the second tile's schedule is the
first one's shifted rigidly in time.

This module provides the three primitives that make that sound:

* :func:`relative_signature` — a hashable snapshot of the relative
  timing state at a candidate replay point (``None`` when the state is
  not replayable, i.e. a bank holds an open row whose identity is
  row-specific);
* :func:`capture_delta` — after executing a command segment normally,
  record its effect as a :class:`ControllerDelta`: relative end state,
  statistics deltas, and the interned id of the signature the segment
  leaves behind;
* :func:`apply_delta` — write replayed deltas, each with its replay
  count, back to the controller: ``now``, bank state, bus timers, the
  activation window, the adder-tree drain anchor and the attribution
  cursor from the last delta, every statistic folded once per distinct
  delta, times its count.

The engine (:mod:`repro.core.engine`) replays on a local clock. Because a
delta records the signature it ends in, a hit chains straight to the
next lookup, computing no signature and touching no controller state.
Every delta overwrites the whole timing state relative to its base, so
a chain's end state is its last delta's, and the counters it advanced
are additive; one :func:`apply_delta` per chain is therefore exactly
the per-segment replay. The walk writes back before a miss, before a
refresh it meets for the first time, and at the end of the run.

A firing refresh barrier is one delta too: :func:`capture_delta` taken
around :meth:`~repro.dram.controller.ChannelController.refresh_barrier`
records the stall, the refreshed banks, the buses and the refresh
counters, and it chains like a segment's. So is a whole GEMV:
:func:`capture_delta` taken from the run's start records its composite
effect, refreshes included, and the runs served whole chain the same
way, across calls, so one :func:`apply_delta` writes back a steady
stretch of GEMVs when the controller is next read, each repeated
record's counters folded once. A segment delta never contains
a refresh: the refresh scheduler works on an absolute deadline, so a
delta holding one replays only at the exact refresh phase it was
recorded at, which its record's key names (see
:mod:`repro.core.schedule_cache`).

Sentinel time fields (``NEG_INF`` markers for "never happened") are
preserved as ``None`` offsets so a replayed controller is bit-identical
to one that executed the segment command by command.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Dict, Optional, Sequence, Tuple

from repro.dram.bank import NEG_INF
from repro.dram.commands import CommandKind
from repro.dram.controller import ATTRIBUTION_CATEGORIES, ChannelController

_REL_FLOOR = -(10**17)
"""Offsets below this are sentinel ("never happened") values."""

_STAT_FIELDS = (
    "bank_activations",
    "bank_column_accesses",
    "compute_column_accesses",
    "data_transfers",
    "open_bank_cycles",
    "refreshes",
    "refresh_stall_cycles",
)

_KINDS = tuple(CommandKind)

# Where each group of counters starts in a :func:`counters` vector.
_ATTR_AT = len(_KINDS)
_STATS_AT = _ATTR_AT + len(ATTRIBUTION_CATEGORIES)
_BUSES_AT = _STATS_AT + len(_STAT_FIELDS)
_BANKS_AT = _BUSES_AT + 5


def _rel(value: int, base: int) -> Optional[int]:
    """Offset from ``base``, or ``None`` for a sentinel value."""
    return None if value < _REL_FLOOR else value - base


def _abs(offset: Optional[int], base: int) -> int:
    """Inverse of :func:`_rel`."""
    return NEG_INF if offset is None else base + offset


@dataclass(frozen=True, eq=False)
class ControllerDelta:
    """One command segment's effect, relative to its start cycle.

    Compared and hashed by identity: :func:`apply_delta` counts replays
    per delta object, and hashing every field would cost more than the
    replay itself.
    """

    dt_now: int
    """``now`` advance over the segment."""
    max_complete: Optional[int]
    """Latest command-completion offset (``None``: no commands issued)."""
    state: Tuple
    """The timing state at the segment's end, as :func:`_relative_state`
    offsets from its start; every bank ends precharged."""
    counters: Tuple[int, ...]
    """The :func:`counters` vector's advance over the segment: command
    counts, cycle-attribution buckets, stats fields, bus and window
    counters, per-bank activations and column accesses. Attribution is
    shift-invariant (gaps between issue cycles and binding-constraint
    argmaxes survive a rigid time shift), so a replay accumulates the
    exact counters the per-command path would have."""
    end_signature: int
    """Interned id of the relative signature the segment ends in: the
    key of the next segment's lookup when no refresh intervenes."""


Signature = Tuple
"""Opaque hashable relative-state signature."""


def _relative_state(controller: ChannelController, origin: int) -> Optional[Tuple]:
    """The timing state as offsets from ``origin``: per bank
    (ready_for_act, column_ready, precharge_ready, last_column_issue),
    the command- and data-bus next free cycles, each activation-window
    scope's recent activations (one scope channel-wide, one per bank
    group under ``bankgroup_ext``), the last activation, the last tree
    feed and, with telemetry on, the attribution cursor. ``None`` when a
    bank holds an open row."""
    banks = []
    for bank in controller.banks:
        if bank.open_row is not None:
            return None
        banks.append(
            (
                bank.ready_for_act - origin,
                bank.column_ready - origin,
                bank.precharge_ready - origin,
                _rel(bank.last_column_issue, origin),
            )
        )
    scopes, last_act = controller.window.snapshot()
    return (
        tuple(banks),
        controller.cmd_bus.next_free - origin,
        controller.data_bus.next_free - origin,
        tuple(tuple(t - origin for t in recent) for recent in scopes),
        _rel(last_act, origin),
        _rel(controller._last_tree_feed, origin),
        controller._attr_cursor - origin if controller.telemetry else 0,
    )


def relative_signature(controller: ChannelController) -> Optional[Signature]:
    """The controller's timing state as offsets from ``now``
    (:func:`_relative_state`).

    Two controller states with equal signatures schedule any identical
    command sequence identically (up to a rigid time shift). Returns
    ``None`` when the state cannot be summarized shift-invariantly: a
    bank holding an open row (the row identity is data, not timing, and
    differs tile to tile). The attribution cursor's offset is 0 after
    every issue and refresh, but a telemetry read
    (:meth:`ChannelController.finalize`) moves the cursor past ``now``,
    and the next issue charges its wait from there.
    """
    return _relative_state(controller, controller.now)


def counters(controller: ChannelController) -> Tuple[int, ...]:
    """Every additive counter a segment can advance, as one flat vector.

    Command counts (in :class:`CommandKind` order), attribution buckets
    (in :data:`ATTRIBUTION_CATEGORIES` order), the stats fields, the
    command- and data-bus slot and busy counters, the window's
    activation total, then each bank's activations and each bank's
    column accesses. A flat vector lets :func:`apply_delta` fold many
    replays with a few vector additions.
    """
    stats = controller.stats
    counts = stats.command_counts
    attribution = stats.cycle_attribution
    banks = controller.banks
    return (
        *[counts.get(kind, 0) for kind in _KINDS],
        *[attribution.get(category, 0) for category in ATTRIBUTION_CATEGORIES],
        *[getattr(stats, name) for name in _STAT_FIELDS],
        controller.cmd_bus.slots_used,
        controller.cmd_bus.busy_cycles,
        controller.data_bus.slots_used,
        controller.data_bus.busy_cycles,
        controller.window.total_activations,
        *[bank.activations for bank in banks],
        *[bank.column_accesses for bank in banks],
    )


def capture_delta(
    controller: ChannelController,
    base: int,
    before: tuple,
    max_complete: Optional[int],
    end_signature: Optional[int],
) -> Optional[ControllerDelta]:
    """Record a just-executed segment as a replayable delta.

    ``base`` is the controller's ``now`` when the segment started,
    ``before`` the :func:`counters` snapshot taken then, and
    ``end_signature`` the interned id of :func:`relative_signature` now.
    Returns ``None`` when that signature is ``None``: the end state is
    not replayable (an open row would pin the recorded row identity into
    every replay).
    """
    if end_signature is None:
        return None
    return ControllerDelta(
        dt_now=controller.now - base,
        max_complete=None if max_complete is None else max_complete - base,
        state=_relative_state(controller, base),
        counters=tuple(
            after - prior for after, prior in zip(counters(controller), before)
        ),
        end_signature=end_signature,
    )


def apply_delta(
    controller: ChannelController,
    replays: Sequence[Tuple[ControllerDelta, int]],
    base: int,
) -> None:
    """Write replayed segments back to the controller.

    ``replays`` pairs the deltas replayed since the last write-back with
    their replay counts (a delta may come in one pair, with its total,
    or in several); the last pair's delta is the one replayed last, from
    cycle ``base``. The controller must be in the state the first replay
    was recorded from (the cache keys guarantee it), and each later
    replay's recorded start is its predecessor's end. The timing state
    comes from the last delta alone — every delta overwrites all of it —
    while each distinct delta's counters are folded once, times its
    total replay count.
    """
    delta = replays[-1][0]
    if len(replays) > 1:
        merged: Dict[ControllerDelta, int] = {}
        for replayed, times in replays:
            merged[replayed] = merged.get(replayed, 0) + times
        replays = merged.items()
    total = None
    for replayed, times in replays:
        advance = replayed.counters
        if times > 1:
            advance = tuple(map(mul, advance, repeat(times)))
        total = advance if total is None else tuple(map(add, total, advance))
    stats = controller.stats
    counts = stats.command_counts
    for kind, count in zip(_KINDS, total):
        if count:
            counts[kind] = counts.get(kind, 0) + count
    attribution = stats.cycle_attribution
    for category, charged in zip(ATTRIBUTION_CATEGORIES, total[_ATTR_AT:]):
        if charged:
            attribution[category] = attribution.get(category, 0) + charged
    for name, advance in zip(_STAT_FIELDS, total[_STATS_AT:]):
        if advance:
            setattr(stats, name, getattr(stats, name) + advance)
    cmd_slots, cmd_busy, data_slots, data_busy, activations = total[
        _BUSES_AT:_BANKS_AT
    ]
    bank_state, cmd_free, data_free, recent, last_act, tree_feed, cursor = delta.state
    banks = controller.banks
    for bank, (ra, cr, pr, lci), bank_activations, column_accesses in zip(
        banks, bank_state, total[_BANKS_AT:], total[_BANKS_AT + len(banks) :]
    ):
        bank.open_row = None
        bank.ready_for_act = base + ra
        bank.column_ready = base + cr
        bank.precharge_ready = base + pr
        bank.last_column_issue = _abs(lci, base)
        bank.activations += bank_activations
        bank.column_accesses += column_accesses
    controller.cmd_bus.fastforward(base + cmd_free, cmd_slots, cmd_busy)
    controller.data_bus.fastforward(base + data_free, data_slots, data_busy)
    controller.window.fastforward_scopes(
        tuple(tuple(base + t for t in scope) for scope in recent),
        _abs(last_act, base),
        activations,
    )
    controller._last_tree_feed = _abs(tree_feed, base)
    controller.now = base + delta.dt_now
    if controller.telemetry:
        # The next segment (or refresh barrier) charges its wait from
        # the cursor. Without telemetry nothing moves the cursor.
        controller._attr_cursor = base + cursor
