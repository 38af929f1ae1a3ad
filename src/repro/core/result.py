"""Result records returned by the engine and device."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.dram.commands import CommandKind
from repro.dram.controller import ControllerStats

_SCALAR_STATS = (
    "bank_activations",
    "bank_column_accesses",
    "compute_column_accesses",
    "data_transfers",
    "refreshes",
    "refresh_stall_cycles",
)


def stats_snapshot(stats: ControllerStats) -> Dict[str, object]:
    """Copy the mutable controller statistics for delta computation."""
    return {
        "command_counts": dict(stats.command_counts),
        "cycle_attribution": dict(stats.cycle_attribution),
        **{name: getattr(stats, name) for name in _SCALAR_STATS},
    }


def _changes(before: Dict, after: Dict) -> Dict:
    """The non-zero per-key differences of two counter dicts."""
    changes = {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}
    return {key: value for key, value in changes.items() if value}


def stats_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    """Difference of two snapshots (per-run accounting)."""
    delta: Dict[str, object] = {
        key: _changes(before[key], after[key])  # type: ignore[arg-type]
        for key in ("command_counts", "cycle_attribution")
    }
    for name in _SCALAR_STATS:
        delta[name] = after[name] - before[name]  # type: ignore[operator]
    return delta


def copy_stats(stats: Dict[str, object]) -> Dict[str, object]:
    """A copy of a :func:`stats_delta` result that shares no dict."""
    return dict(
        stats,
        command_counts=dict(stats["command_counts"]),  # type: ignore[call-overload]
        cycle_attribution=dict(stats["cycle_attribution"]),  # type: ignore[call-overload]
    )


@dataclass
class ChannelRunResult:
    """One channel's share of a GEMV run, or one class's: a device runs
    a class of identical channels once, for all of its members."""

    channel_index: int
    row_slice: "tuple[int, int]"
    start_cycle: int
    end_cycle: int
    stats: Dict[str, object]
    output: Optional[np.ndarray] = None
    """fp32 partial-accumulated outputs for this channel's matrix rows
    (``None`` in timing-only mode and for a device's class, whose
    datapath computes the whole output)."""
    channels: int = 1
    """Channels that ran this result (the class's members)."""

    @property
    def cycles(self) -> int:
        """Busy cycles this run occupied on the channel."""
        return self.end_cycle - self.start_cycle

    def command_count(self, kind: CommandKind) -> int:
        """Commands of ``kind`` issued during this run."""
        return self.stats["command_counts"].get(kind, 0)  # type: ignore[union-attr]


@dataclass
class GemvRunResult:
    """A full device GEMV: all channels in parallel, one result per class."""

    cycles: int
    """Wall-clock cycles (the slowest channel)."""
    channel_results: List[ChannelRunResult] = field(default_factory=list)
    output: Optional[np.ndarray] = None

    @property
    def total_commands(self) -> int:
        """Commands issued across every channel."""
        return sum(
            sum(r.stats["command_counts"].values()) * r.channels  # type: ignore[union-attr]
            for r in self.channel_results
        )

    def command_count(self, kind: CommandKind) -> int:
        """Commands of ``kind`` across every channel."""
        return sum(r.command_count(kind) * r.channels for r in self.channel_results)

    @property
    def refresh_stall_cycles(self) -> int:
        """Worst per-channel refresh stall during the run."""
        if not self.channel_results:
            return 0
        return max(r.stats["refresh_stall_cycles"] for r in self.channel_results)  # type: ignore[type-var]
