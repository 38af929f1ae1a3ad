"""Result records returned by the engine and device."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.dram.commands import CommandKind
from repro.dram.controller import ControllerStats


def stats_snapshot(stats: ControllerStats) -> Dict[str, object]:
    """Copy the mutable controller statistics for delta computation."""
    return {
        "command_counts": dict(stats.command_counts),
        "cycle_attribution": dict(stats.cycle_attribution),
        "bank_activations": stats.bank_activations,
        "bank_column_accesses": stats.bank_column_accesses,
        "compute_column_accesses": stats.compute_column_accesses,
        "data_transfers": stats.data_transfers,
        "refreshes": stats.refreshes,
        "refresh_stall_cycles": stats.refresh_stall_cycles,
    }


def stats_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    """Difference of two snapshots (per-run accounting)."""
    counts_before: Dict[CommandKind, int] = before["command_counts"]  # type: ignore[assignment]
    counts_after: Dict[CommandKind, int] = after["command_counts"]  # type: ignore[assignment]
    counts = {
        kind: counts_after.get(kind, 0) - counts_before.get(kind, 0)
        for kind in set(counts_before) | set(counts_after)
    }
    attr_before: Dict[str, int] = before["cycle_attribution"]  # type: ignore[assignment]
    attr_after: Dict[str, int] = after["cycle_attribution"]  # type: ignore[assignment]
    attribution = {
        category: attr_after.get(category, 0) - attr_before.get(category, 0)
        for category in set(attr_before) | set(attr_after)
    }
    delta = {
        "command_counts": {k: v for k, v in counts.items() if v},
        "cycle_attribution": {k: v for k, v in attribution.items() if v},
    }
    for key in (
        "bank_activations",
        "bank_column_accesses",
        "compute_column_accesses",
        "data_transfers",
        "refreshes",
        "refresh_stall_cycles",
    ):
        delta[key] = after[key] - before[key]  # type: ignore[operator]
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
    """One channel's share of a GEMV run."""

    channel_index: int
    row_slice: "tuple[int, int]"
    start_cycle: int
    end_cycle: int
    stats: Dict[str, object]
    output: Optional[np.ndarray] = None
    """fp32 partial-accumulated outputs for this channel's matrix rows
    (``None`` in timing-only mode)."""

    @property
    def cycles(self) -> int:
        """Busy cycles this run occupied on the channel."""
        return self.end_cycle - self.start_cycle

    def command_count(self, kind: CommandKind) -> int:
        """Commands of ``kind`` issued during this run."""
        return self.stats["command_counts"].get(kind, 0)  # type: ignore[union-attr]


@dataclass
class GemvRunResult:
    """A full device GEMV: all channels in parallel."""

    cycles: int
    """Wall-clock cycles (the slowest channel)."""
    channel_results: List[ChannelRunResult] = field(default_factory=list)
    output: Optional[np.ndarray] = None

    @property
    def total_commands(self) -> int:
        """Commands issued across every channel."""
        return sum(
            sum(r.stats["command_counts"].values())  # type: ignore[union-attr]
            for r in self.channel_results
        )

    def command_count(self, kind: CommandKind) -> int:
        """Commands of ``kind`` across every channel."""
        return sum(r.command_count(kind) for r in self.channel_results)

    @property
    def refresh_stall_cycles(self) -> int:
        """Worst per-channel refresh stall during the run."""
        if not self.channel_results:
            return 0
        return max(r.stats["refresh_stall_cycles"] for r in self.channel_results)  # type: ignore[type-var]
