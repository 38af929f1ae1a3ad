"""Collecting simulator state into schema-validated metric breakdowns.

The exported record answers the question Newton's Section III-F answers
analytically: *where did the cycles go?* Per-command-type counts, a
cycle-attribution breakdown (activation-bound vs column-bound vs
refresh vs bus — the buckets behind the paper's overhead ratio ``o``),
bank/bus utilization, and refresh accounting. :func:`validate_metrics`
enforces the schema plus the accounting invariant that makes the
breakdown trustworthy: the attributed cycles sum exactly to the run's
end cycle.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.commands import CommandKind
from repro.dram.controller import ATTRIBUTION_CATEGORIES, ChannelController
from repro.errors import TelemetryError
from repro.telemetry.registry import SCHEMA

_COMMAND_NAMES = frozenset(kind.name for kind in CommandKind)


def controller_metrics(
    controller: ChannelController, *, end: Optional[int] = None
) -> dict:
    """One channel controller's full breakdown (finalized at ``end``).

    Calls :meth:`~repro.dram.controller.ChannelController.finalize` so
    open-bank time and the end-of-run tail are closed out; pass the
    run's reported end cycle (e.g. ``result.end_cycle``) so in-flight
    completions are attributed rather than dropped.
    """
    end_cycle = controller.finalize(end)
    stats = controller.stats
    banks = len(controller.banks)
    open_denominator = end_cycle * banks
    return {
        "schema": SCHEMA,
        "kind": "controller",
        "telemetry_enabled": controller.telemetry,
        "end_cycle": end_cycle,
        "commands": {
            kind.name: count
            for kind, count in sorted(
                stats.command_counts.items(), key=lambda item: item[0].name
            )
        },
        "total_commands": stats.total_commands,
        "cycle_attribution": {
            category: stats.cycle_attribution.get(category, 0)
            for category in ATTRIBUTION_CATEGORIES
        },
        "counters": {
            "bank_activations": stats.bank_activations,
            "bank_column_accesses": stats.bank_column_accesses,
            "compute_column_accesses": stats.compute_column_accesses,
            "data_transfers": stats.data_transfers,
            "open_bank_cycles": stats.open_bank_cycles,
            "refreshes": stats.refreshes,
            "refresh_stall_cycles": stats.refresh_stall_cycles,
        },
        "utilization": {
            "cmd_bus": controller.cmd_bus.utilization(end_cycle),
            "data_bus": controller.data_bus.utilization(end_cycle),
            "bank_open": (
                stats.open_bank_cycles / open_denominator
                if open_denominator
                else 0.0
            ),
        },
        "buses": {
            "cmd": controller.cmd_bus.snapshot(end_cycle),
            "data": controller.data_bus.snapshot(end_cycle),
        },
        "refresh": controller.refresh.snapshot(),
    }


def engine_metrics(engine, *, end: Optional[int] = None) -> dict:
    """A channel engine's breakdown: controller plus cache effectiveness."""
    record = controller_metrics(engine.channel.controller, end=end)
    cache = engine.schedule_cache
    record["schedule_cache"] = {
        "hits": cache.hits,
        "misses": cache.misses,
        "replayed_commands": cache.replayed_commands,
        "entries": len(cache),
        # Runs served whole from one record, and the records held.
        "whole_runs": cache.whole_runs,
        "run_records": cache.run_records,
        # Firing refresh barriers served by a record, and the records held.
        "refresh_replays": cache.refresh_replays,
        "refresh_records": cache.refresh_records,
    }
    record["fast_path"] = engine.fast
    record["burst"] = {
        "runs": engine.burst_runs,
        "commands": engine.burst_commands,
    }
    record["fused"] = {
        # Fused-layer dataflow savings: cycles the elided host GWRITEs
        # would have occupied. Deliberately NOT a cycle_attribution
        # bucket — those sum to the end cycle, and these cycles never
        # happened (see docs/model-graphs.md).
        "runs": getattr(engine, "fused_runs", 0),
        "skipped_gwrites": getattr(engine, "fused_skipped_gwrites", 0),
        "estimated_saved_cycles": getattr(engine, "fused_saved_cycles", 0),
    }
    verifier = getattr(engine, "verifier", None)
    record["verify"] = {
        # The opt-in NEWTON_CHECK_INVARIANTS=1 hook (repro.verify.hook).
        "enabled": verifier is not None,
        "commands_verified": (
            0 if verifier is None else verifier.commands_verified
        ),
        "invariants_checked": (
            0 if verifier is None else verifier.invariants_checked
        ),
        "invariant_violations": (
            0 if verifier is None else verifier.invariant_violations
        ),
    }
    return record


def device_metrics(device) -> dict:
    """Per-channel engine breakdowns for a whole Newton device.

    A device times each class of identical channels with one engine
    (:attr:`repro.core.device.NewtonDevice.classes`); every member gets
    a copy of its class's record, under its own channel index.
    """
    channels = {}
    for engine, members in zip(device.engines, device.classes):
        record = engine_metrics(engine)
        for channel in members:
            channels[str(channel)] = _copy(record)
    return {"schema": SCHEMA, "kind": "device", "channels": channels}


def _copy(record: dict) -> dict:
    """A copy of a record that shares no dict (its leaves are scalars)."""
    return {
        key: _copy(value) if isinstance(value, dict) else value
        for key, value in record.items()
    }


def _require(record: dict, key: str, kinds) -> object:
    if key not in record:
        raise TelemetryError(f"metrics record is missing {key!r}")
    value = record[key]
    if not isinstance(value, kinds):
        raise TelemetryError(
            f"metrics field {key!r} has type {type(value).__name__}"
        )
    return value


def validate_metrics(record: dict) -> dict:
    """Validate a controller breakdown; returns it for chaining.

    Checks the schema stamp, per-command counters (known command names,
    non-negative integers, consistent total), the attribution buckets
    (known categories only), and — whenever telemetry was enabled — the
    sum rule: attributed cycles equal the end cycle exactly.
    """
    if _require(record, "schema", str) != SCHEMA:
        raise TelemetryError(
            f"unknown metrics schema {record['schema']!r} (expected {SCHEMA})"
        )
    end_cycle = _require(record, "end_cycle", int)
    if end_cycle < 0:
        raise TelemetryError(f"end_cycle must be non-negative, got {end_cycle}")
    commands = _require(record, "commands", dict)
    for name, count in commands.items():
        if name not in _COMMAND_NAMES:
            raise TelemetryError(f"unknown command kind {name!r} in metrics")
        if not isinstance(count, int) or count < 0:
            raise TelemetryError(
                f"command counter {name!r} must be a non-negative int, "
                f"got {count!r}"
            )
    total = _require(record, "total_commands", int)
    if total != sum(commands.values()):
        raise TelemetryError(
            f"total_commands={total} disagrees with the per-command sum "
            f"{sum(commands.values())}"
        )
    attribution = _require(record, "cycle_attribution", dict)
    for category, cycles in attribution.items():
        if category not in ATTRIBUTION_CATEGORIES:
            raise TelemetryError(
                f"unknown attribution category {category!r} "
                f"(expected one of {ATTRIBUTION_CATEGORIES})"
            )
        if not isinstance(cycles, int) or cycles < 0:
            raise TelemetryError(
                f"attribution bucket {category!r} must be a non-negative "
                f"int, got {cycles!r}"
            )
    if _require(record, "telemetry_enabled", bool):
        attributed = sum(attribution.values())
        if attributed != end_cycle:
            raise TelemetryError(
                f"attributed cycles ({attributed}) do not sum to the end "
                f"cycle ({end_cycle}); the breakdown is not trustworthy"
            )
    _require(record, "utilization", dict)
    _require(record, "refresh", dict)
    return record
