"""Point evaluation, process fan-out, and the ``newton-dse/v1`` report.

Every valid point is evaluated on the fast/burst execution tier
(``functional=False`` — the sweep measures timing, area, and power, not
outputs). Points whose architecture (config + timing + opt) is
identical share one :class:`~repro.core.schedule_cache.ScheduleCache`:
segment keys are command-content interned and signatures are relative,
so tile schedules recorded while evaluating one point replay in the
next point's engine. The cache-sharing counters are returned on the
:class:`ExploreOutcome` (and surfaced through telemetry by the bench
harness) but deliberately **excluded** from the JSON report — the split
of work across ``--jobs`` worker processes changes the hit counts while
every metric stays identical, and the report is required to be
byte-identical across job counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.command_gen import check_traversal
from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import OptimizationConfig
from repro.core.schedule_cache import ScheduleCache
from repro.dram.area import AreaModel
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams, hbm2e_like_timing
from repro.errors import ConfigurationError
from repro.explore.pareto import pareto_front
from repro.explore.space import SweepSpace
from repro.utils.tables import render_table

DSE_SCHEMA = "newton-dse/v1"
"""Schema stamp of the explorer's JSON report."""

SWEEP_ROWS_PER_BANK = 256
"""Rows per bank for sweep evaluation: the workloads are far smaller
than a real bank, and a small storage keeps point setup cheap."""


def point_arch(
    params: Dict[str, object],
) -> Tuple[DRAMConfig, TimingParams, OptimizationConfig]:
    """Build a point's architecture, or raise :class:`ConfigurationError`.

    This is the pruning boundary: the config layer's own validation
    (rate matching, bank grouping, tFAW ordering, the latch/traversal
    coupling, family preconditions) decides validity, and the raised
    message becomes the report's prune reason.
    """
    family = str(params["family"])
    latches = int(params["latches"])
    shards = int(params["shards"])
    if shards < 1:
        raise ConfigurationError("shards must be at least 1")
    if family != "newton" and latches != 1:
        raise ConfigurationError(
            "rival command families are specified against the single-latch "
            "adder tree; multi-latch variants only exist for the newton "
            "row-major traversal"
        )
    config = DRAMConfig(
        num_channels=1,
        banks_per_channel=int(params["banks"]),
        rows_per_bank=SWEEP_ROWS_PER_BANK,
        cols_per_row=int(params["cols_per_row"]),
        col_io_bits=int(params["col_io_bits"]),
        command_family=family,
    )
    timing = hbm2e_like_timing().with_overrides(
        t_faw=int(params["t_faw"]), t_faw_aim=int(params["t_faw_aim"])
    )
    # One latch <=> the interleaved full-reuse traversal; four latches
    # <=> the Section III-C row-major partial-reuse variant. The config
    # layer enforces the coupling, so the sweep axis is just `latches`.
    opt = OptimizationConfig(
        ganged_compute=True,
        complex_commands=True,
        interleaved_reuse=latches == 1,
        four_bank_activation=True,
        aggressive_tfaw=True,
        result_latches=latches,
    )
    check_traversal(config, opt)
    return config, timing, opt


@dataclass(frozen=True)
class PointResult:
    """One valid point's evaluated metrics (all minimized)."""

    index: int
    params: Dict[str, object]
    metrics: Dict[str, Dict[str, float]]
    """``{workload: {"cycles": ..., "area": ..., "power": ...}}``."""

    def metric_tuple(self, workload: str) -> Tuple[float, float, float]:
        m = self.metrics[workload]
        return (m["cycles"], m["area"], m["power"])


@dataclass(frozen=True)
class PruneRecord:
    """One enumerated point the config layer rejected, and why."""

    index: int
    params: Dict[str, object]
    reason: str


def classify_points(
    space: SweepSpace,
) -> Tuple[List[int], List[PruneRecord]]:
    """Split the enumeration into valid indices and prune records.

    Architecture construction only — no engines run — so this is cheap
    enough for the space tests and for sizing a sweep before launching.
    """
    valid: List[int] = []
    pruned: List[PruneRecord] = []
    for index, params in enumerate(space.points()):
        try:
            point_arch(params)
        except ConfigurationError as error:
            pruned.append(
                PruneRecord(index=index, params=params, reason=str(error))
            )
        else:
            valid.append(index)
    return valid, pruned


def _arch_key(
    config: DRAMConfig, timing: TimingParams, opt: OptimizationConfig
) -> tuple:
    """Hashable architecture identity for schedule-cache sharing."""
    return (repr(config), repr(timing), repr(opt))


def evaluate_chunk(
    space_payload: dict, indices: List[int]
) -> Tuple[List[PointResult], List[PruneRecord], Dict[str, int]]:
    """Evaluate a contiguous run of enumeration indices.

    Module-level so ``--jobs`` can ship it to worker processes. Each
    chunk keeps one :class:`ScheduleCache` per distinct architecture:
    points that differ only in trailing axes (``shards``, workload) are
    adjacent in enumeration order, so contiguous chunking preserves
    nearly all of the serial run's cross-point replay.
    """
    space = SweepSpace.from_dict(space_payload)
    all_points = space.points()
    caches: Dict[tuple, ScheduleCache] = {}
    results: List[PointResult] = []
    pruned: List[PruneRecord] = []
    engines = 0
    for index in indices:
        params = all_points[index]
        try:
            config, timing, opt = point_arch(params)
        except ConfigurationError as error:
            pruned.append(
                PruneRecord(index=index, params=params, reason=str(error))
            )
            continue
        cache = caches.setdefault(_arch_key(config, timing, opt), ScheduleCache())
        shards = int(params["shards"])
        area_fraction = (
            AreaModel(config)
            .newton(
                latches_per_bank=int(params["latches"]),
                # The row-major traversal and the output-stationary
                # dataflow both emit unreduced partials: they carry the
                # activation LUT; the interleaved Newton path does not.
                with_lut=(
                    not opt.interleaved_reuse
                    or config.command_family == "output_stationary"
                ),
                aggressive_tfaw=opt.aggressive_tfaw,
            )
            .overhead_fraction
        )
        metrics: Dict[str, Dict[str, float]] = {}
        for workload in space.workloads:
            m_shard = (workload.m + shards - 1) // shards
            engine = NewtonChannelEngine(
                config,
                timing,
                opt,
                functional=False,
                refresh_enabled=True,
                fast=True,
                telemetry=False,
                schedule_cache=cache,
            )
            engines += 1
            layout = engine.add_matrix(m_shard, workload.n)
            run = engine.run_gemv(layout)
            metrics[workload.name] = {
                # Latency of the slowest (equal) shard; silicon and
                # power scale with the device count.
                "cycles": int(run.end_cycle),
                "area": area_fraction * shards,
                "power": engine.power_report().average_power * shards,
            }
        results.append(
            PointResult(index=index, params=params, metrics=metrics)
        )
    cache_stats = {
        "hits": sum(c.hits for c in caches.values()),
        "misses": sum(c.misses for c in caches.values()),
        "replayed_commands": sum(c.replayed_commands for c in caches.values()),
        "engines": engines,
        "arches": len(caches),
    }
    return results, pruned, cache_stats


def build_report(
    space: SweepSpace,
    results: List[PointResult],
    pruned: List[PruneRecord],
    seed: int,
) -> dict:
    """Assemble the ``newton-dse/v1`` document (deterministic content).

    No timestamps, no host identity, no cache counters: the same space
    and seed must serialize to the same bytes regardless of ``--jobs``.
    """
    fronts = {}
    for workload in space.workloads:
        front = pareto_front(
            results, key=lambda r: r.metric_tuple(workload.name)
        )
        fronts[workload.name] = sorted(results[i].index for i in front)
    return {
        "schema": DSE_SCHEMA,
        "seed": seed,
        "space": space.to_dict(),
        "enumerated_points": space.size,
        "valid_points": len(results),
        "families_evaluated": sorted(
            {str(r.params["family"]) for r in results}
        ),
        "points": [
            {"id": r.index, "params": r.params, "metrics": r.metrics}
            for r in results
        ],
        "pruned": [
            {"id": p.index, "params": p.params, "reason": p.reason}
            for p in pruned
        ],
        "pareto": fronts,
    }


def report_bytes(report: dict) -> bytes:
    """The report's canonical serialization (the byte-identity contract)."""
    return (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


@dataclass
class ExploreOutcome:
    """A finished sweep: the report plus out-of-band run telemetry."""

    space: SweepSpace
    report: dict
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report["valid_points"] > 0

    def render(self) -> str:
        sections = [
            f"design-space sweep {self.space.name!r}: "
            f"{self.report['valid_points']}/{self.report['enumerated_points']} "
            f"points valid ({len(self.report['pruned'])} pruned), families: "
            f"{', '.join(self.report['families_evaluated']) or 'none'}"
        ]
        by_id = {p["id"]: p for p in self.report["points"]}
        for workload in self.space.workloads:
            front_ids = self.report["pareto"][workload.name]
            rows = []
            for point_id in front_ids:
                point = by_id[point_id]
                params, metrics = point["params"], point["metrics"][workload.name]
                rows.append(
                    (
                        f"{point_id}",
                        str(params["family"]),
                        f"{params['banks']}",
                        f"{params['latches']}",
                        f"{params['shards']}",
                        f"{metrics['cycles']:,}",
                        f"{metrics['area']:.3f}",
                        f"{metrics['power']:.2f}",
                    )
                )
            sections.append(
                render_table(
                    [
                        "id",
                        "family",
                        "banks",
                        "latches",
                        "shards",
                        "cycles",
                        "area",
                        "power",
                    ],
                    rows,
                    title=(
                        f"Pareto front, workload {workload.name!r} "
                        f"({workload.m}x{workload.n}; minimize "
                        "cycles/area/power)"
                    ),
                )
            )
        return "\n\n".join(sections)


def explore(
    space: SweepSpace, *, jobs: int = 1, seed: int = 0
) -> ExploreOutcome:
    """Run the sweep and build the report.

    ``jobs == 1`` evaluates in-process (maximal cache sharing, and the
    path the cache-audit test inspects); ``jobs > 1`` splits the
    enumeration into ``jobs`` contiguous chunks across worker processes,
    submits everything up front, and drains in chunk order — scheduling
    is parallel, the report is deterministic.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    payload = space.to_dict()
    indices = list(range(space.size))
    if jobs == 1 or len(indices) < 2:
        chunk_outs = [evaluate_chunk(payload, indices)]
    else:
        workers = min(jobs, len(indices))
        step = (len(indices) + workers - 1) // workers
        chunks = [
            indices[start : start + step]
            for start in range(0, len(indices), step)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(evaluate_chunk, payload, chunk)
                for chunk in chunks
            ]
            chunk_outs = [future.result() for future in futures]
    results: List[PointResult] = []
    pruned: List[PruneRecord] = []
    cache_stats: Dict[str, int] = {}
    for chunk_results, chunk_pruned, chunk_stats in chunk_outs:
        results.extend(chunk_results)
        pruned.extend(chunk_pruned)
        for key, value in chunk_stats.items():
            cache_stats[key] = cache_stats.get(key, 0) + value
    results.sort(key=lambda r: r.index)
    pruned.sort(key=lambda p: p.index)
    report = build_report(space, results, pruned, seed)
    return ExploreOutcome(space=space, report=report, cache_stats=cache_stats)


def write_report(outcome: ExploreOutcome, path: str) -> None:
    """Write the canonical serialization to ``path``."""
    with open(path, "wb") as f:
        f.write(report_bytes(outcome.report))


def render_cache_stats(stats: Dict[str, int]) -> str:
    """One-line summary of cross-point schedule-cache sharing."""
    return (
        f"schedule cache: {stats.get('hits', 0)} hits / "
        f"{stats.get('misses', 0)} misses across "
        f"{stats.get('engines', 0)} engines on "
        f"{stats.get('arches', 0)} distinct architectures "
        f"({stats.get('replayed_commands', 0)} commands replayed)"
    )
