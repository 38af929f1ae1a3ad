"""Regenerate every table and figure: the ``newton-repro`` console script."""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.backends import available_backends
from repro.experiments.common import ExperimentContext, set_context
from repro.experiments import (
    area_budget,
    chunk_width_study,
    design_space,
    energy_efficiency,
    family_study,
    fig8_speedup,
    fig9_ablation,
    fig10_banks,
    fig11_batch_ideal,
    fig12_batch_gpu,
    fig13_power,
    fused_layer_study,
    hetero_placement,
    latch_variant,
    mixed_traffic_study,
    model_validation,
    organization_study,
    scrub_overhead,
    sensitivity,
    serving_study,
)

EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "fig8": fig8_speedup.run,
    "fig9": fig9_ablation.run,
    "fig10": fig10_banks.run,
    "fig11": fig11_batch_ideal.run,
    "fig12": fig12_batch_gpu.run,
    "fig13": fig13_power.run,
    "model-validation": model_validation.run,
    "latch-variant": latch_variant.run,
    "area-budget": area_budget.run,
    "organization": organization_study.run,
    "scrub-overhead": scrub_overhead.run,
    "mixed-traffic": mixed_traffic_study.run,
    "sensitivity": sensitivity.run,
    "families": family_study.run,
    "energy": energy_efficiency.run,
    "serving": serving_study.run,
    "serving-gateway": serving_study.run_gateway,
    "chunk-width": chunk_width_study.run,
    "fused-layers": fused_layer_study.run,
    "hetero-placement": hetero_placement.run,
    "design-space": design_space.run,
}


@dataclass
class ExperimentOutcome:
    """One experiment's rendered result (or its failure)."""

    name: str
    elapsed: float
    body: Optional[str] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def render(self) -> str:
        header = (
            f"=== {self.name} ({self.elapsed:.1f}s"
            + (", FAILED" if self.failed else "")
            + ") "
            + "=" * max(0, 50 - len(self.name))
        )
        body = self.body if self.body is not None else self.error
        return header + "\n" + (body or "")


def run_experiment(
    name: str, context: Optional[ExperimentContext] = None
) -> ExperimentOutcome:
    """Run one experiment, capturing any failure instead of raising.

    A single broken figure must not abort a multi-hour ``newton-repro
    all`` sweep: the failure is rendered (with its traceback) in the
    experiment's slot and surfaced through the exit code instead.

    ``context`` (the CLI's ``--backend``/``--devices``/``--replicas``
    selection) is installed process-wide before the experiment executes,
    which is what carries it into ``--jobs`` worker processes.

    Module-level by design so ``--jobs`` can ship it to worker processes.
    """
    started = time.time()
    set_context(context)
    try:
        result = EXPERIMENTS[name]()
        body = result.render()
    except Exception:  # noqa: BLE001 - the whole point is to keep going
        return ExperimentOutcome(
            name=name, elapsed=time.time() - started, error=traceback.format_exc()
        )
    return ExperimentOutcome(name=name, elapsed=time.time() - started, body=body)


PROBE_M, PROBE_N = 256, 2048
"""Shape of the telemetry probe GEMV (one full channel slice, refresh on)."""


def _telemetry_probe() -> dict:
    """One instrumented GEMV whose breakdown anchors the metrics export.

    Experiments run in worker processes and render text tables; the
    probe gives every ``--metrics`` export a schema-validated
    cycle-attribution record (full Newton optimizations, refresh on)
    regardless of which experiments were selected.
    """
    from repro.core.engine import NewtonChannelEngine
    from repro.core.optimizations import FULL
    from repro.dram.config import hbm2e_like_config
    from repro.dram.timing import hbm2e_like_timing
    from repro.telemetry import validate_metrics

    engine = NewtonChannelEngine(
        hbm2e_like_config(), hbm2e_like_timing(), FULL, functional=False
    )
    layout = engine.add_matrix(PROBE_M, PROBE_N)
    result = engine.run_gemv(layout)
    record = engine.collect_metrics(end=result.end_cycle)
    record["probe_shape"] = {"m": PROBE_M, "n": PROBE_N}
    return validate_metrics(record)


def write_metrics(
    outcomes: "List[ExperimentOutcome]",
    path: str,
    context: Optional[ExperimentContext] = None,
) -> None:
    """Export the run's metrics registry (plus the probe) as JSON."""
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    for outcome in outcomes:
        registry.counter("runner.experiments").inc()
        if outcome.failed:
            registry.counter("runner.failed").inc()
        registry.gauge(f"runner.elapsed_s.{outcome.name}").set(outcome.elapsed)
    if context is None:
        context = ExperimentContext()
    registry.section(
        "context",
        {
            "backend": context.backend,
            "devices": context.devices,
            "replicas": context.replicas,
            "workers": context.workers,
        },
    )
    registry.section("probe", _telemetry_probe())
    registry.write_json(path)


def run_verify(count: int, seed: int, report_path: Optional[str]) -> int:
    """The ``newton-repro verify`` subcommand: a differential fuzz campaign.

    Runs ``count`` seeded random cases through every execution tier
    (per-command, burst, fast-path replay, multi-device shard), checks
    each trace against the protocol-invariant catalog and the
    independent cycle oracle, and shrinks any failure to a near-minimal
    reproducer (see :mod:`repro.verify.fuzz`). Exit code 0 iff every
    case passed.
    """
    import json

    from repro.verify.fuzz import fuzz as run_fuzz

    def progress(result) -> None:
        status = "ok" if result.ok else "FAIL"
        print(
            f"[{result.case.index + 1:>3}/{count}] {status}  "
            f"{result.commands} commands, {result.checks} checks  "
            f"({result.case.opt().label}, devices={result.case.devices}"
            + (
                f", graph={result.case.graph}"
                if result.case.graph != "none"
                else ""
            )
            + ")",
            file=sys.stderr,
        )

    report = run_fuzz(count, seed, progress=progress)
    print(report.render())
    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2)
        print(f"wrote fuzz report to {report_path}", file=sys.stderr)
    return 0 if report.ok else 1


def run_explore(args) -> int:
    """The ``newton-repro explore`` subcommand: design-space exploration.

    Enumerates the requested sweep space (a named preset or a JSON spec
    file), prunes invalid points through the config layer's own rules,
    evaluates every valid point on the fast/burst tier across ``--jobs``
    worker processes, and prints the per-workload (cycles x area x
    power) Pareto fronts. ``--report`` writes the ``newton-dse/v1``
    JSON document, which is byte-identical for a fixed space and seed
    regardless of the job count. See ``docs/design-space-explorer.md``.
    """
    from repro.errors import ConfigurationError
    from repro.explore import (
        explore,
        render_cache_stats,
        resolve_space,
        write_report,
    )

    try:
        space = resolve_space(args.space)
    except ConfigurationError as error:
        print(f"explore: {error}", file=sys.stderr)
        return 2
    outcome = explore(space, jobs=args.jobs, seed=args.seed)
    print(outcome.render())
    print(render_cache_stats(outcome.cache_stats), file=sys.stderr)
    if args.report:
        write_report(outcome, args.report)
        print(f"wrote DSE report to {args.report}", file=sys.stderr)
    return 0 if outcome.ok else 1


def run_serve(args, context: ExperimentContext) -> int:
    """The ``newton-repro serve`` subcommand: the live serving gateway.

    Serves the requested traffic trace (an inline ``kind:key=value``
    spec or a ``newton-trace/v1`` JSON file) through a fleet of backend
    replicas with admission control, continuous batching, and — when
    ``--max-replicas`` exceeds ``--replicas`` — SLO-aware autoscaling.
    Prints the per-class latency/goodput report; ``--metrics`` writes
    the full ``newton-telemetry/v1`` export. See
    ``docs/serving-gateway.md``.
    """
    from repro.serving import (
        GatewayConfig,
        ServingGateway,
        backend_replica_factory,
        default_classes,
        resolve_trace_argument,
    )
    from repro.telemetry import MetricsRegistry
    from repro.workloads.catalog import layer_by_name

    from repro.experiments.common import backend_extra_kwargs

    layer = layer_by_name(args.layer)
    factory = backend_replica_factory(
        context.backend,
        devices=context.devices,
        workers=context.workers,
        m=layer.m,
        n=layer.n,
        functional=False,
        **backend_extra_kwargs(context),
    )
    probe = factory()
    service = probe.service_cycles
    probe.close()
    trace = resolve_trace_argument(args.trace, service, context.replicas)
    config = GatewayConfig(
        window_cycles=args.window * service,
        max_batch=args.max_batch,
        queue_depth=args.queue_depth,
        min_replicas=context.replicas,
        max_replicas=max(args.max_replicas or 0, context.replicas),
        classes=default_classes(service, args.slo),
    )
    registry = MetricsRegistry() if args.metrics else None
    gateway = ServingGateway(factory, config, metrics=registry)
    try:
        result = gateway.run(trace)
    finally:
        gateway.close()
    print(result.render())
    if args.metrics:
        registry.section(
            "context",
            {
                "backend": context.backend,
                "devices": context.devices,
                "replicas": context.replicas,
                "workers": context.workers,
                "layer": args.layer,
                "service_cycles": service,
            },
        )
        registry.write_json(args.metrics)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    return 0


def run_scenario(args, context: ExperimentContext) -> int:
    """The ``newton-repro --scenario`` subcommand: session-based graphs.

    Opens a :class:`~repro.host.graph_runtime.GraphSession` over the
    selected backend (or cluster) for one of the LLM-serving scenario
    graphs — ``decode`` (bank-resident KV-cache), ``moe`` (routed
    experts), ``lora`` (low-rank adapters) — and decodes ``--seq-len``
    steps. The fused run is always differentially checked against an
    unfused twin (bit-identity is the contract, not a hope), and decode
    additionally replays the measured per-step service time through the
    serving gateway as a multi-step session traffic class, reporting
    per-step p50/p99. See ``docs/model-graphs.md``.
    """
    import numpy as np

    from repro.backends import make_backend
    from repro.cluster import make_cluster
    from repro.serving import (
        GatewayConfig,
        ServingGateway,
        SLOClass,
        decode_sessions,
    )
    from repro.serving.gateway import FixedServiceReplica
    from repro.serving.traffic import Trace
    from repro.telemetry import MetricsRegistry
    from repro.utils.tables import render_table
    from repro.workloads.scenarios import scenario_model

    kwargs = {"window": args.seq_len} if args.scenario == "decode" else {}
    spec = scenario_model(args.scenario, **kwargs)

    from repro.experiments.common import backend_extra_kwargs

    extra = backend_extra_kwargs(context)

    def build_backend():
        if context.devices > 1:
            return make_cluster(
                context.backend,
                context.devices,
                workers=context.workers,
                functional=True,
                **extra,
            )
        return make_backend(context.backend, functional=True, **extra)

    engine = build_backend()
    session = engine.open_session(spec, fused=args.fused, seed=args.seed)
    placement_record = None
    try:
        results = session.run_steps(args.seq_len)
        kv_bytes_saved = session.kv_bytes_saved
        kv_tokens = session.kv_tokens
        if context.backend == "hetero" and context.devices == 1:
            # The hybrid's placement decisions and prediction errors,
            # captured before the engine is torn down.
            placement_record = engine.collect_metrics()
    finally:
        session.close()
        engine.close()

    # Differential twin with the opposite fusion setting: outputs must
    # be bit-identical (fusion only elides command-bus work).
    twin_engine = build_backend()
    twin = twin_engine.open_session(
        spec, fused=not args.fused, seed=args.seed
    )
    try:
        twin_results = twin.run_steps(args.seq_len)
    finally:
        twin.close()
        twin_engine.close()
    for ours, theirs in zip(results, twin_results):
        if not np.array_equal(ours.output, theirs.output):
            print(
                f"FUSION MISMATCH at step {ours.step_index}: fused and "
                "unfused outputs differ",
                file=sys.stderr,
            )
            return 1

    rows = [
        (
            f"{r.step_index}",
            f"{r.newton_cycles:,.0f}",
            f"{r.host_cycles + r.exposed_pipeline_cycles:,.0f}",
            f"{r.fused_gemvs}/{r.gemvs}",
        )
        for r in results
    ]
    mode = "fused" if args.fused else "unfused"
    print(
        render_table(
            ["step", "newton (cyc)", "host (cyc)", "fused GEMVs"],
            rows,
            title=(
                f"Scenario {args.scenario!r} ({mode}), "
                f"{args.seq_len} steps on {context.backend}"
                + (f" x{context.devices}" if context.devices > 1 else "")
            ),
        )
    )
    total = sum(r.total_cycles for r in results)
    fused_total = sum(r.fused_gemvs for r in results)
    gemv_total = sum(r.gemvs for r in results)
    print(
        f"\ntotal {total:,.0f} cycles; {fused_total}/{gemv_total} GEMVs "
        f"ran with buffer-resident inputs; fused==unfused outputs "
        f"bit-identical over {args.seq_len} steps"
        + (
            f"; KV-cache kept {kv_bytes_saved:,} bytes off the host "
            f"interface ({kv_tokens})"
            if kv_tokens
            else ""
        )
    )

    registry = MetricsRegistry() if args.metrics else None
    gateway_result = None
    if args.scenario == "decode":
        # Per-step latency through the live gateway: sessions are the
        # decode traffic class, each step's deadline its class budget.
        step_cycles = float(
            np.mean([r.total_cycles for r in results])
        )
        config = GatewayConfig(
            max_batch=4,
            min_replicas=context.replicas,
            classes=(
                SLOClass("decode", priority=2, p99_budget=args.slo * step_cycles),
            ),
        )
        gateway = ServingGateway(
            lambda: FixedServiceReplica(step_cycles), config,
            metrics=registry,
        )
        try:
            gateway_result = gateway.run(
                Trace(
                    kind="sessions", seed=args.seed,
                    mean_interarrival=0.0, requests=(),
                ),
                decode_sessions(
                    max(2 * context.replicas, 4),
                    steps=args.seq_len,
                    interarrival=2.0 * step_cycles,
                ),
            )
        finally:
            gateway.close()
        print()
        print(gateway_result.render())
    if registry is not None:
        registry.section(
            "scenario",
            {
                "name": args.scenario,
                "fused": args.fused,
                "seq_len": args.seq_len,
                "backend": context.backend,
                "devices": context.devices,
                "total_cycles": total,
                "fused_gemvs": fused_total,
                "gemvs": gemv_total,
                "kv_bytes_saved": kv_bytes_saved,
            },
        )
        if placement_record is not None:
            registry.section("hetero", placement_record)
        registry.write_json(args.metrics)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Run the requested experiments (default: all) and print the tables."""
    parser = argparse.ArgumentParser(
        prog="newton-repro",
        description="Regenerate the Newton paper's evaluation tables/figures.",
        epilog=(
            "environment toggles (boolean: 1/true/yes/on vs 0/false/no/off, "
            "case-insensitive): NEWTON_NO_FASTPATH=1 forces per-command "
            "issue everywhere; NEWTON_TELEMETRY=0 disables cycle-"
            "attribution accounting; NEWTON_CHECK_INVARIANTS=1 validates "
            "every run against the protocol-invariant checker (slow: "
            "forces per-command issue; see docs/verification.md)."
        ),
    )
    # NB: argparse rejects an empty nargs="*" positional when `choices`
    # is set (bpo-27227), so validity is checked by hand below.
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"which experiments to run (default: all); one of: "
        f"{', '.join([*EXPERIMENTS, 'all'])} — or a standalone "
        "subcommand: 'verify' (protocol-invariant differential fuzzing; "
        "see --fuzz/--seed/--report and docs/verification.md), "
        "'serve' (the live serving gateway; see --trace/--slo and "
        "docs/serving-gateway.md), or 'explore' (design-space "
        "exploration; see --space/--jobs/--report and "
        "docs/design-space-explorer.md)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also append the rendered tables to this file",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=25,
        metavar="N",
        help="(verify only) number of differential fuzz cases to run "
        "(default 25)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="(verify/explore) base seed: verify derives every fuzz case "
        "from (seed, index) alone; explore stamps the seed into the DSE "
        "report (default 0)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="(verify/explore) write the run's JSON report: "
        "newton-verify/v1 for verify (the nightly CI artifact), "
        "newton-dse/v1 for explore (byte-identical across --jobs)",
    )
    parser.add_argument(
        "--space",
        metavar="SPEC",
        default="canonical",
        help="(explore only) the sweep space: a named preset "
        "('canonical', 'smoke') or a JSON spec file "
        "(default: canonical; see docs/design-space-explorer.md)",
    )
    parser.add_argument(
        "--trace",
        metavar="SPEC",
        default="poisson:load=0.5,requests=1000",
        help="(serve only) traffic to serve: an inline "
        "'kind:key=value,...' spec (kinds: poisson, diurnal, bursty) "
        "or a newton-trace/v1 JSON file (default: "
        "poisson:load=0.5,requests=1000)",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=5.0,
        metavar="X",
        help="(serve only) interactive-class p99 budget as a multiple "
        "of the backend's service time (default 5.0; the bulk class "
        "gets 4x that)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=0.0,
        metavar="X",
        help="(serve only) continuous-batching window as a multiple of "
        "the service time (default 0: dispatch immediately)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=8,
        metavar="N",
        help="(serve only) largest continuous batch merged into one "
        "gemv_batch dispatch (default 8)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=512,
        metavar="N",
        help="(serve only) admission bound on waiting requests; beyond "
        "it, low-priority work is shed (default 512)",
    )
    parser.add_argument(
        "--max-replicas",
        type=int,
        default=None,
        metavar="N",
        help="(serve only) autoscale ceiling; above --replicas the "
        "gateway scales out when the windowed p99 exceeds the SLO "
        "budget and back in when idle (default: pinned at --replicas)",
    )
    parser.add_argument(
        "--layer",
        default="DLRMs1",
        metavar="NAME",
        help="(serve only) workload layer whose GEMV each request runs "
        "(default DLRMs1)",
    )
    parser.add_argument(
        "--scenario",
        choices=("decode", "moe", "lora"),
        default=None,
        help="run a session-based model-graph scenario instead of "
        "experiments: 'decode' (bank-resident KV-cache, one token per "
        "step), 'moe' (routed experts), 'lora' (low-rank adapters); "
        "honors --backend/--devices/--workers, always differentially "
        "checks fused vs unfused (see docs/model-graphs.md)",
    )
    parser.add_argument(
        "--seq-len",
        type=int,
        default=16,
        metavar="N",
        help="(scenario only) decode steps to run / KV-cache window "
        "(default 16)",
    )
    parser.add_argument(
        "--fused",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="(scenario only) fused execution: chained activations stay "
        "buffer/latch-resident and skip the host GWRITE round trip "
        "(--no-fused pins the per-layer round-trip path; outputs are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="run up to N experiments — or N 'explore' sweep chunks — in "
        "parallel worker processes (results are always printed in "
        "selection/enumeration order)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a telemetry JSON export (schema newton-telemetry/v1): "
        "per-experiment timings/failures plus a schema-validated "
        "cycle-attribution probe (see docs/simulator-internals.md)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="newton",
        help="execution backend for the Newton side of every experiment "
        "(default: the cycle-accurate simulator; see "
        "docs/backends-and-sharding.md)",
    )
    parser.add_argument(
        "--placement",
        choices=("auto", "all-newton", "all-gpu"),
        default="auto",
        help="(hetero backend only) per-dispatch placement policy: "
        "'auto' routes each dispatch to the side the calibrated cost "
        "model finds cheaper; the 'all-*' policies force one side "
        "(see docs/heterogeneous-scheduling.md)",
    )
    for field_name, flag, text in (
        ("gemv_efficiency", "--gpu-gemv-efficiency",
         "achieved bandwidth fraction on batch-1 GEMV"),
        ("batch_decay", "--gpu-batch-decay",
         "per-batch efficiency decay exponent (non-positive)"),
        ("peak_flops_per_cycle", "--gpu-peak-flops",
         "peak fp16 FLOPs per DRAM-command cycle"),
        ("compute_efficiency", "--gpu-compute-efficiency",
         "achieved fraction of peak on dense GEMM"),
        ("kernel_overhead_cycles", "--gpu-kernel-overhead",
         "fixed per-kernel launch cost in cycles"),
        ("saturation_bytes", "--gpu-saturation-bytes",
         "working set needed to saturate the machine"),
    ):
        parser.add_argument(
            flag,
            dest=f"gpu_{field_name}",
            type=float,
            default=None,
            metavar="X",
            help=f"(gpu/hetero backends) GPU roofline override: {text}",
        )
    parser.add_argument(
        "--devices",
        type=int,
        default=1,
        metavar="N",
        help="row-shard each layer across N devices (tensor parallel; "
        "default 1)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="serving-replica count for the queueing studies (M/D/c; "
        "default 1)",
    )
    parser.add_argument(
        "--workers",
        choices=("inline", "process"),
        default="inline",
        help="multi-device execution style: 'inline' composes device "
        "backends in-process, 'process' spawns one worker process per "
        "device with shared-memory weight transfer (default: inline)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the selected experiments under cProfile and dump the "
        "top functions by cumulative time to stderr (serial only)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="write the cProfile report to FILE instead of stderr "
        "(implies --profile)",
    )
    parser.add_argument(
        "--profile-limit",
        type=int,
        default=30,
        metavar="N",
        help="how many functions the profile report shows (default 30)",
    )
    args = parser.parse_args(argv)
    if args.profile_out:
        args.profile = True
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.profile and args.jobs > 1:
        parser.error(
            "--profile requires serial execution (--jobs 1): cProfile "
            "cannot see into worker processes"
        )
    if args.devices < 1:
        parser.error("--devices must be at least 1")
    if args.replicas < 1:
        parser.error("--replicas must be at least 1")
    from repro.baselines.gpu import GPU_TUNABLE_FIELDS

    gpu_overrides = tuple(
        (name, value)
        for name in GPU_TUNABLE_FIELDS
        if (value := getattr(args, f"gpu_{name}", None)) is not None
    )
    context = ExperimentContext(
        backend=args.backend,
        devices=args.devices,
        replicas=args.replicas,
        workers=args.workers,
        placement=args.placement,
        gpu_overrides=gpu_overrides,
    )
    requested = args.experiments or ["all"]
    if args.scenario is not None:
        if args.experiments:
            parser.error(
                "--scenario is a standalone subcommand; do not mix it "
                "with experiment names"
            )
        if args.seq_len < 1:
            parser.error("--seq-len must be at least 1")
        if args.slo <= 0:
            parser.error("--slo must be positive")
        return run_scenario(args, context)
    if "verify" in requested:
        if requested != ["verify"]:
            parser.error(
                "'verify' is a standalone subcommand; do not mix it with "
                "experiment names"
            )
        if args.fuzz < 1:
            parser.error("--fuzz must be at least 1")
        return run_verify(args.fuzz, args.seed, args.report)
    if "explore" in requested:
        if requested != ["explore"]:
            parser.error(
                "'explore' is a standalone subcommand; do not mix it with "
                "experiment names"
            )
        return run_explore(args)
    if "serve" in requested:
        if requested != ["serve"]:
            parser.error(
                "'serve' is a standalone subcommand; do not mix it with "
                "experiment names"
            )
        if args.max_batch < 1:
            parser.error("--max-batch must be at least 1")
        if args.queue_depth < 1:
            parser.error("--queue-depth must be at least 1")
        if args.window < 0:
            parser.error("--window must be non-negative")
        if args.slo <= 0:
            parser.error("--slo must be positive")
        return run_serve(args, context)
    unknown = [name for name in requested if name not in EXPERIMENTS and name != "all"]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"choose from {', '.join([*EXPERIMENTS, 'all'])}"
        )
    selected = (
        list(EXPERIMENTS)
        if "all" in requested
        else list(dict.fromkeys(requested))
    )

    profiler = None
    try:
        if args.jobs > 1 and len(selected) > 1:
            with ProcessPoolExecutor(
                max_workers=min(args.jobs, len(selected))
            ) as pool:
                # submit everything up front, then drain in selection order:
                # scheduling is parallel, output is deterministic.
                futures = [
                    pool.submit(run_experiment, name, context)
                    for name in selected
                ]
                outcomes = [future.result() for future in futures]
        elif args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                outcomes = [
                    run_experiment(name, context) for name in selected
                ]
            finally:
                profiler.disable()
        else:
            outcomes = [run_experiment(name, context) for name in selected]
    finally:
        # serial mode installs the context process-wide; don't leak it
        # past the CLI entry point (embedders, the test suite).
        set_context(None)

    sections = []
    for outcome in outcomes:
        section = outcome.render()
        print(section)
        print()
        sections.append(section + "\n")
    failures = [outcome.name for outcome in outcomes if outcome.failed]
    if failures:
        print(
            f"{len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write("\n".join(sections))
    if args.metrics:
        write_metrics(outcomes, args.metrics, context)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    if profiler is not None:
        write_profile(profiler, args.profile_out, args.profile_limit)
    return 1 if failures else 0


FUNCTIONAL_PROFILE_FILES = (
    "core/datapath.py",
    "core/mac_unit.py",
    "core/global_buffer.py",
    "host/accumulator.py",
    "numerics/lut.py",
)
"""Source files whose self-time counts as *functional datapath* work
(plus everything under ``repro/numerics/``)."""

TIMING_PROFILE_FILES = (
    "core/schedule_cache.py",
    "core/command_gen.py",
)
"""Source files whose self-time counts as *timing simulation* work
(plus everything under ``repro/dram/``)."""


def profile_split(stats) -> "Dict[str, float]":
    """Bucket a profile's self-time: functional vs timing vs other.

    The data-driven target selector the perf roadmap asks for: whether
    the next optimization should attack the functional datapath
    (:mod:`repro.numerics`, :mod:`repro.core.datapath`) or the timing
    simulation (:mod:`repro.dram`, lowering, the schedule cache) is
    read straight off this split instead of guessed. ``stats`` is a
    ``pstats.Stats``; returns seconds of self-time per bucket.
    """
    import os

    buckets = {"functional": 0.0, "timing": 0.0, "other": 0.0}
    for (filename, _lineno, _name), row in stats.stats.items():
        tottime = row[2]
        norm = filename.replace(os.sep, "/")
        if "repro/numerics/" in norm or norm.endswith(
            FUNCTIONAL_PROFILE_FILES
        ):
            buckets["functional"] += tottime
        elif "repro/dram/" in norm or norm.endswith(TIMING_PROFILE_FILES):
            buckets["timing"] += tottime
        else:
            buckets["other"] += tottime
    return buckets


def render_profile_split(buckets: "Dict[str, float]") -> str:
    """The functional/timing split as a small header table."""
    total = sum(buckets.values()) or 1.0
    lines = ["time split (self time):"]
    for label, key in (
        ("functional datapath", "functional"),
        ("timing simulation", "timing"),
        ("other (incl. harness)", "other"),
    ):
        seconds = buckets[key]
        lines.append(
            f"  {label:<22} {seconds:9.3f}s  ({100.0 * seconds / total:5.1f}%)"
        )
    return "\n".join(lines)


def write_profile(
    profiler, path: Optional[str], limit: int
) -> None:
    """Dump a profile report to ``path`` or stderr.

    Leads with the functional-datapath vs timing-simulation self-time
    split (:func:`profile_split`) so target selection is data-driven,
    then the top ``limit`` functions by cumulative time, so the tier
    boundaries (lowering, burst kernel, replay, functional evaluation)
    show up by name.
    """
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    buffer.write(render_profile_split(profile_split(stats)) + "\n\n")
    stats.sort_stats("cumulative").print_stats(limit)
    report = buffer.getvalue()
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(report)
        print(f"wrote profile to {path}", file=sys.stderr)
    else:
        print(report, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
