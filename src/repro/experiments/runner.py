"""Regenerate every table and figure: the ``newton-repro`` console script.

The first word picks a row of :data:`COMMANDS` (by default, a list of
experiments), and each command parses only the flags its handler reads.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.backends import available_backends
from repro.baselines.gpu import GPU_TUNABLE_FIELDS
from repro.experiments.common import (
    ExperimentContext, backend_extra_kwargs, set_context,
)
from repro.experiments import (
    area_budget, chunk_width_study, design_space, energy_efficiency,
    family_study, fig8_speedup, fig9_ablation, fig10_banks, fig11_batch_ideal,
    fig12_batch_gpu, fig13_power, fused_layer_study, hetero_placement,
    latch_variant, mixed_traffic_study, model_validation, organization_study,
    scrub_overhead, sensitivity, serving_study,
)
from repro.workloads.scenarios import SCENARIOS

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
    context: ExperimentContext,
) -> None:
    """Export the run's metrics registry (plus the probe) as JSON."""
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    for outcome in outcomes:
        registry.counter("runner.experiments").inc()
        if outcome.failed:
            registry.counter("runner.failed").inc()
        registry.gauge(f"runner.elapsed_s.{outcome.name}").set(outcome.elapsed)
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


def run_verify(args, context: ExperimentContext) -> int:
    """The ``newton-repro verify`` command: a differential fuzz campaign.

    Runs ``count`` seeded random cases through every execution tier
    (per-command, burst, fast-path replay, multi-device shard), checks
    each trace against the protocol-invariant catalog and the
    independent cycle oracle, and shrinks any failure to a near-minimal
    reproducer (see :mod:`repro.verify.fuzz`). Exit code 0 iff every
    case passed.
    """
    import json

    from repro.verify.fuzz import fuzz as run_fuzz

    count, report_path = args.fuzz, args.report

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

    report = run_fuzz(count, args.seed, progress=progress)
    print(report.render())
    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2)
        print(f"wrote fuzz report to {report_path}", file=sys.stderr)
    return 0 if report.ok else 1


def run_explore(args, context: ExperimentContext) -> int:
    """The ``newton-repro explore`` command: design-space exploration.

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
    """The ``newton-repro serve`` command: the live serving gateway.

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
    """The ``newton-repro scenario`` command: session-based graphs.

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


def run_experiments(args, context: ExperimentContext) -> int:
    """Regenerate the Newton paper's evaluation tables/figures: the named
    experiments (default: all), in selection order. A first word of
    verify, explore, serve or scenario runs that command instead;
    ``newton-repro COMMAND --help`` lists its flags.
    """
    requested = args.experiments or ["all"]
    selected = list(EXPERIMENTS if "all" in requested else dict.fromkeys(requested))
    run = partial(run_experiment, context=context)
    try:
        if args.jobs > 1 and len(selected) > 1:
            # map submits everything up front and yields in selection
            # order: scheduling is parallel, output is deterministic.
            with ProcessPoolExecutor(min(args.jobs, len(selected))) as pool:
                outcomes = list(pool.map(run, selected))
        else:
            outcomes = [run(name) for name in selected]
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
    return 1 if failures else 0


# -- the command table ------------------------------------------------

Flag = Tuple[Tuple[str, ...], Dict[str, object]]
"""One ``add_argument`` call as data: its names and its options."""


def flag(*names: str, **options: object) -> Flag:
    return names, options


def checked(kind: type, holds: Callable[[float], bool], rule: str):
    """An argparse ``type`` parsing ``kind`` that refuses (exit code 2,
    NaN included) any value for which ``holds`` is false."""

    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


COUNT = checked(int, lambda value: value >= 1, "at least 1")
POSITIVE = checked(float, lambda value: value > 0, "positive")
NON_NEGATIVE = checked(float, lambda value: value >= 0, "non-negative")


def experiment_name(text: str) -> str:
    """The default command's positional type: a registered name or ``all``."""
    choices = [*EXPERIMENTS, "all"]
    if text not in choices:
        raise argparse.ArgumentTypeError(f"{text!r} is not one of {', '.join(choices)}")
    return text


JOBS = flag("--jobs", "-j", type=COUNT, default=1, metavar="N",
            help="run in up to N processes; output never depends on N (default 1)")
SEED = flag("--seed", type=int, default=0, metavar="S",
            help="base seed the run derives from (default 0)")
REPORT = flag("--report", metavar="PATH", help="write the run's JSON report")
CONTEXT: Tuple[Flag, ...] = (
    flag("--backend", choices=available_backends(), default="newton",
         help="execution backend for the Newton side (default: the "
         "cycle-accurate simulator; see docs/backends-and-sharding.md)"),
    flag("--placement", choices=("auto", "all-newton", "all-gpu"),
         default="auto",
         help="(hetero backend only) per-dispatch placement: 'auto' takes "
         "the side the calibrated cost model finds cheaper, 'all-*' forces "
         "one side (see docs/heterogeneous-scheduling.md)"),
    *(
        flag(name, dest=f"gpu_{field}", type=float, metavar="X",
             help=f"(gpu/hetero backends) GPU roofline override: {text}")
        for field, name, text in (
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
        )
    ),
    flag("--devices", type=COUNT, default=1, metavar="N",
         help="row-shard each layer across N devices (tensor parallel; default 1)"),
    flag("--replicas", type=COUNT, default=1, metavar="N",
         help="serving replicas: the studies' M/D/c fleet, the gateway's "
         "starting fleet (default 1)"),
    flag("--workers", choices=("inline", "process"), default="inline",
         help="multi-device execution: 'inline' in one process, 'process' "
         "one worker process per device, weights in shared memory "
         "(default: inline)"),
    flag("--metrics", metavar="PATH",
         help="write the run's telemetry JSON export (schema "
         "newton-telemetry/v1; see docs/simulator-internals.md)"),
)
"""The execution context, shared by every command that builds a backend."""


def execution_context(args: argparse.Namespace) -> ExperimentContext:
    """The context flags of ``args`` (the default context without them)."""
    values = vars(args)
    given = [field.name for field in fields(ExperimentContext) if field.name in values]
    return ExperimentContext(
        **{name: values[name] for name in given},
        gpu_overrides=tuple(
            (name, values[f"gpu_{name}"])
            for name in GPU_TUNABLE_FIELDS
            if values.get(f"gpu_{name}") is not None
        ),
    )


@dataclass(frozen=True)
class Command:
    """One row of :data:`COMMANDS`: a handler and the flags it reads.
    ``--help`` describes the command by the handler's docstring summary."""

    handler: Callable[[argparse.Namespace, ExperimentContext], int]
    flags: Tuple[Flag, ...]


COMMANDS: Dict[Optional[str], Command] = {
    None: Command(run_experiments, (
        flag("experiments", nargs="*", type=experiment_name,
             metavar="EXPERIMENT",
             help="which experiments to run (default: all); one of: "
             f"{', '.join([*EXPERIMENTS, 'all'])}"),
        flag("--out", metavar="PATH",
             help="also append the rendered tables to this file"),
        JOBS, *CONTEXT,
    )),
    "verify": Command(run_verify, (
        flag("--fuzz", type=COUNT, default=25, metavar="N",
             help="number of differential fuzz cases to run (default 25)"),
        SEED, REPORT,
    )),
    "explore": Command(run_explore, (
        flag("--space", metavar="SPEC", default="canonical",
             help="the sweep space: a named preset ('canonical', "
             "'smoke') or a JSON spec file (default: canonical)"),
        JOBS, SEED, REPORT,
    )),
    "serve": Command(run_serve, (
        flag("--trace", metavar="SPEC", default="poisson:load=0.5,requests=1000",
             help="traffic: an inline 'kind:key=value,...' spec (poisson, "
             "diurnal, bursty) or a newton-trace/v1 file (default: %(default)s)"),
        flag("--slo", type=POSITIVE, default=5.0, metavar="X",
             help="interactive-class p99 budget in service times (default "
             "5.0; the bulk class gets 4x that)"),
        flag("--window", type=NON_NEGATIVE, default=0.0, metavar="X",
             help="continuous-batching window as a multiple of the "
             "service time (default 0: dispatch immediately)"),
        flag("--max-batch", type=COUNT, default=8, metavar="N",
             help="largest continuous batch merged into one gemv_batch "
             "dispatch (default 8)"),
        flag("--queue-depth", type=COUNT, default=512, metavar="N",
             help="admission bound on waiting requests; beyond it, "
             "low-priority work is shed (default 512)"),
        flag("--max-replicas", type=int, default=None, metavar="N",
             help="autoscale ceiling: the gateway scales out past --replicas "
             "while the windowed p99 is over budget, back in when idle"),
        flag("--layer", default="DLRMs1", metavar="NAME",
             help="workload layer each request's GEMV runs (default DLRMs1)"),
        *CONTEXT,
    )),
    "scenario": Command(run_scenario, (
        flag("scenario", choices=SCENARIOS,
             help="'decode' (bank-resident KV-cache, one token per step), "
             "'moe' (routed experts), 'lora' (low-rank adapters)"),
        flag("--seq-len", type=COUNT, default=16, metavar="N",
             help="decode steps to run / KV-cache window (default 16)"),
        flag("--fused", action=argparse.BooleanOptionalAction, default=True,
             help="keep chained activations buffer/latch-resident, skipping "
             "the host GWRITE round trip (outputs are bit-identical either way)"),
        flag("--slo", type=POSITIVE, default=5.0, metavar="X",
             help="decode-class p99 budget as a multiple of the mean step "
             "time (default 5.0)"),
        SEED, *CONTEXT,
    )),
}
"""Every command by its first word; ``None``, the default, runs experiments."""

ENVIRONMENT = (
    "environment toggles (boolean: 1/true/yes/on vs 0/false/no/off, "
    "case-insensitive): NEWTON_NO_FASTPATH=1 forces per-command issue "
    "everywhere; NEWTON_TELEMETRY=0 disables cycle-attribution accounting; "
    "NEWTON_CHECK_INVARIANTS=1 validates every run against the protocol-"
    "invariant checker (slow: forces per-command issue; see "
    "docs/verification.md)."
)


def main(argv: "list[str] | None" = None) -> int:
    """Run the command its first word names (default: experiments)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    word = argv[0] if argv and argv[0] in COMMANDS else None
    command = COMMANDS[word]
    summary = inspect.getdoc(command.handler).split("\n\n")[0]
    parser = argparse.ArgumentParser(
        prog="newton-repro" + (f" {word}" if word else ""),
        description=summary.replace("``", ""),
        epilog=ENVIRONMENT,
    )
    for names, options in command.flags:
        parser.add_argument(*names, **options)
    args = parser.parse_args(argv[1:] if word else argv)
    return command.handler(args, execution_context(args))


if __name__ == "__main__":
    sys.exit(main())
