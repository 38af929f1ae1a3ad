"""The four benchmark workloads.

Each workload drives the ``repro`` package only through its public
calls (constructors, ``load_matrix``, ``gemv``, ``load_model``/``run``,
``open_session``/``run_steps``, ``ServingGateway.run``) and times only
those calls. Everything derived from the workload seed — weights, input
vectors, session seeds, trace seeds — is generated before the call that
consumes it. Correctness checks run outside the timed regions; every
failed check or raised exception is counted against the operations
attempted.

A workload instance runs as: ``setup()`` (zero or more times), passes of
``run_pass()``, ``finish()``, then ``check()`` for the checks that compare
passes or need extra runs. :func:`run_instance` is that loop.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.backends import make_backend
from repro.baselines.analytical import AnalyticalModel
from repro.baselines.gpu import titan_v_like
from repro.core.device import NewtonDevice
from repro.core.optimizations import FULL, figure9_ladder
from repro.dram.controller import ATTRIBUTION_CATEGORIES
from repro.dram.families import family_by_name
from repro.errors import TelemetryError
from repro.experiments.common import eval_config, eval_timing, make_baselines
from repro.host.runtime import NewtonRuntime
from repro.host.serving import ServingSimulator
from repro.serving import (
    FixedServiceReplica,
    GatewayConfig,
    ServingGateway,
    SLOClass,
    Trace,
    backend_replica_factory,
    bursty_trace,
    decode_sessions,
    interarrival_for_load,
    poisson_trace,
)
from repro.telemetry import validate_metrics
from repro.utils.stats import geometric_mean
from repro.workloads.catalog import TABLE_II_LAYERS, layer_by_name
from repro.workloads.models import (
    alexnet_model,
    bert_large_model,
    dlrm_model,
    gnmt_model,
)
from repro.workloads.scenarios import decode_model, lora_model, moe_model

PAPER_GPU_SPEEDUP = 54.0
"""Table II / Figure 8: Newton's geometric-mean speedup over the GPU."""

FAULTS = ("flip-output", "twin-mismatch", "perturb-p99")
"""Faults the self-tests inject to prove each correctness check fires."""


def _sub_seed(seed: int, index: int) -> int:
    """An independent stream per (workload seed, input index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class PassResult:
    """What one pass measured."""

    work: float
    """Units of work the throughput metric counts (MACs for models)."""
    work_seconds: float
    """Host seconds inside the calls the throughput metric times."""
    setup_seconds: Optional[float]
    """Set-up inside the pass, or ``None`` when the workload sets up
    once, before its passes."""
    wall: float
    """Host seconds of the whole pass, checks excluded."""
    sim_cycles: float
    """Simulated cycles of the pass's fixed work."""


class DeviceTelemetry:
    """Validates each device's telemetry and sums its counters."""

    def __init__(self) -> None:
        self.commands = 0
        self.end_cycles = 0
        self.attribution: Counter = Counter()
        self.hits = 0
        self.misses = 0
        self.replayed = 0
        self.burst_commands = 0
        self.functional_macs = 0

    def add(self, device) -> bool:
        """Fold in a device's (or backend's) ``collect_metrics()``;
        returns whether every channel record validated."""
        valid = True
        for record in device.collect_metrics()["channels"].values():
            try:
                validate_metrics(record)
            except TelemetryError as err:
                print(f"telemetry check failed: {err}", file=sys.stderr)
                valid = False
            self.commands += record["total_commands"]
            self.end_cycles += record["end_cycle"]
            self.attribution.update(record["cycle_attribution"])
            self.hits += record["schedule_cache"]["hits"]
            self.misses += record["schedule_cache"]["misses"]
            self.replayed += record["schedule_cache"]["replayed_commands"]
            self.burst_commands += record["burst"]["commands"]
            if device.functional:
                self.functional_macs += (
                    record["counters"]["compute_column_accesses"]
                    * device.config.mults_per_bank
                )
        return valid

    def metrics(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        metrics = {
            "core.schedule_cache.hit_ratio": self.hits / lookups if lookups else 0.0,
            "core.schedule_cache.replayed_commands": self.replayed,
            "dram.commands_total": self.commands,
            "dram.burst.commands": self.burst_commands,
        }
        for category in ATTRIBUTION_CATEGORIES:
            metrics[f"attr.{category}_frac"] = (
                self.attribution[category] / self.end_cycles
                if self.end_cycles
                else 0.0
            )
        return metrics


class Workload:
    """Shared bookkeeping: failures, attempts, telemetry."""

    name = ""
    op = ""
    """What one operation is, for the human-readable table."""
    warmup = False
    """Run one uncounted pass before the timed ones."""
    setups = 1
    """Set-ups per untraced run when :meth:`setup` is what gets timed (the
    median is reported)."""

    def __init__(self, seed: int, *, smoke: bool = False, faults: FrozenSet[str] = frozenset()):
        unknown = set(faults) - set(FAULTS)
        if unknown:
            raise ValueError(f"unknown faults {sorted(unknown)}")
        self.seed = seed
        self.smoke = smoke
        self.faults = faults
        self.attempted = 0
        self.failed = 0
        self.telemetry = DeviceTelemetry()
        self.passes: List[PassResult] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        print(f"[{self.name}] {count} failed: {why}", file=sys.stderr)

    def fail_exception(self, count: int) -> None:
        self.fail(count, traceback.format_exc())

    def setup(self) -> Optional[float]:
        """Set up once before the passes; returns its seconds, or ``None``
        when set-up happens inside each pass instead."""
        return None

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def finish(self) -> None:
        """After the passes (untimed)."""

    def check(self) -> None:
        """Checks across passes and against reference runs (untimed)."""

    def check_passes_agree(self) -> None:
        """Every pass does the same fixed work, so simulates the same cycles."""
        cycles = {p.sim_cycles for p in self.passes}
        if len(cycles) > 1:
            self.fail(1, f"simulated cycles differ between passes: {sorted(cycles)}")

    def sim_metrics(self) -> Dict[str, float]:
        """Simulated-clock results, keyed by metric name."""
        return {}


# ----------------------------------------------------------------------
# table2-sweep


@dataclass(frozen=True)
class _Point:
    kind: str
    """``ladder`` (Figure 9 step), ``refresh-off`` or ``family``."""
    label: str
    layer: object
    config: object
    timing: object
    opt: object
    refresh: bool = True


def _ladder_slug(step: str) -> str:
    """``'+tFAW (Newton)'`` -> ``'tfaw'``; names usable in metric keys."""
    return step.lstrip("+").split(" ")[0].lower()


class Table2Sweep(Workload):
    """Timing-only GEMVs, each on a fresh device: the Figure 9 ladder on
    every Table II layer, FULL with refresh off (the Section III-F check),
    and FULL whole layers on one channel of each command family."""

    name = "table2-sweep"
    op = "points"
    FAMILIES = ("HBM2E", "OUTPUT-STATIONARY", "BANKGROUP-EXT")
    FULL_STEP = _ladder_slug(figure9_ladder()[-1][0])
    """The ladder's last step: the full Newton design (``FULL``)."""

    def __init__(self, seed: int, **kwargs):
        super().__init__(seed, **kwargs)
        layers = (
            [layer_by_name("BERTs1"), layer_by_name("DLRMs1")]
            if self.smoke
            else list(TABLE_II_LAYERS)
        )
        self.layers = layers
        config, timing = eval_config(), eval_timing()
        points = [
            _Point("ladder", _ladder_slug(step), layer, config, timing, opt)
            for step, opt in figure9_ladder()
            for layer in layers
        ]
        points += [
            _Point("refresh-off", "full", layer, config, timing, FULL, refresh=False)
            for layer in layers
        ]
        for family in self.FAMILIES:
            preset = family_by_name(family, num_channels=1)
            points += [
                _Point("family", family, layer, preset.config, preset.timing, FULL)
                for layer in layers
            ]
        self.points = points
        self.cycles: List[List[Optional[int]]] = []
        """Per pass, per point: the GEMV's cycles (``None``: it failed)."""

    def setup(self) -> None:
        # The first device built in a process imports the package's lazy
        # modules (three times a point's usual set-up); keep that out of
        # the timed set-ups.
        layer = layer_by_name("DLRMs1")
        device = NewtonDevice(eval_config(), eval_timing(), FULL, functional=False)
        device.gemv(device.load_matrix(m=layer.m, n=layer.n))
        return None

    def run_pass(self, index: int) -> PassResult:
        begin = time.perf_counter()
        setup = gemv = 0.0
        cycles: List[Optional[int]] = []
        for point in self.points:
            try:
                t0 = time.perf_counter()
                device = NewtonDevice(
                    point.config,
                    point.timing,
                    point.opt,
                    functional=False,
                    refresh_enabled=point.refresh,
                )
                handle = device.load_matrix(m=point.layer.m, n=point.layer.n)
                t1 = time.perf_counter()
                run = device.gemv(handle)
                t2 = time.perf_counter()
            except Exception:
                self.fail_exception(1)
                cycles.append(None)
                continue
            setup += t1 - t0
            gemv += t2 - t1
            cycles.append(run.cycles)
            if not self.telemetry.add(device):
                self.fail(1, f"telemetry of {point}")
        wall = time.perf_counter() - begin
        self.cycles.append(cycles)
        self.attempted += len(self.points)
        return PassResult(
            work=len(self.points),
            work_seconds=gemv,
            setup_seconds=setup,
            wall=wall,
            sim_cycles=float(sum(c for c in cycles if c is not None)),
        )

    def check(self) -> None:
        for i, point in enumerate(self.points):
            seen = {cycles[i] for cycles in self.cycles}
            if len(seen) > 1:
                where = f"{point.kind} {point.label} {point.layer.name}"
                self.fail(1, f"{where}: cycles differ across passes {seen}")
        speedups = list(self._ladder().values())
        for step, (before, after) in enumerate(zip(speedups, speedups[1:]), 1):
            if after < before:
                self.fail(1, f"Figure 9 ladder step {step} is slower than step {step - 1}")

    def _cycles(self, kind: str, label: str) -> Dict[str, int]:
        return {
            point.layer.name: cycles
            for point, cycles in zip(self.points, self.cycles[0])
            if point.kind == kind and point.label == label and cycles is not None
        }

    def _ladder(self) -> Dict[str, float]:
        """Per Figure 9 step: gmean speedup over the Titan-V-like GPU."""
        _, gpu = make_baselines()
        ladder = {}
        for step, _ in figure9_ladder():
            slug = _ladder_slug(step)
            cycles = self._cycles("ladder", slug)
            ladder[slug] = geometric_mean(
                [
                    gpu.gemv_cycles(layer.m, layer.n) / cycles[layer.name]
                    for layer in self.layers
                    if layer.name in cycles
                ],
                empty=float("nan"),
            )
        return ladder

    def sim_metrics(self) -> Dict[str, float]:
        config = eval_config()
        model = AnalyticalModel(config, eval_timing(), aggressive_tfaw=True)
        full = self._cycles("ladder", self.FULL_STEP)
        refresh_off = self._cycles("refresh-off", "full")
        metrics: Dict[str, float] = {}
        for layer in self.layers:
            metrics[f"table2.{layer.name}.cycles"] = full.get(layer.name, 0)
            if layer.name in refresh_off:
                predicted = model.predicted_layer_cycles(
                    layer.m, layer.n, channels=config.num_channels
                )
                error = abs(refresh_off[layer.name] / predicted - 1.0)
                metrics[f"table2.{layer.name}.model_err_pct"] = error * 100.0
        ladder = self._ladder()
        for slug, speedup in ladder.items():
            metrics[f"ladder.{slug}.gpu_speedup"] = speedup
        paper_error = abs(ladder[self.FULL_STEP] - PAPER_GPU_SPEEDUP) / PAPER_GPU_SPEEDUP
        metrics["paper_err_pct"] = paper_error * 100.0
        metrics["model_err_pct"] = max(
            (v for k, v in metrics.items() if k.endswith(".model_err_pct")), default=0.0
        )
        return metrics


# ----------------------------------------------------------------------
# serve-trace


class ServeTrace(Workload):
    """Timing-only Newton replicas (eval config, BERTs1 resident) behind
    the serving gateway, replaying seeded open-loop traces."""

    name = "serve-trace"
    op = "requests"
    LOADS = (0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0)
    P99_LOAD = 0.8
    REPLICAS = 2
    SLO_MULTIPLE = 20.0
    """The p99 budget, in units of one request's service time."""
    BURSTY_LOAD = 0.7
    BURSTY_CLASSES = (("interactive", 3.0), ("batch", 1.0))

    def __init__(self, seed: int, **kwargs):
        super().__init__(seed, **kwargs)
        self.requests = 500 if self.smoke else 5000
        self.loads = (0.5, self.P99_LOAD) if self.smoke else self.LOADS
        layer = layer_by_name("BERTs1")
        self._factory = backend_replica_factory(
            "newton",
            m=layer.m,
            n=layer.n,
            config=eval_config(),
            timing=eval_timing(),
            functional=False,
        )
        self.build_seconds = 0.0
        self.replicas: list = []
        self.results: List[list] = []

    def build_replica(self):
        """The gateway's replica factory: times each build (set-up)."""
        t0 = time.perf_counter()
        replica = self._factory()
        self.build_seconds += time.perf_counter() - t0
        self.replicas.append(replica)
        return replica

    def setup(self) -> None:
        # One replica's service time sizes the traces; this build is not
        # part of the timed work (each gateway run builds its own).
        replica = self._factory()
        self.service = replica.service_cycles
        replica.close()
        service = self.service
        budget = self.SLO_MULTIPLE * service
        ladder_config = GatewayConfig(
            window_cycles=2 * service,
            max_batch=8,
            min_replicas=self.REPLICAS,
            classes=(SLOClass("interactive", p99_budget=budget),),
        )
        self.runs: List[Tuple[Trace, GatewayConfig]] = [
            (
                poisson_trace(
                    interarrival_for_load(service, load, self.REPLICAS),
                    self.requests,
                    seed=_sub_seed(self.seed, i),
                ),
                ladder_config,
            )
            for i, load in enumerate(self.loads)
        ]
        bursty = bursty_trace(
            interarrival_for_load(service, self.BURSTY_LOAD, 1),
            self.requests,
            seed=_sub_seed(self.seed, len(self.loads)),
            class_mix=self.BURSTY_CLASSES,
        )
        self.runs.append(
            (
                bursty,
                GatewayConfig(
                    window_cycles=2 * service,
                    max_batch=8,
                    min_replicas=1,
                    max_replicas=4,
                    classes=(
                        SLOClass("interactive", priority=2, p99_budget=budget),
                        SLOClass("batch", priority=1, p99_budget=4 * budget),
                    ),
                ),
            )
        )
        return None

    def run_pass(self, index: int) -> PassResult:
        begin = time.perf_counter()
        serve = builds = busy = 0.0
        results = []
        offered = 0
        for trace, config in self.runs:
            offered += len(trace)
            gateway = ServingGateway(self.build_replica, config)
            self.replicas = []
            build_before = self.build_seconds
            try:
                t0 = time.perf_counter()
                result = gateway.run(trace)
                elapsed = time.perf_counter() - t0
            except Exception:
                self.fail_exception(len(trace))
                results.append(None)
                gateway.close()
                continue
            built = self.build_seconds - build_before
            builds += built
            serve += elapsed - built
            results.append(result)
            accounted = result.admitted + result.shed == result.requests
            if not accounted or result.completed != result.admitted:
                self.fail(
                    result.requests - result.completed,
                    f"load accounting: {result.requests} offered, {result.admitted} "
                    f"admitted, {result.shed} shed, {result.completed} completed",
                )
            for replica in self.replicas:
                busy += replica.backend.device.now
                if not self.telemetry.add(replica.backend):
                    self.fail(1, "replica telemetry")
            gateway.close()
        wall = time.perf_counter() - begin
        self.results.append(results)
        self.attempted += offered
        return PassResult(
            work=offered,
            work_seconds=serve,
            setup_seconds=builds,
            wall=wall,
            sim_cycles=busy,
        )

    def check(self) -> None:
        self.check_passes_agree()
        # The degenerate gateway (no window, batch 1) is the offline
        # M/D/c queue, so its p99 must equal the simulator's exactly.
        seed = _sub_seed(self.seed, len(self.loads) + 1)
        load = self.P99_LOAD
        trace = poisson_trace(
            interarrival_for_load(self.service, load, self.REPLICAS),
            self.requests,
            seed=seed,
        )
        service = self.service
        gateway = ServingGateway(
            lambda: FixedServiceReplica(service),
            GatewayConfig(
                window_cycles=0.0,
                max_batch=1,
                min_replicas=self.REPLICAS,
                classes=(SLOClass("interactive"),),
            ),
        )
        p99 = gateway.run(trace).p99
        if "perturb-p99" in self.faults:
            p99 += 1.0
        simulator = ServingSimulator(service, seed=seed, servers=self.REPLICAS)
        offline = simulator.simulate(load, self.requests).p99
        self.attempted += self.requests
        if p99 != offline:
            self.fail(1, f"degenerate gateway p99 {p99} != offline M/D/c p99 {offline}")

    def sim_metrics(self) -> Dict[str, float]:
        results = self.results[0]
        ladder, bursty = results[:-1], results[-1]
        budget = self.SLO_MULTIPLE * self.service
        served = [r for r in results if r is not None]
        sustained = [
            load
            for load, r in zip(self.loads, ladder)
            if r is not None and r.p99 <= budget and r.shed == 0 and r.completed == r.admitted
        ]
        at_p99_load = ladder[self.loads.index(self.P99_LOAD)]
        return {
            "p99_cycles": at_p99_load.p99 if at_p99_load is not None else 0.0,
            "max_load": max(sustained, default=0.0),
            "goodput_frac": bursty.goodput_fraction if bursty is not None else 0.0,
            "serving.gateway.mean_batch": (
                sum(r.completed for r in served) / max(1, sum(r.batches for r in served))
            ),
            "serving.gateway.shed_frac": (
                sum(r.shed for r in served) / max(1, sum(r.requests for r in served))
            ),
            "serving.gateway.replicas_max": max((r.replicas_max for r in served), default=0),
        }


# ----------------------------------------------------------------------
# models-e2e


class RecordingBackend:
    """Forwards to a backend, keeping each GEMV's handle, input and output
    so the pass can be checked against fp64 after it ends."""

    def __init__(self, backend):
        self.backend = backend
        self.calls: List[tuple] = []

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def gemv(self, handle, vector=None, **kwargs):
        run = self.backend.gemv(handle, vector, **kwargs)
        self.calls.append((handle, vector, run.output))
        return run


def gemv_within_bf16_bound(matrix: np.ndarray, vector: np.ndarray, output: np.ndarray) -> bool:
    """``|y - W x| <= 0.03 |W| |x| + 1e-3`` elementwise, in fp64 (the
    repository's bfloat16 accuracy bound), in row blocks to bound memory."""
    x = vector.astype(np.float64)
    ax = np.abs(x)
    rows = 4096
    for lo in range(0, matrix.shape[0], rows):
        block = matrix[lo : lo + rows].astype(np.float64)
        exact = block @ x
        scale = np.abs(block) @ ax
        if not np.all(np.abs(output[lo : lo + rows] - exact) <= 0.03 * scale + 1e-3):
            return False
    return True


class ModelsE2E(Workload):
    """Functional end-to-end models on the eval config through
    ``NewtonRuntime`` over ``make_backend("newton")``."""

    name = "models-e2e"
    op = "MACs"
    setups = 2

    def __init__(self, seed: int, **kwargs):
        super().__init__(seed, **kwargs)
        self.specs = (
            (dlrm_model(mlp_layers=2),)
            if self.smoke
            else (gnmt_model(), bert_large_model(blocks=4), alexnet_model(), dlrm_model())
        )
        self.backend = None

    def setup(self) -> float:
        """Build the backend, load every model and run one warm pass;
        each call replaces the previous set-up."""
        # Drop the previous set-up first: two resident model sets would
        # double the peak memory.
        self.backend = self.recorder = self.runtime = self.models = self.weights = None
        gc.collect()
        config, timing = eval_config(), eval_timing()
        t0 = time.perf_counter()
        backend = make_backend("newton", config=config, timing=timing, functional=True)
        recorder = RecordingBackend(backend)
        runtime = NewtonRuntime(recorder, titan_v_like(config, timing))
        models = [runtime.load_model(spec, seed=self.seed) for spec in self.specs]
        for model in models:
            runtime.run(model, seed=self.seed)
        seconds = time.perf_counter() - t0
        self.backend, self.recorder, self.runtime, self.models = backend, recorder, runtime, models
        self.weights = {
            id(handle): model.weights[name]
            for model in models
            for name, handle in model.handles.items()
        }
        return seconds

    def run_pass(self, index: int) -> PassResult:
        self.recorder.calls.clear()
        cycles = 0.0
        attempted = 0
        t0 = time.perf_counter()
        for model in self.models:
            gemvs = sum(1 for layer in model.spec.layers if layer.on_newton)
            attempted += gemvs
            try:
                cycles += self.runtime.run(model, seed=self.seed + index).total_cycles
            except Exception:
                self.fail_exception(gemvs)
        wall = time.perf_counter() - t0
        calls = self.recorder.calls
        macs = sum(handle.m * handle.n for handle, _, _ in calls)
        if "flip-output" in self.faults and index == 0 and calls:
            calls[0][2].view(np.uint32)[0] ^= np.uint32(1 << 30)
        bad = sum(
            not gemv_within_bf16_bound(self.weights[id(handle)], vector, output)
            for handle, vector, output in calls
        )
        if bad:
            self.fail(bad, f"{bad} GEMV outputs outside the bf16 bound")
        self.attempted += attempted
        return PassResult(
            work=macs,
            work_seconds=wall,
            setup_seconds=None,
            wall=wall,
            sim_cycles=cycles,
        )

    def finish(self) -> None:
        if not self.telemetry.add(self.backend):
            self.fail(1, "device telemetry")


# ----------------------------------------------------------------------
# decode-session


class DecodeSession(Workload):
    """Fused graph sessions on the default one-channel backend: decode
    with a bank-resident KV-cache, MoE routing and LoRA adapters."""

    name = "decode-session"
    op = "steps"
    warmup = True
    """A fresh process's first pass steps ~10% slower than the next."""
    GATEWAY_SESSIONS = 16

    def __init__(self, seed: int, **kwargs):
        super().__init__(seed, **kwargs)
        if self.smoke:
            self.sessions = (
                (decode_model(d=64, window=8, blocks=1), 4),
                (moe_model(d=64, blocks=1), 2),
                (lora_model(d=64, blocks=1), 2),
            )
            self.gateway_sessions = 2
        else:
            self.sessions = (
                (decode_model(d=256, window=64, blocks=2), 64),
                (moe_model(), 32),
                (lora_model(), 32),
            )
            self.gateway_sessions = self.GATEWAY_SESSIONS
        self.reference: Dict[int, Tuple[List[np.ndarray], float]] = {}
        """Pass 0's step outputs and total cycles per session (the fused
        side of the twin check)."""
        self.decode_steps: List[float] = []
        self.gemvs = self.fused_gemvs = self.kv_bytes_saved = 0
        self.step_p99 = 0.0

    def _open(self, spec, fused: bool):
        backend = make_backend("newton", functional=True)
        return backend, backend.open_session(spec, fused=fused, seed=self.seed)

    def run_pass(self, index: int) -> PassResult:
        begin = time.perf_counter()
        setup = stepping = cycles = 0.0
        attempted = 0
        for i, (spec, steps) in enumerate(self.sessions):
            attempted += steps
            try:
                t0 = time.perf_counter()
                backend, session = self._open(spec, fused=True)
                t1 = time.perf_counter()
                results = session.run_steps(steps)
                t2 = time.perf_counter()
            except Exception:
                self.fail_exception(steps)
                continue
            setup += t1 - t0
            stepping += t2 - t1
            total = sum(r.total_cycles for r in results)
            cycles += total
            if index == 0:
                self.reference[i] = ([r.output for r in results], total)
                self.gemvs += sum(r.gemvs for r in results)
                self.fused_gemvs += sum(r.fused_gemvs for r in results)
                self.kv_bytes_saved += session.kv_bytes_saved
                if spec.name == "decode":
                    self.decode_steps = [r.total_cycles for r in results]
            session.close()
            if not self.telemetry.add(backend):
                self.fail(1, "device telemetry")
            backend.close()
        wall = time.perf_counter() - begin
        self.attempted += attempted
        return PassResult(
            work=attempted,
            work_seconds=stepping,
            setup_seconds=setup,
            wall=wall,
            sim_cycles=cycles,
        )

    def check(self) -> None:
        self.check_passes_agree()
        if "twin-mismatch" in self.faults and 0 in self.reference:
            self.reference[0][0][0].view(np.uint32)[0] ^= np.uint32(1)
        # The unfused twin elides nothing: outputs must match bit for bit
        # and it may never take fewer cycles.
        for i, (fused_outputs, fused_cycles) in self.reference.items():
            spec, steps = self.sessions[i]
            backend, twin = self._open(spec, fused=False)
            results = twin.run_steps(steps)
            twin.close()
            backend.close()
            self.attempted += steps
            mismatched = sum(
                not np.array_equal(ours, theirs.output)
                for ours, theirs in zip(fused_outputs, results)
            )
            if mismatched:
                self.fail(mismatched, f"{spec.name}: fused steps differ from the unfused twin")
            unfused_cycles = sum(r.total_cycles for r in results)
            if fused_cycles > unfused_cycles:
                self.fail(1, f"{spec.name}: fused {fused_cycles} cycles > unfused {unfused_cycles}")
        self._gateway()

    def _gateway(self) -> None:
        """Replay the measured decode step time through the gateway as
        multi-step sessions (per-step latency under contention)."""
        if not self.decode_steps:
            return  # the decode session failed, and was counted
        step = float(np.mean(self.decode_steps))
        steps = self.sessions[0][1]
        gateway = ServingGateway(
            lambda: FixedServiceReplica(step),
            GatewayConfig(
                max_batch=4,
                classes=(SLOClass("decode", priority=2, p99_budget=20 * step),),
            ),
        )
        result = gateway.run(
            Trace(kind="sessions", seed=self.seed, mean_interarrival=0.0, requests=()),
            decode_sessions(self.gateway_sessions, steps=steps, interarrival=2.0 * step),
        )
        stats = result.sessions
        expected = self.gateway_sessions * steps
        self.attempted += expected
        if stats.completed != stats.offered or stats.steps_completed != expected:
            self.fail(expected - stats.steps_completed, "gateway sessions did not all complete")
        self.step_p99 = stats.step_p99

    def sim_metrics(self) -> Dict[str, float]:
        return {
            "step_p99_cycles": self.step_p99,
            "host.graph_runtime.fused_frac": self.fused_gemvs / self.gemvs if self.gemvs else 0.0,
            "host.graph_runtime.kv_bytes_saved": self.kv_bytes_saved,
        }


WORKLOADS = {cls.name: cls for cls in (Table2Sweep, ServeTrace, ModelsE2E, DecodeSession)}


def run_instance(
    workload: Workload,
    seconds: float,
    *,
    min_passes: int,
    setups: int = 1,
    warm: bool = True,
    check: bool = True,
) -> List[float]:
    """Set up, warm up (if ``warm`` and the workload asks for it), run
    passes until the next one would overrun ``seconds`` (at least
    ``min_passes``), then finish and check.

    Returns the set-up seconds: one per set-up, or one per pass when the
    workload sets up inside its passes.
    """
    setup_times = [s for s in (workload.setup() for _ in range(setups)) if s is not None]
    index = 0
    if warm and workload.warmup:
        # Checked like any other pass, but neither timed nor counted.
        workload.run_pass(index)
        workload.telemetry = DeviceTelemetry()
        index += 1
    begin = time.perf_counter()
    while True:
        # Reclaim the last pass's garbage now rather than inside the next
        # timed region, which also keeps the peak memory from growing
        # with the number of passes.
        gc.collect()
        workload.passes.append(workload.run_pass(index))
        index += 1
        elapsed = time.perf_counter() - begin
        if len(workload.passes) >= min_passes and elapsed + workload.passes[-1].wall > seconds:
            break
    workload.finish()
    if check:
        workload.check()
    return setup_times or [p.setup_seconds for p in workload.passes]
