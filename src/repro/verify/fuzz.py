"""Seeded differential fuzzing across execution tiers and devices.

Each :class:`FuzzCase` is a randomly drawn (geometry, timing, opt-combo,
workload) point, executed four ways:

1. **per-command reference** — ``fast=False`` with a
   :class:`~repro.dram.trace.CommandTrace` attached, which is also the
   execution whose trace the :class:`~repro.verify.invariants
   .InvariantChecker` and the :class:`~repro.verify.oracle.CycleOracle`
   validate;
2. **burst kernel** — a fresh ``fast=True`` engine's first run (a cold
   schedule-cache miss issues command runs through the closed-form
   burst kernel);
3. **fast-path replay** — the same engine's subsequent runs (schedule
   cache hits fast-forward the controller);
4. **2-device shard** — when the case says so, the same matrix
   row-sharded over a :class:`~repro.cluster.ShardedCluster` of two
   Newton backends.

The case passes only if every tier produces bit-identical outputs and
identical start/end cycles, the invariant checker finds zero violations,
and the oracle re-derives every recorded issue cycle exactly.

A minority of cases additionally draw a **graph-execution family**
(``case.graph`` in ``decode`` / ``moe`` / ``lora``): a scenario graph
from :mod:`repro.workloads.scenarios` runs as a multi-step
:class:`~repro.host.graph_runtime.GraphSession` under the case's
geometry/timing/opt knobs, and the harness checks that (a) the fused
lowering is bit-identical to the round-trip lowering at every step and
never costs more cycles, (b) the fast-tier session agrees with the
per-command reference tier on outputs *and* cycles, and (c) on 2-device
cases the sharded session matches the single-device one bit-wise. This
extends the differential net to stateful command streams — in-place
``store_matrix`` arena growth, fused ``COMP`` chains, expert routing —
that one-shot GEMV cases never produce.

Failures shrink automatically: a greedy pass re-runs the case under
simplifying transforms (drop the batch, drop the second device, disable
refresh, halve the workload, revert knobs to their defaults) and keeps
every transform that still fails, so the reported case is near-minimal.
Every case is reproducible from ``(seed, index)`` alone via
:func:`generate_case` — see ``docs/verification.md``.

``controller_mutator`` deliberately corrupts controllers before running
(e.g. shrinking the tFAW window by one): the harness's own regression
tests inject bugs this way and assert the checker and oracle catch them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.backends.newton import NewtonBackend
from repro.cluster import ShardedCluster
from repro.core.engine import NewtonChannelEngine
from repro.core.optimizations import OptimizationConfig
from repro.dram.config import (
    COMMAND_FAMILIES,
    COMMAND_FAMILY_NEWTON,
    RIVAL_COMMAND_FAMILIES,
    DRAMConfig,
    family_rules,
    hbm2e_like_config,
)
from repro.dram.timing import TimingParams, hbm2e_like_timing
from repro.dram.trace import CommandTrace
from repro.errors import VerificationError
from repro.verify import invariants as inv
from repro.verify import oracle as orc

SCHEMA = "newton-verify/v1"
"""Schema stamp of :meth:`FuzzReport.to_dict` (the CI artifact format)."""

TRACE_CAPACITY = 400_000
"""Ring capacity for the reference tier's trace. Cases are sized well
below this; :func:`repro.verify.invariants.require_complete` raises if a
case ever outgrows it rather than silently checking a partial trace."""

_CASE_SEED_STRIDE = 1_000_003
"""Prime stride decorrelating per-case RNG streams within one seed."""

REFRESH_OFF = "off"
REFRESH_FAST = "fast"
REFRESH_STANDARD = "standard"
_REFRESH_TIMING = {
    # (t_refi, t_rfc): "fast" is shortened so refresh actually fires
    # several times inside a small fuzz workload; "standard" keeps the
    # Table III values (usually meaning zero refreshes per case, which
    # exercises the nothing-due paths).
    REFRESH_FAST: (600, 60),
    REFRESH_STANDARD: (3900, 350),
}

GRAPH_NONE = "none"
GRAPH_FAMILIES = ("decode", "moe", "lora")
"""Scenario graphs a case may draw as its graph-execution family."""

ControllerMutator = Callable[[object], None]


@dataclass(frozen=True)
class FuzzCase:
    """One reproducible fuzz input (derivable from ``(seed, index)``)."""

    index: int
    seed: int
    banks: int
    m: int
    n: int
    batch: int
    ganged_compute: bool
    complex_commands: bool
    interleaved_reuse: bool
    four_bank_activation: bool
    aggressive_tfaw: bool
    result_latches: int
    refresh: str
    t_cmd: int
    t_ccd: int
    devices: int
    graph: str = GRAPH_NONE
    family: str = COMMAND_FAMILY_NEWTON
    """The command family the case's devices speak (rival families make
    the verifier sweep genuinely different protocols, not just knobs)."""

    def config(self) -> DRAMConfig:
        return hbm2e_like_config(banks_per_channel=self.banks).with_overrides(
            rows_per_bank=128, command_family=self.family
        )

    def timing(self) -> TimingParams:
        overrides = {"t_cmd": self.t_cmd, "t_ccd": self.t_ccd}
        if self.refresh in _REFRESH_TIMING:
            t_refi, t_rfc = _REFRESH_TIMING[self.refresh]
            overrides.update(t_refi=t_refi, t_rfc=t_rfc)
        return hbm2e_like_timing().with_overrides(**overrides)

    def opt(self) -> OptimizationConfig:
        return OptimizationConfig(
            ganged_compute=self.ganged_compute,
            complex_commands=self.complex_commands,
            interleaved_reuse=self.interleaved_reuse,
            four_bank_activation=self.four_bank_activation,
            aggressive_tfaw=self.aggressive_tfaw,
            result_latches=self.result_latches,
        )

    @property
    def refresh_enabled(self) -> bool:
        return self.refresh != REFRESH_OFF

    def case_seed(self) -> int:
        return self.seed * _CASE_SEED_STRIDE + self.index

    def describe(self) -> str:
        return (
            f"case #{self.index} (seed {self.seed}): {self.m}x{self.n} "
            f"batch={self.batch} banks={self.banks} opt={self.opt().label} "
            f"refresh={self.refresh} t_cmd={self.t_cmd} t_ccd={self.t_ccd} "
            f"devices={self.devices} graph={self.graph} family={self.family}"
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def generate_case(seed: int, index: int) -> FuzzCase:
    """Draw case ``index`` of seed ``seed`` (stable across runs)."""
    rng = np.random.default_rng(seed * _CASE_SEED_STRIDE + index)

    def pick(options, weights):
        return options[rng.choice(len(options), p=np.array(weights) / sum(weights))]

    interleaved = bool(rng.integers(2))
    m = int(rng.integers(1, 41))
    banks = pick([8, 16], [1, 2])
    n = int(rng.integers(1, 321))
    # Mostly >= 2 so the fast tier's later runs exercise schedule
    # replay, not just the cold burst path.
    batch = pick([1, 2, 3], [2, 5, 3])
    ganged_compute = bool(rng.integers(2))
    complex_commands = bool(rng.integers(2))
    four_bank_activation = bool(rng.integers(2))
    aggressive_tfaw = bool(rng.integers(2))
    # Multiple latches only exist on the row-major traversal.
    result_latches = 1 if interleaved else pick([1, 4], [3, 1])
    refresh = pick([REFRESH_FAST, REFRESH_OFF, REFRESH_STANDARD], [6, 2, 2])
    t_cmd = pick([4, 2, 7], [3, 1, 1])
    t_ccd = pick([4, 2, 6], [3, 1, 1])
    devices = 2 if (m >= 2 and rng.random() < 0.3) else 1
    # Drawn after every base field so adding the graph family kept every
    # earlier field of a given (seed, index) identical to previous
    # harness versions.
    graph = pick([GRAPH_NONE, *GRAPH_FAMILIES], [7, 1, 1, 1])
    # The command-family roll is drawn last, after the graph, for the
    # same reproducibility reason — and always drawn (even when it
    # cannot apply) so future fields keep their stream positions. Rival
    # families run only on plain-GEMV cases (the graph sessions'
    # fused-lowering differential is Newton's), and only on a traversal
    # their rules can walk.
    family_roll = pick(list(COMMAND_FAMILIES), [3, 1, 1])
    family = COMMAND_FAMILY_NEWTON
    if graph == GRAPH_NONE and family_rules(family_roll).can_walk(interleaved):
        family = family_roll
    return FuzzCase(
        index=index,
        seed=seed,
        banks=banks,
        m=m,
        n=n,
        batch=batch,
        ganged_compute=ganged_compute,
        complex_commands=complex_commands,
        interleaved_reuse=interleaved,
        four_bank_activation=four_bank_activation,
        aggressive_tfaw=aggressive_tfaw,
        result_latches=result_latches,
        refresh=refresh,
        t_cmd=t_cmd,
        t_ccd=t_ccd,
        devices=devices,
        graph=graph,
        family=family,
    )


@dataclass
class CaseResult:
    """Everything one case's execution produced."""

    case: FuzzCase
    failures: List[str] = field(default_factory=list)
    violations: List[inv.Violation] = field(default_factory=list)
    divergences: List[orc.Divergence] = field(default_factory=list)
    checks: int = 0
    """Individual invariant evaluations performed."""
    commands: int = 0
    """Commands the reference tier traced (= records verified)."""

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [self.case.describe()]
        lines.extend(f"  FAIL: {failure}" for failure in self.failures)
        lines.extend(f"  {v.render()}" for v in self.violations[:10])
        lines.extend(f"  {d.render()}" for d in self.divergences[:10])
        return "\n".join(lines)


def _workload(case: FuzzCase):
    rng = np.random.default_rng(case.case_seed())
    matrix = rng.standard_normal((case.m, case.n)).astype(np.float32)
    vectors = rng.standard_normal((case.batch, case.n)).astype(np.float32)
    return matrix, vectors


def _run_engine(
    case: FuzzCase,
    *,
    fast: bool,
    trace: Optional[CommandTrace],
    mutator: Optional[ControllerMutator],
):
    engine = NewtonChannelEngine(
        case.config(),
        case.timing(),
        case.opt(),
        functional=True,
        refresh_enabled=case.refresh_enabled,
        fast=fast,
    )
    controller = engine.channel.controller
    if trace is not None:
        controller.trace = trace
    if mutator is not None:
        mutator(controller)
    matrix, vectors = _workload(case)
    layout = engine.add_matrix(case.m, case.n, matrix)
    results = [engine.run_gemv(layout, vectors[i]) for i in range(case.batch)]
    return engine, results


def _graph_spec(case: FuzzCase):
    """Draw the family's (graph, step count) from the case's own stream.

    Offset from :meth:`FuzzCase.case_seed` so the dims are independent
    of the base GEMV workload draw but still reproducible from
    ``(seed, index)`` alone.
    """
    from repro.workloads.scenarios import decode_model, lora_model, moe_model

    rng = np.random.default_rng(case.case_seed() + 1)
    d = int(rng.choice([8, 16, 24]))
    steps = int(rng.integers(2, 5))
    if case.graph == "decode":
        return decode_model(d=d, window=steps, blocks=1), steps
    if case.graph == "moe":
        return moe_model(d=d, experts=3, top_k=2, blocks=1), steps
    return lora_model(d=d, rank=2, blocks=2), steps


def _graph_backend(case: FuzzCase, *, fast: bool) -> NewtonBackend:
    return NewtonBackend(
        case.config(),
        case.timing(),
        opt=case.opt(),
        functional=True,
        refresh_enabled=case.refresh_enabled,
        fast=fast,
    )


def _run_graph_family(case: FuzzCase, out: CaseResult) -> None:
    """Session differentials: fused vs unfused, tiers, and the shard."""
    spec, steps = _graph_spec(case)
    seed = case.case_seed()

    def run_session(engine, *, fused: bool):
        session = engine.open_session(spec, fused=fused, seed=seed)
        try:
            return session.run_steps(steps)
        finally:
            session.close()
            engine.close()

    unfused = run_session(_graph_backend(case, fast=True), fused=False)
    fused = run_session(_graph_backend(case, fast=True), fused=True)
    reference = run_session(_graph_backend(case, fast=False), fused=False)

    for i, (u, f) in enumerate(zip(unfused, fused)):
        if not np.array_equal(u.output, f.output):
            out.failures.append(
                f"graph {case.graph} step {i}: fused output differs "
                "from the round-trip lowering"
            )
    fused_total = sum(r.total_cycles for r in fused)
    unfused_total = sum(r.total_cycles for r in unfused)
    if fused_total > unfused_total:
        out.failures.append(
            f"graph {case.graph}: fused session cost {fused_total:,.0f} "
            f"cycles > round-trip {unfused_total:,.0f}"
        )
    for i, (u, r) in enumerate(zip(unfused, reference)):
        if not np.array_equal(u.output, r.output):
            out.failures.append(
                f"graph {case.graph} step {i}: fast-tier session output "
                "differs from the per-command reference"
            )
        if u.total_cycles != r.total_cycles:
            out.failures.append(
                f"graph {case.graph} step {i}: fast-tier session cycles "
                f"{u.total_cycles:,.0f} != per-command reference "
                f"{r.total_cycles:,.0f}"
            )

    if case.devices == 2:
        cluster = ShardedCluster(
            [_graph_backend(case, fast=True) for _ in range(case.devices)]
        )
        sharded = run_session(cluster, fused=True)
        for i, (f, s) in enumerate(zip(fused, sharded)):
            if not np.array_equal(f.output, s.output):
                out.failures.append(
                    f"graph {case.graph} step {i}: {case.devices}-device "
                    "session output differs from the single-device one"
                )


def run_case(
    case: FuzzCase, *, controller_mutator: Optional[ControllerMutator] = None
) -> CaseResult:
    """Execute one case through every tier and validate its trace."""
    out = CaseResult(case=case)

    trace = CommandTrace(capacity=TRACE_CAPACITY)
    ref_engine, ref_runs = _run_engine(
        case, fast=False, trace=trace, mutator=controller_mutator
    )
    fast_engine, fast_runs = _run_engine(
        case, fast=True, trace=None, mutator=controller_mutator
    )

    # --- tier agreement: per-command vs burst (run 0) vs replay (run 1+)
    for i, (ref, fst) in enumerate(zip(ref_runs, fast_runs)):
        tier = "burst" if i == 0 else "replay"
        if (ref.start_cycle, ref.end_cycle) != (fst.start_cycle, fst.end_cycle):
            out.failures.append(
                f"run {i}: per-command cycles [{ref.start_cycle}, "
                f"{ref.end_cycle}] != {tier} tier [{fst.start_cycle}, "
                f"{fst.end_cycle}]"
            )
        if not np.array_equal(ref.output, fst.output):
            out.failures.append(
                f"run {i}: per-command output differs from the {tier} tier"
            )

    # --- 2-device shard tier
    if case.devices == 2:
        matrix, vectors = _workload(case)
        cluster = ShardedCluster(
            [
                NewtonBackend(
                    case.config(),
                    case.timing(),
                    opt=case.opt(),
                    functional=True,
                    refresh_enabled=case.refresh_enabled,
                    fast=True,
                )
                for _ in range(case.devices)
            ]
        )
        handle = cluster.load_matrix(matrix)
        for i in range(case.batch):
            run = cluster.gemv(handle, vectors[i])
            if not np.array_equal(run.output, ref_runs[i].output):
                out.failures.append(
                    f"run {i}: {case.devices}-device shard output differs "
                    "from the single-device reference"
                )

    # --- graph-execution family: multi-step session differentials
    if case.graph != GRAPH_NONE:
        _run_graph_family(case, out)

    # --- protocol invariants on the reference tier's trace
    try:
        records = inv.require_complete(trace)
    except VerificationError as error:
        out.failures.append(str(error))
        return out
    out.commands = len(records)
    controller = ref_engine.channel.controller
    end = max((run.end_cycle for run in ref_runs), default=controller.now)
    checker = inv.InvariantChecker(
        case.config(),
        case.timing(),
        aggressive_tfaw=case.aggressive_tfaw,
        check_latch=not family_rules(case.family).whole_row_readout(
            case.interleaved_reuse
        ),
        check_refresh_interval=case.refresh_enabled,
    )
    out.violations = inv.check_trace(
        records,
        case.config(),
        case.timing(),
        refresh_log=controller.refresh.log,
        end=end,
        checker=checker,
    )
    out.checks = checker.checks
    if out.violations:
        out.failures.append(
            f"{len(out.violations)} protocol invariant violation(s), first: "
            f"{out.violations[0].render()}"
        )

    # --- independent issue-cycle oracle on the same trace
    out.divergences = orc.check_trace(
        records,
        case.config(),
        case.timing(),
        aggressive_tfaw=case.aggressive_tfaw,
        refresh_log=controller.refresh.log,
    )
    if out.divergences:
        out.failures.append(
            f"oracle re-derives {len(out.divergences)} issue cycle(s) "
            f"differently, first: {out.divergences[0].render()}"
        )
    return out


# ----------------------------------------------------------------------
# shrinking


def _shrink_candidates(case: FuzzCase) -> List[FuzzCase]:
    """Simplifying transforms, most aggressive first."""

    def evolve(**kwargs) -> FuzzCase:
        return dataclasses.replace(case, **kwargs)

    candidates = [
        evolve(batch=1),
        evolve(devices=1),
        evolve(graph=GRAPH_NONE),
        evolve(family=COMMAND_FAMILY_NEWTON),
        evolve(refresh=REFRESH_OFF),
        evolve(m=max(1, case.m // 2)),
        evolve(n=max(1, case.n // 2)),
        evolve(m=1),
        evolve(n=16),
        evolve(banks=8),
        evolve(result_latches=1),
        evolve(t_cmd=4),
        evolve(t_ccd=4),
        evolve(aggressive_tfaw=False),
        evolve(ganged_compute=True),
        evolve(complex_commands=True),
        evolve(four_bank_activation=True),
    ]
    return [c for c in candidates if c != case]


def shrink_case(
    case: FuzzCase,
    *,
    controller_mutator: Optional[ControllerMutator] = None,
    budget: int = 40,
) -> "tuple[FuzzCase, int]":
    """Greedily simplify a failing case while it keeps failing.

    Returns the smallest still-failing case found and how many candidate
    executions the search spent (bounded by ``budget``).
    """
    spent = 0
    current = case
    improved = True
    while improved and spent < budget:
        improved = False
        for candidate in _shrink_candidates(current):
            if spent >= budget:
                break
            spent += 1
            try:
                result = run_case(
                    candidate, controller_mutator=controller_mutator
                )
            except Exception:  # noqa: BLE001 - a crash still reproduces
                result = None
            if result is None or not result.ok:
                current = candidate
                improved = True
                break
    return current, spent


# ----------------------------------------------------------------------
# the campaign


@dataclass
class FailureRecord:
    """One failing case, as found and as shrunk."""

    original: FuzzCase
    shrunk: FuzzCase
    result: CaseResult
    """The *shrunk* case's result (what to debug first)."""

    def render(self) -> str:
        lines = [self.result.render()]
        if self.shrunk != self.original:
            lines.append(f"  shrunk from: {self.original.describe()}")
        lines.append(
            "  reproduce: repro.verify.generate_case"
            f"({self.original.seed}, {self.original.index})"
        )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign (the ``newton-repro verify`` payload)."""

    seed: int
    requested: int
    cases_run: int = 0
    graph_cases: int = 0
    """Cases that additionally ran a graph-session family."""
    rival_family_cases: int = 0
    """Cases that spoke a non-Newton command family."""
    commands_verified: int = 0
    checks: int = 0
    violations_found: int = 0
    divergences_found: int = 0
    shrink_executions: int = 0
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.cases_run}/{self.requested} cases "
            f"(seed {self.seed}, {self.graph_cases} with graph "
            f"sessions, {self.rival_family_cases} on rival command "
            f"families) — "
            f"{self.commands_verified} commands verified, "
            f"{self.checks} invariant checks, "
            f"{self.violations_found} violation(s), "
            f"{self.divergences_found} oracle divergence(s)"
        ]
        if self.ok:
            lines.append("all cases passed")
        else:
            lines.append(f"{len(self.failures)} case(s) FAILED:")
            lines.extend(record.render() for record in self.failures)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable report (the nightly CI artifact)."""
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "requested": self.requested,
            "cases_run": self.cases_run,
            "graph_cases": self.graph_cases,
            "rival_family_cases": self.rival_family_cases,
            "commands_verified": self.commands_verified,
            "checks": self.checks,
            "violations_found": self.violations_found,
            "divergences_found": self.divergences_found,
            "shrink_executions": self.shrink_executions,
            "ok": self.ok,
            "failures": [
                {
                    "original": record.original.to_dict(),
                    "shrunk": record.shrunk.to_dict(),
                    "messages": list(record.result.failures),
                    "violations": [
                        v.render() for v in record.result.violations[:50]
                    ],
                    "divergences": [
                        d.render() for d in record.result.divergences[:50]
                    ],
                }
                for record in self.failures
            ],
        }


def fuzz(
    count: int,
    seed: int = 0,
    *,
    controller_mutator: Optional[ControllerMutator] = None,
    shrink_budget: int = 40,
    progress: Optional[Callable[[CaseResult], None]] = None,
) -> FuzzReport:
    """Run a fuzz campaign of ``count`` cases drawn from ``seed``."""
    report = FuzzReport(seed=seed, requested=count)
    for index in range(count):
        case = generate_case(seed, index)
        result = run_case(case, controller_mutator=controller_mutator)
        report.cases_run += 1
        if case.graph != GRAPH_NONE:
            report.graph_cases += 1
        if case.family in RIVAL_COMMAND_FAMILIES:
            report.rival_family_cases += 1
        report.commands_verified += result.commands
        report.checks += result.checks
        report.violations_found += len(result.violations)
        report.divergences_found += len(result.divergences)
        if progress is not None:
            progress(result)
        if not result.ok:
            shrunk, spent = shrink_case(
                case,
                controller_mutator=controller_mutator,
                budget=shrink_budget,
            )
            report.shrink_executions += spent
            shrunk_result = (
                result
                if shrunk == case
                else run_case(shrunk, controller_mutator=controller_mutator)
            )
            report.failures.append(
                FailureRecord(
                    original=case, shrunk=shrunk, result=shrunk_result
                )
            )
    return report
