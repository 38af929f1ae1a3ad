"""Recorded gateway results: the event order of the virtual-time kernel.

Every ``GatewayResult`` field depends on the exact order in which the
gateway's arrivals, window deadlines, batch dispatches and completions
are drawn from the kernel. The two fixtures beside this file were
recorded from a known-good gateway; a kernel or gateway change that
reorders any two events shows up here as a changed field.

* ``gateway_results.json.gz`` — a grid of 720 runs on
  ``FixedServiceReplica(S)``: three trace kinds, four loads, five
  (window, max_batch) policies, three fleets, one or two priority
  classes, two seeds; ``queue_depth`` 8 at load 3.0 (evictions and shed
  continuations); three decode sessions in every fifth case.
* ``gateway_serve_trace.json`` (slow) — the benchmark's ``serve-trace``
  runs on timing-only Newton replicas at seeds 0 and 1, with each
  replica's sequence of batch sizes.

Regenerate (only from a gateway known to be right)::

    PYTHONPATH=src python tests/serving/test_gateway_recorded.py
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro.serving import (
    FixedServiceReplica,
    GatewayConfig,
    ServingGateway,
    SLOClass,
    backend_replica_factory,
    bursty_trace,
    decode_sessions,
    interarrival_for_load,
    make_trace,
    poisson_trace,
)

HERE = Path(__file__).parent
GRID_FIXTURE = HERE / "gateway_results.json.gz"
SERVE_TRACE_FIXTURE = HERE / "gateway_serve_trace.json"

S = 1000.0
KINDS = ("poisson", "bursty", "diurnal")
LOADS = (0.3, 0.8, 1.2, 3.0)
POLICIES = ((0.0, 1), (0.0, 4), (S, 2), (2 * S, 8), (3 * S, 64))
FLEETS = ((1, None), (2, None), (1, 4))
CLASS_SETUPS = (
    ((SLOClass("interactive", p99_budget=5 * S),), None),
    (
        (
            SLOClass("interactive", priority=2, p99_budget=5 * S),
            SLOClass("bulk", priority=1, p99_budget=20 * S),
        ),
        (("interactive", 0.6), ("bulk", 0.4)),
    ),
)
SEEDS = (0, 1)
REQUESTS = 300


def record(result) -> dict:
    """Every field of a ``GatewayResult`` as plain JSON values."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def grid_cases() -> Iterator[Tuple[str, object, GatewayConfig, tuple]]:
    """``(case id, trace, config, sessions)`` for every grid case."""
    index = 0
    for kind in KINDS:
        for seed in SEEDS:
            for load in LOADS:
                for window, max_batch in POLICIES:
                    for min_replicas, max_replicas in FLEETS:
                        for classes, class_mix in CLASS_SETUPS:
                            trace = make_trace(
                                kind,
                                interarrival_for_load(S, load, min_replicas),
                                REQUESTS,
                                seed,
                                class_mix=class_mix,
                            )
                            config = GatewayConfig(
                                window_cycles=window,
                                max_batch=max_batch,
                                queue_depth=8 if load == 3.0 else 512,
                                min_replicas=min_replicas,
                                max_replicas=max_replicas,
                                classes=classes,
                            )
                            sessions = ()
                            if index % 5 == 0:
                                gap = ((index // 5) % 3) * S
                                sessions = decode_sessions(
                                    3, steps=4, interarrival=gap,
                                    cls="interactive",
                                )
                            case = (
                                f"{kind}/seed{seed}/load{load}/w{window:g}"
                                f"-b{max_batch}/fleet{min_replicas}"
                                f"-{max_replicas}/classes{len(classes)}"
                                f"/sessions{len(sessions)}"
                            )
                            yield case, trace, config, sessions
                            index += 1


def run_grid_case(trace, config, sessions) -> dict:
    gateway = ServingGateway(lambda: FixedServiceReplica(S), config)
    return record(gateway.run(trace, sessions))


# ----------------------------------------------------------------------
# serve-trace: the benchmark's runs on timing-only Newton replicas

SERVE_LOADS = (0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0)
SERVE_REQUESTS = 5000


def _sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def serve_trace_runs(seed: int, service: float) -> List[tuple]:
    """The nine ``(trace, config)`` runs of a ``serve-trace`` pass."""
    budget = 20.0 * service
    ladder = GatewayConfig(
        window_cycles=2 * service,
        max_batch=8,
        min_replicas=2,
        classes=(SLOClass("interactive", p99_budget=budget),),
    )
    runs = [
        (
            poisson_trace(
                interarrival_for_load(service, load, 2),
                SERVE_REQUESTS,
                seed=_sub_seed(seed, i),
            ),
            ladder,
        )
        for i, load in enumerate(SERVE_LOADS)
    ]
    bursty = bursty_trace(
        interarrival_for_load(service, 0.7, 1),
        SERVE_REQUESTS,
        seed=_sub_seed(seed, len(SERVE_LOADS)),
        class_mix=(("interactive", 3.0), ("batch", 1.0)),
    )
    runs.append(
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
    return runs


def newton_factory():
    from repro.experiments.common import eval_config, eval_timing
    from repro.workloads.catalog import layer_by_name

    layer = layer_by_name("BERTs1")
    return backend_replica_factory(
        "newton",
        m=layer.m,
        n=layer.n,
        config=eval_config(),
        timing=eval_timing(),
        functional=False,
    )


def run_serve_trace(seed: int) -> List[dict]:
    """Each run's result record plus its replicas' batch-size strings
    (one digit per batch, in dispatch order; sizes are at most 8)."""
    factory = newton_factory()
    probe = factory()
    service = probe.service_cycles
    probe.close()
    records = []
    for trace, config in serve_trace_runs(seed, service):
        sizes: List[List[int]] = []

        def build():
            replica = factory()
            log: List[int] = []
            sizes.append(log)
            batch_cycles = replica.batch_cycles

            def logged(size: int) -> float:
                log.append(size)
                return batch_cycles(size)

            replica.batch_cycles = logged
            return replica

        gateway = ServingGateway(build, config)
        try:
            entry = record(gateway.run(trace))
        finally:
            gateway.close()
        entry["replica_batches"] = ["".join(map(str, log)) for log in sizes]
        records.append(entry)
    return records


def _load(path: Path) -> dict:
    data = path.read_bytes()
    if path.suffix == ".gz":
        data = gzip.decompress(data)
    return json.loads(data)


def _first_difference(expected, actual, path="") -> str:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if expected.get(key) != actual.get(key):
                return _first_difference(
                    expected.get(key), actual.get(key), f"{path}.{key}"
                )
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (a, b) in enumerate(zip(expected, actual)):
            if a != b:
                return _first_difference(a, b, f"{path}[{i}]")
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
    return f"{path}: recorded {expected!r}, got {actual!r}"


@pytest.mark.parametrize("kind", KINDS)
def test_grid_replays_recorded_results(kind):
    recorded = _load(GRID_FIXTURE)
    cases = [case for case in grid_cases() if case[0].startswith(kind + "/")]
    assert len(cases) == len(recorded) // len(KINDS) == 240
    for case, trace, config, sessions in cases:
        actual = run_grid_case(trace, config, sessions)
        if actual != recorded[case]:
            pytest.fail(
                f"{case}: {_first_difference(recorded[case], actual)}"
            )


@pytest.mark.slow
@pytest.mark.parametrize("seed", (0, 1))
def test_serve_trace_replays_recorded_results(seed):
    recorded = _load(SERVE_TRACE_FIXTURE)[str(seed)]
    actual = run_serve_trace(seed)
    assert len(actual) == len(recorded) == 9
    for run, (expected, got) in enumerate(zip(recorded, actual)):
        if got != expected:
            pytest.fail(f"run {run}: {_first_difference(expected, got)}")


def _has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_nan(v) for v in value)
    return False


def _write(path: Path, entries: Dict[str, object]) -> None:
    """One entry per line, so a re-recording diffs case by case."""
    for key, value in entries.items():
        if _has_nan(value):  # NaN != NaN would make a case unreplayable
            raise ValueError(f"{key}: a NaN field cannot be compared")
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in entries.items()
    ]
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
    else:
        path.write_text(text)


if __name__ == "__main__":
    grid = {
        case: run_grid_case(trace, config, sessions)
        for case, trace, config, sessions in grid_cases()
    }
    _write(GRID_FIXTURE, grid)
    _write(SERVE_TRACE_FIXTURE, {str(seed): run_serve_trace(seed) for seed in (0, 1)})
    print(f"recorded {len(grid)} grid cases and 2 serve-trace passes")
