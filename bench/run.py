"""Run the Newton benchmark.

    PYTHONPATH=src python bench/run.py --seed S [--trace] [--workload NAME] [--out FILE]

Without ``--workload`` every workload runs, one after another, each in a
fresh interpreter, and a table of every metric (median, IQR, n) is
printed. With ``--workload`` one workload runs in this process and the
last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}`` — end-to-end metrics,
or with ``--trace 1`` per-layer metrics — as ``BENCHMARK.json`` names
them. ``--trace`` also writes the run's spans to
``bench/out/<workload>.trace.json``. ``--smoke`` shrinks one workload to
one short pass, for the self-tests; its results are never written.

Every workload runs on one thread (no channel pool, no worker
processes, single-threaded BLAS) because the benchmark host has two
shared cores.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

from record import BENCH_DIR, ROOT, SCHEMA, SIMULATED, format_table, load_spec, summarize

OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 2
"""Passes per untraced run however long they take, so each host metric
has a spread."""


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, *, smoke: bool = False,
            trace: bool = False, faults=frozenset()) -> dict:
    """One workload's record: end-to-end metrics, or per-layer metrics
    with ``trace``."""
    from workloads import WORKLOADS, run_instance

    spec = load_spec()
    cls = WORKLOADS[name]
    record: Dict = {"workload": name, "op": cls.op}
    if not trace:
        workload = cls(seed, smoke=smoke, faults=faults)
        setups = run_instance(
            workload,
            0 if smoke else seconds,
            min_passes=1 if smoke else MIN_PASSES,
            setups=1 if smoke else cls.setups,
            warm=not smoke,
        )
        passes = workload.passes
        values = {
            "setup_s": setups,
            "ops_per_s": [p.work / p.work_seconds for p in passes],
            "peak_rss_mb": [_peak_rss_mb()],
            "sim_cycles": [passes[0].sim_cycles],
        }
        record["metrics"] = {
            metric["name"]: summarize(
                values[metric["name"]],
                "sim" if metric["name"] in SIMULATED else "host",
                metric["unit"],
            )
            for metric in spec["end_to_end"]
        }
        record["sim"] = workload.sim_metrics()
        attempted, failed = workload.attempted, workload.failed
    else:
        record["layers"], attempted, failed = _trace_layers(
            cls, spec, seed=seed, smoke=smoke, faults=faults
        )
    record.update(correct=failed == 0, attempted=attempted, failed=failed)
    return record


def _trace_layers(cls, spec: dict, *, seed: int, smoke: bool, faults):
    """Per-layer metrics: counters from an untraced set-up and pass, self
    times from a traced one, and the difference between the two passes'
    wall times. Returns the metrics and the operations attempted and
    failed in both runs."""
    from layers import host_metrics, instrument
    from tracing import Tracer, write_chrome_trace
    from workloads import run_instance

    untraced = cls(seed, smoke=smoke, faults=faults)
    run_instance(untraced, 0, min_passes=1, warm=not smoke)
    untraced_wall = untraced.passes[0].wall
    layers = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    produced = untraced.telemetry.metrics()
    produced.update(untraced.sim_metrics())
    attempted, failed = untraced.attempted, untraced.failed
    # Free its set-up first: two resident copies of models-e2e's weights
    # would double the peak memory.
    del untraced
    gc.collect()

    tracer = Tracer()
    with tracer:
        instrument(tracer)
        traced = cls(seed, smoke=smoke, faults=faults)
        run_instance(traced, 0, min_passes=1, warm=False, check=False)
    traced_wall = traced.passes[0].wall
    spans = tracer.spans()
    produced.update(host_metrics(spans))
    datapath_s = produced["core.datapath.self_s"]
    produced["core.datapath.macs_per_s"] = (
        traced.telemetry.functional_macs / datapath_s if datapath_s else 0.0
    )
    produced["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    unknown = set(produced) - set(layers)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    layers.update(produced)
    if not smoke:
        write_chrome_trace(spans, OUT_DIR / f"{cls.name}.trace.json")
    return layers, attempted + traced.attempted, failed + traced.failed


def result_line(record: dict, spec: dict) -> str:
    """The result line: one value per ``BENCHMARK.json`` metric."""
    if "layers" in record:
        metrics = {
            m["name"]: {"value": record["layers"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": record["metrics"][m["name"]]["median"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def _runset(args, workloads: Dict[str, dict]) -> dict:
    return {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "workloads": workloads,
    }


def _child(args, name: str, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its record."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{name}.{'traced' if trace else 'untraced'}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out),
    ]
    out.unlink(missing_ok=True)
    completed = subprocess.run(command, stdout=subprocess.DEVNULL)
    # Exit 1 still writes the record: some operations failed.
    if not out.exists() or completed.returncode not in (0, 1):
        raise RuntimeError(f"{name} exited with {completed.returncode}")
    return json.loads(out.read_text())["workloads"][name]


def _write(path: Path, runset: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(runset, indent=1))


def main(argv: Optional[list] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help=f"seconds of timed passes per run (at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write the run-set here (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass of one workload, for the self-tests; writes nothing")
    args = parser.parse_args(argv)
    if args.smoke and (args.out or not args.workload):
        parser.error("--smoke runs one --workload and writes no result")

    if args.workload:
        record = measure(
            args.workload, args.seed, args.seconds, smoke=args.smoke, trace=bool(args.trace)
        )
        runset = _runset(args, {args.workload: record})
        print(format_table(runset))
        if args.out:
            _write(args.out, runset)
        print(result_line(record, spec))
        return 0 if record["correct"] else 1

    records = {}
    for name in names:
        record = _child(args, name, 0)
        if args.trace:
            traced = _child(args, name, 1)
            record["layers"] = traced["layers"]
            record["attempted"] += traced["attempted"]
            record["failed"] += traced["failed"]
            record["correct"] = record["failed"] == 0
        records[name] = record
    runset = _runset(args, records)
    print(format_table(runset))
    if args.out:
        _write(args.out, runset)
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    # Before numpy loads: one BLAS thread, like the rest of the run.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
