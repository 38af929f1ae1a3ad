"""The benchmark definition (``BENCHMARK.json``) and result records.

A result file is one run-set — one run of every workload it names — or a
bundle ``{"runsets": [...]}`` of several; ``FILE#N`` names run-set ``N``
of a bundle. In a run-set, every metric reads
``{"clock", "unit", "median", "iqr", "n", "values"}``: host-clock values
are per pass (per set-up for ``setup_s``), simulated ones are exact.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SCHEMA = "newton-bench/v1"

SIMULATED = frozenset({"sim_cycles"})
"""End-to-end metrics on the simulated clock (the rest are host time)."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(values: Sequence[float], clock: str, unit: str) -> dict:
    """Median, interquartile range and count of per-pass values."""
    values = [float(v) for v in values]
    return {
        "clock": clock,
        "unit": unit,
        "median": statistics.median(values),
        "iqr": iqr(values),
        "n": len(values),
        "values": values,
    }


def load_runsets(reference: str) -> List[dict]:
    """The run-sets in ``FILE`` or the one named by ``FILE#N``."""
    path, _, index = reference.partition("#")
    document = json.loads(Path(path).read_text())
    runsets = document.get("runsets", [document])
    return [runsets[int(index)]] if index else runsets


def format_table(runset: Dict) -> str:
    """Every workload's metrics, one row each, for reading."""
    lines = [
        f"{'workload':<15} {'metric':<40} {'clock':<5} {'median':>14} {'IQR':>12}"
        f" {'n':>3}  unit"
    ]
    for workload, record in runset["workloads"].items():
        status = "ok" if record["correct"] else "FAILED"
        lines.append(
            f"{workload:<15} ({record['op']}; {status}: {record['failed']} of "
            f"{record['attempted']} operations failed)"
        )
        for name, metric in record.get("metrics", {}).items():
            lines.append(
                f"{'':<15} {name:<40} {metric['clock']:<5} {metric['median']:>14.6g} "
                f"{metric['iqr']:>12.4g} {metric['n']:>3}  {metric['unit']}"
            )
        for name, value in record.get("sim", {}).items():
            lines.append(f"{'':<15} {name:<40} {'sim':<5} {value:>14.6g} {'':>12} {'':>3}")
        for name, value in record.get("layers", {}).items():
            lines.append(f"{'':<15} {name:<40} {'layer':<5} {value:>14.6g}")
    return "\n".join(lines)
