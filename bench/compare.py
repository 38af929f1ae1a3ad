"""Compare two benchmark results metric by metric.

    python bench/compare.py PARENT CHANGE

Each side is a result file written by ``bench/run.py --out`` (one
run-set), a bundle of run-sets such as ``bench/results/seed.json``, or
``FILE#N`` for run-set ``N`` of a bundle. A side with several run-sets
is sampled by its per-run medians; a side with one run-set by the
per-pass values of that run.

For every workload and end-to-end metric the verdict is, with the bound
``BENCHMARK.json`` fixes for the metric, the first that applies of:

* ``unresolved`` — either side's spread (IQR over median) exceeds the
  bound (``better`` instead when there are at least ten pairs and every
  change sample beats every parent sample);
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``better`` — over at least ten pairs (parent and change samples paired
  in order, ties counting for neither) the change wins at least 9 in 10,
  and the medians differ by more than the parent's IQR;
* ``unchanged``.

Simulated results (the workloads' ``sim`` values) of the same seed must
be identical; each one that moved between the first run-sets of the two
sides is listed. Exits 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Dict, List, Sequence

from record import iqr, load_runsets, load_spec

WIN_SHARE = 0.9
MIN_PAIRS = 10
"""Fewer pairs than this never support a ``better`` verdict."""


def _rel_spread(values: Sequence[float]) -> float:
    median = statistics.median(values)
    return iqr(values) / abs(median) if median else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """The verdict on one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    if max(_rel_spread(parent), _rel_spread(change)) > bound:
        beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
        return "better" if beats_all and len(pairs) >= MIN_PAIRS else "unresolved"
    if p_med and sign * (c_med - p_med) / abs(p_med) < -bound:
        return "worse"
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (c_med - p_med) > iqr(parent)
    ):
        return "better"
    return "unchanged"


def _samples(runsets: List[dict], workload: str, metric: str) -> List[float]:
    records = [rs["workloads"][workload]["metrics"][metric] for rs in runsets]
    if len(records) == 1:
        return records[0]["values"]
    return [r["median"] for r in records]


def compare(parent: List[dict], change: List[dict], spec: dict) -> Dict[str, int]:
    """Print the comparison; returns the count of each verdict."""
    counts: Dict[str, int] = {}
    workloads = [
        w["name"]
        for w in spec["workloads"]
        if all("metrics" in rs["workloads"].get(w["name"], {}) for rs in parent + change)
    ]
    print(f"{'workload':<15} {'metric':<12} {'parent median':>14} {'IQR':>10} {'n':>3}"
          f" {'change median':>14} {'IQR':>10} {'n':>3}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = _samples(parent, workload, name)
            c = _samples(change, workload, name)
            result = verdict(p, c, metric["better"], metric["bound"])
            counts[result] = counts.get(result, 0) + 1
            print(
                f"{workload:<15} {name:<12}"
                f" {statistics.median(p):>14.6g} {iqr(p):>10.4g} {len(p):>3}"
                f" {statistics.median(c):>14.6g} {iqr(c):>10.4g} {len(c):>3}  {result}"
            )
        before = parent[0]["workloads"][workload].get("sim", {})
        after = change[0]["workloads"][workload].get("sim", {})
        moved = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
        for key in moved:
            print(f"{workload:<15} simulated {key} moved: {before.get(key)} -> {after.get(key)}")
        if not moved:
            print(f"{workload:<15} simulated results identical")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    counts = compare(load_runsets(args.parent), load_runsets(args.change), load_spec())
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
