"""Compare two commits on the benchmark, workload by workload.

Run from the repository root, either on two result files::

    python benchmarks/perf/compare.py PARENT.json CHANGE.json

which are ``results/BENCH_<sha>.json`` documents written by ``run.py``,
or on two checkouts, measured in alternation::

    python benchmarks/perf/compare.py --paired PARENT_DIR CHANGE_DIR [--workload W] [--seed S]

The paired mode runs ten pairs of this benchmark's children on the
``src`` of each checkout, one parent and one change child per pair, the
order swapped every pair, so a slow spell of the host hits both sides
alike.  It also checks that both sides produce the same output digests.

One row per workload and end-to-end metric gives each side's median and
quartiles, the change of the median, and a verdict against the bound
BENCHMARK.json fixes for the metric:

* ``gain`` -- paired mode only: the change wins at least nine pairs in
  ten, ties counting for neither, and the medians differ by more than
  the parent's quartile spread;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``unresolved`` -- the parent's own quartile spread is wider than the
  bound and not every change run beats every parent run;
* ``no regression`` -- otherwise.

Exits 1 when any row is a regression or, in paired mode, any run fails
or the two sides' outputs differ.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

import workloads
from run import DECLARATION, WORK, ChildError, quartiles, samples, spawn

SIDES = ("parent", "change")
#: Pairs per workload in paired mode: the fewest the gain rule accepts.
PAIRS = 10


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float, paired: bool
) -> str:
    p, c = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    parent_spread = p["q3"] - p["q1"]
    if paired and len(parent) >= PAIRS:
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
        clear = abs(c["median"] - p["median"]) > parent_spread
        if 10 * wins >= 9 * len(parent) and worse_by < 0 and clear:
            return "gain"
    if worse_by > bound:
        return "regression"
    every_run_better = all(sign * (b - a) < 0 for a in parent for b in change)
    if parent_spread / p["median"] > bound and not every_run_better:
        return "unresolved"
    return "no regression"


def rows(
    workload: str,
    before: Dict[str, List[float]],
    after: Dict[str, List[float]],
    declaration: Dict[str, Any],
    paired: bool,
) -> List[List[str]]:
    table = []
    for metric in declaration["end_to_end"]:
        name = metric["name"]
        p, c = quartiles(before[name]), quartiles(after[name])
        table.append([
            workload,
            f"{name} ({metric['unit']})",
            f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] n={p['n']}",
            f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] n={c['n']}",
            f"{(c['median'] - p['median']) / p['median']:+.1%}",
            f"{metric['bound']:.0%} {metric['better']}",
            verdict(before[name], after[name], metric["better"], metric["bound"], paired),
        ])
    return table


def measure_pairs(checkouts: Dict[str, str], workload: str, seed: int) -> Dict[str, Dict[str, Any]]:
    """Alternate parent and change children; pair i holds one of each side."""
    children: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        side: {"runs": [], "setups": []} for side in SIDES
    }
    sources = {side: os.path.join(checkouts[side], "src") for side in SIDES}
    for side in SIDES:
        spawn("setup", workload, seed, None, sources[side])  # fills bytecode caches
    for pair in range(PAIRS):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            children[side]["setups"].append(spawn("setup", workload, seed, None, sources[side]))
            children[side]["runs"].append(spawn("run", workload, seed, None, sources[side]))
    return {
        side: {
            "samples": samples(child["runs"], child["setups"]),
            "digests": {run["digest"] for run in child["runs"]},
            "violations": sum(len(run["violations"]) for run in child["runs"]),
        }
        for side, child in children.items()
    }


def print_table(table: List[List[str]]) -> None:
    header = [
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "delta", "bound", "verdict",
    ]
    widths = [max(len(row[i]) for row in [header] + table) for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two commits on the benchmark.")
    parser.add_argument("parent", help="parent BENCH_<sha>.json, or checkout with --paired")
    parser.add_argument("change", help="change BENCH_<sha>.json, or checkout with --paired")
    parser.add_argument("--paired", action="store_true", help="measure two checkouts in turn")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(DECLARATION, encoding="utf-8") as handle:
        declaration = json.load(handle)

    table: List[List[str]] = []
    failed = False
    if args.paired:
        checkouts = dict(zip(SIDES, (args.parent, args.change)))
        os.makedirs(WORK, exist_ok=True)
        for side in SIDES:
            print(f"{side} {os.path.abspath(checkouts[side])}")
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            try:
                measured = measure_pairs(checkouts, workload, args.seed)
            except ChildError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            digests = measured["parent"]["digests"] | measured["change"]["digests"]
            violations = measured["parent"]["violations"] + measured["change"]["violations"]
            if len(digests) != 1 or violations:
                failed = True
                print(f"{workload}: {len(digests)} distinct digests, {violations} violations")
            before, after = (measured[side]["samples"] for side in SIDES)
            table += rows(workload, before, after, declaration, paired=True)
    else:
        documents = []
        for path in (args.parent, args.change):
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        for side, document in zip(SIDES, documents):
            print(f"{side} {document['git_sha']} on {document['host']['cpu_model']}")
        parent, change = documents
        for workload in parent["workloads"]:
            if workload in change["workloads"]:
                before = parent["workloads"][workload]["samples"]
                after = change["workloads"][workload]["samples"]
                table += rows(workload, before, after, declaration, paired=False)
    print_table(table)
    return 1 if failed or any(row[-1] == "regression" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
