"""The repository benchmark: four seeded simulator workloads, digest-checked.

Run from the repository root::

    python benchmarks/perf/run.py                       # every workload, 5 repeats + a traced run
    python benchmarks/perf/run.py --workload tier-backhaul --seed 7 --repeats 3
    python benchmarks/perf/run.py --workload beacon-grid --seed 3 --seconds 20 --trace 0
    python benchmarks/perf/run.py --seed 2 --repeats 1 --trace 0 --write-reference

Each repeat runs in a fresh child interpreter (``child.py``), one at a
time, so no in-process state carries from one repeat to the next.  A
workload first times several set-up children, then timed repeats --
``--repeats`` of them, or as many as fit in ``--seconds`` -- and then,
unless ``--trace 0``, one traced run that reports the per-layer metrics.

Every run's metric-vector digest is checked against ``reference.json``
for that seed, or, for a seed without a reference, against the other
runs of the invocation.  A run fails on an exception, an invariant
violation or a digest mismatch; the exit code is then 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  Without ``--trace``
it carries the end-to-end metrics of every workload, prefixed by the
workload name, and the full report goes to
``results/BENCH_<git sha>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

#: Set-up children per workload; set-up time is their median.
SETUP_REPEATS = 5
#: Timed repeats a --seconds budget still runs when one repeat overruns it.
MIN_REPEATS = 3
#: How many untraced repeats' time the traced run is budgeted for.
TRACE_COST = 3.0
#: Whole-invocation limit under --seconds; children are killed past it.
HARD_LIMIT_S = 170.0
#: Child time limit without --seconds.
CHILD_LIMIT_S = 900.0
#: Metrics of the campaign's runs; zero for the cells.
CAMPAIGN_METRICS = (
    "campaign.runs",
    "campaign.run_p50_s",
    "campaign.run_p90_s",
    "campaign.orchestration_s",
)


class ChildError(RuntimeError):
    """A child exited non-zero, timed out or printed no result."""


def spawn(
    mode: str, workload: str, seed: int, deadline: Optional[float], src: str = SRC
) -> Dict[str, Any]:
    """Run ``child.py`` on the ``repro`` package under ``src``; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = WORK
    command = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed), WORK]
    limit = CHILD_LIMIT_S if deadline is None else max(1.0, deadline - time.monotonic())
    # Own session, so a timeout also kills any process the child started.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=limit)
    except BaseException as exc:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            message = f"{mode} {workload} seed {seed}: no result within {limit:.0f}s"
            raise ChildError(message) from None
        raise
    if child.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise ChildError(f"{mode} {workload} seed {seed}: exit {child.returncode}\n{tail}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} {workload} seed {seed}: printed no result")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles``) and count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def samples(runs: List[Dict[str, Any]], setups: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """The end-to-end metrics' samples, one per child, times at the nominal host speed.

    A child's times are scaled by the host speed its probes saw while it
    worked (``child.HostSpeed``), so a spell in which the shared host
    runs everything slower moves both and cancels out.  The host times
    stay in ``runs`` and ``setups``.
    """

    def nominal(child: Dict[str, Any], seconds: float) -> float:
        return seconds * child["speed"]

    return {
        "wall_s": [nominal(run, run["wall_s"]) for run in runs],
        # Cells time World.run_for; a campaign has only its wall clock.
        "sim_s_per_s": [
            run["sim_s"] / nominal(run, run["loop_s"] or run["wall_s"]) for run in runs
        ],
        "setup_s": [nominal(setup, setup["setup_s"]) for setup in setups],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }


def per_layer_metrics(
    traced: Dict[str, Any], runs: List[Dict[str, Any]], setups: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The traced run's layer metrics plus those taken from the untraced children.

    Campaign metrics come from the untraced repeat with the median wall
    time, because the wrappers slow every run of the traced one.  The
    tracing overhead compares wall times at the nominal host speed; the
    other times are host seconds.
    """
    metrics = dict(traced["layers"])
    metrics["import_s"] = statistics.median(setup["import_s"] for setup in setups)
    untraced_wall = statistics.median(run["wall_s"] * run["speed"] for run in runs)
    metrics["trace.overhead_frac"] = traced["wall_s"] * traced["speed"] / untraced_wall - 1.0
    metrics.update(dict.fromkeys(CAMPAIGN_METRICS, 0.0))
    median_run = sorted(runs, key=lambda run: run["wall_s"])[len(runs) // 2]
    if "run_walls" in median_run:
        walls = median_run["run_walls"]
        metrics["campaign.runs"] = float(len(walls))
        metrics["campaign.run_p50_s"] = statistics.median(walls)
        metrics["campaign.run_p90_s"] = statistics.quantiles(walls, n=10)[8]
        metrics["campaign.orchestration_s"] = median_run["orchestration_s"]
    return metrics


def measure(
    workload: str,
    seed: int,
    repeats: int,
    seconds: Optional[int],
    traced: bool,
    expected: Optional[str],
    deadline: Optional[float],
) -> Dict[str, Any]:
    """Set-up children, timed repeats and the optional traced run of one workload."""
    started = time.monotonic()
    spawn("setup", workload, seed, deadline)  # fills bytecode caches; not timed
    setups = [spawn("setup", workload, seed, deadline) for _ in range(SETUP_REPEATS)]
    runs: List[Dict[str, Any]] = []
    failures: List[str] = []
    attempted = 0

    def attempt(mode: str) -> Optional[Dict[str, Any]]:
        nonlocal attempted
        attempted += 1
        try:
            return spawn(mode, workload, seed, deadline)
        except ChildError as exc:
            failures.append(str(exc))
            return None

    def more() -> bool:
        if seconds is None:
            return attempted < repeats
        if attempted < MIN_REPEATS:
            return True
        longest = max((run["wall_s"] for run in runs), default=0.0)
        reserve = longest * (1 + (TRACE_COST if traced else 0))
        return time.monotonic() - started + reserve <= seconds

    while more():
        result = attempt("run")
        if result is not None:
            runs.append(result)
    trace = attempt("trace") if traced else None

    checked = runs + ([trace] if trace is not None else [])
    if expected is None and checked:
        expected = checked[0]["digest"]
    for result in checked:
        if result["violations"]:
            failures.append(f"{len(result['violations'])} invariant violation(s)")
        elif result["digest"] != expected:
            failures.append(f"digest {result['digest'][:12]} != expected {expected[:12]}")
    report: Dict[str, Any] = {
        "why": workloads.why(workload),
        "digest": expected,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "runs": runs,
        "setups": setups,
    }
    if runs:
        report["samples"] = samples(runs, setups)
        report["end_to_end"] = {
            name: statistics.median(values) for name, values in report["samples"].items()
        }
        if trace is not None:
            report["per_layer"] = per_layer_metrics(trace, runs, setups)
    return report


def host_fingerprint() -> Dict[str, Any]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "nogit"
    return done.stdout.strip()


def print_report(workload: str, seed: int, report: Dict[str, Any], units: Dict[str, str]) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"== {workload} (seed {seed}): {attempted} attempted, {failed} failed")
    for failure in report["failures"]:
        print(f"   ! {failure}")
    for name, values in report.get("samples", {}).items():
        stats = quartiles(values)
        print(
            f"   {name:<14} {stats['median']:>12.4f} {units[name]:<8} "
            f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}"
        )
    if "per_layer" in report:
        print("   per layer (traced run):")
        for name, value in report["per_layer"].items():
            print(f"     {name:<34} {value:>14.6g} {units[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per workload")
    parser.add_argument("--seconds", type=int, help="time budget per workload; replaces --repeats")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="report end-to-end (0) or per-layer (1) metrics"
    )
    parser.add_argument("--write-reference", action="store_true", help="record this seed's digests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    with open(DECLARATION, encoding="utf-8") as handle:
        declaration = json.load(handle)
    units = {m["name"]: m["unit"] for m in declaration["end_to_end"] + declaration["per_layer"]}
    deadline = time.monotonic() + HARD_LIMIT_S if args.seconds else None
    reference: Dict[str, Dict[str, str]] = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    os.makedirs(WORK, exist_ok=True)

    reports: Dict[str, Dict[str, Any]] = {}
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        expected = None
        if not args.write_reference:
            expected = reference.get(workload, {}).get(str(args.seed))
        try:
            report = measure(
                workload, args.seed, args.repeats, args.seconds, args.trace != 0, expected, deadline
            )
        except ChildError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        print_report(workload, args.seed, report, units)
        reports[workload] = report

    wanted = "per_layer" if args.trace == 1 else "end_to_end"
    declared = {m["name"] for m in declaration[wanted]}
    for workload, report in reports.items():
        if wanted not in report:
            print(f"error: {workload}: no successful run to report", file=sys.stderr)
            return 1
        if set(report[wanted]) != declared:
            print(f"error: {workload}: metrics differ from BENCHMARK.json", file=sys.stderr)
            return 1

    failed = sum(report["failed"] for report in reports.values())
    if args.write_reference:
        if failed:
            print("error: not writing a reference from failing runs", file=sys.stderr)
            return 1
        for workload, report in reports.items():
            reference.setdefault(workload, {})[str(args.seed)] = report["digest"]
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.trace is None:
        os.makedirs(RESULTS, exist_ok=True)
        sha = git_sha()
        path = os.path.join(RESULTS, f"BENCH_{sha}.json")
        document = {
            "git_sha": sha,
            "host": host_fingerprint(),
            "seed": args.seed,
            "repeats": args.repeats,
            "seconds": args.seconds,
            "workloads": reports,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")

    single = len(reports) == 1 and args.trace is not None
    metrics = {
        (name if single else f"{workload}.{name}"): {"value": value, "unit": units[name]}
        for workload, report in reports.items()
        for name, value in report[wanted].items()
    }
    summary = {
        "correct": failed == 0,
        "attempted": sum(report["attempted"] for report in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
