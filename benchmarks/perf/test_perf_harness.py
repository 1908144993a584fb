"""Self-test of the benchmark harness on a tiny cell.

Run from the repository root with ``pytest benchmarks/perf -q``; it is
outside the tier-1 test paths.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import pytest

import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
from repro.campaign import RunSpec  # noqa: E402

TINY = RunSpec(
    campaign="perf",
    seed=3,
    architecture="tiered",
    workload="serving",
    fault_profile="backhaul",
    mobility="stationary",
    members=6,
    run_length_s=8.0,
)


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """One untraced and one traced run of the tiny cell, in this process."""
    untraced = child.run_cell(TINY, str(tmp_path_factory.mktemp("untraced")))
    untraced["peak_rss_mb"] = child.peak_rss_mb()
    untraced["speed"] = 1.0
    with layers.LayerTrace() as trace:
        patched = [(owner, name, original) for owner, name, original in trace.patched]
        wrapped = [vars(owner)[name] for owner, name, _ in patched]
        traced = child.run_cell(TINY, str(tmp_path_factory.mktemp("traced")))
    traced["layers"] = trace.metrics()
    traced["loop_s"] = trace.loop_s
    traced["speed"] = 1.0
    return {"untraced": untraced, "traced": traced, "patched": patched, "wrapped": wrapped}


def _declared(kind):
    with open(run.DECLARATION, encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


def test_emitted_metric_names_equal_declared(measured):
    setups = [{"setup_s": 0.3, "import_s": 0.25, "speed": 1.0}]
    runs = [measured["untraced"]]
    assert set(run.samples(runs, setups)) == _declared("end_to_end")
    assert set(run.per_layer_metrics(measured["traced"], runs, setups)) == _declared("per_layer")


def test_every_wrapped_attribute_is_restored(measured):
    assert measured["patched"]
    for (owner, name, original), wrapper in zip(measured["patched"], measured["wrapped"]):
        assert wrapper is not original
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} left wrapped"


def test_traced_digest_equals_untraced(measured):
    assert not measured["untraced"]["violations"]
    assert measured["traced"]["digest"] == measured["untraced"]["digest"]


def test_engine_self_time_plus_label_rollup_is_loop_time(measured):
    metrics = measured["traced"]["layers"]
    accounted = metrics["engine.self_s"] + metrics["unmapped.s"] + sum(
        metrics[f"rollup.{layer}.s"] for layer in layers.LAYERS
    )
    assert metrics["engine.self_s"] >= 0
    assert accounted == pytest.approx(measured["traced"]["loop_s"], rel=0.05)


def test_host_probes_leave_their_time_out_and_restore_sigalrm():
    handler = signal.getsignal(signal.SIGALRM)
    host = child.HostSpeed()
    with host:
        started, clocked = time.perf_counter(), host.clock()
        while time.perf_counter() - started < 0.2:
            pass
        wall, work = time.perf_counter() - started, host.clock() - clocked
    assert len(host.probes) >= 3
    assert work == pytest.approx(wall - host.probed_s, abs=1e-3)
    assert host.speed() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_gain_needs_paired_runs():
    parent = [1.0 + 0.01 * i for i in range(10)]
    faster = [0.8 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.15, paired=True) == "gain"
    assert compare.verdict(parent, faster, "lower", 0.15, paired=False) == "no regression"
    slower = [1.2 * value for value in parent]
    assert compare.verdict(parent, slower, "lower", 0.15, paired=True) == "regression"
