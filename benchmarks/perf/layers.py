"""Per-layer tracing of one benchmark run, from outside the program.

:class:`LayerTrace` wraps public functions and methods of ``repro``
where callers look them up, so a function imported by name into two
modules is patched in both.  While installed it

* attaches a :class:`repro.obs.Profiler` to every engine that runs, and
  rolls engine event labels up into layers by prefix;
* records a span for every wrapped call -- name, start, end and parent,
  with the dispatched engine event as the root -- and keeps per-name
  aggregates in memory plus a bounded reservoir sample of raw spans;
* counts calls at a few hot boundaries without timing them;
* reads each finished run's serving, DAG, tier and obs ledgers.

Self time of a span is its duration minus the wrapped spans it made.
Leaving the ``with`` block restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import random
import re
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import Profiler

#: Invariant classes the campaign scenarios attach; each gets a span.
INVARIANTS = (
    "TaskConservation",
    "LeaseExclusivity",
    "SingleHead",
    "MembershipAgreement",
    "QuorumSafety",
    "ChannelConservation",
    "StrandedTasks",
    "ServingConservation",
    "DagConservation",
    "TierConservation",
)

#: Timed boundaries: (module, attribute, span name).
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.spatial", "SpatialGrid.within", "spatial.within"),
    ("repro.net.channel", "WirelessChannel.broadcast", "channel.broadcast"),
    ("repro.net.channel", "WirelessChannel.unicast", "channel.unicast"),
    ("repro.core.architectures", "link_lifetime", "dwell.link_lifetime"),
    ("repro.core.vcloud", "VehicularCloud.submit", "vcloud.submit"),
    ("repro.core.vcloud", "candidates_from_pool", "scheduler.candidates"),
    ("repro.dag.scheduler", "candidates_from_pool", "scheduler.candidates"),
    ("repro.core.replication", "ReplicationManager.store_file", "replication.write"),
    ("repro.core.replication", "ReplicationManager.read_file", "replication.read"),
    ("repro.serve.gateway", "ServiceGateway.submit", "gateway.submit"),
    ("repro.dag.scheduler", "DagScheduler.submit", "dag.submit"),
    ("repro.dag.redundancy", "RedundancyPlanner.plan", "redundancy.plan"),
    ("repro.tier.offloader", "TieredOffloader.submit", "tier.submit"),
    ("repro.tier.backhaul", "BackhaulLink.transmit", "backhaul.transmit"),
    ("repro.chaos.invariants", "InvariantSuite.check_now", "invariants.check"),
    *(
        ("repro.chaos.invariants", f"{name}.check", f"invariants.{name}")
        for name in INVARIANTS
    ),
    ("repro.campaign.orchestrator", "write_json_report", "obs.export"),
    ("repro.obs.tracer", "Tracer.export_jsonl", "obs.export"),
    ("repro.obs.events", "EventLog.export_jsonl", "obs.export"),
)

#: Boundaries too hot to time: (module, attribute, counter name).
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Engine.schedule_at", "engine.schedule"),
    ("repro.sim.metrics", "MetricsRegistry.increment", "metrics.increment"),
)

#: Engine event labels -> (layer, metric stem or None); first match wins.
LABELS: Tuple[Tuple["re.Pattern[str]", str, Optional[str]], ...] = (
    (re.compile(r"beacon:"), "net", "beacon"),
    (re.compile(r"frame-delivery$"), "net", "channel.delivery"),
    (re.compile(r"mobility-step$"), "mobility", "mobility.step"),
    (re.compile(r"fault:|backhaul-fault/|storage-fault/"), "faults", None),
    (re.compile(r"task-result$"), "core", "vcloud.result"),
    (
        re.compile(
            r"task-|storage|dynamic-vc-|chaos-(task|storage-workload|seed-files)$"
            r"|[^/]+/(lease-sweep|anti-entropy)$"
        ),
        "core",
        None,
    ),
    (re.compile(r"serve/[^/]+/tick$"), "serve", "gateway.tick"),
    (re.compile(r"serve-|campaign-serving-start$"), "serve", None),
    (re.compile(r"backhaul-transit$"), "tier", "backhaul.transit"),
    (re.compile(r"cloud-response$|campaign-tier-task$"), "tier", None),
    (re.compile(r"dag-|campaign-graph-submit$"), "dag", None),
    (re.compile(r"chaos-invariant-check$"), "chaos", None),
)

LAYERS = ("net", "mobility", "core", "serve", "dag", "tier", "chaos", "faults")

#: Raw spans kept in the reservoir sample.
SAMPLE_LIMIT = 2000


def classify(label: str) -> Tuple[Optional[str], Optional[str]]:
    """The (layer, metric stem) of an engine event label; (None, None) if unmapped."""
    for pattern, layer, stem in LABELS:
        if pattern.match(label):
            return layer, stem
    return None, None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _EventProfiler(Profiler):
    """A profiler that also closes the root span of each dispatched event."""

    def __init__(self, trace: "LayerTrace") -> None:
        super().__init__()
        self._trace = trace

    def record(self, label: str, seconds: float) -> None:
        super().record(label, seconds)
        self._trace._close_event(label, seconds)


class LayerTrace:
    """Installs the layer wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.profiler = _EventProfiler(self)
        self.loop_s = 0.0
        #: span name -> [calls, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        #: Ledger totals read from every finished run.
        self.ledgers: Counter = Counter()
        self.sample: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.patched: List[Tuple[Any, str, Any]] = []
        self._seen = 0
        self._rng = random.Random(0)
        self._ids = itertools.count(1)
        self._stack: List[List[Any]] = []
        self._event_id: Optional[int] = None
        self._in_loop = False
        self._scenario: Any = None
        self._origin = time.perf_counter()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            for module, attribute, name in SPANS:
                self._patch(module, attribute, self._span(name))
            for module, attribute, name in COUNTS:
                self._patch(module, attribute, self._count(name))
            self._patch("repro.sim.world", "World.run_for", self._run_for)
            self._patch("repro.campaign.orchestrator", "build_scenario", self._capture)
            self._patch("repro.campaign.orchestrator", "execute_run", self._harvest)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every patched attribute back, last patched first."""
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)

    def _patch(self, module: str, attribute: str, make: Callable[[Any], Any]) -> None:
        owner: Any = importlib.import_module(module)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[name]
        setattr(owner, name, functools.wraps(original)(make(original)))
        self.patched.append((owner, name, original))

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                self._enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit()

            return wrapper

        return make

    def _count(self, name: str) -> Callable[[Any], Any]:
        counts = self.counts

        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def _run_for(self, original: Any) -> Any:
        def run_for(world: Any, duration: float) -> Any:
            engine = world.engine
            previous, engine.profiler = engine.profiler, self.profiler
            self._in_loop = True
            started = time.perf_counter()
            try:
                return original(world, duration)
            finally:
                self.loop_s += time.perf_counter() - started
                self._in_loop = False
                engine.profiler = previous

        return run_for

    def _capture(self, original: Any) -> Any:
        def build_scenario(spec: Any) -> Any:
            self._scenario = original(spec)
            return self._scenario

        return build_scenario

    def _harvest(self, original: Any) -> Any:
        def execute_run(spec: Any, out_dir: str) -> Any:
            outcome = original(spec, out_dir)
            self._read_ledgers(self._scenario, outcome)
            self._scenario = None
            return outcome

        return execute_run

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        if self._stack:
            parent: Optional[int] = self._stack[-1][0]
        elif self._in_loop:
            if self._event_id is None:
                self._event_id = next(self._ids)
            parent = self._event_id
        else:
            parent = None
        self._stack.append([next(self._ids), name, time.perf_counter(), 0.0, parent])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, children_s, parent = self._stack.pop()
        duration = end - start
        aggregate = self.spans.get(name)
        if aggregate is None:
            aggregate = self.spans[name] = [0, 0.0, 0.0]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration - children_s
        if self._stack:
            self._stack[-1][3] += duration
        self._keep((span_id, name, start, end, parent))

    def _close_event(self, label: str, seconds: float) -> None:
        end = time.perf_counter()
        root = self._event_id if self._event_id is not None else next(self._ids)
        self._event_id = None
        self._keep((root, f"event:{label}", end - seconds, end, None))

    def _keep(self, span: Tuple[int, str, float, float, Optional[int]]) -> None:
        """Reservoir-sample raw spans (private RNG: the sim's is untouched)."""
        self._seen += 1
        if len(self.sample) < SAMPLE_LIMIT:
            self.sample.append(span)
            return
        slot = self._rng.randrange(self._seen)
        if slot < SAMPLE_LIMIT:
            self.sample[slot] = span

    def write_sample(self, path: str) -> None:
        """Write the raw-span sample as JSONL, times relative to trace start."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in sorted(self.sample, key=lambda s: s[2]):
                record = {
                    "id": span_id,
                    "name": name,
                    "start_s": start - self._origin,
                    "end_s": end - self._origin,
                    "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")

    # -- ledgers ------------------------------------------------------------

    def _read_ledgers(self, scenario: Any, outcome: Any) -> None:
        ledgers = self.ledgers
        ledgers["faults.injected"] += outcome.faults_injected
        tracer = scenario.world.tracer
        ledgers["obs.spans"] += len(tracer) + tracer.dropped_spans
        ledgers["obs.artifact_bytes"] += sum(
            entry.stat().st_size for entry in os.scandir(outcome.artifact_dir)
        )
        if scenario.gateway is not None:
            stats = scenario.gateway.stats
            ledgers["serve.offered"] += stats.offered
            ledgers["serve.slo_hits"] += stats.slo_hits
            ledgers["serve.hedges_launched"] += stats.hedges_launched
        if scenario.dag_scheduler is not None:
            stats = scenario.dag_scheduler.stats
            ledgers["dag.stages_completed"] += stats.stages_completed
            ledgers["dag.replicas_cancelled"] += stats.replicas_cancelled
        if scenario.offloader is not None:
            stats = scenario.offloader.stats
            ledgers["tier.completed"] += stats.completed
            ledgers["tier.attempts"] += stats.attempts_submitted

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics this trace measures, by BENCHMARK.json name."""

        def calls(name: str) -> float:
            return float(self.spans.get(name, (0, 0.0, 0.0))[0])

        def self_s(name: str) -> float:
            return self.spans.get(name, (0, 0.0, 0.0))[2]

        layer_s = dict.fromkeys(LAYERS, 0.0)
        stem_events: Counter = Counter()
        stem_s: Dict[str, float] = {}
        unmapped_s = 0.0
        for profile in self.profiler.profiles():
            layer, stem = classify(profile.label)
            if layer is None:
                unmapped_s += profile.total_s
                continue
            layer_s[layer] += profile.total_s
            if stem is not None:
                stem_events[stem] += profile.count
                stem_s[stem] = stem_s.get(stem, 0.0) + profile.total_s

        ledgers = self.ledgers
        metrics: Dict[str, float] = {
            "engine.loop_s": self.loop_s,
            "engine.events": float(self.profiler.total_events),
            "engine.self_s": self.loop_s - self.profiler.total_wall_s,
            "engine.schedule_calls": float(self.counts["engine.schedule"]),
            "spatial.within_calls": calls("spatial.within"),
            "spatial.within_s": self_s("spatial.within"),
            "metrics.increment_calls": float(self.counts["metrics.increment"]),
            "channel.broadcast_calls": calls("channel.broadcast"),
            "channel.broadcast_s": self_s("channel.broadcast"),
            "channel.unicast_calls": calls("channel.unicast"),
            "channel.unicast_s": self_s("channel.unicast"),
            "channel.delivery_events": float(stem_events["channel.delivery"]),
            "channel.delivery_s": stem_s.get("channel.delivery", 0.0),
            "beacon.events": float(stem_events["beacon"]),
            "beacon.s": stem_s.get("beacon", 0.0),
            "mobility.step_events": float(stem_events["mobility.step"]),
            "mobility.step_s": stem_s.get("mobility.step", 0.0),
            "dwell.link_lifetime_calls": calls("dwell.link_lifetime"),
            "dwell.link_lifetime_s": self_s("dwell.link_lifetime"),
            "vcloud.submit_calls": calls("vcloud.submit"),
            "vcloud.submit_s": self_s("vcloud.submit"),
            "vcloud.result_events": float(stem_events["vcloud.result"]),
            "vcloud.result_s": stem_s.get("vcloud.result", 0.0),
            "scheduler.candidates_calls": calls("scheduler.candidates"),
            "scheduler.candidates_s": self_s("scheduler.candidates"),
            "replication.write_calls": calls("replication.write"),
            "replication.read_calls": calls("replication.read"),
            "replication.s": self_s("replication.write") + self_s("replication.read"),
            "gateway.submit_calls": calls("gateway.submit"),
            "gateway.submit_s": self_s("gateway.submit"),
            "gateway.tick_s": stem_s.get("gateway.tick", 0.0),
            "gateway.hedges_launched": float(ledgers["serve.hedges_launched"]),
            "gateway.useful_ratio": _ratio(ledgers["serve.slo_hits"], ledgers["serve.offered"]),
            "dag.submit_calls": calls("dag.submit"),
            "redundancy.plan_calls": calls("redundancy.plan"),
            "redundancy.plan_s": self_s("redundancy.plan"),
            "dag.replica_useful_ratio": _ratio(
                ledgers["dag.stages_completed"],
                ledgers["dag.stages_completed"] + ledgers["dag.replicas_cancelled"],
            ),
            "tier.submit_calls": calls("tier.submit"),
            "tier.submit_s": self_s("tier.submit"),
            "tier.useful_ratio": _ratio(ledgers["tier.completed"], ledgers["tier.attempts"]),
            "backhaul.transmit_calls": calls("backhaul.transmit"),
            "backhaul.transit_s": stem_s.get("backhaul.transit", 0.0),
            "invariants.checks": calls("invariants.check"),
            # The suite's whole check, invariant classes included.
            "invariants.check_s": self.spans.get("invariants.check", (0, 0.0, 0.0))[1],
            "faults.injected": float(ledgers["faults.injected"]),
            "obs.spans": float(ledgers["obs.spans"]),
            "obs.export_s": self_s("obs.export"),
            "obs.artifact_bytes": float(ledgers["obs.artifact_bytes"]),
            "unmapped.s": unmapped_s,
        }
        for name in INVARIANTS:
            metrics[f"invariants.{name}.s"] = self_s(f"invariants.{name}")
        for layer, seconds in layer_s.items():
            metrics[f"rollup.{layer}.s"] = seconds
        return metrics
