"""Campaign execution: seeded runs, worker pools, artifact bundles.

:func:`execute_run` is the unit of work — one :class:`RunSpec` in, one
content-addressed artifact bundle out.  The bundle directory is named
by the sha256 digest of the spec's canonical JSON, so the same cell
always lands in the same place and two campaigns sharing cells share
storage naturally.  Each bundle holds:

* ``report.json``  — the :func:`repro.obs.exporters.json_report`
  document (metrics snapshot, trace/event statistics, serving and DAG
  conservation ledgers) with the run spec as ``meta``;
* ``trace.jsonl`` / ``events.jsonl`` — the causal spans and structured
  events of the run;
* ``invariants.json`` — per-invariant verdicts plus every violation;
* ``vector.json`` — the run's scalar metric vector, the artifact
  baselines and regression checks compare;
* ``run.json`` — volatile envelope (wall clock, artifact list); the
  only file allowed to differ between byte-identical reruns.

The :class:`CampaignOrchestrator` expands a :class:`CampaignSpec`,
executes the runs serially or on a ``multiprocessing`` pool (spawn
context: no inherited interpreter state, so worker count can never leak
into results), and writes a campaign ``manifest.json``.  Determinism
contract: per-run artifacts other than ``run.json`` are byte-identical
whatever the worker count, because every run derives all randomness
from its spec and resets the process-global id counters first.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..chaos.runner import run_scenario
from ..errors import CampaignError
from ..ids import reset_global_ids
from ..obs.exporters import write_json_report
from .scenarios import build_scenario, fault_plans
from .spec import CampaignSpec, RunSpec

#: Bundle files whose bytes must not depend on worker count or host.
DETERMINISTIC_ARTIFACTS = (
    "report.json",
    "trace.jsonl",
    "events.jsonl",
    "invariants.json",
    "vector.json",
)


def _write_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass
class RunOutcome:
    """The summary one worker hands back for one executed cell."""

    key: str
    cell: str
    digest: str
    spec: Dict[str, Any]
    vector: Dict[str, float]
    violations: List[str]
    faults_injected: int
    checks_run: int
    artifact_dir: str
    wall_clock_s: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "cell": self.cell,
            "digest": self.digest,
            "spec": self.spec,
            "vector": self.vector,
            "violations": self.violations,
            "faults_injected": self.faults_injected,
            "checks_run": self.checks_run,
            "artifact_dir": self.artifact_dir,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunOutcome":
        return cls(
            key=data["key"],
            cell=data["cell"],
            digest=data["digest"],
            spec=dict(data["spec"]),
            vector={k: float(v) for k, v in dict(data["vector"]).items()},
            violations=list(data["violations"]),
            faults_injected=int(data["faults_injected"]),
            checks_run=int(data["checks_run"]),
            artifact_dir=data["artifact_dir"],
            wall_clock_s=float(data["wall_clock_s"]),
        )


def execute_run(spec: RunSpec, out_dir: str) -> RunOutcome:
    """Execute one campaign cell and write its artifact bundle.

    Fully self-contained and deterministic: global id counters are
    rewound, the world seed derives from the spec, and observability is
    attached *after* construction (the obs contract guarantees it never
    perturbs seeded metrics).
    """
    started = time.perf_counter()
    reset_global_ids()
    scenario = build_scenario(spec)
    world = scenario.world
    world.enable_observability(trace=True, events=True)
    plan, wan_plan = fault_plans(spec, scenario)
    run = run_scenario(
        scenario,
        spec.run_length_s + spec.drain_s,
        spec.check_interval_s,
        plan=plan,
        backhaul_plan=wan_plan,
    )
    suite = run.suite

    vector: Dict[str, float] = {
        "faults/injected": float(run.injected),
        "faults/skipped": float(run.skipped),
        "invariants/checks": float(suite.checks_run),
        "invariants/violations": float(len(suite.violations)),
    }
    for source in scenario.vector_sources:
        vector.update(source())

    digest = spec.digest()
    bundle_dir = os.path.join(out_dir, "runs", digest)
    os.makedirs(bundle_dir, exist_ok=True)

    write_json_report(
        os.path.join(bundle_dir, "report.json"),
        metrics=world.metrics,
        tracer=world.tracer,
        events=world.events,
        meta={"run": spec.as_dict(), "key": spec.key, "digest": digest},
        serving=scenario.gateway,
        dag=scenario.dag_scheduler,
    )
    assert world.tracer is not None and world.events is not None
    world.tracer.export_jsonl(os.path.join(bundle_dir, "trace.jsonl"))
    world.events.export_jsonl(os.path.join(bundle_dir, "events.jsonl"))

    verdicts = {
        invariant.name: {
            "violations": sum(
                1 for v in suite.violations if v.invariant == invariant.name
            ),
        }
        for invariant in scenario.invariants
    }
    for verdict in verdicts.values():
        verdict["ok"] = verdict["violations"] == 0
    _write_json(
        os.path.join(bundle_dir, "invariants.json"),
        {
            "checks_run": suite.checks_run,
            "verdicts": verdicts,
            "violations": [v.describe() for v in suite.violations],
        },
    )
    _write_json(
        os.path.join(bundle_dir, "vector.json"),
        {"key": spec.key, "spec": spec.as_dict(), "vector": vector},
    )

    wall_clock_s = time.perf_counter() - started
    outcome = RunOutcome(
        key=spec.key,
        cell=spec.cell,
        digest=digest,
        spec=spec.as_dict(),
        vector=vector,
        violations=[v.describe() for v in suite.violations],
        faults_injected=run.injected,
        checks_run=suite.checks_run,
        artifact_dir=bundle_dir,
        wall_clock_s=wall_clock_s,
    )
    _write_json(
        os.path.join(bundle_dir, "run.json"),
        {
            "key": spec.key,
            "digest": digest,
            "wall_clock_s": wall_clock_s,
            "artifacts": list(DETERMINISTIC_ARTIFACTS),
        },
    )
    return outcome


def _execute_run_job(job: Tuple[Dict[str, Any], str]) -> Dict[str, Any]:
    """Pool entry point: plain dicts in, plain dicts out (picklable)."""
    spec_data, out_dir = job
    return execute_run(RunSpec.from_dict(spec_data), out_dir).as_dict()


@dataclass
class CampaignRun:
    """One executed campaign: outcomes plus aggregate views."""

    spec: CampaignSpec
    out_dir: str
    outcomes: List[RunOutcome]
    skipped_cells: int
    workers: int
    wall_clock_s: float

    @property
    def violations(self) -> List[str]:
        return [v for outcome in self.outcomes for v in outcome.violations]

    def run_vectors(self) -> Dict[str, Dict[str, float]]:
        """Per-run metric vectors keyed by run key."""
        return {outcome.key: dict(outcome.vector) for outcome in self.outcomes}

    def cell_vectors(self) -> Dict[str, Dict[str, float]]:
        """Per-cell metric vectors: seed-mean of every run in the cell."""
        grouped: Dict[str, List[Dict[str, float]]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.cell, []).append(outcome.vector)
        cells: Dict[str, Dict[str, float]] = {}
        for cell, vectors in sorted(grouped.items()):
            names = sorted({name for vector in vectors for name in vector})
            cells[cell] = {
                name: sum(vector.get(name, 0.0) for vector in vectors) / len(vectors)
                for name in names
            }
        return cells

    def manifest(self) -> Dict[str, Any]:
        return {
            "campaign": self.spec.name,
            "description": self.spec.description,
            "matrix": self.spec.matrix.as_dict(),
            "runs": [outcome.as_dict() for outcome in self.outcomes],
            "cells": self.cell_vectors(),
            "skipped_incompatible_cells": self.skipped_cells,
            "workers": self.workers,
            "wall_clock_s": self.wall_clock_s,
            "total_violations": len(self.violations),
        }


class CampaignOrchestrator:
    """Expands a campaign spec and executes it on worker processes."""

    def __init__(
        self,
        spec: CampaignSpec,
        out_dir: str,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise CampaignError("workers must be >= 1")
        self.spec = spec
        self.out_dir = out_dir
        self.workers = workers

    def execute(self) -> CampaignRun:
        """Run every cell; writes per-run bundles plus ``manifest.json``."""
        started = time.perf_counter()
        runs, skipped = self.spec.expansion()
        os.makedirs(self.out_dir, exist_ok=True)
        jobs = [(spec.as_dict(), self.out_dir) for spec in runs]
        if self.workers == 1 or len(jobs) == 1:
            raw = [_execute_run_job(job) for job in jobs]
        else:
            # Spawn (not fork): workers start from a clean interpreter,
            # so nothing from the parent process can leak into runs.
            context = multiprocessing.get_context("spawn")
            with context.Pool(processes=min(self.workers, len(jobs))) as pool:
                raw = pool.map(_execute_run_job, jobs, chunksize=1)
        outcomes = sorted(
            (RunOutcome.from_dict(data) for data in raw), key=lambda o: o.key
        )
        campaign_run = CampaignRun(
            spec=self.spec,
            out_dir=self.out_dir,
            outcomes=outcomes,
            skipped_cells=skipped,
            workers=self.workers,
            wall_clock_s=time.perf_counter() - started,
        )
        _write_json(
            os.path.join(self.out_dir, "manifest.json"), campaign_run.manifest()
        )
        return campaign_run


def load_manifest(out_dir: str) -> Dict[str, Any]:
    """Read a campaign's ``manifest.json`` back (for re-reporting)."""
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"cannot load manifest {path!r}: {exc}") from exc


__all__: Sequence[str] = (
    "DETERMINISTIC_ARTIFACTS",
    "CampaignOrchestrator",
    "CampaignRun",
    "RunOutcome",
    "execute_run",
    "load_manifest",
)
