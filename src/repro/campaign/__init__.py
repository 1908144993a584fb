"""Scenario campaign orchestration, artifact collection and reporting.

The measurement harness every scale/dependability claim runs through:

* :mod:`.spec` — declarative :class:`CampaignSpec` /
  :class:`ScenarioMatrix` (architecture x workload x fault profile x
  mobility x seeds, with per-cell overrides) expanding into seeded
  :class:`RunSpec` cells;
* :mod:`.scenarios` — maps each cell onto a live world built by the
  shared Fig. 4 builders of :mod:`repro.chaos.scenarios`, with the
  serve/dag/tier workload and the invariant suite attached, and maps
  its fault profile onto fault plans;
* :mod:`.orchestrator` — :class:`CampaignOrchestrator` executing cells
  through the chaos run loop on parallel worker processes, each
  emitting a content-addressed artifact bundle (obs ``report.json``,
  trace/event JSONL, invariant verdicts, metric vector);
* :mod:`.baseline` — :class:`BaselineStore` of blessed metric vectors,
  including ingestion of the historical E-series benchmark results;
* :mod:`.report` — :class:`Reporter` comparing campaigns to baselines
  with per-metric tolerance bands and direction-aware regression
  flagging, plus an exact replay audit of every blessed run vector,
  rendering ``report.json`` + ``report.md``.

CLI: ``python -m repro.campaign run|baseline|report|ingest ...``;
CI gate: ``python -m repro.campaign run SPEC --baseline BASELINE``.

Determinism contract: per-run artifacts (everything except wall-clock
envelopes) are byte-identical across worker counts and reruns, because
each run derives every random choice from its spec alone.
"""

from __future__ import annotations

from .baseline import BaselineStore, load_baseline_file
from .orchestrator import (
    DETERMINISTIC_ARTIFACTS,
    CampaignOrchestrator,
    CampaignRun,
    RunOutcome,
    execute_run,
    load_manifest,
)
from .report import (
    CampaignReport,
    Finding,
    Reporter,
    classify,
    direction_for,
    strip_volatile,
)
from .scenarios import FAULT_PROFILE_TABLE, build_scenario, fault_plans
from .spec import (
    ARCHITECTURES,
    COMPATIBLE_MOBILITY,
    FAULT_PROFILES,
    MOBILITY_MODELS,
    WORKLOADS,
    CampaignSpec,
    CellOverride,
    RunSpec,
    ScenarioMatrix,
)

__all__ = [
    "ARCHITECTURES",
    "COMPATIBLE_MOBILITY",
    "DETERMINISTIC_ARTIFACTS",
    "FAULT_PROFILES",
    "FAULT_PROFILE_TABLE",
    "MOBILITY_MODELS",
    "WORKLOADS",
    "BaselineStore",
    "CampaignOrchestrator",
    "CampaignReport",
    "CampaignRun",
    "CampaignSpec",
    "CellOverride",
    "Finding",
    "Reporter",
    "RunOutcome",
    "RunSpec",
    "ScenarioMatrix",
    "build_scenario",
    "classify",
    "direction_for",
    "execute_run",
    "fault_plans",
    "load_baseline_file",
    "load_manifest",
    "strip_volatile",
]
