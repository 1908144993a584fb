"""Campaign reporting: baseline comparison and regression flagging.

The :class:`Reporter` compares a campaign's per-cell metric vectors
against a stored baseline using :func:`repro.sim.metrics.diff_metrics`
(the same tolerance-band primitive `MetricsRegistry.diff` exposes), then
classifies every out-of-band drift by *direction*: a goodput drop is a
regression, a goodput gain an improvement; a latency rise is a
regression; a metric with no better direction regresses on any drift.
Metric directions are inferred from the name (``*latency*``,
``*violations*`` etc. are lower-is-better; ``*hit_rate*``, ``*goodput*``
etc. higher-is-better) and can be overridden per metric in the campaign
spec.

Seeded runs replay byte-identically, so the tolerance bands are for
cell aggregates only: the reporter also holds every run vector to its
blessed per-run vector exactly, and any drift at all fails the report
(:attr:`CampaignReport.replay_drift`) even when every cell mean stays
inside its band.

The output is a :class:`CampaignReport` that renders both ways:
``to_dict`` -> ``report.json`` (machine-readable, CI-diffable) and
``to_markdown`` -> ``report.md`` (human-readable).  Wall-clock lives
only under the ``timing`` key; :func:`strip_volatile` removes it so
byte-equality checks across worker counts compare pure results.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..sim.metrics import MetricDelta, ToleranceBand, ToleranceSpec, diff_metrics
from .orchestrator import CampaignRun
from .spec import CampaignSpec

#: Name fragments implying "smaller is better".
_LOWER_BETTER = (
    "latency",
    "violations",
    "failed",
    "misses",
    "degraded",
    "reexecuted",
    "wall_clock",
)
#: Name fragments implying "bigger is better".
_HIGHER_BETTER = (
    "goodput",
    "hit_rate",
    "completion_rate",
    "completed",
    "checkpoint_writes",
)

#: Per-metric statuses a comparison can produce.
STATUSES = ("ok", "regression", "improvement", "new", "missing", "nan")


def direction_for(metric: str, overrides: Optional[Mapping[str, str]] = None) -> str:
    """``"higher"`` / ``"lower"`` / ``"both"``: which drift is *good*."""
    if overrides and metric in overrides:
        return overrides[metric]
    lowered = metric.lower()
    if any(fragment in lowered for fragment in _LOWER_BETTER):
        return "lower"
    if any(fragment in lowered for fragment in _HIGHER_BETTER):
        return "higher"
    return "both"


def classify(delta: MetricDelta, direction: str) -> str:
    """Fold a tolerance verdict and a direction into a report status."""
    if delta.classification == "within":
        return "ok"
    if delta.classification == "missing_baseline":
        return "new"
    if delta.classification == "missing_current":
        return "missing"
    if delta.classification == "nan":
        return "nan"
    assert delta.classification == "outside" and delta.delta is not None
    if direction == "higher":
        return "regression" if delta.delta < 0 else "improvement"
    if direction == "lower":
        return "regression" if delta.delta > 0 else "improvement"
    return "regression"


@dataclass(frozen=True)
class Finding:
    """One flagged metric in one cell."""

    cell: str
    metric: str
    status: str
    baseline: Optional[float]
    current: Optional[float]
    relative: Optional[float]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell,
            "metric": self.metric,
            "status": self.status,
            "baseline": self.baseline,
            "current": self.current,
            "relative": self.relative,
        }

    def describe(self) -> str:
        rel = f" ({self.relative:+.1%})" if self.relative is not None else ""
        return (
            f"[{self.status}] {self.cell} :: {self.metric}: "
            f"{self.baseline} -> {self.current}{rel}"
        )


@dataclass
class CampaignReport:
    """The comparison verdict for one executed campaign."""

    campaign: str
    baseline_available: bool
    cells: Dict[str, Dict[str, Any]]
    regressions: List[Finding]
    improvements: List[Finding]
    new_metrics: List[Finding]
    violations: List[str]
    runs: int
    timing: Dict[str, Any]
    #: Run key -> metrics whose value differs from the blessed run vector.
    replay_drift: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Green iff nothing regressed, no invariant was violated and
        every blessed run replayed its vector exactly."""
        return not self.regressions and not self.violations and not self.replay_drift

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "ok": self.ok,
            "baseline_available": self.baseline_available,
            "summary": {
                "runs": self.runs,
                "cells": len(self.cells),
                "regressions": len(self.regressions),
                "improvements": len(self.improvements),
                "new_metrics": len(self.new_metrics),
                "invariant_violations": len(self.violations),
                "replay_drift": len(self.replay_drift),
            },
            "cells": self.cells,
            "regressions": [f.as_dict() for f in self.regressions],
            "improvements": [f.as_dict() for f in self.improvements],
            "new_metrics": [f.as_dict() for f in self.new_metrics],
            "invariant_violations": self.violations,
            "replay_drift": self.replay_drift,
            "timing": self.timing,
        }

    def to_markdown(self) -> str:
        lines: List[str] = []
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"# Campaign report — {self.campaign}: {verdict}")
        lines.append("")
        lines.append(
            f"{self.runs} runs over {len(self.cells)} cells — "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.violations)} invariant violation(s), "
            f"{len(self.replay_drift)} run(s) drifted from their blessed replay."
        )
        if not self.baseline_available:
            lines.append("")
            lines.append(
                "_No baseline available: drift checks skipped; verdict "
                "covers invariant violations only._"
            )
        for title, findings in (
            ("Regressions", self.regressions),
            ("Improvements", self.improvements),
        ):
            if not findings:
                continue
            lines.append("")
            lines.append(f"## {title}")
            lines.append("")
            lines.append("| cell | metric | baseline | current | drift |")
            lines.append("|---|---|---:|---:|---:|")
            for finding in findings:
                rel = (
                    f"{finding.relative:+.1%}"
                    if finding.relative is not None
                    else "n/a"
                )
                lines.append(
                    f"| {finding.cell} | {finding.metric} | "
                    f"{finding.baseline} | {finding.current} | {rel} |"
                )
        if self.violations:
            lines.append("")
            lines.append("## Invariant violations")
            lines.append("")
            for violation in self.violations:
                lines.append(f"- {violation}")
        if self.replay_drift:
            lines.append("")
            lines.append("## Replay drift")
            lines.append("")
            for key, metrics in sorted(self.replay_drift.items()):
                lines.append(f"- {key}: {', '.join(metrics)}")
        lines.append("")
        lines.append("## Cells")
        lines.append("")
        lines.append("| cell | metrics | regressions | status |")
        lines.append("|---|---:|---:|---|")
        for cell in sorted(self.cells):
            entry = self.cells[cell]
            lines.append(
                f"| {cell} | {len(entry['metrics'])} | "
                f"{entry['regressions']} | {entry['status']} |"
            )
        lines.append("")
        return "\n".join(lines)

    def write(self, out_dir: str) -> Dict[str, str]:
        """Write ``report.json`` and ``report.md``; returns their paths."""
        os.makedirs(out_dir, exist_ok=True)
        json_path = os.path.join(out_dir, "report.json")
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        md_path = os.path.join(out_dir, "report.md")
        with open(md_path, "w", encoding="utf-8") as handle:
            handle.write(self.to_markdown())
        return {"json": json_path, "markdown": md_path}


def strip_volatile(report: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of a report dict without host-dependent (timing) fields."""
    return {key: value for key, value in report.items() if key != "timing"}


class Reporter:
    """Compares campaign results against baselines with tolerance bands."""

    def __init__(
        self,
        tolerances: Optional[Mapping[str, ToleranceSpec]] = None,
        default_tolerance: Optional[ToleranceSpec] = None,
        directions: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.tolerances = dict(tolerances) if tolerances else {}
        self.default_tolerance = (
            default_tolerance
            if default_tolerance is not None
            else ToleranceBand(rel_tol=0.05, abs_tol=1e-9)
        )
        self.directions = dict(directions) if directions else {}

    @classmethod
    def for_spec(cls, spec: CampaignSpec) -> "Reporter":
        """A reporter configured from a campaign spec's tolerance section."""
        return cls(
            tolerances=spec.tolerances,
            default_tolerance=spec.default_tolerance,
            directions=spec.directions,
        )

    def compare(
        self,
        campaign_run: CampaignRun,
        baseline: Optional[Mapping[str, Any]],
    ) -> CampaignReport:
        """Judge one executed campaign against a baseline document.

        ``baseline`` is the document a :class:`~.baseline.BaselineStore`
        stores (``{"cells": {...}, "runs": {...}, ...}``) or None, in
        which case every metric is "new" and only invariant violations
        can fail the run.  Every run with a blessed vector under
        ``runs`` must replay it exactly.
        """
        baseline_cells: Dict[str, Dict[str, float]] = {}
        if baseline is not None:
            baseline_cells = {
                cell: {name: float(value) for name, value in vector.items()}
                for cell, vector in dict(baseline.get("cells", {})).items()
            }
        current_cells = campaign_run.cell_vectors()

        cells: Dict[str, Dict[str, Any]] = {}
        regressions: List[Finding] = []
        improvements: List[Finding] = []
        new_metrics: List[Finding] = []
        covered = set(current_cells) | set(baseline_cells)
        for cell in sorted(covered):
            current = current_cells.get(cell, {})
            reference = baseline_cells.get(cell, {})
            deltas = diff_metrics(
                current,
                reference,
                tolerances=self.tolerances,
                default=self.default_tolerance,
            )
            cell_regressions = 0
            rendered: Dict[str, Any] = {}
            for name, delta in deltas.items():
                status = classify(delta, direction_for(name, self.directions))
                if baseline is None:
                    status = "new" if status != "missing" else status
                finding = Finding(
                    cell=cell,
                    metric=name,
                    status=status,
                    baseline=delta.baseline,
                    current=delta.current,
                    relative=delta.relative,
                )
                if status in ("regression", "missing", "nan"):
                    regressions.append(finding)
                    cell_regressions += 1
                elif status == "improvement":
                    improvements.append(finding)
                elif status == "new":
                    new_metrics.append(finding)
                rendered[name] = {
                    "baseline": delta.baseline,
                    "current": delta.current,
                    "delta": delta.delta,
                    "relative": delta.relative,
                    "status": status,
                }
            cells[cell] = {
                "metrics": rendered,
                "regressions": cell_regressions,
                "status": "regression" if cell_regressions else "ok",
            }

        # Byte-level replay audit: a seeded run that drifted from its
        # blessed vector at all means determinism broke, even inside
        # the cell tolerance bands.
        replay_drift: Dict[str, List[str]] = {}
        blessed_runs = dict(baseline.get("runs", {})) if baseline is not None else {}
        for outcome in campaign_run.outcomes:
            blessed = blessed_runs.get(outcome.key)
            if blessed is None:
                continue
            drifted = sorted(
                name
                for name in set(blessed) | set(outcome.vector)
                if float(blessed.get(name, float("nan")))
                != outcome.vector.get(name, float("nan"))
            )
            if drifted:
                replay_drift[outcome.key] = drifted

        return CampaignReport(
            campaign=campaign_run.spec.name,
            baseline_available=baseline is not None,
            cells=cells,
            regressions=regressions,
            improvements=improvements,
            new_metrics=new_metrics,
            violations=campaign_run.violations,
            runs=len(campaign_run.outcomes),
            timing={
                "wall_clock_s": campaign_run.wall_clock_s,
                "workers": campaign_run.workers,
                "per_run_wall_clock_s": {
                    outcome.key: outcome.wall_clock_s
                    for outcome in campaign_run.outcomes
                },
            },
            replay_drift=replay_drift,
        )


__all__: Sequence[str] = (
    "STATUSES",
    "CampaignReport",
    "Finding",
    "Reporter",
    "classify",
    "direction_for",
    "strip_volatile",
)
