"""Campaign CLI: run, bless baselines, re-report, ingest E-series.

Examples::

    python -m repro.campaign run campaigns/smoke.json --out /tmp/smoke \\
        --baseline campaigns/baselines/smoke.json --workers 2
    python -m repro.campaign baseline campaigns/smoke.json \\
        --out campaigns/baselines/smoke.json --workers 4
    python -m repro.campaign report /tmp/smoke \\
        --spec campaigns/smoke.json --baseline campaigns/baselines/smoke.json
    python -m repro.campaign ingest benchmarks/results \\
        --out campaigns/baselines/eseries.json

``run`` and ``report`` exit nonzero when a regression, an invariant
violation or a run that drifted from its blessed vector is flagged, so
CI gates on them directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Any, Dict, List, Optional

from ..errors import CampaignError
from .baseline import BaselineStore, load_baseline_file
from .orchestrator import CampaignOrchestrator, CampaignRun, RunOutcome, load_manifest
from .report import Reporter
from .spec import CampaignSpec


def _run_campaign(spec: CampaignSpec, out_dir: str, workers: int) -> CampaignRun:
    orchestrator = CampaignOrchestrator(spec, out_dir, workers=workers)
    return orchestrator.execute()


def _report(
    spec: CampaignSpec,
    campaign_run: CampaignRun,
    baseline_path: Optional[str],
    out_dir: str,
) -> int:
    baseline = load_baseline_file(baseline_path) if baseline_path else None
    report = Reporter.for_spec(spec).compare(campaign_run, baseline)
    paths = report.write(out_dir)
    print(report.to_markdown())
    print(f"report.json: {paths['json']}")
    return 0 if report.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    spec = CampaignSpec.load(args.spec)
    out_dir = args.out or tempfile.mkdtemp(prefix=f"campaign-{spec.name}-")
    campaign_run = _run_campaign(spec, out_dir, args.workers)
    print(
        f"campaign {spec.name}: {len(campaign_run.outcomes)} runs "
        f"({campaign_run.skipped_cells} incompatible cells skipped), "
        f"{len(campaign_run.violations)} violation(s), "
        f"{campaign_run.wall_clock_s:.1f}s wall clock"
    )
    return _report(spec, campaign_run, args.baseline, out_dir)


def _cmd_baseline(args: argparse.Namespace) -> int:
    spec = CampaignSpec.load(args.spec)
    out_dir = args.run_dir or tempfile.mkdtemp(prefix=f"campaign-{spec.name}-")
    campaign_run = _run_campaign(spec, out_dir, args.workers)
    if campaign_run.violations:
        for violation in campaign_run.violations[:10]:
            print(f"!! {violation}")
        print("refusing to bless a baseline containing invariant violations")
        return 1
    store = BaselineStore(args.out_dir) if args.out_dir else None
    if store is not None:
        path = store.record(campaign_run, note=args.note)
    else:
        # --out names the baseline file directly.
        document = {
            "campaign": spec.name,
            "cells": campaign_run.cell_vectors(),
            "runs": campaign_run.run_vectors(),
            "source": {
                "kind": "campaign_run",
                "runs": len(campaign_run.outcomes),
                "workers": campaign_run.workers,
                "note": args.note,
            },
        }
        path = args.out
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"baseline written: {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    spec = CampaignSpec.load(args.spec)
    manifest = load_manifest(args.run_dir)
    outcomes: List[RunOutcome] = [
        RunOutcome.from_dict(data) for data in manifest.get("runs", ())
    ]
    campaign_run = CampaignRun(
        spec=spec,
        out_dir=args.run_dir,
        outcomes=outcomes,
        skipped_cells=int(manifest.get("skipped_incompatible_cells", 0)),
        workers=int(manifest.get("workers", 1)),
        wall_clock_s=float(manifest.get("wall_clock_s", 0.0)),
    )
    return _report(spec, campaign_run, args.baseline, args.run_dir)


def _cmd_ingest(args: argparse.Namespace) -> int:
    import os

    store = BaselineStore(os.path.dirname(args.out) or ".")
    campaign = os.path.splitext(os.path.basename(args.out))[0]
    path = store.ingest_results_dir(args.results_dir, campaign=campaign)
    document: Dict[str, Any] = load_baseline_file(path)
    print(
        f"ingested {document['source']['files']} result file(s) into {path} "
        f"({len(document['cells'])} experiments, {len(document['runs'])} rows)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run scenario campaigns and report regressions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute a campaign and report")
    run.add_argument("spec", help="campaign spec JSON path")
    run.add_argument("--out", help="artifact directory (default: temp dir)")
    run.add_argument("--baseline", help="baseline JSON to compare against")
    run.add_argument("--workers", type=int, default=1)
    run.set_defaults(func=_cmd_run)

    baseline = commands.add_parser("baseline", help="execute and bless a baseline")
    baseline.add_argument("spec", help="campaign spec JSON path")
    baseline.add_argument("--out", required=True, help="baseline JSON output path")
    baseline.add_argument("--out-dir", help="baseline store directory instead of --out")
    baseline.add_argument("--run-dir", help="artifact directory (default: temp dir)")
    baseline.add_argument("--workers", type=int, default=1)
    baseline.add_argument("--note", default="", help="provenance note")
    baseline.set_defaults(func=_cmd_baseline)

    report = commands.add_parser("report", help="re-report an executed campaign")
    report.add_argument("run_dir", help="artifact directory holding manifest.json")
    report.add_argument("--spec", required=True, help="campaign spec JSON path")
    report.add_argument("--baseline", help="baseline JSON to compare against")
    report.set_defaults(func=_cmd_report)

    ingest = commands.add_parser(
        "ingest", help="fold benchmarks/results/E*.json into a baseline"
    )
    ingest.add_argument("results_dir", help="directory holding E*.json files")
    ingest.add_argument("--out", required=True, help="baseline JSON output path")
    ingest.set_defaults(func=_cmd_ingest)

    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
