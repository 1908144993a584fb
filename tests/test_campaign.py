"""Tests for the campaign layer: specs, orchestration, baselines, reports.

The load-bearing guarantees under test:

* matrix expansion is exhaustive over compatible cells, loud about
  incompatible ones, and per-cell overrides patch exactly their match;
* a ``RunSpec``'s digest is a stable content address — equal specs hash
  equal, any field change rehashes — and the derived world seed gives
  each cell an independent substream;
* executing a run emits the full artifact bundle and replays
  byte-identically (the 1-vs-N-workers determinism contract);
* the baseline store round-trips campaign vectors and ingests E-series
  result files;
* the reporter folds tolerance verdicts and metric directions into the
  right statuses, and regressions/violations fail the report.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (
    BaselineStore,
    CampaignOrchestrator,
    CampaignSpec,
    CellOverride,
    Reporter,
    RunSpec,
    ScenarioMatrix,
    classify,
    direction_for,
    execute_run,
    load_manifest,
    strip_volatile,
)
from repro.errors import CampaignError
from repro.sim.metrics import MetricDelta, ToleranceBand


def make_spec(**kwargs) -> CampaignSpec:
    defaults = dict(
        name="t",
        matrix=ScenarioMatrix(
            architectures=("stationary", "dynamic"),
            workloads=("tasks",),
            fault_profiles=("none",),
            mobility_models=("stationary", "highway"),
            seeds=(1, 2),
        ),
        defaults={"run_length_s": 10.0, "drain_s": 4.0},
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestRunSpec:
    def kwargs(self, **overrides):
        base = dict(
            campaign="c",
            architecture="stationary",
            workload="tasks",
            fault_profile="none",
            mobility="stationary",
            seed=1,
        )
        base.update(overrides)
        return base

    def test_axis_validation(self):
        with pytest.raises(CampaignError):
            RunSpec(**self.kwargs(architecture="flying"))
        with pytest.raises(CampaignError):
            RunSpec(**self.kwargs(workload="mining"))
        with pytest.raises(CampaignError):
            RunSpec(**self.kwargs(fault_profile="apocalyptic"))

    def test_incompatible_mobility_rejected(self):
        with pytest.raises(CampaignError):
            RunSpec(**self.kwargs(architecture="stationary", mobility="highway"))
        with pytest.raises(CampaignError):
            RunSpec(**self.kwargs(architecture="infrastructure", mobility="grid"))

    @pytest.mark.parametrize(
        "field_name, value",
        [
            (name, value)
            for name in ("run_length_s", "drain_s", "load_factor", "check_interval_s")
            for value in (float("nan"), float("inf"), -1.0)
        ]
        + [("run_length_s", 0.0), ("load_factor", 0.0), ("check_interval_s", 0.0)],
    )
    def test_non_finite_or_out_of_range_values_rejected(self, field_name, value):
        with pytest.raises(CampaignError, match=field_name):
            RunSpec(**self.kwargs(**{field_name: value}))

    def test_zero_drain_accepted(self):
        assert RunSpec(**self.kwargs(drain_s=0.0)).drain_s == 0.0

    def test_nan_campaign_default_rejected_at_expansion(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "c",
                "matrix": {
                    "architectures": ["stationary"],
                    "workloads": ["tasks"],
                    "fault_profiles": ["none"],
                    "seeds": [1],
                },
                "defaults": {"run_length_s": float("nan")},
            }
        )
        with pytest.raises(CampaignError, match="run_length_s"):
            spec.expand()

    def test_digest_is_stable_content_address(self):
        a = RunSpec(**self.kwargs())
        b = RunSpec(**self.kwargs())
        assert a.digest() == b.digest()
        assert a.digest() != RunSpec(**self.kwargs(seed=2)).digest()
        assert a.digest() != RunSpec(**self.kwargs(run_length_s=41.0)).digest()

    def test_world_seed_is_per_cell_substream(self):
        a = RunSpec(**self.kwargs())
        b = RunSpec(**self.kwargs(workload="serving"))
        assert a.seed == b.seed
        assert a.world_seed != b.world_seed  # same seed entry, distinct cells

    def test_roundtrips_through_dict(self):
        spec = RunSpec(**self.kwargs(seed=7, members=4))
        assert RunSpec.from_dict(spec.as_dict()) == spec
        with pytest.raises(CampaignError):
            RunSpec.from_dict({**spec.as_dict(), "bogus": 1})


class TestExpansion:
    def test_skips_incompatible_cells_loudly(self):
        runs, skipped = make_spec().expansion()
        # stationary x highway and dynamic x stationary are impossible.
        assert len(runs) == 4  # 2 compatible cells x 2 seeds
        assert skipped == 4
        assert {r.cell for r in runs} == {
            "arch=stationary,wl=tasks,fault=none,mob=stationary",
            "arch=dynamic,wl=tasks,fault=none,mob=highway",
        }

    def test_defaults_flow_into_every_run(self):
        assert all(r.run_length_s == 10.0 for r in make_spec().expand())

    def test_zero_run_expansion_raises(self):
        spec = make_spec(
            matrix=ScenarioMatrix(
                architectures=("stationary",),
                workloads=("tasks",),
                fault_profiles=("none",),
                mobility_models=("highway",),
                seeds=(1,),
            )
        )
        with pytest.raises(CampaignError):
            spec.expand()

    def test_override_patches_only_its_match(self):
        spec = make_spec(
            overrides=[
                CellOverride.create(
                    match={"architecture": "dynamic"}, set={"members": 12}
                )
            ]
        )
        for run in spec.expand():
            assert run.members == (12 if run.architecture == "dynamic" else 8)

    def test_override_rejects_unknown_fields(self):
        with pytest.raises(CampaignError):
            CellOverride.create(match={"color": "red"}, set={})
        with pytest.raises(CampaignError):
            CellOverride.create(match={}, set={"seed": 9})

    def test_spec_json_roundtrip(self, tmp_path):
        spec = make_spec(
            tolerances={"x": ToleranceBand(rel_tol=0.1, abs_tol=0.2)},
            directions={"x": "higher"},
        )
        path = str(tmp_path / "spec.json")
        spec.to_json(path)
        loaded = CampaignSpec.load(path)
        assert loaded.as_dict() == spec.as_dict()
        assert [r.key for r in loaded.expand()] == [r.key for r in spec.expand()]


class TestExecuteRun:
    SPEC = dict(
        campaign="unit",
        architecture="stationary",
        workload="tasks",
        fault_profile="light",
        mobility="stationary",
        seed=5,
        run_length_s=12.0,
        drain_s=5.0,
    )

    def test_emits_full_artifact_bundle(self, tmp_path):
        spec = RunSpec(**self.SPEC)
        outcome = execute_run(spec, str(tmp_path))
        bundle = outcome.artifact_dir
        assert os.path.basename(os.path.dirname(bundle)) == "runs"
        for name in (
            "report.json",
            "trace.jsonl",
            "events.jsonl",
            "invariants.json",
            "vector.json",
            "run.json",
        ):
            assert os.path.exists(os.path.join(bundle, name)), name
        vector = json.loads(open(os.path.join(bundle, "vector.json")).read())
        assert vector["key"] == spec.key
        assert vector["vector"] == outcome.vector
        assert outcome.vector["invariants/checks"] > 0

    def test_replays_byte_identically(self, tmp_path):
        spec = RunSpec(**self.SPEC)
        first = execute_run(spec, str(tmp_path / "a"))
        second = execute_run(spec, str(tmp_path / "b"))
        assert first.vector == second.vector
        for name in ("report.json", "trace.jsonl", "events.jsonl", "vector.json"):
            with open(os.path.join(first.artifact_dir, name), "rb") as fa:
                with open(os.path.join(second.artifact_dir, name), "rb") as fb:
                    assert fa.read() == fb.read(), name

    def test_infrastructure_serving_replays_in_process(self, tmp_path):
        """RSU ids are rewound with every other id counter, so a cell
        that deploys RSUs replays identically in a warm process."""
        spec = RunSpec(
            campaign="full",
            architecture="infrastructure",
            workload="serving",
            fault_profile="none",
            mobility="highway",
            seed=1,
            run_length_s=24.0,
        )
        first = execute_run(spec, str(tmp_path / "a"))
        second = execute_run(spec, str(tmp_path / "b"))
        assert first.vector["serve/admitted"] > 0
        assert first.vector == second.vector

    def test_orchestrator_writes_manifest(self, tmp_path):
        spec = make_spec(
            matrix=ScenarioMatrix(
                architectures=("stationary",),
                workloads=("tasks",),
                fault_profiles=("none",),
                mobility_models=("stationary",),
                seeds=(1, 2),
            )
        )
        run = CampaignOrchestrator(spec, str(tmp_path)).execute()
        manifest = load_manifest(str(tmp_path))
        assert manifest["campaign"] == "t"
        assert len(manifest["runs"]) == 2
        assert sorted(run.run_vectors()) == sorted(
            entry["key"] for entry in manifest["runs"]
        )
        # Cell vectors average over the seeds of each cell.
        (cell_vector,) = run.cell_vectors().values()
        vectors = list(run.run_vectors().values())
        for name, value in cell_vector.items():
            assert value == pytest.approx(
                sum(v[name] for v in vectors) / len(vectors)
            ), name

    def test_tiered_backhaul_cell_executes(self, tmp_path):
        spec = RunSpec(
            **{
                **self.SPEC,
                "architecture": "tiered",
                "fault_profile": "backhaul",
                "run_length_s": 20.0,
                "drain_s": 8.0,
            }
        )
        outcome = execute_run(spec, str(tmp_path))
        assert not outcome.violations
        # The WAN schedule fired (loss burst + partition + jitter spike)
        # and the tiered submit path produced tier metrics.
        assert outcome.faults_injected == 3
        assert outcome.vector["tier/submitted"] > 0
        assert outcome.vector["tier/speculated"] > 0
        assert outcome.vector["tier/backhaul_sent"] > 0

    def test_backhaul_profile_needs_a_backhaul(self):
        with pytest.raises(CampaignError):
            RunSpec(**{**self.SPEC, "fault_profile": "backhaul"})


class TestBaselineStore:
    def test_record_and_load_roundtrip(self, tmp_path):
        spec = make_spec(
            matrix=ScenarioMatrix(
                architectures=("stationary",),
                workloads=("tasks",),
                fault_profiles=("none",),
                mobility_models=("stationary",),
                seeds=(1,),
            )
        )
        run = CampaignOrchestrator(spec, str(tmp_path / "run")).execute()
        store = BaselineStore(str(tmp_path / "baselines"))
        store.record(run, note="unit")
        assert store.exists("t")
        assert store.cell_vectors("t") == run.cell_vectors()
        assert store.run_vectors("t") == run.run_vectors()

    def test_missing_baseline_raises(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        with pytest.raises(CampaignError):
            store.load("nope")
        with pytest.raises(CampaignError):
            store.path_for("../escape")

    def test_ingest_eseries_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "E99_demo.json").write_text(
            json.dumps(
                {
                    "experiment": "E99_demo",
                    "entries": [
                        {"label": "a", "vector": {"goodput": 2.0}},
                        {"label": "b", "vector": {"goodput": 3.0}},
                    ],
                }
            )
        )
        store = BaselineStore(str(tmp_path / "baselines"))
        path = store.ingest_results_dir(str(results))
        document = json.loads(open(path).read())
        assert document["runs"]["E99_demo/a"] == {"goodput": 2.0}
        assert document["cells"]["E99_demo"]["b/goodput"] == 3.0
        with pytest.raises(CampaignError):
            store.ingest_results_dir(str(tmp_path / "empty"))


class TestReplayGate:
    """One seeded run drifting from its blessed vector fails the gate,
    even when every cell mean stays inside its tolerance band."""

    def test_drifted_run_vector_fails_report_and_cli(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        spec = make_spec(
            matrix=ScenarioMatrix(
                architectures=("stationary",),
                workloads=("serving",),
                fault_profiles=("none",),
                mobility_models=("stationary",),
                seeds=(1,),
            )
        )
        run = CampaignOrchestrator(spec, str(tmp_path / "run")).execute()
        blessed = {"cells": run.cell_vectors(), "runs": run.run_vectors()}
        (key,) = blessed["runs"]
        perturbed = json.loads(json.dumps(blessed))
        perturbed["runs"][key]["serve/admitted"] += 1

        reporter = Reporter.for_spec(spec)
        assert reporter.compare(run, blessed).ok
        report = reporter.compare(run, perturbed)
        assert not report.regressions and not report.violations
        assert not report.ok
        assert report.replay_drift == {key: ["serve/admitted"]}
        assert key in report.to_markdown()
        assert report.to_dict()["replay_drift"] == {key: ["serve/admitted"]}

        spec_path = str(tmp_path / "spec.json")
        spec.to_json(spec_path)
        for name, baseline, status in (("blessed", blessed, 0), ("perturbed", perturbed, 1)):
            path = str(tmp_path / f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(baseline, handle)
            argv = ["run", spec_path, "--baseline", path, "--out", str(tmp_path / name)]
            assert main(argv) == status, name
        assert f"{key}: serve/admitted" in capsys.readouterr().out


class TestReporterClassification:
    def delta(self, baseline, current, classification, delta=None):
        return MetricDelta(
            name="m",
            baseline=baseline,
            current=current,
            delta=delta,
            relative=None,
            classification=classification,
        )

    def test_direction_inference(self):
        assert direction_for("serve/p99_latency_s") == "lower"
        assert direction_for("serve/goodput_per_s") == "higher"
        assert direction_for("dag/deadline_hit_rate") == "higher"
        assert direction_for("invariants/violations") == "lower"
        assert direction_for("tasks/records") == "both"
        assert direction_for("tasks/records", {"tasks/records": "higher"}) == "higher"

    def test_classify_folds_direction_and_verdict(self):
        assert classify(self.delta(1, 1, "within"), "both") == "ok"
        assert classify(self.delta(None, 1, "missing_baseline"), "both") == "new"
        assert classify(self.delta(1, None, "missing_current"), "both") == "missing"
        assert classify(self.delta(1, float("nan"), "nan"), "both") == "nan"
        out = lambda d: self.delta(10, 10 + d, "outside", delta=d)  # noqa: E731
        assert classify(out(-2.0), "higher") == "regression"
        assert classify(out(2.0), "higher") == "improvement"
        assert classify(out(2.0), "lower") == "regression"
        assert classify(out(-2.0), "lower") == "improvement"
        assert classify(out(2.0), "both") == "regression"
        assert classify(out(-2.0), "both") == "regression"


class FakeRun:
    """A CampaignRun-shaped stub for reporter tests."""

    def __init__(self, cells, violations=()):
        self._cells = cells
        self.violations = list(violations)
        self.outcomes = []
        self.workers = 1
        self.wall_clock_s = 0.0
        self.spec = make_spec()

    def cell_vectors(self):
        return self._cells


class TestReporter:
    def test_regression_and_improvement_split(self):
        run = FakeRun({"cell": {"goodput": 5.0, "p99_latency_s": 1.0}})
        baseline = {"cells": {"cell": {"goodput": 10.0, "p99_latency_s": 2.0}}}
        report = Reporter(default_tolerance=ToleranceBand(rel_tol=0.05)).compare(
            run, baseline
        )
        assert [f.metric for f in report.regressions] == ["goodput"]
        assert [f.metric for f in report.improvements] == ["p99_latency_s"]
        assert not report.ok

    def test_within_tolerance_is_green(self):
        run = FakeRun({"cell": {"goodput": 10.4}})
        baseline = {"cells": {"cell": {"goodput": 10.0}}}
        report = Reporter(default_tolerance=ToleranceBand(rel_tol=0.05)).compare(
            run, baseline
        )
        assert report.ok and not report.regressions

    def test_missing_metric_fails(self):
        run = FakeRun({"cell": {}})
        baseline = {"cells": {"cell": {"goodput": 10.0}}}
        report = Reporter().compare(run, baseline)
        assert [f.status for f in report.regressions] == ["missing"]

    def test_violations_fail_even_without_baseline(self):
        report = Reporter().compare(
            FakeRun({"cell": {"x": 1.0}}, violations=["boom"]), None
        )
        assert not report.ok
        assert report.violations == ["boom"]
        assert [f.status for f in report.new_metrics] == ["new"]

    def test_no_baseline_clean_run_passes(self):
        report = Reporter().compare(FakeRun({"cell": {"x": 1.0}}), None)
        assert report.ok and not report.baseline_available

    def test_report_renders_and_strips_volatile(self, tmp_path):
        run = FakeRun({"cell": {"goodput": 5.0}})
        baseline = {"cells": {"cell": {"goodput": 10.0}}}
        report = Reporter().compare(run, baseline)
        paths = report.write(str(tmp_path))
        document = json.loads(open(paths["json"]).read())
        assert document["ok"] is False
        assert "timing" in document
        assert "timing" not in strip_volatile(document)
        markdown = open(paths["markdown"]).read()
        assert "FAIL" in markdown and "goodput" in markdown
