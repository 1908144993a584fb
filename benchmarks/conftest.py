"""Shared benchmark fixtures.

Every experiment renders its table with ``repro.analysis.render_table``
and publishes it through the ``record_table`` fixture, which both prints
it (visible with ``pytest -s``) and writes it to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote the
exact output.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, Mapping, Optional

import pytest

from repro.ids import reset_global_ids

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_runtest_setup(item):
    """Rewind every id counter in :mod:`repro.ids` before every experiment.

    Ids break ties and name RNG substreams, so without the rewind an
    experiment's recorded table would depend on which experiments ran
    before it in the same process.  The rewind runs ahead of fixture
    setup, so a module-scoped fixture that builds its worlds for a
    module's first test starts from fresh ids too.
    """
    reset_global_ids()


@pytest.fixture
def record_table():
    """Return a callback ``record(experiment_id, table_text)``."""

    def _record(experiment_id: str, table_text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        existing = path.read_text() if path.exists() else ""
        if table_text not in existing:
            path.write_text(existing + table_text + "\n\n")
        print()
        print(table_text)

    return _record


@pytest.fixture
def record_run_json():
    """Return ``record(experiment_id, label, vector, seed=, config=)``.

    Accumulates machine-readable rows next to the ``.txt`` tables as
    ``benchmarks/results/<experiment>.json`` in the shape
    ``repro.campaign.BaselineStore.ingest_results_dir`` consumes::

        {"experiment": "E16_overload",
         "entries": [{"label": ..., "seed": ..., "config": {...},
                      "vector": {metric: value}}]}

    Rows are keyed by label: re-recording a label replaces its entry, so
    reruns stay idempotent instead of appending duplicates.  Non-finite
    values (``inf`` sentinel latencies and the like) are dropped — they
    are not valid JSON and carry no baseline information.
    """

    def _record(
        experiment_id: str,
        label: str,
        vector: Mapping[str, float],
        seed: Optional[int] = None,
        config: Optional[Mapping[str, Any]] = None,
    ) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.json"
        document: Dict[str, Any] = {"experiment": experiment_id, "entries": []}
        if path.exists():
            document = json.loads(path.read_text())
        entry: Dict[str, Any] = {
            "label": label,
            "vector": {
                name: float(value)
                for name, value in vector.items()
                if math.isfinite(float(value))
            },
        }
        if seed is not None:
            entry["seed"] = int(seed)
        if config is not None:
            entry["config"] = dict(config)
        entries = [e for e in document.get("entries", []) if e.get("label") != label]
        entries.append(entry)
        document["entries"] = entries
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    return _record
