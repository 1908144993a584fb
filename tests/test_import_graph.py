"""What a campaign process loads.

``repro.core`` re-exports only what a v-cloud run is built from.  Its
nine feature modules (secure bootstrap, topology forensics, operating
modes and six more) are imported from their own submodules, and three
of them pull in the whole ``repro.security`` stack.  A campaign run
calls none of it, so neither importing ``repro.campaign`` nor executing
a serial run may load those modules, or ``multiprocessing``, which only
the worker pool needs.  Each check runs in a fresh interpreter, because
this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

FEATURE_MODULES = tuple(
    f"repro.core.{name}"
    for name in (
        "aggregation",
        "bootstrap",
        "directory",
        "federation",
        "incentives",
        "modes",
        "sensing",
        "snapshot",
        "task_protocol",
    )
)

PROBE = """
import json, sys, tempfile

FEATURE_MODULES = set(json.loads(sys.argv[1]))

def unwanted():
    return sorted(
        name for name in sys.modules
        if name == "repro.security" or name.startswith("repro.security.")
        or name in FEATURE_MODULES
        or name == "multiprocessing" or name.startswith("multiprocessing.")
    )

import repro.campaign
after_import = unwanted()

from repro.campaign import RunSpec, execute_run
spec = RunSpec(
    campaign="import-graph", architecture="stationary", workload="tasks",
    fault_profile="none", mobility="stationary", seed=1,
    run_length_s=4.0, drain_s=1.0, members=8,
)
with tempfile.TemporaryDirectory() as out_dir:
    outcome = execute_run(spec, out_dir)
after_run = unwanted()

import repro.core
missing = [name for name in repro.core.__all__ if not hasattr(repro.core, name)]
print(json.dumps({
    "after_import": after_import,
    "after_run": after_run,
    "violations": outcome.violations,
    "missing": missing,
}))
"""


def probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(FEATURE_MODULES)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_a_serial_campaign_run_loads_no_security_or_feature_module():
    result = probe()
    assert result["after_import"] == []
    assert result["after_run"] == []
    assert result["violations"] == []
    assert result["missing"] == []
