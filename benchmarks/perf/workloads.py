"""The benchmark's workloads: fixed sizes, seeded from the command line.

Plain data, importable without ``repro``, so ``run.py`` stays a light
process and only its children load the simulator.  Sizes
are part of the benchmark: changing one re-baselines every workload.
"""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``RunSpec.campaign`` of every benchmark cell.  It feeds the derived
#: world seed, so it is fixed like the sizes are.
CAMPAIGN_NAME = "perf"

#: One campaign cell per workload: ``RunSpec`` fields other than
#: ``campaign`` and ``seed`` (the seed comes from ``--seed``).
CELLS = {
    "serve-parking": {
        "spec": {
            "architecture": "stationary",
            "workload": "serving",
            "fault_profile": "none",
            "mobility": "stationary",
            "members": 60,
            "run_length_s": 60.0,
        },
        "why": (
            "serving path: gateway admission, shedding and vcloud task results on a parked "
            "fleet whose capacity, so offered load and work, is the same for every seed"
        ),
    },
    "beacon-grid": {
        "spec": {
            "architecture": "dynamic",
            "workload": "tasks",
            "fault_profile": "none",
            "mobility": "grid",
            "members": 300,
            "run_length_s": 10.0,
        },
        "why": (
            "radio substrate at 5x the vehicles: beacons, frame delivery, spatial grid "
            "and Manhattan mobility; no gateway, tier or DAG, the control for those layers"
        ),
    },
    "tier-backhaul": {
        "spec": {
            "architecture": "tiered",
            "workload": "serving",
            "fault_profile": "backhaul",
            "mobility": "stationary",
            "members": 60,
            "run_length_s": 60.0,
        },
        "why": (
            "same gateway routed through tiered speculation over a faulty WAN backhaul; "
            "TierConservation checks grow with run length"
        ),
    },
}

#: The campaign workload: ``campaign_mix.json`` (the full matrix without
#: the infrastructure architecture) for seed S, run serially in the
#: child (``workers=1``).  A pool of two workers on the two vCPUs of a
#: shared host varied by about 10% from repeat to repeat, because each
#: worker is slowed on its own and no probe in the parent follows them;
#: serial runs are probed in their own thread and vary by about 3%.
CAMPAIGN = "campaign-mix"
CAMPAIGN_FILE = os.path.join(HERE, "campaign_mix.json")
CAMPAIGN_WHY = (
    "many small cells run back to back: per-run set-up, obs export, "
    "DAG planning and checkpoint writes dominate"
)

WORKLOADS = tuple(CELLS) + (CAMPAIGN,)


def why(workload: str) -> str:
    """One line on why the workload is in the benchmark."""
    return CAMPAIGN_WHY if workload == CAMPAIGN else CELLS[workload]["why"]
