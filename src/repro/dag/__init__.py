"""Dependable DAG execution over vehicular clouds (ROADMAP item 2).

``repro.dag`` runs dependency-structured jobs on a
:class:`~repro.core.vcloud.VehicularCloud` and keeps them alive through
worker churn: reliability-aware stage replication (k-of-n,
first-result-wins), quorum-checkpointed intermediate outputs, and
failure-aware re-execution of only the lost frontier.
"""

from .graph import GraphState, StageSpec, StageStatus, TaskGraph, chain
from .redundancy import RedundancyPlan, RedundancyPlanner, success_probability
from .reliability import ReliabilityEstimator
from .scheduler import (
    REPLICA_CANCELLED,
    DagScheduler,
    DagStats,
    GraphRecord,
)
from .templates import (
    GraphTemplate,
    StageTemplate,
    map_reduce_template,
    pipeline_template,
)

__all__ = [
    "GraphState",
    "StageSpec",
    "StageStatus",
    "TaskGraph",
    "chain",
    "RedundancyPlan",
    "RedundancyPlanner",
    "success_probability",
    "ReliabilityEstimator",
    "REPLICA_CANCELLED",
    "DagScheduler",
    "DagStats",
    "GraphRecord",
    "GraphTemplate",
    "StageTemplate",
    "map_reduce_template",
    "pipeline_template",
]
