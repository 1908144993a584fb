"""V-cloud core: architectures, membership, election, tasks, replication, modes."""

from ..faults.recovery import BackoffPolicy, WorkerLeases
from .incentives import CreditLedger, IncentivizedSubmission, LedgerEntry
from .task_protocol import NetworkedTaskExchange, OffloadResult
from .bootstrap import BootstrapResult, BootstrapStats, SecureBootstrap
from .federation import CloudFederation
from .sensing import SensingAnswer, SensingQuery, SensingService
from .snapshot import (
    ForensicService,
    InvestigationReport,
    TopologyRecorder,
    TopologySnapshot,
)
from .aggregation import (
    AggregationJob,
    PartialResult,
    ResultAggregator,
    dissemination_cost,
)
from .architectures import DynamicVCloud, InfrastructureVCloud, StationaryVCloud
from .capacity import BacklogEstimator, LoadSignal
from .directory import ResourceDirectory, ResourceQuery
from .election import BrokerCandidate, BrokerElection, ElectionResult
from .handover import (
    CheckpointHandoverPolicy,
    DropPolicy,
    HandoverOutcome,
    HandoverPolicy,
)
from .membership import MemberInfo, MembershipManager
from .modes import ModeManager, ModePolicy, ModePropagation, DEFAULT_POLICIES
from .replication import (
    FileStore,
    QuorumConfig,
    ReadResult,
    ReplicationManager,
    StoredFile,
    VersionStamp,
    WriteResult,
    ZERO_STAMP,
)
from .resources import Reservation, ResourceKind, ResourceOffer, ResourcePool
from .scheduler import (
    AllocationChoice,
    Allocator,
    DwellAwareAllocator,
    GreedyResourceAllocator,
    RandomAllocator,
    WorkerCandidate,
    candidates_from_pool,
)
from .tasks import Task, TaskRecord, TaskState
from .vcloud import (
    CloudStats,
    CoordinationAdapter,
    GeometryCoordination,
    RsuCoordination,
    V2VCoordination,
    VehicularCloud,
    WorkerView,
)

__all__ = [
    "BackoffPolicy",
    "NetworkedTaskExchange",
    "OffloadResult",
    "WorkerLeases",
    "CreditLedger",
    "IncentivizedSubmission",
    "LedgerEntry",
    "BootstrapResult",
    "BootstrapStats",
    "CloudFederation",
    "ForensicService",
    "InvestigationReport",
    "SecureBootstrap",
    "SensingAnswer",
    "SensingQuery",
    "SensingService",
    "TopologyRecorder",
    "TopologySnapshot",
    "AggregationJob",
    "AllocationChoice",
    "Allocator",
    "BacklogEstimator",
    "LoadSignal",
    "BrokerCandidate",
    "BrokerElection",
    "CheckpointHandoverPolicy",
    "CloudStats",
    "CoordinationAdapter",
    "GeometryCoordination",
    "DEFAULT_POLICIES",
    "DropPolicy",
    "DwellAwareAllocator",
    "DynamicVCloud",
    "ElectionResult",
    "FileStore",
    "GreedyResourceAllocator",
    "HandoverOutcome",
    "HandoverPolicy",
    "InfrastructureVCloud",
    "MemberInfo",
    "MembershipManager",
    "ModeManager",
    "ModePolicy",
    "ModePropagation",
    "PartialResult",
    "QuorumConfig",
    "RandomAllocator",
    "ReadResult",
    "Reservation",
    "ResourceDirectory",
    "ReplicationManager",
    "VersionStamp",
    "WriteResult",
    "ZERO_STAMP",
    "ResourceKind",
    "ResourceOffer",
    "ResourcePool",
    "ResourceQuery",
    "ResultAggregator",
    "RsuCoordination",
    "StationaryVCloud",
    "StoredFile",
    "Task",
    "TaskRecord",
    "TaskState",
    "V2VCoordination",
    "VehicularCloud",
    "WorkerCandidate",
    "WorkerView",
    "candidates_from_pool",
    "dissemination_cost",
]
