"""V-cloud core: architectures, membership, election, tasks, replication.

The package re-exports what a v-cloud run is built from: the three
architectures, membership, broker election, resource pooling, task
allocation, handover, backlog estimation, the replicated file store and
the :class:`VehicularCloud` itself.

Nine feature modules are not re-exported, because no run of the
campaign harness loads them and importing a name here loads its module
in every process that imports ``repro.core``.  Three of them
(``bootstrap``, ``modes`` and ``snapshot``) import :mod:`repro.security`
as well.  Import their names from the defining submodule::

    from repro.core.aggregation import ResultAggregator    # result aggregation
    from repro.core.bootstrap import SecureBootstrap       # secure bootstrap
    from repro.core.directory import ResourceDirectory     # resource directory
    from repro.core.federation import CloudFederation      # merge and split
    from repro.core.incentives import CreditLedger         # credit incentives
    from repro.core.modes import ModePropagation           # operating modes
    from repro.core.sensing import SensingService          # sensing-as-a-service
    from repro.core.snapshot import TopologyRecorder       # topology forensics
    from repro.core.task_protocol import NetworkedTaskExchange  # offload over the channel
"""

from ..faults.recovery import BackoffPolicy, WorkerLeases
from .architectures import DynamicVCloud, InfrastructureVCloud, StationaryVCloud
from .capacity import BacklogEstimator, LoadSignal
from .election import BrokerCandidate, BrokerElection, ElectionResult
from .handover import (
    CheckpointHandoverPolicy,
    DropPolicy,
    HandoverOutcome,
    HandoverPolicy,
)
from .membership import MemberInfo, MembershipManager
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
    "WorkerLeases",
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
    "QuorumConfig",
    "RandomAllocator",
    "ReadResult",
    "Reservation",
    "ReplicationManager",
    "VersionStamp",
    "WriteResult",
    "ZERO_STAMP",
    "ResourceKind",
    "ResourceOffer",
    "ResourcePool",
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
]
