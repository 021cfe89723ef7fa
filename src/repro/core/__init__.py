"""FreeFlow core (S8-S11, S15): the paper's contribution.

The centralized network orchestrator, per-host network agents with the
integrated data plane, virtual RDMA NICs executing verbs over any
mechanism, the socket/MPI translations, and live migration support.
"""

from .agent import AgentStats, FreeFlowAgent, RelayLane, build_channel
from .flows import (
    ChannelFactory,
    ConnectionEnd,
    FlowReconciler,
    FlowState,
    FlowTable,
)
from .middlebox import InspectedLane, Middlebox, wrap_channel
from .migration import MigrationController, MigrationReport
from .mpi import (
    MPI_TRANSLATION_CYCLES,
    Communicator,
    PendingRequest,
    RankEndpoint,
)
from .network import FlowConnection, FreeFlowNetwork
from .orchestrator import ContainerRecord, NetworkOrchestrator
from .policy import MechanismPolicy, PolicyConfig, PolicyDecision
from .ratelimit import RateLimitedLane, TokenBucket
from .ringbuf import RingBuffer
from .sockets import (
    RECV_MAX_BYTES,
    RING_BYTES,
    SOCKET_TRANSLATION_CYCLES,
    ZERO_COPY_THRESHOLD_BYTES,
    FreeFlowListener,
    FreeFlowSocket,
    SocketLayer,
)
from .verbs import (
    CQ_POLL_BATCH,
    CompletionQueue,
    MemoryRegion,
    Opcode,
    ProtectionDomain,
    QpState,
    QueuePair,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)
from .vnic import VNIC_POST_OVERHEAD_CYCLES, VirtualNic

__all__ = [
    "AgentStats",
    "CQ_POLL_BATCH",
    "ChannelFactory",
    "Communicator",
    "CompletionQueue",
    "ConnectionEnd",
    "ContainerRecord",
    "FlowConnection",
    "FlowReconciler",
    "FlowState",
    "FlowTable",
    "FreeFlowAgent",
    "FreeFlowListener",
    "FreeFlowNetwork",
    "FreeFlowSocket",
    "InspectedLane",
    "MPI_TRANSLATION_CYCLES",
    "MechanismPolicy",
    "MemoryRegion",
    "Middlebox",
    "MigrationController",
    "MigrationReport",
    "NetworkOrchestrator",
    "Opcode",
    "PendingRequest",
    "PolicyConfig",
    "PolicyDecision",
    "ProtectionDomain",
    "QpState",
    "QueuePair",
    "RECV_MAX_BYTES",
    "RING_BYTES",
    "RankEndpoint",
    "RateLimitedLane",
    "RelayLane",
    "RingBuffer",
    "TokenBucket",
    "SOCKET_TRANSLATION_CYCLES",
    "SocketLayer",
    "VNIC_POST_OVERHEAD_CYCLES",
    "VirtualNic",
    "WcStatus",
    "WorkCompletion",
    "WorkRequest",
    "ZERO_COPY_THRESHOLD_BYTES",
    "build_channel",
    "wrap_channel",
]
