"""Exception hierarchy for the FreeFlow reproduction.

Every library-raised error derives from :class:`FreeFlowError`, so callers
can catch the whole family; the sub-classes mirror the paper's subsystems.
"""

from __future__ import annotations

__all__ = [
    "FreeFlowError",
    "AddressError",
    "AddressExhausted",
    "RoutingError",
    "TransportError",
    "TransportUnavailable",
    "VerbsError",
    "QueuePairStateError",
    "MemoryRegionError",
    "CompletionError",
    "OrchestrationError",
    "UnknownContainer",
    "PlacementError",
    "FlowStateError",
    "LeaseError",
    "CompactedRevision",
    "EngineInvariantError",
    "SanitizerViolation",
    "DeadlockDetected",
    "SocketError",
    "ConnectionRefused",
    "ConnectionReset",
    "SocketShutdownError",
    "RingBufferError",
    "MigrationError",
]


class FreeFlowError(Exception):
    """Base class for every error raised by this library."""


# -- addressing / routing --------------------------------------------------


class AddressError(FreeFlowError):
    """Invalid or conflicting network address."""


class AddressExhausted(AddressError):
    """The IPAM pool has no free addresses left."""


class RoutingError(FreeFlowError):
    """No route to the destination container/agent."""


# -- data plane --------------------------------------------------------------


class TransportError(FreeFlowError):
    """A data-plane mechanism failed to deliver."""


class TransportUnavailable(TransportError):
    """The requested mechanism is not usable here (e.g. no RDMA NIC)."""


# -- verbs / vNIC -------------------------------------------------------------


class VerbsError(FreeFlowError):
    """Misuse of the RDMA Verbs API surface."""


class QueuePairStateError(VerbsError):
    """Operation not permitted in the queue pair's current state."""


class MemoryRegionError(VerbsError):
    """Bad memory-region key or out-of-bounds access."""


class CompletionError(VerbsError):
    """A work request completed with an error status."""


# -- orchestration -------------------------------------------------------------


class OrchestrationError(FreeFlowError):
    """Control-plane failure (orchestrator or agent)."""


class UnknownContainer(OrchestrationError):
    """The orchestrator has no record of the named container."""


class PlacementError(OrchestrationError):
    """The cluster scheduler could not place a container."""


class FlowStateError(OrchestrationError):
    """Illegal transition in the per-flow lifecycle state machine.

    Raised by :class:`repro.core.flows.FlowTable` when a caller asks for
    a transition the state machine does not permit (e.g. repairing a
    flow that never broke, or rebinding a closed flow).
    """


class LeaseError(OrchestrationError):
    """Misuse of a KV lease (unknown id, or operating on a dead lease).

    Raised by :class:`repro.cluster.kvstore.KeyValueStore` when a caller
    keepalives or attaches keys to a lease that has already expired or
    been revoked — the etcd behaviour (``ErrLeaseNotFound``) that forces
    clients to notice their session died instead of writing into a void.
    """


class CompactedRevision(OrchestrationError):
    """The requested watch revision predates the compaction horizon.

    Raised by :meth:`repro.cluster.kvstore.Watch.resync` when the
    revision history needed for a precise replay has been compacted
    away.  Callers recover the way etcd
    clients do: fall back to a full snapshot resync and diff.
    """


# -- engine / sanitizer --------------------------------------------------------


class EngineInvariantError(FreeFlowError):
    """An internal invariant of the discrete-event engine was violated.

    Raised instead of a bare ``assert`` so the check survives ``python -O``
    and names the broken invariant (simlint rule SIM007).
    """


class SanitizerViolation(EngineInvariantError):
    """A runtime sanitizer check failed (``REPRO_SANITIZE=1``).

    The sanitizer (:mod:`repro.analysis.sanitizer`) arms cheap invariant
    hooks in the engine and the streaming sockets: no past-dated events,
    monotone sim clock, globally ordered event pops, and ring-byte
    conservation.
    """


class DeadlockDetected(SanitizerViolation):
    """The runtime wait-for graph found an unbreakable wait cycle.

    Raised at park time by :mod:`repro.analysis.waitfor`
    (``REPRO_WAITFOR=1``) when a process about to block on a lock
    closes a cycle of lock holders — every process in the ring waits on
    a slot held by the next, so no release can ever happen.  The message
    names each process and the resource it waits on.  Tank/store waits
    never raise (backpressure cycles can be broken by third parties);
    they show up in the idle report instead.
    """


# -- socket translation --------------------------------------------------------


class SocketError(FreeFlowError):
    """Socket-over-verbs layer error."""


class ConnectionRefused(SocketError):
    """No listener at the destination IP:port."""


class ConnectionReset(SocketError):
    """The peer endpoint went away mid-connection."""


class SocketShutdownError(SocketError):
    """I/O on a socket this end already shut down.

    Raised by ``recv`` on a half-shut socket — ``shutdown()`` was
    called locally, so no more data can ever arrive on this endpoint.
    Distinct from the generic :class:`SocketError` so callers can tell
    "you closed this yourself" from genuine misuse.
    """


class RingBufferError(SocketError):
    """Streaming-ring accounting violation (overflow/underflow/wrap).

    The credit protocol is supposed to make these unreachable; raising
    a typed error (instead of silently corrupting head/tail) turns a
    flow-control bug into a loud failure.
    """


# -- migration -------------------------------------------------------------------


class MigrationError(FreeFlowError):
    """Live migration could not complete."""


class ChannelRebound(FreeFlowError):
    """Internal signal: the channel under a connection was swapped.

    Receivers parked on the old channel are ejected with this exception
    and transparently retry on the new channel; applications never see it
    unless they bypass the connection facade.
    """
