"""Container placement strategies for the cluster orchestrator.

The paper leans on the fact that "currently most of the container
clusters are managed by centralized cluster orchestrator (e.g. Mesos,
Kubernetes, Docker Swarm)" (§3.1).  Placement policy matters to FreeFlow
because it decides how often the shared-memory fast path applies:
packing communicating containers together turns inter-host RDMA flows
into intra-host shm flows — an effect the deployment-cases bench (E11)
sweeps explicitly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

from ..errors import PlacementError
from .container import ContainerSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = [
    "PlacementStrategy",
    "SpreadStrategy",
    "BinPackStrategy",
    "RoundRobinStrategy",
    "AffinityStrategy",
    "RackAwareStrategy",
]


class PlacementStrategy(Protocol):
    """Chooses a host for a container given current per-host load."""

    def place(
        self,
        spec: ContainerSpec,
        hosts: Sequence["Host"],
        load: dict[str, int],
    ) -> "Host":
        """Return the chosen host; raise PlacementError if impossible."""
        ...  # pragma: no cover


def _require_hosts(hosts: Sequence["Host"]) -> None:
    if not hosts:
        raise PlacementError("no hosts registered with the orchestrator")


class SpreadStrategy:
    """Least-loaded first (Kubernetes default-ish): maximise headroom."""

    def place(self, spec, hosts, load):
        _require_hosts(hosts)
        return min(hosts, key=lambda h: (load.get(h.name, 0), h.name))


class BinPackStrategy:
    """Most-loaded first (with a per-host cap): minimise hosts used.

    Packing increases the chance two communicating containers share a
    host — the FreeFlow-friendliest placement.
    """

    def __init__(self, max_per_host: int = 64) -> None:
        if max_per_host <= 0:
            raise ValueError("max_per_host must be positive")
        self.max_per_host = max_per_host

    def place(self, spec, hosts, load):
        _require_hosts(hosts)
        candidates = [
            h for h in hosts if load.get(h.name, 0) < self.max_per_host
        ]
        if not candidates:
            raise PlacementError(
                f"all hosts at capacity ({self.max_per_host} per host)"
            )
        return max(candidates, key=lambda h: (load.get(h.name, 0), h.name))


class RoundRobinStrategy:
    """Deterministic rotation — handy for reproducible experiments."""

    def __init__(self) -> None:
        self._next = 0

    def place(self, spec, hosts, load):
        _require_hosts(hosts)
        host = hosts[self._next % len(hosts)]
        self._next += 1
        return host


class RackAwareStrategy:
    """Two-level rack-sharded placement: pick the least-loaded rack by
    average per-host load, then the least-loaded up host inside it.

    The ranking lives in the orchestrator
    (:meth:`~repro.cluster.orchestrator.ClusterOrchestrator.least_loaded_host`),
    which keeps racks and each rack's up hosts in lazily invalidated
    min-heaps, so a submit reads two heap heads: O(log racks + log rack
    size) amortised, where a scan of every rack cost O(racks + rack
    size).  It examines at most 4 heap entries per submit while a fleet
    is built (3.96 at 64 hosts, 3.99 at 8,192), and an 8,192-host /
    256-rack fleet builds in 2.0 s instead of 8.0 s (DESIGN.md §15).
    A ``rack`` label on the spec pins the choice to that rack.  Without
    a bound cluster (``RackAwareStrategy()``), falls back to spreading
    over the offered candidates.
    """

    def __init__(self, cluster=None) -> None:
        #: The :class:`~repro.cluster.orchestrator.ClusterOrchestrator`
        #: whose rack shards we read; bound late by callers that build
        #: the strategy before the cluster.
        self.cluster = cluster
        self._fallback = SpreadStrategy()

    def place(self, spec, hosts, load):
        cluster = self.cluster
        if cluster is None:
            return self._fallback.place(spec, hosts, load)
        pinned_rack = spec.labels.get("rack")
        host = cluster.least_loaded_host(pinned_rack)
        if host is None:
            racks = ((pinned_rack,) if pinned_rack is not None
                     else cluster.rack_names())
            raise PlacementError(
                f"no rack with live hosts (racks considered: {list(racks)!r})"
            )
        return host


class AffinityStrategy:
    """Honour an ``affinity`` label naming a container to co-locate with.

    Falls back to an inner strategy when no affinity is expressed or the
    target is unknown.
    """

    def __init__(self, locations: dict[str, str], fallback=None) -> None:
        #: Mapping container name -> host name, maintained by the caller.
        self.locations = locations
        self.fallback = fallback or SpreadStrategy()

    def place(self, spec, hosts, load):
        _require_hosts(hosts)
        target = spec.labels.get("affinity")
        if target:
            host_name = self.locations.get(target)
            if host_name is not None:
                for host in hosts:
                    if host.name == host_name:
                        return host
        return self.fallback.place(spec, hosts, load)
