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

    Cost per submit is O(#racks + rack size) against the orchestrator's
    incrementally-maintained shard counters — it does not scan the fleet,
    so placement cost stops scaling with host count (DESIGN.md §15).  Only
    the chosen rack's host list is built; the others are ranked by their
    O(1) up-host count and load.  A
    ``rack`` label on the spec pins the choice to that rack.  Without a
    bound cluster (``RackAwareStrategy()``), falls back to spreading over
    the offered candidates.
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
        if pinned_rack is not None:
            racks = (pinned_rack,)
        else:
            racks = cluster.rack_names()
        best_rack = None
        best_key = None
        for rack in racks:
            up = cluster.rack_size(rack)
            if up == 0:
                continue
            key = (cluster.rack_load(rack) / up, rack)
            if best_key is None or key < best_key:
                best_key = key
                best_rack = rack
        if best_rack is None:
            raise PlacementError(
                f"no rack with live hosts (racks considered: {list(racks)!r})"
            )
        candidates = cluster.rack_hosts(best_rack)
        return min(candidates, key=lambda h: (load.get(h.name, 0), h.name))


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
