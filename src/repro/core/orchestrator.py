"""FreeFlow's network orchestrator: the centralized control plane (S8).

Paper §4.2: "The network orchestrator of FreeFlow maintains three kinds
of global information: the location of each container (from cluster
orchestrator), the assigned IP of each container and the capabilities of
host NICs.  If containers are running on top of VMs, the network
orchestrator also needs to know which physical machine each VM is
located (from fabric controllers)."

This class is exactly that: it *derives* its state from the cluster
orchestrator + fabric controller (it is not a second source of truth),
assigns overlay IPs via the IPAM, answers location/mechanism queries —
with a modelled RPC latency, since the paper's library keeps "pulling
the newest container location information" over the network — and pushes
change notifications through KV-store watches so agents and libraries
can cache without going stale forever.

Ownership split (see DESIGN.md "Two orchestrators"): the **cluster**
orchestrator (:class:`repro.cluster.orchestrator.ClusterOrchestrator`)
owns container *lifecycle and placement* — hosts, VMs, submit/stop,
relocation, host failure.  This **network** orchestrator owns the
*network view* derived from it — overlay IPs, location/capability
queries, the mechanism policy.  Nothing network-related lives in the
cluster orchestrator, and this class never places or moves containers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..cluster.container import Container
from ..cluster.kvstore import KeyValueStore, Watch
from ..cluster.orchestrator import ClusterOrchestrator
from ..errors import UnknownContainer
from ..netstack.addressing import IpPool, OverlaySubnets
from ..telemetry import events as _events
from ..transports.base import Mechanism
from .policy import MechanismPolicy, PolicyConfig, PolicyDecision

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["ContainerRecord", "NetworkOrchestrator"]


@dataclass
class ContainerRecord:
    """What the orchestrator knows about one registered container."""

    container: Container
    ip: str
    generation: int

    @property
    def host_name(self) -> str:
        return self.container.host.name


class NetworkOrchestrator:
    """Centralized location/IP/capability registry plus policy engine."""

    def __init__(
        self,
        cluster: ClusterOrchestrator,
        policy: Optional[MechanismPolicy] = None,
        subnets: Optional[OverlaySubnets] = None,
        query_latency_s: float = 50e-6,
    ) -> None:
        self.env = cluster.env
        self.cluster = cluster
        self.policy = policy or MechanismPolicy()
        self.subnets = subnets or OverlaySubnets()
        #: Modelled RPC round-trip to the orchestrator service.  The
        #: caching ablation (E13) varies the effective cost of queries.
        self.query_latency_s = query_latency_s
        self.kv = KeyValueStore(cluster.env)
        self._records: dict[str, ContainerRecord] = {}
        self._ip_index: dict[str, str] = {}  # ip -> container name
        #: host name -> {container name -> None}: the per-host shard of
        #: the records, so host-failure handling touches only the dead
        #: host's containers instead of scanning the fleet.  Re-keyed on
        #: :meth:`refresh_location` (the publish step of a migration).
        self._host_index: dict[str, dict[str, None]] = {}
        self._host_of: dict[str, str] = {}  # container name -> indexed host
        #: Runtime NIC-capability overrides, host name -> partial caps
        #: dict (e.g. ``{"rdma": False}``).  The registry view can
        #: diverge from the hardware when an operator drains a NIC.
        self._nic_overrides: dict[str, dict] = {}
        self.queries_served = 0

    # -- registration (control plane writes) --------------------------------------

    def register(self, container: Container) -> ContainerRecord:
        """Admit a container to the overlay: allocate/pin its IP."""
        if container.name in self._records:
            raise ValueError(f"container {container.name!r} already registered")
        pool = self.subnets.pool(container.tenant)
        ip = pool.allocate(container.spec.requested_ip)
        container.ip = ip
        record = ContainerRecord(container, ip, container.generation)
        self._records[container.name] = record
        self._ip_index[ip] = container.name
        self._index_host(container.name, record.host_name)
        self._publish(record)
        _events.emit(self.env, "container.register",
                     container=container.name, ip=ip,
                     host=record.host_name)
        return record

    def deregister(self, name: str) -> None:
        record = self._records.pop(name, None)
        if record is None:
            return
        self._ip_index.pop(record.ip, None)
        self._unindex_host(name)
        self.subnets.pool(record.container.tenant).release(record.ip)
        record.container.ip = None
        self.kv.delete(f"/network/containers/{name}")
        _events.emit(self.env, "container.deregister", container=name,
                     ip=record.ip)

    def refresh_location(self, name: str) -> ContainerRecord:
        """Re-sync a record after the cluster moved the container."""
        record = self._record(name)
        record.generation = record.container.generation
        self._index_host(name, record.host_name)
        self._publish(record)
        _events.emit(self.env, "container.relocate", container=name,
                     host=record.host_name,
                     generation=record.generation)
        return record

    def _publish(self, record: ContainerRecord) -> None:
        self.kv.put(f"/network/containers/{record.container.name}", {
            "ip": record.ip,
            "host": record.host_name,
            "generation": record.generation,
        })

    # -- queries (what libraries/agents call at connection time) ---------------------

    def _record(self, name: str) -> ContainerRecord:
        try:
            return self._records[name]
        except KeyError:
            raise UnknownContainer(f"{name!r} is not registered") from None

    def lookup(self, name: str) -> ContainerRecord:
        """Synchronous (zero-latency) lookup — for tests and local use."""
        return self._record(name)

    def lookup_by_ip(self, ip: str) -> ContainerRecord:
        name = self._ip_index.get(ip)
        if name is None:
            raise UnknownContainer(f"no container owns IP {ip}")
        return self._record(name)

    def query_mechanism(self, src_name: str, dst_name: str):
        """RPC-shaped policy query (generator): which mechanism to use.

        One round trip answers both endpoints' locations plus the
        decision, matching the orchestrator flow in the paper's Fig. 7
        sketch (query Mesos/fabric controller, then flag the mechanism).
        """
        yield self.env.timeout(self.query_latency_s)
        self.queries_served += 1
        return self.decide(src_name, dst_name)

    def decide(self, src_name: str, dst_name: str) -> PolicyDecision:
        """Synchronous policy decision from current global state."""
        src = self._record(src_name).container
        dst = self._record(dst_name).container
        return self.policy.decide(src, dst, capabilities=self._nic_overrides)

    def nic_capabilities(self, host_name: str) -> dict:
        """The third kind of global information (§4.2).

        Merges the hardware truth with any runtime overrides set via
        :meth:`set_nic_capability` — callers see the registry view the
        policy engine actually decides with.
        """
        host = self.cluster.host(host_name)
        caps = {
            "model": host.nic.spec.model,
            "rdma": host.rdma_capable,
            "dpdk": host.dpdk_capable,
            "link_rate_bps": host.nic.spec.link_rate_bps,
        }
        caps.update(self._nic_overrides.get(host_name, {}))
        return caps

    def set_nic_capability(
        self,
        host_name: str,
        rdma: Optional[bool] = None,
        dpdk: Optional[bool] = None,
        degraded: Optional[bool] = None,
    ) -> dict:
        """Change a host's NIC capability bits in the registry at runtime.

        Models an operator draining (or re-enabling) a bypass feature —
        e.g. disabling RDMA on a host ahead of a firmware upgrade.  The
        ``degraded`` bit is the blunter instrument: it forces every flow
        touching the host onto kernel TCP regardless of the other bits
        (see :meth:`MechanismPolicy.decide`).  The merged view is
        published under ``/network/nics/<host>`` so the flow reconciler
        can re-decide affected flows; existing channels are *not* torn
        down here (policy is control plane, not enforcement).
        """
        self.cluster.host(host_name)  # validate the name
        override = self._nic_overrides.setdefault(host_name, {})
        if rdma is not None:
            override["rdma"] = bool(rdma)
        if dpdk is not None:
            override["dpdk"] = bool(dpdk)
        if degraded is not None:
            override["degraded"] = bool(degraded)
        caps = self.nic_capabilities(host_name)
        self.kv.put(f"/network/nics/{host_name}", {
            "rdma": caps["rdma"],
            "dpdk": caps["dpdk"],
            "degraded": bool(caps.get("degraded", False)),
        })
        _events.emit(self.env, "nic.capability", host=host_name,
                     rdma=caps["rdma"], dpdk=caps["dpdk"],
                     degraded=bool(caps.get("degraded", False)))
        return caps

    def _index_host(self, name: str, host_name: str) -> None:
        old = self._host_of.get(name)
        if old == host_name:
            return
        if old is not None:
            shard = self._host_index.get(old)
            if shard is not None:
                shard.pop(name, None)
                if not shard:
                    del self._host_index[old]
        self._host_of[name] = host_name
        self._host_index.setdefault(host_name, {})[name] = None

    def _unindex_host(self, name: str) -> None:
        host_name = self._host_of.pop(name, None)
        if host_name is None:
            return
        shard = self._host_index.get(host_name)
        if shard is not None:
            shard.pop(name, None)
            if not shard:
                del self._host_index[host_name]

    def containers_on(self, host_name: str) -> list[str]:
        """Names of registered containers recorded on ``host_name`` —
        served from the per-host index, O(containers on that host)."""
        return list(self._host_index.get(host_name, ()))

    def watch_capabilities(self) -> Watch:
        """Subscribe to runtime NIC-capability changes (all hosts)."""
        return self.kv.watch("/network/nics/")

    # -- convenience --------------------------------------------------------------

    def locate(self, name: str) -> "Host":
        """Physical host (resolving VMs through the fabric controller)."""
        return self.cluster.locate(name)
