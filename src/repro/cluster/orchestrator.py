"""The cluster orchestrator (Mesos/Kubernetes stand-in, substrate S6).

Owns container lifecycle: submission, placement (via a pluggable
strategy), stop, and relocation.  All state lands in the cluster
:class:`~repro.cluster.kvstore.KeyValueStore` under ``/cluster/...`` so
that FreeFlow's *network* orchestrator can watch placements exactly the
way the paper prescribes ("the information about the location of the
other endpoints can be easily obtained by querying the orchestrator",
§3.1).

Ownership split (see DESIGN.md "Two orchestrators"): this class owns
*lifecycle and placement* only.  Everything network-flavoured — overlay
IPs, location queries with RPC latency, NIC capabilities, the mechanism
policy — belongs to :class:`repro.core.orchestrator.NetworkOrchestrator`,
which derives its state from here and is never a second source of truth
for placement.

Datacenter-scale shape (DESIGN.md §15): placement state is sharded by
**rack**.  Every host joins a rack at :meth:`add_host`; per-host and
per-rack load counters are maintained incrementally on every lifecycle
transition (never recomputed by scanning containers), the up-host
candidate tuple is cached across submits, and a per-host container
index makes host teardown O(containers on that host).  Rack-aware
placement reads two lazily invalidated min-heaps kept beside those
counters: racks by ``(rack_load / up hosts, rack)`` and, per rack, the
up hosts by ``(load, name)``.  Every change to a key pushes a fresh
entry, so a submit costs O(log racks + log rack size) instead of a
scan of every rack: an 8,192-host / 256-rack fleet (32,768 containers)
builds in 2.0 s instead of 8.0 s, 62 instead of 244 µs per container
(``BENCH_datacenter.json``).  With
``host_lease_ttl_s`` set, host liveness is a KV **lease**: one
keepalive pump refreshes every host's lease, and a host whose
keepalives stop is detected by lease expiry — its ``/cluster/hosts/``
key is deleted by the store itself and the orchestrator reacts through
the lease's expiry hook, not through explicit ``fail_host`` calls.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import OrchestrationError, PlacementError, UnknownContainer
from ..hardware.host import Host
from ..telemetry import events as _events
from ..telemetry import registry as _registry
from ..hardware.vm import VirtualMachine
from .container import Container, ContainerSpec, ContainerStatus
from .fabric import FabricController
from .kvstore import KeyValueStore, Lease
from .scheduler import PlacementStrategy, SpreadStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["ClusterOrchestrator", "DEFAULT_RACK"]

#: Rack assigned to hosts registered without one (small-testbed mode).
DEFAULT_RACK = "rack0"


def _rekey(heap: list, live: dict, key: str, entry: Optional[tuple]) -> None:
    """Make ``entry`` the one live entry of ``key`` in ``heap`` (None:
    ``key`` leaves it).

    An entry is live while it *is* its key's value in ``live``, so a
    superseded entry goes dead where it sits and is popped once it
    reaches the head.  Once the dead entries outnumber the live ones,
    the heap is rebuilt from ``live``: it never holds more than twice
    its live entries.
    """
    if entry is None:
        if live.pop(key, None) is None:
            return
    elif live.get(key) == entry:
        return  # the key did not move; its entry stays live
    else:
        live[key] = entry
        heappush(heap, entry)
    if len(heap) > 2 * len(live):
        heap[:] = live.values()
        heapify(heap)


class ClusterOrchestrator:
    """Central controller for a fleet of hosts/VMs and their containers."""

    def __init__(
        self,
        env: "Environment",
        strategy: Optional[PlacementStrategy] = None,
        fabric_controller: Optional[FabricController] = None,
        kvstore: Optional[KeyValueStore] = None,
        host_lease_ttl_s: Optional[float] = None,
    ) -> None:
        self.env = env
        self.strategy = strategy or SpreadStrategy()
        self.fabric_controller = fabric_controller or FabricController()
        self.kv = kvstore or KeyValueStore(env)
        self._hosts: dict[str, Host] = {}
        self._vms: dict[str, VirtualMachine] = {}
        self._containers: dict[str, Container] = {}
        self._down_hosts: set[str] = set()
        # -- rack shards ----------------------------------------------------
        self._rack_of: dict[str, str] = {}
        #: rack -> {host name -> Host}, *up* hosts only, insertion order.
        self._racks: dict[str, dict[str, Host]] = {}
        self._rack_load: dict[str, int] = {}
        # -- incremental accounting ----------------------------------------
        #: host name -> containers currently placed there (not STOPPED).
        self._load: dict[str, int] = {}
        #: host name -> {container name -> None} (ordered set).
        self._by_host: dict[str, dict[str, None]] = {}
        #: Cached tuple of up hosts; rebuilt only on membership change.
        self._up_cache: Optional[tuple[Host, ...]] = None
        # -- placement index (see _rekey), built by the first rack-aware
        # placement, so a fleet of pinned containers never keeps it ------
        #: rack -> its live ``(rack_load / up hosts, rack)`` entry, for
        #: racks with an up host, and the min-heap over those entries
        #: (None until the index is built).
        self._rack_entry: dict[str, tuple[float, str]] = {}
        self._rack_heap: Optional[list[tuple[float, str]]] = None
        #: rack -> {up host name -> its live ``(load, name)`` entry}, and
        #: rack -> the min-heap over that rack's host entries.
        self._host_entry: dict[str, dict[str, tuple[int, str]]] = {}
        self._host_heap: dict[str, list[tuple[int, str]]] = {}
        #: Heap entries placement examined, live or dead (a count that
        #: repeats exactly, like the KV store's ``dispatch_checks``).
        self.placement_checks = 0
        # -- lease-backed liveness -----------------------------------------
        self.host_lease_ttl_s = host_lease_ttl_s
        self._host_leases: dict[str, Lease] = {}
        self._silenced: set[str] = set()
        self._keepalive_proc = None

    # -- fleet management ---------------------------------------------------------

    def add_host(self, host: Host, rack: Optional[str] = None) -> None:
        if host.name in self._hosts:
            raise OrchestrationError(f"host {host.name!r} already registered")
        self._hosts[host.name] = host
        rack = rack or DEFAULT_RACK
        self._rack_of[host.name] = rack
        self._racks.setdefault(rack, {})[host.name] = host
        self._rack_load.setdefault(rack, 0)
        self._host_entry.setdefault(rack, {})
        self._host_heap.setdefault(rack, [])
        self._load[host.name] = 0
        self._by_host[host.name] = {}
        self._up_cache = None
        self._reindex(host.name, rack)
        self._announce(host, rack)
        registry = _registry.ACTIVE
        if registry is not None:
            registry.register_host(host)
            registry.register_cluster(self)

    def add_vm(self, vm: VirtualMachine) -> None:
        if vm.name in self._vms:
            raise OrchestrationError(f"VM {vm.name!r} already registered")
        if vm.host.name not in self._hosts:
            raise OrchestrationError(
                f"VM {vm.name!r} runs on unregistered host {vm.host.name!r}"
            )
        self._vms[vm.name] = vm
        self.fabric_controller.register(vm)
        self.kv.put(f"/cluster/vms/{vm.name}", {"host": vm.host.name})

    @property
    def hosts(self) -> Sequence[Host]:
        return tuple(self._hosts.values())

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise OrchestrationError(f"unknown host {name!r}") from None

    # -- rack topology ---------------------------------------------------------

    def rack_of(self, host_name: str) -> str:
        try:
            return self._rack_of[host_name]
        except KeyError:
            raise OrchestrationError(f"unknown host {host_name!r}") from None

    def rack_names(self) -> tuple[str, ...]:
        return tuple(self._racks)

    def rack_hosts(self, rack: str) -> Sequence[Host]:
        """The *up* hosts currently in ``rack`` (registration order)."""
        return tuple(self._racks.get(rack, {}).values())

    def rack_size(self, rack: str) -> int:
        """How many *up* hosts ``rack`` has: ``len(rack_hosts(rack))``
        in O(1), without building the tuple."""
        return len(self._racks.get(rack, ()))

    def rack_load(self, rack: str) -> int:
        return self._rack_load.get(rack, 0)

    def least_loaded_host(self, rack: Optional[str] = None) -> Optional[Host]:
        """The up host rack-aware placement picks, or None if there is none.

        Without ``rack``: the least-loaded up host of the rack with the
        lowest ``(rack_load / up hosts, rack)``; with it, of that rack.
        Hosts rank by ``(load, name)``.  The answer is the one a scan of
        every rack's hosts gives, read from the heads of two min-heaps.
        """
        if self._rack_heap is None:
            self._build_index()
        if rack is None:
            if not self._rack_entry:
                return None
            rack = self._live_head(self._rack_heap, self._rack_entry)[1]
        live = self._host_entry.get(rack)
        if not live:
            return None
        return self._hosts[self._live_head(self._host_heap[rack], live)[1]]

    def _live_head(self, heap: list, live: dict) -> tuple:
        """The smallest live entry of ``heap``, popping the dead ones
        above it (``live`` is not empty, so one of its entries is in
        the heap)."""
        while True:
            entry = heap[0]
            self.placement_checks += 1
            if live.get(entry[1]) is entry:
                return entry
            heappop(heap)

    def _build_index(self) -> None:
        """Key every up host and every rack that has one."""
        for rack, up in self._racks.items():
            live = self._host_entry[rack]
            live.update((name, (self._load[name], name)) for name in up)
            self._host_heap[rack][:] = live.values()
            heapify(self._host_heap[rack])
            if up:
                self._rack_entry[rack] = (self._rack_load[rack] / len(up),
                                          rack)
        self._rack_heap = list(self._rack_entry.values())
        heapify(self._rack_heap)

    def _reindex(self, host_name: str, rack: str) -> None:
        """Re-key ``host_name`` in its rack's host heap (dropping it
        while it is down) and ``rack`` in the rack heap, after a change
        to the host's load, the rack's load or the rack's up-set."""
        if self._rack_heap is None:
            return  # not built yet: it will read the state as it is then
        up = self._racks[rack]
        _rekey(self._host_heap[rack], self._host_entry[rack], host_name,
               (self._load[host_name], host_name)
               if host_name in up else None)
        _rekey(self._rack_heap, self._rack_entry, rack,
               (self._rack_load[rack] / len(up), rack) if up else None)

    def load_of(self, host_name: str) -> int:
        """Containers currently placed on ``host_name`` (not stopped)."""
        return self._load.get(host_name, 0)

    def containers_on(self, host_name: str) -> tuple[str, ...]:
        """Names of containers currently recorded on ``host_name``."""
        return tuple(self._by_host.get(host_name, ()))

    # -- container lifecycle ---------------------------------------------------------

    def submit(self, spec: ContainerSpec) -> Container:
        """Place and start a container."""
        if spec.name in self._containers:
            raise OrchestrationError(f"container {spec.name!r} already exists")
        host, vm = self._resolve_placement(spec)
        container = Container(spec, host, vm)
        container.start()
        self._containers[spec.name] = container
        self._account_place(spec.name, host.name)
        self._publish(container)
        _events.emit(self.env, "container.submit", container=spec.name,
                     host=host.name,
                     vm=vm.name if vm is not None else "")
        return container

    def _resolve_placement(self, spec: ContainerSpec):
        if spec.pinned_host is not None:
            if spec.pinned_host in self._down_hosts:
                raise PlacementError(
                    f"pinned host {spec.pinned_host!r} is down"
                )
            if spec.pinned_host in self._vms:
                vm = self._vms[spec.pinned_host]
                return vm.host, vm
            if spec.pinned_host in self._hosts:
                return self._hosts[spec.pinned_host], None
            raise PlacementError(
                f"pinned location {spec.pinned_host!r} is not a known host or VM"
            )
        candidates = self._up_cache
        if candidates is None:
            candidates = self._up_cache = tuple(
                host for name, host in self._hosts.items()
                if name not in self._down_hosts
            )
        host = self.strategy.place(spec, candidates, self._load)
        if host.name not in self._hosts:
            raise PlacementError(
                f"strategy returned unregistered host {host.name!r}"
            )
        return host, None

    def _load_by_host(self) -> dict[str, int]:
        """Per-host count of placed containers (incrementally maintained;
        returns a copy so strategies cannot corrupt the books)."""
        return dict(self._load)

    # -- incremental load/index bookkeeping ------------------------------------

    def _account_place(self, name: str, host_name: str) -> None:
        self._load[host_name] = self._load.get(host_name, 0) + 1
        rack = self._rack_of.get(host_name)
        if rack is not None:
            self._rack_load[rack] += 1
            self._reindex(host_name, rack)
        self._by_host.setdefault(host_name, {})[name] = None

    def _account_remove(self, name: str, host_name: str) -> None:
        count = self._load.get(host_name, 0)
        if count > 0:
            self._load[host_name] = count - 1
            rack = self._rack_of.get(host_name)
            if rack is not None and self._rack_load.get(rack, 0) > 0:
                self._rack_load[rack] -= 1
                self._reindex(host_name, rack)
        by_host = self._by_host.get(host_name)
        if by_host is not None:
            by_host.pop(name, None)

    def container(self, name: str) -> Container:
        try:
            return self._containers[name]
        except KeyError:
            raise UnknownContainer(f"no container named {name!r}") from None

    def containers(self, tenant: Optional[str] = None) -> list[Container]:
        found = list(self._containers.values())
        if tenant is not None:
            found = [c for c in found if c.tenant == tenant]
        return found

    def stop(self, name: str) -> None:
        container = self.container(name)
        if container.status is not ContainerStatus.STOPPED:
            self._account_remove(name, container.host.name)
        container.stop()
        self.kv.delete(f"/cluster/containers/{name}")

    def remove(self, name: str) -> None:
        """Forget a container entirely (it can be resubmitted by name)."""
        container = self._containers.pop(name, None)
        if container is not None:
            if container.status is not ContainerStatus.STOPPED:
                self._account_remove(name, container.host.name)
            container.stop()
            self.kv.delete(f"/cluster/containers/{name}")

    # -- failure handling (§2.1: "a stopped container can be quickly
    # replaced by a new one on the same or another host") -----------------

    def fail_host(self, host_name: str) -> list[str]:
        """A host dies: its containers are lost; it leaves the pool.

        Returns the names of the containers that were lost so callers
        (and FreeFlow's network layer) can react.  On a lease-backed
        fleet this revokes the host's lease (the store emits the
        DELETE); the silent-death path — keepalives just stop — flows
        through :meth:`_host_lease_expired` instead.
        """
        self.host(host_name)  # raises on unknown
        lease = self._host_leases.pop(host_name, None)
        if lease is not None and lease.alive:
            self.kv.revoke(lease)
        else:
            self.kv.delete(f"/cluster/hosts/{host_name}")
        return self._mark_host_down(host_name)

    def _host_lease_expired(self, host_name: str) -> None:
        """Expiry hook: the store already deleted the host's keys."""
        self._host_leases.pop(host_name, None)
        _events.emit(self.env, "host.lease_expired", host=host_name)
        self._mark_host_down(host_name)

    def _mark_host_down(self, host_name: str) -> list[str]:
        self._down_hosts.add(host_name)
        self._up_cache = None
        rack = self._rack_of.get(host_name)
        if rack is not None:
            self._racks.get(rack, {}).pop(host_name, None)
            self._reindex(host_name, rack)
        host = self._hosts[host_name]
        lost = [
            name for name in self.containers_on(host_name)
            if self._containers.get(name) is not None
            and self._containers[name].host is host
            and self._containers[name].status is not ContainerStatus.STOPPED
        ]
        for name in lost:
            self.remove(name)
        return lost

    def recover_host(self, host_name: str) -> None:
        """Bring a previously failed host back into the pool."""
        host = self.host(host_name)
        self._down_hosts.discard(host_name)
        self._up_cache = None
        rack = self._rack_of.get(host_name, DEFAULT_RACK)
        self._racks.setdefault(rack, {})[host_name] = host
        self._reindex(host_name, rack)
        self._silenced.discard(host_name)
        self._announce(host, rack)
        _events.emit(self.env, "host.recover", host=host_name)

    def _announce(self, host: Host, rack: str) -> None:
        """Publish ``host`` under ``/cluster/hosts/``: on a lease-backed
        fleet, under a fresh lease the keepalive pump refreshes."""
        record = {
            "cores": host.cpu.cores,
            "rdma": host.rdma_capable,
            "dpdk": host.dpdk_capable,
            "rack": rack,
        }
        if self.host_lease_ttl_s is None:
            self.kv.put(f"/cluster/hosts/{host.name}", record)
            return
        lease = self.kv.grant(
            self.host_lease_ttl_s,
            on_expire=lambda _l, name=host.name: self._host_lease_expired(name),
        )
        self._host_leases[host.name] = lease
        self.kv.put(f"/cluster/hosts/{host.name}", record, lease=lease)
        if self._keepalive_proc is None:
            self._keepalive_proc = self.env.process(self._keepalive_pump())

    # -- lease keepalive -------------------------------------------------------

    def silence_keepalives(self, host_name: str, silenced: bool = True) -> None:
        """Stop (or resume) refreshing a host's lease — the failure
        injection seam for "the host went silent": its lease lapses a
        TTL later and the fleet learns via the DELETE cascade."""
        if silenced:
            self._silenced.add(host_name)
        else:
            self._silenced.discard(host_name)

    def _keepalive_pump(self):
        """One process heartbeats every live host lease at TTL/3 — the
        per-host agent heartbeat, aggregated (O(log leases) per refresh,
        no per-host process)."""
        ttl = self.host_lease_ttl_s
        while True:
            yield self.env.timeout(ttl / 3.0)
            if not self._host_leases:
                continue
            for name, lease in list(self._host_leases.items()):
                if name in self._silenced or not lease.alive:
                    continue
                self.kv.keepalive(lease)

    def host_lease(self, host_name: str) -> Optional[Lease]:
        return self._host_leases.get(host_name)

    def watch_hosts(self):
        """Watch host liveness: a DELETE under ``/cluster/hosts/`` is a
        host failure, a PUT is an admission or recovery.  This is the
        feed the flow reconciler subscribes to (paper §2.1's
        failure-mitigation story, made push-style)."""
        return self.kv.watch("/cluster/hosts/")

    def is_host_up(self, host_name: str) -> bool:
        return host_name in self._hosts and host_name not in self._down_hosts

    def relocate(self, name: str, destination: str) -> Container:
        """Move a container to another host/VM (the migration primitive).

        The heavy lifting (copying state, draining connections) is the
        job of :mod:`repro.core.migration`; this just flips the placement
        record and publishes the change.
        """
        container = self.container(name)
        old_host = container.host.name
        if destination in self._vms:
            vm = self._vms[destination]
            container.relocate(vm.host, vm)
        elif destination in self._hosts:
            container.relocate(self._hosts[destination], None)
        else:
            raise PlacementError(f"unknown destination {destination!r}")
        if container.status is not ContainerStatus.STOPPED:
            self._account_remove(name, old_host)
            self._account_place(name, container.host.name)
        self._publish(container)
        _events.emit(self.env, "container.migrate", container=name,
                     destination=destination,
                     generation=container.generation)
        return container

    # -- the query surface FreeFlow consumes ----------------------------------------

    def locate(self, name: str) -> Host:
        """Physical host of a container, resolving any VM indirection
        through the fabric controller (paper §4.2)."""
        container = self.container(name)
        if container.vm is not None:
            return self.fabric_controller.physical_host_of(container.vm.name)
        return container.host

    def _publish(self, container: Container) -> None:
        self.kv.put(f"/cluster/containers/{container.name}", {
            "tenant": container.tenant,
            "host": container.host.name,
            "vm": container.vm.name if container.vm is not None else None,
            "generation": container.generation,
        })
