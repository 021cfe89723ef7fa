"""User-space overlay routers (the Weave-style data plane).

One router runs per host.  All overlay traffic on the host funnels
through it — kernel → user copy, VXLAN-ish encap, user → kernel copy —
so the router is a serialization point *and* a CPU burner, which is
precisely the double hairpin the paper's Fig. 1 blames for overlay
mode's poor showing.  The router loop and each per-peer tunnel are
:class:`~repro.sim.stage.Stage` workers: they run only while they have
traffic, and a tunnel's stage exists only while it does.

The router is functional: it looks the destination IP up in its route
table (fed by the :class:`~repro.netstack.routing.RoutingMesh`), delivers
locally registered endpoints directly, and tunnels to the peer router for
remote destinations.  FreeFlow's customized router
(:mod:`repro.core.agent`) replaces this data plane while reusing the same
control plane.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from ..errors import RoutingError
from ..sim.stage import Stage
from ..telemetry import tracer as _tracer
from ..transports.packet import EndpointAddr, Message, segment_count
from .routing import RouteTable

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["OverlayRouter"]


class OverlayRouter:
    """The per-host software router of a classic container overlay."""

    def __init__(self, host: "Host", table: RouteTable) -> None:
        self.env = host.env
        self.host = host
        self.spec = host.spec.overlay
        self.kernel = host.spec.kernel
        self.table = table
        #: Locally attached endpoints: addr -> delivery callback.
        self._endpoints: dict[EndpointAddr, Callable[[Message], None]] = {}
        #: Peer routers by host name (the tunnel mesh).
        self._peers: dict[str, "OverlayRouter"] = {}
        self._stage = Stage(host.env)
        #: Busy per-peer tunnel stages: encapsulated traffic toward one
        #: peer router leaves in order (no small-overtakes-large
        #: reordering).  A tunnel leaves the map when it goes idle.
        self._tunnels: dict[str, Stage] = {}
        self.messages_routed = 0
        self.bytes_routed = 0

    # -- wiring ---------------------------------------------------------------

    def connect_peer(self, router: "OverlayRouter") -> None:
        """Establish the tunnel to another host's router (both ways)."""
        if router is self:
            raise ValueError("a router does not tunnel to itself")
        self._peers[router.host.name] = router
        router._peers[self.host.name] = self

    def register(
        self, addr: EndpointAddr, deliver: Callable[[Message], None]
    ) -> None:
        """Attach a local endpoint that can receive overlay traffic."""
        if addr in self._endpoints:
            raise RoutingError(f"{addr} already registered on {self.host.name}")
        self._endpoints[addr] = deliver

    def unregister(self, addr: EndpointAddr) -> None:
        self._endpoints.pop(addr, None)

    def has_endpoint(self, addr: EndpointAddr) -> bool:
        return addr in self._endpoints

    # -- data plane ---------------------------------------------------------------

    def submit(self, message: Message) -> None:
        """Hand a message to the router (non-blocking; router queues)."""
        self._stage.put(message, self._worker)

    def service_cycles(self, payload: int) -> float:
        segments = segment_count(payload, self.kernel.segment_bytes)
        return (
            payload * self.spec.router_cycles_per_byte
            + segments * self.spec.per_segment_cycles
        )

    def wire_bytes(self, payload: int) -> int:
        """On-the-wire size of an encapsulated message."""
        packets = max(1, -(-payload // self.kernel.mtu_bytes))
        return self.kernel.wire_bytes(payload) + packets * self.spec.encap_bytes

    def _worker(self, message: Message):
        """The single-threaded router loop (the Weave process)."""
        while message is not None:
            if message.dst is None:
                raise RoutingError(
                    "overlay router got a message with no destination "
                    "(invariant: every routed message carries a dst address)"
                )
            trace = (message.meta.get("trace")
                     if _tracer.ACTIVE is not None else None)
            mark = self.env.now
            yield from self.host.cpu.execute(self.service_cycles(message.size_bytes))
            if trace is not None:
                trace.add("overlay", mark, self.env.now)
            self.messages_routed += 1
            self.bytes_routed += message.size_bytes
            self._forward(message)
            message = yield from self._stage.next()

    def _forward(self, message: Message) -> None:
        """Route one serviced message (local delivery or tunnel)."""
        dst = message.dst
        local = self._endpoints.get(dst)
        if local is not None:
            self._deliver_after(self.spec.traversal_latency_s, local, message)
            return
        try:
            owner = self.table.lookup(dst.ip)
        except RoutingError:
            message.meta["dropped"] = f"no route on {self.host.name}"
            return
        peer = self._peers.get(owner)
        if peer is None:
            message.meta["dropped"] = f"no tunnel from {self.host.name} to {owner}"
            return
        stage = self._tunnels.get(owner)
        if stage is None:
            stage = self._tunnels[owner] = Stage(self.env)
        stage.put(message, partial(self._tunnel_worker, peer, stage))

    def _tunnel_worker(self, peer: "OverlayRouter", stage: Stage,
                       message: Message):
        """Serialises encapsulated traffic toward one peer router."""
        fabric = self.host.fabric
        if fabric is None:
            raise RoutingError(
                "overlay tunnel requires the host on a fabric (invariant: "
                "inter-host tunnels only exist between fabric-attached hosts)"
            )
        while message is not None:
            yield self.env.timeout(self.spec.traversal_latency_s)
            yield from fabric.send(
                self.host.nic,
                peer.host.nic,
                self.wire_bytes(message.size_bytes),
                deliver=lambda m=message: peer.submit(m),
                trace=(message.meta.get("trace")
                       if _tracer.ACTIVE is not None else None),
            )
            message = yield from stage.next()
        del self._tunnels[peer.host.name]

    def _deliver_after(
        self, delay: float, deliver: Callable[[Message], None], message: Message
    ) -> None:
        def _later():
            yield self.env.timeout(delay)
            deliver(message)

        self.env.process(_later())
