"""Overlay-mode container networking (the Weave-style baseline).

The most portable mode and the slowest: every container gets a
location-independent overlay IP, and all traffic hairpins through the
per-host user-space router (twice for inter-host traffic).  This is
mode (3) of the paper's intro experiment and the architecture of its
Fig. 3(a); FreeFlow keeps this control plane and replaces the data
plane.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cluster.container import Container
from ..netstack.addressing import IpPool
from ..netstack.bridge import SoftwareBridge
from ..netstack.overlay import OverlayRouter
from ..netstack.routing import RoutingMesh
from ..netstack.tcp import TcpConnection, TcpMode
from ..transports.packet import EndpointAddr

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host
    from ..sim.scheduler import Environment

__all__ = ["OverlayModeNetwork"]


class OverlayModeNetwork:
    """A complete classic overlay: IPAM + routing mesh + routers."""

    def __init__(
        self,
        env: "Environment",
        cidr: str = "10.40.0.0/16",
        convergence_delay_s: float = 0.05,
        with_bridges: bool = True,
    ) -> None:
        self.env = env
        self.pool = IpPool(cidr)
        self.mesh = RoutingMesh(env, convergence_delay_s)
        self.with_bridges = with_bridges
        self._routers: dict[str, OverlayRouter] = {}
        self._bridges: dict[str, SoftwareBridge] = {}
        self._ips: dict[str, str] = {}  # container name -> overlay IP
        self._ip_owner: dict[str, str] = {}  # overlay IP -> host name

    # -- per-host plumbing ---------------------------------------------------------

    def router_for(self, host: "Host") -> OverlayRouter:
        router = self._routers.get(host.name)
        if router is None or router.host is not host:
            table = self.mesh.join(host.name)
            router = OverlayRouter(host, table)
            for other in self._routers.values():
                other.connect_peer(router)
            # A late joiner replays the current routing state (a real
            # mesh would learn it during the BGP session bring-up).
            for ip, owner in self._ip_owner.items():
                table.install(ip, owner)
            self._routers[host.name] = router
        return router

    def bridge_for(self, host: "Host") -> Optional[SoftwareBridge]:
        if not self.with_bridges:
            return None
        bridge = self._bridges.get(host.name)
        if bridge is None or bridge.host is not host:
            bridge = SoftwareBridge(host, name="weave-br")
            self._bridges[host.name] = bridge
        return bridge

    # -- container admission -----------------------------------------------------------

    def attach(self, container: Container, immediate_routes: bool = True) -> str:
        """Give a container an overlay IP and announce its route."""
        if container.name in self._ips:
            return self._ips[container.name]
        self.router_for(container.host)
        ip = self.pool.allocate(container.spec.requested_ip)
        self._ips[container.name] = ip
        self._ip_owner[ip] = container.host.name
        self.mesh.announce(ip, container.host.name, immediate=immediate_routes)
        return ip

    def ip_of(self, container: Container) -> str:
        return self._ips[container.name]

    def connect(
        self,
        a: Container,
        b: Container,
        a_port: int = 0,
        b_port: int = 0,
        window_bytes: int = 4 * 1024 * 1024,
    ) -> TcpConnection:
        """An overlay-mode kernel TCP connection between two containers."""
        ip_a = self.attach(a)
        ip_b = self.attach(b)
        return TcpConnection(
            a.host, b.host,
            EndpointAddr(ip_a, a_port),
            EndpointAddr(ip_b, b_port),
            mode=TcpMode.OVERLAY,
            a_router=self.router_for(a.host),
            b_router=self.router_for(b.host),
            a_bridge=self.bridge_for(a.host),
            b_bridge=self.bridge_for(b.host),
            window_bytes=window_bytes,
        )
