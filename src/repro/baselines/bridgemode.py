"""Bridge-mode (docker0) container networking.

Each container hangs off the host's Linux bridge through a veth pair;
every packet pays the veth+bridge forwarding surcharge on top of the
full kernel stack.  This is Docker's default single-host networking and
the "Docker0/bridge" series of the paper's motivation figures
(≈ 27 Gb/s at ~200 % CPU on the testbed).

Note bridge mode alone cannot cross hosts (that is what overlays are
for); connecting containers on different hosts here still traverses the
bridge on each side and the host network in between — i.e. the classic
"bridge + port mapping" deployment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cluster.container import Container
from ..netstack.bridge import SoftwareBridge
from ..netstack.tcp import TcpConnection, TcpMode
from ..transports.packet import EndpointAddr

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host
    from ..sim.scheduler import Environment

__all__ = ["BridgeModeNetwork"]


class BridgeModeNetwork:
    """One ``docker0`` bridge per host; containers connect through it."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._bridges: dict[str, SoftwareBridge] = {}
        self._next_ip = 2

    def bridge_for(self, host: "Host") -> SoftwareBridge:
        bridge = self._bridges.get(host.name)
        if bridge is None or bridge.host is not host:
            bridge = SoftwareBridge(host)
            self._bridges[host.name] = bridge
        return bridge

    def _container_addr(self, container: Container, port: int) -> EndpointAddr:
        # docker0's default subnet; addresses are only used as labels by
        # the kernel-path model, so a simple counter suffices.
        addr = EndpointAddr(f"172.17.0.{self._next_ip}", port)
        self._next_ip += 1
        return addr

    def connect(
        self,
        a: Container,
        b: Container,
        a_port: int = 0,
        b_port: int = 0,
        window_bytes: int = 4 * 1024 * 1024,
    ) -> TcpConnection:
        """A bridge-mode kernel TCP connection between two containers."""
        return TcpConnection(
            a.host, b.host,
            self._container_addr(a, a_port),
            self._container_addr(b, b_port),
            mode=TcpMode.BRIDGE,
            a_bridge=self.bridge_for(a.host),
            b_bridge=self.bridge_for(b.host),
            window_bytes=window_bytes,
        )
