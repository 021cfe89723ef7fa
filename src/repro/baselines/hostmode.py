"""Host-mode container networking (paper §1, mode (2)).

The container "binds an interface and a port on the host and uses the
host's IP to communicate, like an ordinary process".  Fast — one kernel
stack hairpin, no bridge — but it breaks isolation and portability: all
containers on a host share one port space, so "there can be only one
container bound to port 80 on each physical server".  The port registry
here enforces exactly that, and the E1/E7 benches use the resulting
connections for the throughput/latency columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cluster.container import Container
from ..errors import AddressError
from ..netstack.tcp import TcpConnection, TcpMode
from ..transports.packet import EndpointAddr

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["HostModeNetwork"]


class HostModeNetwork:
    """Connects containers through their hosts' shared IP/port space."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: (host name, port) -> container name; the shared port space.
        self._bindings: dict[tuple[str, int], str] = {}

    def bind(self, container: Container, port: int) -> EndpointAddr:
        """Claim a host port for a container (first come, first served)."""
        if not 0 < port < 65536:
            raise AddressError(f"port {port} out of range")
        key = (container.host.name, port)
        owner = self._bindings.get(key)
        if owner is not None and owner != container.name:
            raise AddressError(
                f"port {port} on {container.host.name} is already bound by "
                f"{owner} — host mode has no per-container port space"
            )
        self._bindings[key] = container.name
        return EndpointAddr(container.host.name, port)

    def release(self, container: Container, port: int) -> None:
        self._bindings.pop((container.host.name, port), None)

    def connect(
        self,
        a: Container,
        b: Container,
        a_port: int,
        b_port: int,
        window_bytes: int = 4 * 1024 * 1024,
    ) -> TcpConnection:
        """A host-mode kernel TCP connection between two containers."""
        addr_a = self.bind(a, a_port)
        addr_b = self.bind(b, b_port)
        return TcpConnection(
            a.host, b.host, addr_a, addr_b,
            mode=TcpMode.HOST, window_bytes=window_bytes,
        )
