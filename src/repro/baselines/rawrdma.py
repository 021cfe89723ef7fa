"""Raw RDMA between containers (the motivation-section baseline).

Containers in host mode can drive the RDMA NIC directly — that is the
"RDMA" series in the paper's §2.3 figures (40 Gb/s even intra-host,
since the payload hairpins through the NIC).  It is fast but breaks
portability: the container is bound to this specific NIC and host, and
using it requires host-mode networking with all its port-space sharing.
FreeFlow's point is to keep this speed *without* that binding.
"""

from __future__ import annotations

from ..cluster.container import Container
from ..errors import TransportUnavailable
from ..transports.rdma import RdmaChannel

__all__ = ["RawRdmaNetwork"]


class RawRdmaNetwork:
    """Direct verbs-level RDMA channels, no overlay, no portability."""

    def connect(
        self,
        a: Container,
        b: Container,
        window_bytes: int = 8 * 1024 * 1024,
    ) -> RdmaChannel:
        if not a.host.rdma_capable or not b.host.rdma_capable:
            raise TransportUnavailable(
                "raw RDMA needs RDMA-capable NICs on both hosts"
            )
        return RdmaChannel(a.host, b.host, window_bytes)
