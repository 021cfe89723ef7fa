"""Physical NIC model: link pipes plus an RDMA message engine.

The NIC owns three contended parts:

* ``egress`` / ``ingress`` — the wire itself (serialisation at link rate),
  shared by every transport that touches the network (kernel TCP, DPDK,
  RDMA), so cross-transport interference is captured naturally;
* ``engine`` — the embedded processor that services RDMA work requests.
  It caps small-message op rate and is the "NIC CPU" whose utilisation
  the paper's §2.4 sketch ("Figure 2(c)") plots.

Host-side per-byte work for RDMA is zero (that is the whole point of
RDMA); bytes reach the NIC via DMA through the host memory bus, which is
why huge RDMA flows still show up as memory-bus traffic in the multi-pair
experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.monitor import TimeWeighted
from ..sim.resources import Resource
from .bandwidth import BandwidthPipe
from .specs import NicSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment
    from .host import Host
    from .link import Fabric

__all__ = ["PhysicalNic"]


class PhysicalNic:
    """One physical port, modelled on the paper's 40 Gb/s Mellanox CX3."""

    def __init__(
        self,
        env: "Environment",
        spec: Optional[NicSpec] = None,
        name: str = "eth0",
    ) -> None:
        self.env = env
        self.spec = spec or NicSpec()
        self.name = name
        self.host: Optional["Host"] = None
        self.fabric: Optional["Fabric"] = None
        #: The DPDK poll-mode driver bound to this port, started by
        #: ``repro.transports.dpdk.DpdkEngine.on_host`` on first use.
        self.pmd = None
        self.egress = BandwidthPipe(
            env,
            rate_bytes=self.spec.goodput_bytes,
            chunk_bytes=self.spec.chunk_bytes,
            name=f"{name}.egress",
        )
        self.ingress = BandwidthPipe(
            env,
            rate_bytes=self.spec.goodput_bytes,
            chunk_bytes=self.spec.chunk_bytes,
            name=f"{name}.ingress",
        )
        self._engine = Resource(env, capacity=1)
        self.engine_busy = TimeWeighted(env)

    # -- capabilities -------------------------------------------------------

    @property
    def rdma_capable(self) -> bool:
        return self.spec.rdma_capable

    @property
    def dpdk_capable(self) -> bool:
        return self.spec.dpdk_capable

    @property
    def link_rate_bytes(self) -> float:
        return self.spec.link_rate_bytes

    # -- RDMA engine ----------------------------------------------------------

    def engine_service(self, nbytes: float = 0.0, priority: int = 0):
        """Occupy the NIC processor for one work request (generator).

        Service time is the fixed per-op cost plus any modelled per-byte
        engine work (zero for CX3-class offload).
        """
        seconds = self.spec.rdma_engine_op_seconds
        if self.spec.rdma_engine_cycles_per_byte:
            # Engine "cycles" are expressed directly in seconds/byte via
            # the op clock; treat the constant as seconds per byte here.
            seconds += nbytes * self.spec.rdma_engine_cycles_per_byte
        with self._engine.request(priority=priority) as claim:
            yield claim
            self.engine_busy.add(1)
            try:
                yield self.env.timeout(seconds)
            finally:
                self.engine_busy.add(-1)

    def engine_utilisation(self) -> float:
        """Mean busy fraction of the NIC processor (the paper's NIC CPU)."""
        return self.engine_busy.mean()

    def link_utilisation(self) -> float:
        """Mean busy fraction of the egress wire."""
        return self.egress.utilisation()

    def reset_accounting(self) -> None:
        self.engine_busy.reset()
        self.egress.reset_accounting()
        self.ingress.reset_accounting()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        host = self.host.name if self.host is not None else "?"
        return f"<PhysicalNic {host}/{self.name} {self.spec.model}>"
