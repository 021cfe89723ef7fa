"""Live container migration with connection continuity (paper §7).

"FreeFlow could be a key enabler for containers to achieve both
high-performance and capability for live migration.  It will require
the network library to interact with the orchestrator more frequently,
and may require maintaining additional per-connection state within the
library."

The controller implements the classic pre-copy algorithm on top of the
simulated fabric:

1. **pre-copy** — the container's memory image streams to the target
   host over RDMA (or TCP if the NICs cannot), while it keeps running
   and dirtying pages at ``dirty_rate``;
2. **iterate** — each round re-sends what was dirtied during the
   previous round, until the remainder fits under the downtime budget
   or the iteration cap is hit;
3. **stop-and-copy** — the container pauses; its connections drain
   their in-flight messages; the final dirty set is copied; the cluster
   record flips; the network orchestrator republishes the location; all
   of the container's connections are re-resolved and rebound (possibly
   changing mechanism — e.g. a former shm pair becomes an RDMA pair);
4. **resume** — paused senders continue on the new channels.

The measured *downtime* is step 3's wall-clock span, which bench E15
reports alongside total migration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cluster.container import ContainerStatus
from ..errors import MigrationError, TransportUnavailable
from ..netstack.tcp import TcpConnection
from ..transports.rdma import RdmaLane
from .network import FreeFlowNetwork

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["MigrationReport", "MigrationController"]


@dataclass
class MigrationReport:
    """What one live migration cost."""

    container: str
    source: str
    destination: str
    total_seconds: float
    downtime_seconds: float
    precopy_rounds: int
    bytes_copied: float
    rebound_connections: int
    mechanism_changes: list = field(default_factory=list)


class MigrationController:
    """Coordinates cluster, network orchestrator and agents for §7."""

    def __init__(
        self,
        network: FreeFlowNetwork,
        max_precopy_rounds: int = 8,
        downtime_target_bytes: float = 16 * 1024 * 1024,
    ) -> None:
        self.network = network
        self.cluster = network.cluster
        self.env = network.env
        self.max_precopy_rounds = max_precopy_rounds
        self.downtime_target_bytes = downtime_target_bytes

    def live_migrate(
        self,
        name: str,
        destination: str,
        state_bytes: float = 1e9,
        dirty_rate_bytes: float = 200e6,
    ):
        """Generator: migrate ``name`` to ``destination`` host/VM name."""
        container = self.cluster.container(name)
        if container.status is not ContainerStatus.RUNNING:
            raise MigrationError(f"{name} is not running")
        src_host = container.host
        dst_host = self._destination_host(destination)
        if dst_host is src_host:
            raise MigrationError(f"{name} is already on {destination}")

        start = self.env.now
        bytes_copied = 0.0
        container.status = ContainerStatus.MIGRATING

        # -- pre-copy rounds (container keeps running) ---------------------
        remaining = float(state_bytes)
        rounds = 0
        while rounds < self.max_precopy_rounds:
            rounds += 1
            round_started = self.env.now
            yield from self._bulk_copy(src_host, dst_host, remaining)
            bytes_copied += remaining
            elapsed = self.env.now - round_started
            remaining = min(float(state_bytes), dirty_rate_bytes * elapsed)
            if remaining <= self.downtime_target_bytes:
                break

        # -- stop-and-copy (downtime window) -----------------------------------
        downtime_started = self.env.now
        reconciler = self.network.reconciler
        paused = [
            c for c in self.network.connections
            if name in (c.src_name, c.dst_name) and not c.failed
        ]
        for connection in paused:
            connection.pause(self.env)
        yield from reconciler.drain(paused)
        yield from self._bulk_copy(src_host, dst_host, remaining)
        bytes_copied += remaining

        old_mechanisms = {id(c): c.mechanism for c in paused}
        self.cluster.relocate(name, destination)
        self.network.orchestrator.refresh_location(name)
        self.network.invalidate(name)

        # The reconciler rebinds the paused flows: via its watch pump
        # when it is running (the relocate above published the new
        # placement), else by invoking the primitive directly.  Flows a
        # controller paused stay paused until *we* reopen the gate, so
        # the downtime window below remains ours to measure.
        if reconciler.running:
            yield from reconciler.wait_settled(name)
        else:
            yield from reconciler.reconcile_containers((name,))

        mechanism_changes = []
        for connection in paused:
            old = old_mechanisms[id(connection)]
            if connection.mechanism is not old:
                mechanism_changes.append((old, connection.mechanism))
        container.status = ContainerStatus.RUNNING
        for connection in paused:
            connection.resume()
        downtime = self.env.now - downtime_started

        return MigrationReport(
            container=name,
            source=src_host.name,
            destination=destination,
            total_seconds=self.env.now - start,
            downtime_seconds=downtime,
            precopy_rounds=rounds,
            bytes_copied=bytes_copied,
            rebound_connections=len(paused),
            mechanism_changes=mechanism_changes,
        )

    # -- helpers --------------------------------------------------------------

    def _destination_host(self, destination: str) -> "Host":
        for host in self.cluster.hosts:
            if host.name == destination:
                return host
        # Maybe it is a VM name; the cluster resolves that on relocate.
        try:
            vm = self.cluster.fabric_controller.vm(destination)
            return vm.host
        except Exception:
            raise MigrationError(
                f"unknown migration destination {destination!r}"
            ) from None

    def _bulk_copy(self, src: "Host", dst: "Host", nbytes: float):
        """Stream ``nbytes`` of VM/container state between two hosts."""
        if nbytes <= 0:
            return
        try:
            lane = RdmaLane(src, dst)
        except TransportUnavailable:
            lane = TcpConnection(src, dst).lane_ab
        chunk = 4 * 1024 * 1024
        total = max(1, int(-(-nbytes // 1)))  # ceil to whole bytes
        total_chunks = -(-total // chunk)

        def _sink():
            for _ in range(total_chunks):
                yield from lane.recv()

        # Drain concurrently: the send window is smaller than the state
        # image, so the sink must run while the sender is still pushing.
        sink = self.env.process(_sink())
        remaining = total
        while remaining > 0:
            size = min(chunk, remaining)
            yield from lane.send(size)
            remaining -= size
        yield sink
        lane.close()
