"""Physical network fabric: links between hosts through a switch.

The model is a non-blocking switch (standard for a managed datacenter
fabric, which the paper assumes: "deployed over managed network
fabrics") with store-and-forward latency.  Each host's NIC contributes
its own egress and ingress pipes, so the bottlenecks are the end links —
which is where 40 Gb/s RDMA tops out — while the fabric core never
congests.  Oversubscribed racks and a contended core are the fat-tree
subclass's job (:class:`~repro.hardware.topology.FatTreeFabric`, e.g.
``core_rate_scale=0.25``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..telemetry import registry as _registry

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment
    from .nic import PhysicalNic

__all__ = ["Fabric"]


class Fabric:
    """A switched network connecting every attached NIC to every other."""

    def __init__(
        self,
        env: "Environment",
        switch_latency_s: float = 0.6e-6,
        propagation_s: float = 0.4e-6,
    ) -> None:
        self.env = env
        self.switch_latency_s = switch_latency_s
        self.propagation_s = propagation_s
        self._nics: list["PhysicalNic"] = []
        #: Per-(src, dst) landing queues: arrivals at a destination NIC
        #: from one source are processed strictly in order, so a small
        #: message can never overtake a large one on the same path.
        self._landing: dict[tuple[int, int], object] = {}
        #: Active partitions: (side_a, side_b) pairs of NIC id-sets whose
        #: cross traffic is parked at the core stage until :meth:`heal`.
        self._partitions: list[tuple[frozenset[int], frozenset[int]]] = []
        self._heal_event = None
        registry = _registry.ACTIVE
        if registry is not None:
            registry.register_fabric(self)

    def attach(self, nic: "PhysicalNic") -> None:
        """Plug a NIC into the fabric."""
        if nic in self._nics:
            raise ValueError(f"{nic!r} already attached")
        self._nics.append(nic)
        nic.fabric = self

    @property
    def nics(self) -> tuple["PhysicalNic", ...]:
        return tuple(self._nics)

    # -- partitions ----------------------------------------------------------

    def partition(self, side_a, side_b) -> None:
        """Cut connectivity between the NICs in ``side_a`` and ``side_b``.

        In-flight and newly sent traffic crossing the cut is *parked* at
        the fabric's core stage — not dropped — and resumes after
        :meth:`heal`, modelling a reliable link layer that retransmits
        until the path returns (byte conservation holds across the
        outage).  Traffic within either side is unaffected.  Multiple
        partitions stack; ``heal()`` clears them all.
        """
        a = frozenset(id(nic) for nic in side_a)
        b = frozenset(id(nic) for nic in side_b)
        if not a or not b:
            raise ValueError("both partition sides must be non-empty")
        if a & b:
            raise ValueError("partition sides overlap")
        self._partitions.append((a, b))

    def heal(self) -> None:
        """Remove every active partition and release parked traffic."""
        self._partitions.clear()
        event, self._heal_event = self._heal_event, None
        if event is not None:
            event.succeed()

    def partitioned(self, src: "PhysicalNic", dst: "PhysicalNic") -> bool:
        """True while ``src`` → ``dst`` traffic is cut by a partition."""
        src_id, dst_id = id(src), id(dst)
        for side_a, side_b in self._partitions:
            if (src_id in side_a and dst_id in side_b) or (
                src_id in side_b and dst_id in side_a
            ):
                return True
        return False

    def _healed(self):
        """The event parked core workers wait on (created lazily)."""
        if self._heal_event is None:
            self._heal_event = self.env.event()
        return self._heal_event

    @property
    def one_way_latency_s(self) -> float:
        """Propagation + switching delay, excluding serialisation."""
        return self.switch_latency_s + self.propagation_s

    def send(
        self,
        src: "PhysicalNic",
        dst: "PhysicalNic",
        wire_bytes: float,
        deliver: Callable[[], None],
        priority: int = 0,
        flow=None,
    ):
        """Carry ``wire_bytes`` from ``src`` to ``dst`` (generator).

        The calling process pays the *egress* serialisation; propagation
        and the destination's ingress happen in a spawned process so that
        back-to-back sends pipeline, as on a real wire.  ``deliver`` is
        invoked once the last byte has cleared the destination NIC.

        ``flow`` is an optional hashable flow identity.  The single
        switch has one path, so it is ignored here; the fat-tree
        subclass (:class:`~repro.hardware.topology.FatTreeFabric`)
        ECMP-hashes it to pick among equal-cost paths.
        """
        del flow  # single-path fabric: no routing decision to make
        if src.fabric is not self or dst.fabric is not self:
            raise ValueError("both NICs must be attached to this fabric")
        if src is dst:
            raise ValueError("use host-local channels for loopback traffic")
        yield from src.egress.transfer(wire_bytes, priority=priority)
        queue = self._landing_queue(src, dst)
        queue.put((self.env.now + self.one_way_latency_s, wire_bytes,
                   priority, deliver))

    def _landing_queue(self, src: "PhysicalNic", dst: "PhysicalNic"):
        from ..sim.resources import Store

        key = (id(src), id(dst))
        queue = self._landing.get(key)
        if queue is None:
            queue = Store(self.env)
            ingress_queue = Store(self.env)
            self._landing[key] = queue
            # Two chained stage workers per path: the core stage and the
            # ingress stage pipeline across messages while each stage
            # stays FIFO, so order is preserved at full stage rate.
            self.env.process(self._core_worker(src, dst, queue, ingress_queue))
            self.env.process(self._ingress_worker(dst, ingress_queue))
        return queue

    def _core_worker(self, src, dst, queue, ingress_queue):
        """Stage 1: propagation wait, then the partition check.

        While a partition cuts this (src, dst) path the worker parks on
        the fabric's heal event, holding the message (and everything
        queued behind it, preserving order) until connectivity returns.
        """
        while True:
            arrival_at, wire_bytes, priority, deliver = yield queue.get()
            wait = arrival_at - self.env.now
            if wait > 0:
                yield self.env.timeout(wait)
            while self.partitioned(src, dst):
                yield self._healed()
            ingress_queue.put((wire_bytes, priority, deliver))

    def _ingress_worker(self, dst: "PhysicalNic", ingress_queue):
        """Stage 2: destination-NIC ingress serialisation + delivery."""
        while True:
            wire_bytes, priority, deliver = yield ingress_queue.get()
            yield from dst.ingress.transfer(wire_bytes, priority=priority)
            deliver()

    def path_latency(self, wire_bytes: float, rate_bytes: float) -> float:
        """Closed-form uncontended one-way latency (for sanity checks)."""
        return wire_bytes / rate_bytes * 2 + self.one_way_latency_s
