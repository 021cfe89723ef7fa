"""Physical network fabric: links between hosts through a switch.

The model is a non-blocking switch (standard for a managed datacenter
fabric, which the paper assumes: "deployed over managed network
fabrics") with store-and-forward latency.  Each host's NIC contributes
its own egress and ingress pipes, so the bottlenecks are the end links —
which is where 40 Gb/s RDMA tops out — while the fabric core never
congests.  Oversubscribed racks and a contended core are the fat-tree
subclass's job (:class:`~repro.hardware.topology.FatTreeFabric`, e.g.
``core_rate_scale=0.25``).

Both fabrics end every crossing in the same place: one FIFO delivery
stage per (src, dst) pair, which waits out the last hop's latency,
honours partitions, pays the destination NIC's ingress, records the
message's ``wire`` trace segment and delivers.  The single switch feeds
it straight after egress, as an empty path; the fat-tree after the last
link.  The stage is a :class:`~repro.sim.stage.Stage` that exists only
while the pair has a message in it, so a pair that has gone idle holds
no process and no queue.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from ..sim.stage import Stage
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
        #: Attached NICs by ``id()``, in attachment order.
        self._nics: dict[int, "PhysicalNic"] = {}
        #: Busy per-(src, dst) delivery stages: arrivals at a destination
        #: NIC from one source are processed strictly in order, so a
        #: small message can never overtake a large one on the same
        #: path.  A stage leaves the map when it goes idle.
        self._stages: dict[tuple[int, int], Stage] = {}
        #: Active partitions: (side_a, side_b) pairs of NIC id-sets whose
        #: cross traffic is parked at the delivery stage until :meth:`heal`.
        self._partitions: list[tuple[frozenset[int], frozenset[int]]] = []
        self._heal_event = None
        registry = _registry.ACTIVE
        if registry is not None:
            registry.register_fabric(self)

    def attach(self, nic: "PhysicalNic") -> None:
        """Plug a NIC into the fabric."""
        if id(nic) in self._nics:
            raise ValueError(f"{nic!r} already attached")
        self._nics[id(nic)] = nic
        nic.fabric = self

    @property
    def nics(self) -> tuple["PhysicalNic", ...]:
        return tuple(self._nics.values())

    # -- partitions ----------------------------------------------------------

    def partition(self, side_a, side_b) -> None:
        """Cut connectivity between the NICs in ``side_a`` and ``side_b``.

        In-flight and newly sent traffic crossing the cut is *parked* at
        the pair's delivery stage, before the destination's ingress —
        not dropped — and resumes after :meth:`heal`, modelling a
        reliable link layer that retransmits until the path returns
        (byte conservation and order hold across the outage).  A
        message already in ingress when the cut starts completes;
        the ones queued behind it park.  Traffic within either side is
        unaffected.  Multiple partitions stack; ``heal()`` clears them
        all.
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
        """The event parked delivery stages wait on (created lazily)."""
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
        flow=None,
        trace=None,
    ):
        """Carry ``wire_bytes`` from ``src`` to ``dst`` (generator).

        The calling process pays the *egress* serialisation; propagation
        and the destination's ingress happen in the pair's delivery
        stage, so back-to-back sends pipeline, as on a real wire.
        ``deliver`` is invoked once the last byte has cleared the
        destination NIC.

        ``flow`` is an optional hashable flow identity.  The single
        switch has one path, so it is ignored here; the fat-tree
        subclass (:class:`~repro.hardware.topology.FatTreeFabric`)
        ECMP-hashes it to pick among equal-cost paths.

        ``trace`` is the message's open trace (None when untraced); the
        fabric records its ``wire`` segment, from this call to delivery.
        """
        del flow  # single-path fabric: no routing decision to make
        if src.fabric is not self or dst.fabric is not self:
            raise ValueError("both NICs must be attached to this fabric")
        if src is dst:
            raise ValueError("use host-local channels for loopback traffic")
        sent_at = self.env.now
        yield from src.egress.transfer(wire_bytes)
        # A single switch is an empty path: straight to delivery.
        self._arrive(src, dst, wire_bytes, deliver, trace, sent_at, None)

    def _arrive(self, src, dst, wire_bytes, deliver, trace, sent_at,
                order) -> None:
        """Queue a message at the (src, dst) delivery stage, arriving
        one switch hop from now.  ``order`` is the fat-tree's (flowlet
        key, sequence number), which the stage hands to its
        :class:`~repro.hardware.topology.FlowletTracer`; None on a
        single switch."""
        key = (id(src), id(dst))
        stage = self._stages.get(key)
        if stage is None:
            stage = self._stages[key] = Stage(self.env)
        stage.put((self.env.now + self.one_way_latency_s, wire_bytes,
                   deliver, trace, sent_at, order),
                  partial(self._delivery_stage, src, dst, stage))

    def _delivery_stage(self, src, dst, stage, item):
        """The last stage of every (src, dst) path, strictly FIFO.

        Waits for the arrival time, parks on the heal event while a
        partition cuts the pair (holding everything queued behind, so
        order survives the outage), serialises on the destination NIC's
        ingress, checks flowlet order (fat-tree only), closes the
        ``wire`` segment and delivers.
        """
        env = self.env
        while item is not None:
            arrival_at, wire_bytes, deliver, trace, sent_at, order = item
            wait = arrival_at - env.now
            if wait > 0:
                yield env.timeout(wait)
            while self.partitioned(src, dst):
                yield self._healed()
            yield from dst.ingress.transfer(wire_bytes)
            if order is not None:
                self.tracer.observe(*order)
            if trace is not None:
                trace.add("wire", sent_at, env.now)
            deliver()
            item = yield from stage.next()
        del self._stages[id(src), id(dst)]

    def path_latency(self, wire_bytes: float, rate_bytes: float) -> float:
        """Closed-form uncontended one-way latency (for sanity checks)."""
        return wire_bytes / rate_bytes * 2 + self.one_way_latency_s
