"""DPDK userspace transport: kernel bypass without RDMA hardware.

A poll-mode driver (PMD) thread spins on a dedicated core per host and
moves packets between application rings and the NIC with one copy and no
syscalls.  Compared with RDMA the host CPU still touches every byte, but
the kernel's per-packet costs vanish:

* a single PMD core at 0.30 cycles/byte pushes ≈ 8 GB/s (64 Gb/s), so a
  40 Gb/s link stays the bottleneck — the paper lists DPDK alongside RDMA
  as an inter-host option for exactly this reason;
* the price is a permanently busy core (the ``dedicate()`` claim), which
  shows up honestly in the CPU-utilisation benches.

One :class:`DpdkEngine` exists per host and is shared by every DPDK lane
on it; its single PMD worker is the serialisation point.  The host's NIC
holds its engine (``nic.pmd``), so the engine lives exactly as long as
the host: a dropped simulation is freed whole.  The core stays claimed
for the engine's life, but the PMD's process, like each lane's wire
stage, is a :class:`~repro.sim.stage.Stage` worker that runs only while
it has packets; a lane's window is built on its first send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..errors import TransportUnavailable
from ..hardware.specs import DpdkSpec
from ..sim.stage import Stage
from .base import DuplexChannel, Mechanism, WindowedLane
from .packet import segment_count

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host
    from .packet import Message

__all__ = ["DpdkEngine", "DpdkLane", "DpdkChannel"]


class DpdkEngine:
    """The per-host PMD: one dedicated core polling TX and RX rings."""

    def __init__(self, host: "Host", spec: Optional[DpdkSpec] = None) -> None:
        if not host.nic.dpdk_capable:
            raise TransportUnavailable(f"{host.name}'s NIC has no DPDK driver")
        self.env = host.env
        self.host = host
        self.spec = spec or host.spec.dpdk
        self._work = Stage(host.env)
        self._core = host.cpu.dedicate()
        self.packets_polled = 0

    @classmethod
    def on_host(cls, host: "Host") -> "DpdkEngine":
        """Get (or start) the PMD for ``host`` — one engine per host."""
        engine = host.nic.pmd
        if engine is None:
            engine = host.nic.pmd = cls(host)
        return engine

    def service_seconds(self, nbytes: int) -> float:
        """PMD time to process one message (copy + per-packet work)."""
        packets = segment_count(nbytes, self.host.spec.kernel.mtu_bytes)
        cycles = nbytes * self.spec.cycles_per_byte + packets * self.spec.per_packet_cycles
        return self.host.cpu.seconds_for(cycles)

    def submit(self, message: "Message", next_step) -> None:
        """Queue one message for PMD processing; ``next_step()`` runs after."""
        self._work.put((message, next_step), self._pmd_loop)

    def _pmd_loop(self, work):
        while work is not None:
            message, next_step = work
            # The PMD core is already dedicated (permanently busy), so the
            # service time is pure delay — no extra core acquisition.
            yield self.env.timeout(self.spec.poll_latency_s)
            yield self.env.timeout(self.service_seconds(message.size_bytes))
            self.packets_polled += segment_count(
                message.size_bytes, self.host.spec.kernel.mtu_bytes
            )
            next_step()
            work = yield from self._work.next()

    def shutdown(self) -> None:
        """Release the dedicated core (end of experiment)."""
        self._core.release()
        if self.host.nic.pmd is self:
            self.host.nic.pmd = None


class DpdkLane(WindowedLane):
    """One direction of a DPDK channel between two hosts (or loopback)."""

    __slots__ = ("src_host", "dst_host", "src_engine", "dst_engine", "_wire")

    def __init__(
        self,
        src_host: "Host",
        dst_host: "Host",
        window_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        super().__init__(src_host.env, Mechanism.DPDK, window_bytes)
        self.src_host = src_host
        self.dst_host = dst_host
        self.src_engine = DpdkEngine.on_host(src_host)
        self.dst_engine = DpdkEngine.on_host(dst_host)
        #: The wire stage, built on its first message.
        self._wire: Optional[Stage] = None

    @property
    def loopback(self) -> bool:
        return self.src_host is self.dst_host

    def send(self, nbytes: int, payload: Any = None):
        """Enqueue into the PMD TX ring (cheap; no syscall)."""
        if self.closed:
            raise TransportUnavailable("DPDK channel closed")
        message = self.make_message(nbytes, payload)
        trace = self._trace_of(message)
        mark = self.env.now
        yield from self.src_host.cpu.execute(150.0)  # lockless ring enqueue
        if trace is not None:
            trace.add("post", mark, self.env.now)
            mark = self.env.now
        yield self.window.put(max(1, nbytes))
        if trace is not None:
            trace.add("queue", mark, self.env.now)
            message.meta["nic_start"] = self.env.now
        self.src_engine.submit(message, lambda m=message: self._after_tx(m))
        return message

    def _close_span(self, message: "Message", name: str, key: str) -> None:
        """Close a span opened in ``message.meta`` by an earlier stage."""
        trace = self._trace_of(message)
        if trace is not None:
            start = message.meta.pop(key, None)
            if start is not None:
                trace.add(name, start, self.env.now)

    def _after_tx(self, message: "Message") -> None:
        """TX PMD finished the copy: put the message on the wire."""
        self._close_span(message, "nic", "nic_start")
        if self.loopback:
            if self._trace_of(message) is not None:
                message.meta["nic_start"] = self.env.now
            self.dst_engine.submit(message, lambda m=message: self._rx_landed(m))
            return
        if self._wire is None:
            self._wire = Stage(self.env)
        self._wire.put(message, self._wire_worker)

    def _wire_worker(self, message: "Message"):
        """Serialises this lane's messages onto the wire, in order."""
        while message is not None:
            fabric = self.src_host.fabric
            if fabric is None:
                raise TransportUnavailable(
                    f"{self.src_host.name} is not attached to a fabric"
                )
            wire = self.src_host.spec.kernel.wire_bytes(message.size_bytes)
            yield from fabric.send(
                self.src_host.nic,
                self.dst_host.nic,
                wire,
                deliver=lambda m=message: self._off_wire(m),
                trace=self._trace_of(message),
            )
            message = yield from self._wire.next()

    def _off_wire(self, message: "Message") -> None:
        """The wire delivered into the destination PMD's RX ring."""
        if self._trace_of(message) is not None:
            message.meta["nic_start"] = self.env.now
        self.dst_engine.submit(message, lambda m=message: self._rx_landed(m))

    def _rx_landed(self, message: "Message") -> None:
        """RX PMD copied the message into the application ring."""
        self._close_span(message, "nic", "nic_start")
        self.deliver(message)

    def recv(self):
        message = yield self.inbox.get()
        trace = self._trace_of(message)
        mark = self.env.now
        yield from self.dst_host.cpu.execute(150.0)  # ring dequeue
        yield self.window.get(max(1, message.size_bytes))
        if trace is not None:
            trace.add("consume", mark, self.env.now)
        self._finish_trace(message)
        return message


class DpdkChannel(DuplexChannel):
    """Bidirectional DPDK channel."""

    def __init__(
        self,
        a_host: "Host",
        b_host: "Host",
        window_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        super().__init__(
            DpdkLane(a_host, b_host, window_bytes),
            DpdkLane(b_host, a_host, window_bytes),
        )
