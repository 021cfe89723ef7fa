"""Hardware and cost-model specifications (single source of calibration).

Every constant that shapes an experiment's outcome lives here, documented
against the paper's testbed:

    "Intel Xeon 2.40GHz 4-cores CPU, 67 GB of memory,
     40Gbps Mellanox CX3 NIC, CentOS 7"  (paper §1)

and against the paper's reported numbers:

* bridge-mode TCP between two local containers  ≈ 27 Gb/s at ~200 % CPU,
  ~1 ms latency for the large messages they measured (§2.3.1);
* host-mode TCP ≈ 38 Gb/s (§2.4 "Host-mode provides a better performance
  of 38 Gb/s");
* RDMA loopback = 40 Gb/s (link-bound) at low CPU;
* shared memory ≈ memory bandwidth, lowest latency, "still burns some CPU".

The derivations:

* one 2.4 GHz core saturated by the sender-side kernel TCP path at
  27 Gb/s (3.375 GB/s) implies ≈ 0.71 cycles/byte on that path
  including per-segment/syscall overheads; we split it into a base
  stack cost and a bridge-hop surcharge so host mode (no bridge) lands
  at ≈ 38 Gb/s;
* a Xeon E5 v1/v2 with 4 DDR3 channels sustains ≈ 51 GB/s stream
  bandwidth; a single-core memcpy sustains ≈ 8-10 GB/s, i.e.
  ≈ 0.25 cycles/byte.

Nothing outside this module hardcodes a throughput or latency target.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "CpuSpec",
    "MemorySpec",
    "NicSpec",
    "KernelStackSpec",
    "OverlayRouterSpec",
    "ShmSpec",
    "DpdkSpec",
    "VmSpec",
    "HostSpec",
    "PAPER_TESTBED",
    "NO_RDMA_TESTBED",
    "GBPS",
    "gbps",
    "to_gbps",
]

#: Bits per second in one Gb/s (decimal, networking convention).
GBPS = 1e9


def gbps(value: float) -> float:
    """Convert Gb/s to bytes/second."""
    return value * GBPS / 8.0


def to_gbps(bytes_per_second: float) -> float:
    """Convert bytes/second to Gb/s."""
    return bytes_per_second * 8.0 / GBPS


@dataclass(frozen=True)
class CpuSpec:
    """A host's CPU package."""

    cores: int = 4
    frequency_hz: float = 2.4e9  # Intel Xeon 2.40 GHz (paper testbed)

    def seconds_for(self, cycles: float) -> float:
        """Wall time one core needs for ``cycles`` of work."""
        return cycles / self.frequency_hz


@dataclass(frozen=True)
class MemorySpec:
    """DRAM capacity and the shared memory-bus bandwidth model."""

    capacity_bytes: float = 67e9  # 67 GB (paper testbed)
    #: Aggregate stream bandwidth of the socket (4×DDR3-1600 ≈ 51.2 GB/s).
    bus_bandwidth_bps: float = 51.2e9 * 8
    #: Single-core memcpy cost; 0.25 cycles/byte ≈ 9.6 GB/s/core at 2.4 GHz.
    copy_cycles_per_byte: float = 0.25
    #: Chunk size used when time-sharing the bus between flows.
    chunk_bytes: int = 256 * 1024

    @property
    def bus_bandwidth_bytes(self) -> float:
        return self.bus_bandwidth_bps / 8.0


@dataclass(frozen=True)
class NicSpec:
    """A physical NIC (modelled on the Mellanox ConnectX-3 EN 40 Gb/s)."""

    model: str = "Mellanox CX3"
    link_rate_bps: float = 40 * GBPS
    rdma_capable: bool = True
    dpdk_capable: bool = True
    #: Packets/messages the embedded NIC processor can handle per second.
    #: CX3 does ~35 M msg/s verbs rate for tiny messages; we model the
    #: engine as a per-work-request service time.
    rdma_engine_op_seconds: float = 0.15e-6
    #: Host-CPU cost to post one work request / poll one completion.
    rdma_post_cycles: float = 450.0
    rdma_poll_cycles: float = 250.0
    #: Completions one CQ poll drains (the NIC/driver's batch size);
    #: seeds :attr:`repro.core.verbs.CompletionQueue.poll_batch`.
    cq_poll_batch: int = 16
    #: PCIe DMA latency per transfer direction.
    dma_latency_s: float = 0.30e-6
    #: Wire/serialisation chunk for sharing the link between flows.
    chunk_bytes: int = 64 * 1024
    #: Fraction of the link rate usable for payload+headers (flow control,
    #: symbol overhead).  Credit-based RDMA links run very close to line
    #: rate, which is why the paper can report a flat "40 Gb/s".
    efficiency: float = 0.99
    #: RDMA framing: 4 KB path MTU with ~26 B of RoCE/IB headers — far
    #: cheaper than the kernel path's per-1500B Ethernet+IP+TCP headers.
    rdma_mtu_bytes: int = 4096
    rdma_header_bytes: int = 26

    @property
    def link_rate_bytes(self) -> float:
        return self.link_rate_bps / 8.0

    @property
    def goodput_bytes(self) -> float:
        return self.link_rate_bytes * self.efficiency

    def rdma_wire_bytes(self, payload: int) -> int:
        """Payload plus RDMA framing overhead on the wire."""
        if payload <= 0:
            return 0
        packets = max(1, -(-payload // self.rdma_mtu_bytes))
        return payload + packets * self.rdma_header_bytes


@dataclass(frozen=True)
class KernelStackSpec:
    """Cost model of the kernel TCP/IP path (per endpoint).

    Calibration: a sender-side cost of 0.435 cycles/byte — plus the
    per-segment, syscall and stack-latency overheads below — makes a
    single 2.4 GHz core top out at ≈ 38 Gb/s (paper's host mode); the
    bridge-hop surcharge of 0.18 cycles/byte lowers that to ≈ 27 Gb/s
    (paper's docker0/bridge mode).
    """

    #: Copy + checksum + stack traversal on the send path (cycles/byte).
    send_cycles_per_byte: float = 0.435
    #: Same for the receive path (softirq + copy-to-user).
    recv_cycles_per_byte: float = 0.435
    #: Per-segment fixed cost (skb alloc, protocol headers, timers).
    per_segment_cycles: float = 4000.0
    #: Cost of one syscall (enter/exit, context save).
    syscall_cycles: float = 2600.0
    #: Latency adders that are not CPU work (scheduler wakeups, softirq
    #: batching) — applied once per message per endpoint.
    stack_latency_s: float = 2.5e-6
    #: Effective segment size (TSO/GRO makes the unit 64 KB, not MTU).
    segment_bytes: int = 64 * 1024
    #: MTU actually on the wire; wire overhead = headers per MTU.
    mtu_bytes: int = 1500
    header_bytes: int = 54  # Ethernet + IPv4 + TCP
    #: veth + Linux bridge forwarding surcharge (cycles/byte + per packet).
    bridge_cycles_per_byte: float = 0.18
    bridge_per_segment_cycles: float = 1500.0
    bridge_latency_s: float = 1.0e-6

    def wire_bytes(self, payload: int) -> int:
        """Payload plus per-MTU header overhead on the physical wire."""
        if payload <= 0:
            return 0
        packets = max(1, -(-payload // self.mtu_bytes))
        return payload + packets * self.header_bytes


@dataclass(frozen=True)
class OverlayRouterSpec:
    """A user-space overlay router (Weave-like) data-plane cost model.

    Traffic hairpins through the router process: kernel → user copy,
    VXLAN encap, user → kernel copy, so the per-byte toll is high and the
    router process itself burns CPU — which is exactly why the paper's
    Fig. 1 shows overlay mode losing to host mode.
    """

    #: Copy in + encap + copy out, per byte, inside the router process.
    #: 2.0 cycles/byte makes a single router core top out near 9.6 Gb/s,
    #: in line with user-space overlay routers of the Weave era.
    router_cycles_per_byte: float = 2.0
    #: Per-packet work in the router (lookup, header build).
    per_segment_cycles: float = 6000.0
    #: Context-switch / wakeup latency into the router, per direction.
    traversal_latency_s: float = 12.0e-6
    #: VXLAN-ish encapsulation overhead on the wire.
    encap_bytes: int = 50
    #: Whether the router can use kernel-bypass (FreeFlow's router does).
    kernel_bypass: bool = False


@dataclass(frozen=True)
class ShmSpec:
    """Shared-memory channel cost model (single-copy ring buffer)."""

    #: Futex/eventfd wakeup of the peer, per message batch.
    notify_latency_s: float = 0.8e-6
    notify_cycles: float = 1200.0
    #: Ring bookkeeping per message.
    per_message_cycles: float = 300.0
    #: Size of the shared ring (backpressure point).
    ring_bytes: int = 8 * 1024 * 1024
    #: If True the receiver consumes in place (zero-copy read);
    #: if False the receiver memcpys out of the ring too.
    zero_copy_receive: bool = True


@dataclass(frozen=True)
class DpdkSpec:
    """DPDK userspace polling transport cost model."""

    #: Poll-mode driver per-byte cost (one copy into NIC ring).
    cycles_per_byte: float = 0.30
    #: ~250 cycles/packet ≈ 9.6 Mpps/core, typical of a tuned PMD.
    per_packet_cycles: float = 250.0
    poll_latency_s: float = 0.5e-6


@dataclass(frozen=True)
class VmSpec:
    """Virtual machine overhead model (for deployment cases (c)/(d))."""

    #: Extra per-byte cost of the virtio/vswitch path.
    virtio_cycles_per_byte: float = 0.35
    virtio_per_segment_cycles: float = 3500.0
    virtio_latency_s: float = 8.0e-6
    #: SR-IOV passthrough skips the virtio tax for RDMA/DPDK.
    sriov: bool = True


@dataclass(frozen=True)
class HostSpec:
    """A complete host: CPU + memory + NIC + kernel cost models."""

    name: str = "xeon-cx3"
    cpu: CpuSpec = field(default_factory=CpuSpec)
    memory: MemorySpec = field(default_factory=MemorySpec)
    nic: NicSpec = field(default_factory=NicSpec)
    kernel: KernelStackSpec = field(default_factory=KernelStackSpec)
    overlay: OverlayRouterSpec = field(default_factory=OverlayRouterSpec)
    shm: ShmSpec = field(default_factory=ShmSpec)
    dpdk: DpdkSpec = field(default_factory=DpdkSpec)

    def without_rdma(self) -> "HostSpec":
        """The same host with a plain (non-RDMA, non-DPDK) NIC."""
        plain = replace(self.nic, rdma_capable=False, dpdk_capable=False,
                        model=self.nic.model + " (no RDMA)")
        return replace(self, nic=plain)


#: The paper's evaluation testbed.
PAPER_TESTBED = HostSpec()

#: Constraint row from the paper's (commented) Table 1: "w/o RDMA NIC".
NO_RDMA_TESTBED = PAPER_TESTBED.without_rdma()
