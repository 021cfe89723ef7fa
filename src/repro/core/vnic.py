"""The virtual RDMA NIC (paper §5): verbs execution over any data plane.

"In FreeFlow, both the sender and receiver containers have a virtual
RDMA NIC" — the vNIC emulates the NIC-side structures (queue pairs,
completion queues, memory regions) and executes work requests over
whatever channel the orchestrator's policy selected:

* intra-host: the WRITE flow of the paper's Fig. 8 — the payload goes
  into a shared-memory block and the peer's vNIC is notified with the
  block's pointer;
* inter-host: the flow of Fig. 7 — the local agent performs an actual
  RDMA (or DPDK/TCP) transfer to the peer's agent, which lands the data
  in shared memory and notifies the receiving container's vNIC.

Work-request semantics implemented: SEND/RECV (two-sided, RNR-blocking
until a receive is posted), WRITE and WRITE_WITH_IMM (one-sided into a
registered remote MR, with access validation against the remote vNIC's
rkey table), READ (one-sided fetch, request/response on the same channel
pair).  Completions are pushed to the right CQ with realistic points in
time: a send-side completion fires only after the remote side has
applied the operation (plus an ack propagation delay).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..errors import MemoryRegionError, QueuePairStateError, VerbsError
from ..sim.process import Interrupt
from ..telemetry import flowrecords as _flowrecords
from ..telemetry import registry as _registry
from ..transports.base import ChannelEnd, Mechanism
from .verbs import (
    CompletionQueue,
    MemoryRegion,
    Opcode,
    ProtectionDomain,
    QpState,
    QueuePair,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.container import Container
    from .network import FreeFlowNetwork

__all__ = ["VirtualNic", "VNIC_POST_OVERHEAD_CYCLES", "READ_REQUEST_BYTES"]

#: FreeFlow's interception tax: extra cycles the customized verbs library
#: spends per posted WR compared to talking to a physical NIC directly.
VNIC_POST_OVERHEAD_CYCLES = 300.0

#: Size of the control message a READ sends to the responder.
READ_REQUEST_BYTES = 32


def _require_connected(qp: QueuePair) -> None:
    """Invariant: the vNIC engines only drive connected queue pairs."""
    if qp.channel_end is None:
        raise QueuePairStateError(
            f"QP{qp.qp_num} has no bound channel end — the vNIC cannot "
            "move data for an unconnected queue pair"
        )


#: Ack propagation delay by mechanism (sender WC fires this long after
#: the remote side applied the operation).
_ACK_LATENCY_S = {
    Mechanism.SHM: 0.8e-6,
    Mechanism.RDMA: 1.2e-6,
    Mechanism.DPDK: 1.5e-6,
    Mechanism.TCP: 4.0e-6,
}

_descriptor_ids = itertools.count(1)


@dataclass
class _Descriptor:
    """What actually travels on the channel for one work request."""

    kind: str  # "send" | "write" | "read_req" | "read_resp"
    wr_id: int
    length: int
    payload: Any = None
    remote_key: Optional[int] = None
    remote_offset: int = 0
    imm_data: Optional[int] = None
    #: Event the responder triggers once the op is applied; carries a
    #: WcStatus so access violations surface at the requester.
    done: Any = None
    #: For read responses: the desc_id of the originating read request.
    req_id: Optional[int] = None
    desc_id: int = field(default_factory=lambda: next(_descriptor_ids))


class VirtualNic:
    """Per-container virtual RDMA NIC + customized verbs library."""

    def __init__(self, container: "Container", network: "FreeFlowNetwork") -> None:
        self.container = container
        self.network = network
        self.env = container.env
        self._mrs_by_rkey: dict[int, MemoryRegion] = {}
        self._pending_reads: dict[int, WorkRequest] = {}
        self.posts = 0

    # -- resource creation (standard verbs surface) -----------------------------

    def alloc_pd(self) -> ProtectionDomain:
        return ProtectionDomain(self)

    def reg_mr(self, pd: ProtectionDomain, length: int) -> MemoryRegion:
        if pd.vnic is not self:
            raise VerbsError("PD belongs to a different vNIC")
        region = MemoryRegion(pd, length)
        self._mrs_by_rkey[region.rkey] = region
        return region

    def dereg_mr(self, region: MemoryRegion) -> None:
        self._mrs_by_rkey.pop(region.rkey, None)
        region.deregister()

    def create_cq(self, depth: int = 1024,
                  poll_batch: Optional[int] = None) -> CompletionQueue:
        """A completion queue whose drain batch defaults to the host
        NIC's advertised :attr:`~repro.hardware.specs.NicSpec.cq_poll_batch`."""
        if poll_batch is None:
            poll_batch = self.container.host.nic.spec.cq_poll_batch
        return CompletionQueue(self.env, depth, poll_batch=poll_batch)

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_send_wr: int = 256,
    ) -> QueuePair:
        return QueuePair(self, pd, send_cq, recv_cq, max_send_wr)

    def lookup_rkey(self, rkey: Optional[int]) -> Optional[MemoryRegion]:
        if rkey is None:
            return None
        return self._mrs_by_rkey.get(rkey)

    # -- connection plumbing (driven by FreeFlowNetwork) ---------------------------

    def bind(self, qp: QueuePair, end: ChannelEnd, remote: QueuePair) -> None:
        """Attach a connected channel end to a QP and start its engines."""
        qp.channel_end = end
        qp.remote = remote
        qp._engines = (
            self.env.process(self._sq_engine(qp)),
            self.env.process(self._rx_engine(qp)),
        )

    def unbind(self, qp: QueuePair) -> None:
        """Interrupt the QP's engines; the caller drains in-flight work
        first (see :mod:`repro.core.migration`)."""
        engines, qp._engines = qp._engines, ()
        for engine in engines:
            if engine.is_alive:
                engine.interrupt("unbind")

    def rebind(self, qp: QueuePair, end: ChannelEnd, remote: QueuePair) -> None:
        """Swap the QP onto a new channel (live-migration support, §7)."""
        self.unbind(qp)
        self.bind(qp, end, remote)

    # -- posting cost ----------------------------------------------------------------

    def charge_post(self):
        """CPU cost of one post through the customized verbs library."""
        self.posts += 1
        _registry.counter_inc("repro.vnic.posts")
        host = self.container.host
        yield from host.cpu.execute(
            host.nic.spec.rdma_post_cycles + VNIC_POST_OVERHEAD_CYCLES
        )

    def kick(self, qp: QueuePair) -> None:
        """Doorbell: the SQ engine drains ``qp.sq`` on its own."""
        # The engine process is always draining; nothing to do — kept as
        # an explicit hook because real verbs has the doorbell write.

    # -- send-queue engine -------------------------------------------------------------

    def _sq_engine(self, qp: QueuePair):
        try:
            yield from self._sq_loop(qp)
        except Interrupt:
            return

    def _sq_loop(self, qp: QueuePair):
        while True:
            wr: WorkRequest = yield qp.sq.get()
            if qp.state is not QpState.RTS:
                self._complete(qp, wr, WcStatus.WR_FLUSH_ERROR, 0)
                continue
            if wr.opcode is Opcode.SEND:
                yield from self._issue(qp, wr, "send", wr.length)
            elif wr.opcode is Opcode.WRITE:
                yield from self._issue(qp, wr, "write", wr.length)
            elif wr.opcode is Opcode.WRITE_WITH_IMM:
                yield from self._issue(qp, wr, "write", wr.length, imm=True)
            elif wr.opcode is Opcode.READ:
                yield from self._issue(qp, wr, "read_req", READ_REQUEST_BYTES)
            elif wr.opcode in (Opcode.ATOMIC_CAS, Opcode.ATOMIC_FADD):
                yield from self._issue(qp, wr, "atomic_req",
                                       READ_REQUEST_BYTES)
            else:  # pragma: no cover - WorkRequest validation prevents this
                raise VerbsError(f"SQ cannot execute {wr.opcode.value}")

    def _issue(self, qp: QueuePair, wr: WorkRequest, kind: str, nbytes: int,
               imm: bool = False):
        descriptor = _Descriptor(
            kind=kind,
            wr_id=wr.wr_id,
            length=wr.length,
            payload=wr.payload,
            remote_key=wr.remote_key,
            remote_offset=wr.remote_offset,
            imm_data=wr.imm_data if (imm or wr.opcode is Opcode.SEND) else None,
        )
        if kind == "atomic_req":
            descriptor.payload = (wr.opcode, wr.compare_add, wr.swap)
        descriptor.done = self.env.event()
        _require_connected(qp)
        recorder = _flowrecords.ACTIVE
        if recorder is not None:
            recorder.on_verbs(wr.opcode.value, wr.length)
        if kind in ("read_req", "atomic_req"):
            # These complete when the response lands (rx engine); remember
            # the WR so the response can land in its local MR.
            self._pending_reads[descriptor.desc_id] = wr
        yield from qp.channel_end.send(max(1, nbytes), payload=descriptor)
        self.env.process(self._await_ack(qp, wr, descriptor))

    def _await_ack(self, qp: QueuePair, wr: WorkRequest, descriptor: _Descriptor):
        """Wait for the responder to apply the op, then complete the WR."""
        status = yield descriptor.done
        if descriptor.kind in ("read_req", "atomic_req"):
            # The rx engine completes these when the response arrives.
            return
        mechanism = qp.channel_end.mechanism
        yield self.env.timeout(_ACK_LATENCY_S[mechanism])
        if status is not WcStatus.SUCCESS:
            qp.modify(QpState.ERROR)
        self._complete(qp, wr, status, wr.length if status is WcStatus.SUCCESS else 0)

    def _complete(self, qp: QueuePair, wr: WorkRequest, status: WcStatus,
                  byte_len: int) -> None:
        if not wr.signaled and status is WcStatus.SUCCESS:
            return
        qp.send_cq.push(WorkCompletion(
            wr_id=wr.wr_id, status=status, opcode=wr.opcode,
            byte_len=byte_len, qp_num=qp.qp_num, timestamp=self.env.now,
        ))

    # -- receive/responder engine ----------------------------------------------------------

    def _rx_engine(self, qp: QueuePair):
        try:
            yield from self._rx_loop(qp)
        except Interrupt:
            return

    def _rx_loop(self, qp: QueuePair):
        while True:
            _require_connected(qp)
            message = yield from qp.channel_end.recv()
            descriptor: _Descriptor = message.payload
            if descriptor.kind == "send":
                yield from self._handle_send(qp, descriptor)
            elif descriptor.kind == "write":
                yield from self._handle_write(qp, descriptor)
            elif descriptor.kind == "read_req":
                yield from self._handle_read_request(qp, descriptor)
            elif descriptor.kind == "read_resp":
                self._handle_read_response(qp, descriptor)
            elif descriptor.kind == "atomic_req":
                yield from self._handle_atomic_request(qp, descriptor)
            elif descriptor.kind == "atomic_resp":
                self._handle_atomic_response(qp, descriptor)
            else:  # pragma: no cover - descriptors are internal
                raise VerbsError(f"unknown descriptor kind {descriptor.kind!r}")

    def _handle_send(self, qp: QueuePair, descriptor: _Descriptor):
        # RNR behaviour: block until the application posts a receive.
        recv_wr: WorkRequest = yield qp.rq.get()
        if recv_wr.local_mr is None:
            raise MemoryRegionError(
                f"RECV WR {recv_wr.wr_id} has no local memory region — "
                "WorkRequest validation admits RECVs only with a landing MR"
            )
        if descriptor.length > recv_wr.length:
            descriptor.done.succeed(WcStatus.REMOTE_INVALID_REQUEST)
            qp.recv_cq.push(WorkCompletion(
                wr_id=recv_wr.wr_id, status=WcStatus.LOCAL_LENGTH_ERROR,
                opcode=Opcode.RECV, byte_len=0, qp_num=qp.qp_num,
                timestamp=self.env.now,
            ))
            return
        recv_wr.local_mr.write(
            recv_wr.local_offset, descriptor.length, descriptor.payload
        )
        qp.recv_cq.push(WorkCompletion(
            wr_id=recv_wr.wr_id, status=WcStatus.SUCCESS, opcode=Opcode.RECV,
            byte_len=descriptor.length, qp_num=qp.qp_num,
            timestamp=self.env.now, imm_data=descriptor.imm_data,
            payload=descriptor.payload,
        ))
        descriptor.done.succeed(WcStatus.SUCCESS)

    def _handle_write(self, qp: QueuePair, descriptor: _Descriptor):
        region = self.lookup_rkey(descriptor.remote_key)
        if region is None:
            descriptor.done.succeed(WcStatus.REMOTE_ACCESS_ERROR)
            return
        try:
            region.check_range(descriptor.remote_offset, descriptor.length)
        except Exception:
            descriptor.done.succeed(WcStatus.REMOTE_ACCESS_ERROR)
            return
        region.write(descriptor.remote_offset, descriptor.length,
                     descriptor.payload)
        if descriptor.imm_data is not None:
            # WRITE_WITH_IMM consumes a receive and notifies the app.
            recv_wr: WorkRequest = yield qp.rq.get()
            qp.recv_cq.push(WorkCompletion(
                wr_id=recv_wr.wr_id, status=WcStatus.SUCCESS,
                opcode=Opcode.RECV, byte_len=descriptor.length,
                qp_num=qp.qp_num, timestamp=self.env.now,
                imm_data=descriptor.imm_data, payload=descriptor.payload,
            ))
        descriptor.done.succeed(WcStatus.SUCCESS)

    def _handle_read_request(self, qp: QueuePair, descriptor: _Descriptor):
        region = self.lookup_rkey(descriptor.remote_key)
        response = _Descriptor(
            kind="read_resp",
            wr_id=descriptor.wr_id,
            length=descriptor.length,
            req_id=descriptor.desc_id,
        )
        if region is None:
            response.imm_data = -1  # marks the access error
            descriptor.done.succeed(WcStatus.REMOTE_ACCESS_ERROR)
        else:
            try:
                region.check_range(descriptor.remote_offset, descriptor.length)
            except Exception:
                response.imm_data = -1
                descriptor.done.succeed(WcStatus.REMOTE_ACCESS_ERROR)
            else:
                response.payload = region.read(
                    descriptor.remote_offset, descriptor.length
                )
                descriptor.done.succeed(WcStatus.SUCCESS)
        _require_connected(qp)
        size = max(1, descriptor.length) if response.imm_data is None else 1
        yield from qp.channel_end.send(size, payload=response)

    def _handle_atomic_request(self, qp: QueuePair, descriptor: _Descriptor):
        """Responder side of ATOMIC_CAS / ATOMIC_FADD.

        The NIC serialises atomics on the responder, so the
        read-modify-write below is atomic by construction (the rx engine
        is a single process)."""
        opcode, compare_add, swap = descriptor.payload
        region = self.lookup_rkey(descriptor.remote_key)
        response = _Descriptor(
            kind="atomic_resp",
            wr_id=descriptor.wr_id,
            length=8,
            req_id=descriptor.desc_id,
        )
        if region is None:
            response.imm_data = -1
            descriptor.done.succeed(WcStatus.REMOTE_ACCESS_ERROR)
        else:
            try:
                old = region.atomic_value(descriptor.remote_offset)
            except Exception:
                response.imm_data = -1
                descriptor.done.succeed(WcStatus.REMOTE_ACCESS_ERROR)
            else:
                if opcode is Opcode.ATOMIC_CAS:
                    if old == compare_add:
                        region.atomic_set(descriptor.remote_offset, swap)
                else:  # ATOMIC_FADD
                    region.atomic_set(
                        descriptor.remote_offset, old + compare_add
                    )
                response.payload = old
                descriptor.done.succeed(WcStatus.SUCCESS)
        _require_connected(qp)
        yield from qp.channel_end.send(8, payload=response)

    def _handle_atomic_response(self, qp: QueuePair,
                                descriptor: _Descriptor) -> None:
        status = (
            WcStatus.SUCCESS if descriptor.imm_data is None
            else WcStatus.REMOTE_ACCESS_ERROR
        )
        wr = None
        if descriptor.req_id is not None:
            wr = self._pending_reads.pop(descriptor.req_id, None)
        opcode = wr.opcode if wr is not None else Opcode.ATOMIC_CAS
        if status is WcStatus.SUCCESS:
            if wr is not None and wr.local_mr is not None:
                # The old value lands in the requester's local MR.
                wr.local_mr.atomic_set(wr.local_offset, descriptor.payload)
        else:
            qp.modify(QpState.ERROR)
        qp.send_cq.push(WorkCompletion(
            wr_id=descriptor.wr_id, status=status, opcode=opcode,
            byte_len=8 if status is WcStatus.SUCCESS else 0,
            qp_num=qp.qp_num, timestamp=self.env.now,
            payload=descriptor.payload,
        ))

    def _handle_read_response(self, qp: QueuePair, descriptor: _Descriptor) -> None:
        status = (
            WcStatus.SUCCESS if descriptor.imm_data is None
            else WcStatus.REMOTE_ACCESS_ERROR
        )
        wr = None
        if descriptor.req_id is not None:
            wr = self._pending_reads.pop(descriptor.req_id, None)
        if status is WcStatus.SUCCESS:
            byte_len = descriptor.length
            if wr is not None and wr.local_mr is not None:
                # The NIC DMA-writes the fetched data into the local MR.
                wr.local_mr.write(wr.local_offset, byte_len, descriptor.payload)
        else:
            byte_len = 0
            qp.modify(QpState.ERROR)
        qp.send_cq.push(WorkCompletion(
            wr_id=descriptor.wr_id, status=status, opcode=Opcode.READ,
            byte_len=byte_len, qp_num=qp.qp_num, timestamp=self.env.now,
            payload=descriptor.payload,
        ))
