"""Socket API translated onto RDMA Verbs (paper §4.2's abstraction).

"There are already libraries available to translate TCP/IP [rsocket]
and MPI APIs to RDMA Verbs semantics" — this module is that translation
layer for sockets: ``listen``/``accept``/``connect`` plus byte-stream
``send``/``recv``.

Two data paths are implemented:

* the **streaming path** (default; TSoR-style): each direction of a
  connection owns a :class:`~repro.core.ringbuf.RingBuffer` inside a
  pre-registered MR on the receiver.  ``send()`` appends bytes to a
  staging queue and rings a doorbell; a per-socket flusher coalesces
  everything staged into **one** RDMA ``WRITE_WITH_IMM`` that carries
  the batch and the new tail pointer, so many small sends cost one
  post + one NIC op.  The receiver's dispatcher drains completions in
  batches (:meth:`CompletionQueue.wait_batch`) and wakes every parked
  ``recv`` in a single scheduler pass.  Flow control is credit-based:
  ring space is debited at ``send`` time from a credit tank and the
  receiver advertises consumed bytes back (one 8-byte WRITE per
  ~quarter ring), so a slow consumer backpressures the sender without
  per-message handshakes.  Sends at or above
  :data:`ZERO_COPY_THRESHOLD_BYTES` bypass the ring entirely — a
  direct WRITE into a bulk landing MR — with a FIFO send lock keeping
  the two paths in order.

* the **legacy path** (``SocketLayer(network, streaming=False)``): one
  verbs SEND per ``send()`` fragment and one blocking ``cq.wait()``
  per received message — the per-message regime the streaming path
  exists to beat; kept as the measured baseline for
  ``benchmarks/bench_api_translation.py --rpc`` (BENCH_sockets.json).

Translation costs stay explicit so bench E16 can measure the tax: a
fixed per-call CPU cost (:data:`SOCKET_TRANSLATION_CYCLES`) and a
bounce copy into registered memory for ring-path bytes (aggregated to
one ``memcpy`` per flushed batch).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from ..errors import (
    ConnectionRefused,
    EngineInvariantError,
    SocketError,
    SocketShutdownError,
)
from ..sim.process import Interrupt
from ..sim.resources import Resource, Store, Tank
from ..telemetry import registry as _registry
from ..transports.packet import EndpointAddr
from .ringbuf import RingBuffer
from .verbs import Opcode, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.container import Container
    from .network import FreeFlowNetwork

__all__ = [
    "SOCKET_TRANSLATION_CYCLES",
    "ZERO_COPY_THRESHOLD_BYTES",
    "MAX_FRAGMENT_BYTES",
    "RECV_CREDITS",
    "RECV_MAX_BYTES",
    "RING_BYTES",
    "CREDIT_RETURN_BYTES",
    "RING_WRITE_PIPELINE",
    "RING_CHECK",
    "SocketLayer",
    "FreeFlowListener",
    "FreeFlowSocket",
]

#: CPU cycles per socket call spent translating to verbs semantics.
SOCKET_TRANSLATION_CYCLES = 500.0

#: Sends below this size go through the ring (bounce copy into the
#: registered window); larger sends are transferred zero-copy with a
#: direct WRITE (rsocket riomap behaviour).
ZERO_COPY_THRESHOLD_BYTES = 16 * 1024

#: Largest single verbs transfer a socket issues; bigger writes fragment.
MAX_FRAGMENT_BYTES = 1024 * 1024

#: Pre-posted receive window per socket (messages).
RECV_CREDITS = 64

#: Default ``recv`` cap: effectively "everything buffered".  1 GiB is
#: deliberately far above any single buffered amount (the ring is
#: :data:`RING_BYTES` and large transfers fragment at
#: :data:`MAX_FRAGMENT_BYTES`), so the default preserves classic
#: ``recv`` semantics — return whatever is available — without a magic
#: number buried in the signature.
RECV_MAX_BYTES = 1 << 30

#: Per-direction streaming ring capacity (the receiver-side window the
#: credit protocol hands out).
RING_BYTES = 256 * 1024

#: The receiver advertises freed ring space once this many consumed
#: bytes accumulate — one credit WRITE per quarter ring instead of one
#: ack per message.  Deadlock-free because a blocked sender implies at
#: least ``RING_BYTES - ZERO_COPY_THRESHOLD_BYTES`` un-advertised bytes
#: sit at the receiver, far above this threshold, so consuming them is
#: guaranteed to trigger an update.
CREDIT_RETURN_BYTES = RING_BYTES // 4

#: Ring WRITEs the flusher keeps in flight before reaping send
#: completions.  This is the coalescing governor: the flusher paces
#: itself to the channel's actual drain rate, so while one WRITE is on
#: the wire new ``send()`` calls pile into the staging queue and the
#: next WRITE carries all of them.  Large enough to cover the ack
#: latency (the channel never idles), small enough that backpressure
#: reaches the stager within a few batches.
RING_WRITE_PIPELINE = 4

#: Process-wide ring-conservation hook (the runtime sanitizer's seam,
#: mirroring ``sim.resources.WAITS``).  When set, every completion batch
#: a socket applies and every ``recv`` consumption call
#: ``RING_CHECK.ring(problem)``, where ``problem`` is
#: :meth:`FreeFlowSocket._ring_imbalance` — ``None`` while the ring
#: accounting balances.
RING_CHECK = None

#: Size of the control MR each socket exposes (credit cell + FIN cell).
_CTRL_BYTES = 16
_CTRL_CREDIT_OFFSET = 0
_CTRL_FIN_OFFSET = 8
_CREDIT_MSG_BYTES = 8

#: Immediate-data tags for the streaming protocol's control plane.
FIN_IMM = 0x46494E     # "FIN": orderly shutdown
DATA_IMM = 0x444154    # "DAT": coalesced ring batch
LARGE_IMM = 0x4C4752   # "LGR": zero-copy large transfer
CREDIT_IMM = 0x435244  # "CRD": cumulative-consumed credit update


class _Fin:
    """Sentinel payload for the FIN control message."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<FIN>"


_FIN = _Fin()


class _RingBatch:
    """Payload of one coalesced ring WRITE: the application chunks it
    carries, in stream order.  ``chunks`` is ``[(nbytes, payload)]``;
    the WRITE's ``length`` is their sum and doubles as the tail-pointer
    advance the receiver applies (piggybacked tail update)."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: list) -> None:
        self.chunks = chunks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RingBatch {len(self.chunks)} chunks>"


_wr_ids = itertools.count(1)


class SocketLayer:
    """Per-network registry of listening sockets.

    ``streaming`` selects the data path for every socket the layer
    creates: the ring-buffered streaming protocol (default) or the
    legacy one-SEND-per-message translation.
    """

    def __init__(self, network: "FreeFlowNetwork",
                 streaming: bool = True) -> None:
        self.network = network
        self.env = network.env
        self.streaming = streaming
        self._listeners: dict[EndpointAddr, "FreeFlowListener"] = {}

    def socket(self, container: "Container") -> "FreeFlowSocket":
        """An unconnected socket owned by ``container``."""
        return FreeFlowSocket(self, container)

    def listen(
        self, container: "Container", port: int, backlog: int = 16
    ) -> "FreeFlowListener":
        """Bind+listen on (container's overlay IP, port)."""
        if container.ip is None:
            raise SocketError(
                f"{container.name} has no overlay IP; attach it first"
            )
        addr = EndpointAddr(container.ip, port)
        if addr in self._listeners:
            raise SocketError(f"address {addr} already in use")
        listener = FreeFlowListener(self, container, addr, backlog)
        self._listeners[addr] = listener
        return listener

    def _lookup_listener(self, addr: EndpointAddr) -> "FreeFlowListener":
        listener = self._listeners.get(addr)
        if listener is None or listener.closed:
            raise ConnectionRefused(f"nothing listening at {addr}")
        return listener

    def _unbind(self, addr: EndpointAddr) -> None:
        self._listeners.pop(addr, None)


class FreeFlowListener:
    """A passive socket: accepts inbound FreeFlow connections."""

    def __init__(
        self,
        layer: SocketLayer,
        container: "Container",
        addr: EndpointAddr,
        backlog: int,
    ) -> None:
        self.layer = layer
        self.container = container
        self.addr = addr
        self.closed = False
        self._pending: Store = Store(layer.env, capacity=backlog)

    def accept(self):
        """Blocking accept (generator): returns a connected socket."""
        if self.closed:
            raise SocketError("listener is closed")
        sock = yield self._pending.get()
        return sock

    def _enqueue(self, sock: "FreeFlowSocket"):
        yield self._pending.put(sock)

    def close(self) -> None:
        self.closed = True
        self.layer._unbind(self.addr)


class FreeFlowSocket:
    """A connected byte-stream over verbs (streaming WRITEs or SEND/RECV)."""

    def __init__(self, layer: SocketLayer, container: "Container") -> None:
        self.layer = layer
        self.container = container
        self.env = layer.env
        self.vnic = layer.network.vnic(container.name)
        self.streaming = layer.streaming
        self.connected = False
        self.closed = False
        self.peer_addr: Optional[EndpointAddr] = None
        self.local_addr: Optional[EndpointAddr] = None
        self._qp = None
        self._recv_mr = None
        #: The socket at the other end, held until both ends shut down
        #: (see :meth:`_release`).
        self._peer: Optional["FreeFlowSocket"] = None
        #: (remaining_bytes, payload, from_ring) in stream order.
        self._rx_buffer: deque = deque()
        self.mechanism = None
        #: Set once the peer performed an orderly shutdown (FIN seen).
        self.peer_closed = False
        #: Set once we sent our FIN (shutdown() called locally).
        self._fin_sent = False
        # -- streaming state (populated by the connect handshake) -----
        self._rx_ring: Optional[RingBuffer] = None   # our inbound window
        self._tx_ring: Optional[RingBuffer] = None   # mirror of peer's
        self._rx_ring_mr = None
        self._bulk_mr = None
        self._ctrl_mr = None
        self._peer_ring_rkey: Optional[int] = None
        self._peer_bulk_rkey: Optional[int] = None
        self._peer_ctrl_rkey: Optional[int] = None
        self._tx_credits: Optional[Tank] = None
        self._tx_lock: Optional[Resource] = None
        self._staged: deque = deque()   # (nbytes, payload) awaiting flush
        self._staged_bytes = 0
        self._ring_writes_in_flight = 0
        #: Bytes between credit debit and staging (a sender parked in
        #: ``_send_ring`` holds its grant for one scheduler step before
        #: appending); :meth:`_ring_imbalance` uses this to bound the
        #: debit/staged gap exactly.
        self._credit_debt_pending = 0
        self._doorbell = None
        self._workers: tuple = ()  # flusher, dispatcher until _release
        self._flush_busy = False
        self._idle_waiters: list = []
        self._rx_waiters: list = []
        self._rx_error: Optional[SocketError] = None
        #: Cumulative ring bytes this side consumed / already advertised.
        self._ring_consumed = 0
        self._credits_returned = 0
        #: Highest cumulative-consumed counter seen from the peer.
        self._peer_consumed_seen = 0

    # -- connection setup ------------------------------------------------------------

    def _make_endpoint(self) -> None:
        pd = self.vnic.alloc_pd()
        send_cq = self.vnic.create_cq()
        recv_cq = self.vnic.create_cq(depth=4 * RECV_CREDITS)
        self._qp = self.vnic.create_qp(pd, send_cq, recv_cq)
        self._recv_mr = self.vnic.reg_mr(pd, MAX_FRAGMENT_BYTES)
        if self.streaming:
            self._rx_ring_mr = self.vnic.reg_mr(pd, RING_BYTES)
            self._rx_ring = RingBuffer(RING_BYTES, region=self._rx_ring_mr)
            self._bulk_mr = self.vnic.reg_mr(pd, MAX_FRAGMENT_BYTES)
            self._ctrl_mr = self.vnic.reg_mr(pd, _CTRL_BYTES)

    def _wire_streaming_peer(self, peer: "FreeFlowSocket") -> None:
        """Exchange ring/bulk/control rkeys (the connect-time handshake
        a real implementation would carry in the CM private data)."""
        self._peer_ring_rkey = peer._rx_ring_mr.rkey
        self._peer_bulk_rkey = peer._bulk_mr.rkey
        self._peer_ctrl_rkey = peer._ctrl_mr.rkey
        self._tx_ring = RingBuffer(RING_BYTES)
        self._tx_credits = Tank(
            self.env, capacity=RING_BYTES, initial=RING_BYTES,
            label=f"socket.{self.container.name}.tx-credits")
        self._tx_lock = Resource(
            self.env, capacity=1,
            label=f"socket.{self.container.name}.tx-lock")
        self._doorbell = self.env.event()

    def _start_streaming(self) -> None:
        self._workers = (self.env.process(self._flusher()),
                         self.env.process(self._dispatcher()))

    def connect(self, ip: str, port: int):
        """Active open (generator): rendezvous through the orchestrator."""
        if self.connected:
            raise SocketError("socket is already connected")
        record = self.layer.network.orchestrator.lookup_by_ip(ip)
        addr = EndpointAddr(ip, port)
        listener = self.layer._lookup_listener(addr)
        if listener.container is not record.container:
            raise SocketError(
                f"listener at {addr} does not belong to the IP's owner"
            )
        server_sock = FreeFlowSocket(self.layer, listener.container)

        self._make_endpoint()
        server_sock._make_endpoint()

        decision = yield from self.layer.network.connect(
            self._qp, server_sock._qp
        )
        self._peer, server_sock._peer = server_sock, self
        self.mechanism = server_sock.mechanism = decision.mechanism
        if self.streaming:
            self._wire_streaming_peer(server_sock)
            server_sock._wire_streaming_peer(self)
        for sock in (self, server_sock):
            sock._post_initial_credits()
            sock.connected = True
            if sock.streaming:
                sock._start_streaming()
        self.peer_addr = addr
        self.local_addr = EndpointAddr(self.container.ip or "0.0.0.0", 0)
        server_sock.local_addr = addr
        server_sock.peer_addr = self.local_addr
        yield from listener._enqueue(server_sock)
        return decision

    def _post_initial_credits(self) -> None:
        if self._qp is None or self._recv_mr is None:
            raise SocketError(
                "socket has no queue pair / receive region — initial "
                "credits are only posted after the connect handshake "
                "allocated both"
            )
        for _ in range(RECV_CREDITS):
            self._qp.post_recv(WorkRequest(
                opcode=Opcode.RECV, length=MAX_FRAGMENT_BYTES,
                wr_id=next(_wr_ids), local_mr=self._recv_mr,
            ))

    # -- data transfer ---------------------------------------------------------------

    def send(self, nbytes: int, payload: Any = None):
        """Write ``nbytes`` to the stream (generator; returns bytes sent)."""
        self._require_open()
        if nbytes <= 0:
            raise SocketError(f"send size must be positive, got {nbytes}")
        _registry.counter_inc("repro.socket.sends")
        _registry.counter_inc("repro.socket.send_bytes", nbytes)
        if not self.streaming:
            yield from self._send_legacy(nbytes, payload)
            return nbytes
        host = self.container.host
        # FIFO lock: ring-path and zero-copy sends stay in stream order.
        with self._tx_lock.request() as claim:
            yield claim
            yield from host.cpu.execute(SOCKET_TRANSLATION_CYCLES)
            if nbytes >= ZERO_COPY_THRESHOLD_BYTES:
                yield from self._send_large(nbytes, payload)
            else:
                yield from self._send_ring(nbytes, payload)
        return nbytes

    def _send_ring(self, nbytes: int, payload: Any):
        """Small send: debit ring credits, stage, ring the doorbell."""
        self._credit_debt_pending += nbytes
        yield self._tx_credits.get(nbytes)
        self._credit_debt_pending -= nbytes
        self._staged.append((nbytes, payload))
        self._staged_bytes += nbytes
        _registry.counter_inc("repro.socket.ring_appends")
        if not self._doorbell.triggered:
            self._doorbell.succeed()

    def _send_large(self, nbytes: int, payload: Any):
        """Zero-copy send: drain the ring first (ordering), then WRITE
        straight into the peer's bulk MR, fragmenting at
        :data:`MAX_FRAGMENT_BYTES`."""
        yield from self._await_tx_idle()
        remaining = nbytes
        first = True
        while remaining > 0:
            fragment = min(remaining, MAX_FRAGMENT_BYTES)
            _registry.counter_inc("repro.socket.large_writes")
            yield from self._qp.post_send(WorkRequest(
                opcode=Opcode.WRITE_WITH_IMM, length=fragment,
                wr_id=next(_wr_ids), remote_key=self._peer_bulk_rkey,
                remote_offset=0, payload=payload if first else None,
                imm_data=LARGE_IMM, signaled=False,
            ))
            remaining -= fragment
            first = False

    def _send_legacy(self, nbytes: int, payload: Any):
        """Per-message path: one verbs SEND (and one translation charge +
        bounce copy) per fragment."""
        host = self.container.host
        remaining = nbytes
        first = True
        while remaining > 0:
            fragment = min(remaining, MAX_FRAGMENT_BYTES)
            yield from host.cpu.execute(SOCKET_TRANSLATION_CYCLES)
            if fragment < ZERO_COPY_THRESHOLD_BYTES:
                _registry.counter_inc("repro.socket.bounce_copies")
                yield from host.memcpy(fragment)
            yield from self._qp.post_send(WorkRequest(
                opcode=Opcode.SEND, length=fragment,
                wr_id=next(_wr_ids),
                payload=payload if first else None,
                signaled=False,
            ))
            remaining -= fragment
            first = False

    # -- streaming: sender-side flusher --------------------------------------------

    def _flusher(self):
        """Doorbell-driven coalescer: one pass drains everything staged
        into as few WRITEs as wrap boundaries allow."""
        while True:
            try:
                yield self._doorbell
            except Interrupt:
                return
            self._doorbell = self.env.event()
            self._flush_busy = True
            try:
                yield from self._flush_staged()
            finally:
                self._flush_busy = False
                self._notify_tx_idle()

    def _flush_staged(self):
        host = self.container.host
        while self._staged:
            if self._ring_writes_in_flight >= RING_WRITE_PIPELINE:
                # Pace to the channel: while we wait for a completion,
                # more sends stage up and the next batch grows — this
                # wait is where the coalescing actually comes from.
                yield from self._reap_ring_writes()
                continue
            take, chunks = self._collect_batch()
            _registry.counter_inc("repro.socket.ring_writes")
            _registry.counter_inc("repro.socket.ring_write_bytes", take)
            # Reserve the ring range in the same scheduler step as the
            # un-staging (ring conservation stays checkable), then do
            # one aggregated bounce copy into the registered window.
            offset = self._tx_ring.append(take)
            yield from host.memcpy(take)
            yield from self._qp.post_send(WorkRequest(
                opcode=Opcode.WRITE_WITH_IMM, length=take,
                wr_id=next(_wr_ids), remote_key=self._peer_ring_rkey,
                remote_offset=offset, payload=_RingBatch(chunks),
                imm_data=DATA_IMM, signaled=True,
            ))
            self._ring_writes_in_flight += 1

    def _reap_ring_writes(self):
        """Drain one burst of ring-WRITE send completions (batched)."""
        wcs = yield from self._qp.send_cq.wait_batch()
        self._ring_writes_in_flight -= len(wcs)
        for wc in wcs:
            if not wc.ok:
                self._rx_error = SocketError(
                    f"ring write failed: {wc.status.value}"
                )

    def _collect_batch(self) -> tuple:
        """Pop staged chunks up to the wrap boundary (and the fragment
        cap) so the batch lands in one contiguous MR range."""
        budget = min(self._tx_ring.contiguous(), self._staged_bytes,
                     MAX_FRAGMENT_BYTES)
        chunks: list = []
        take = 0
        while self._staged and take < budget:
            n, p = self._staged[0]
            piece = min(n, budget - take)
            if piece == n:
                self._staged.popleft()
                chunks.append((n, p))
            else:
                # Split at the boundary; the payload rides the first
                # piece (stream semantics attach it to the first byte).
                self._staged[0] = (n - piece, None)
                chunks.append((piece, p))
            take += piece
        self._staged_bytes -= take
        return take, chunks

    def _tx_idle(self) -> bool:
        return not self._staged and not self._flush_busy

    def _await_tx_idle(self):
        """Generator: park until the flusher drained every staged byte
        (zero-copy sends and FIN must not overtake ring data)."""
        while not self._tx_idle():
            event = self.env.event()
            self._idle_waiters.append(event)
            yield event

    def _notify_tx_idle(self) -> None:
        if self._tx_idle() and self._idle_waiters:
            waiters = list(self._idle_waiters)
            self._idle_waiters.clear()
            for event in waiters:
                event.succeed()

    # -- streaming: receiver-side dispatcher ----------------------------------------

    def _dispatcher(self):
        """Batched completion pump: one CQ wake applies a whole burst of
        landed WRITEs and wakes every parked ``recv`` in one pass, until
        the connection is released."""
        while self._peer is not None:
            try:
                wcs = yield from self._qp.recv_cq.wait_batch()
            except Interrupt:
                return
            self._apply_completions(wcs)

    def _apply_completions(self, wcs: list) -> int:
        """Apply one drained CQE batch; returns the receives reposted.

        Re-checks ring conservation after the batch while
        :data:`RING_CHECK` is armed.
        """
        reposts = 0
        for wc in wcs:
            if not wc.ok:
                self._rx_error = SocketError(
                    f"receive failed: {wc.status.value}"
                )
                continue
            reposts += 1
            imm = wc.imm_data
            if imm == DATA_IMM:
                batch: _RingBatch = wc.payload
                # Piggybacked tail update: the WRITE's byte count *is*
                # the producer's tail advance.
                self._rx_ring.append(wc.byte_len)
                for n, p in batch.chunks:
                    self._rx_buffer.append((n, p, True))
            elif imm == LARGE_IMM:
                self._rx_buffer.append((wc.byte_len, wc.payload, False))
            elif imm == CREDIT_IMM:
                self._apply_credit(wc.payload)
            elif imm == FIN_IMM or wc.payload is _FIN:
                self.peer_closed = True
                if self._peer is not None and self._peer.peer_closed:
                    self._release()
            else:
                # Legacy SEND from a non-streaming peer: plain data.
                self._rx_buffer.append((wc.byte_len, wc.payload, False))
        if reposts and not self.closed:
            for _ in range(reposts):
                self._qp.post_recv(WorkRequest(
                    opcode=Opcode.RECV, length=MAX_FRAGMENT_BYTES,
                    wr_id=next(_wr_ids), local_mr=self._recv_mr,
                ))
        self._wake_receivers()
        check = RING_CHECK
        if check is not None:
            check.ring(self._ring_imbalance())
        return reposts

    def _apply_credit(self, peer_consumed: int) -> None:
        """Credit update: the peer's cumulative-consumed counter.

        Cumulative (not delta) so a duplicate or reordered update can
        never mint credits; only forward progress refills the tank.
        """
        delta = peer_consumed - self._peer_consumed_seen
        if delta <= 0:
            return
        self._peer_consumed_seen = peer_consumed
        self._tx_ring.release(delta)
        refill = self._tx_credits.put(delta)
        if not refill.triggered:
            raise EngineInvariantError(
                "credit refill exceeded ring capacity — the peer "
                "advertised more consumed bytes than were ever sent"
            )

    def _release(self) -> None:
        """Close the connection's flow, deregister both ends' memory
        regions and end both ends' processes, once both ends shut down
        and each applied the other's FIN.  Runs in this socket's
        dispatcher, which returns on its own; the rest are interrupted.

        No WRITE can target either end any more: RC delivery is in
        order, FIN is the last WRITE a side posts, and
        :meth:`_return_credits` stops at ``peer_closed or closed``.
        """
        peer = self._peer
        self._peer = peer._peer = None
        flow = self._qp.flow
        self.layer.network.close_connection(flow)
        # Break the flow <-> QP and QP <-> QP links, so both QPs are
        # freed by reference counting, without the cyclic collector.
        flow.qp_a = flow.qp_b = None
        running = self.env.active_process
        for sock in (self, peer):
            for region in (sock._recv_mr, sock._rx_ring_mr, sock._bulk_mr,
                           sock._ctrl_mr):
                sock.vnic.dereg_mr(region)
            sock.vnic.unbind(sock._qp)
            sock._qp.remote = sock._qp.flow = None
            workers, sock._workers = sock._workers, ()
            for worker in workers:
                if worker is not running:
                    worker.interrupt("released")

    def _wake_receivers(self) -> None:
        if self._rx_waiters:
            waiters = list(self._rx_waiters)
            self._rx_waiters.clear()
            for event in waiters:
                event.succeed()

    def recv(self, max_bytes: int = RECV_MAX_BYTES):
        """Read up to ``max_bytes`` from the stream (generator).

        Returns ``(nbytes, payload)`` where payload is the application
        object attached to the first consumed message (stream semantics:
        fragments may be combined or split exactly like TCP).  After the
        peer shuts down, returns ``(0, None)`` — the classic EOF.
        """
        self._require_open(receiving=True)
        if max_bytes <= 0:
            raise SocketError(f"recv size must be positive, got {max_bytes}")
        host = self.container.host
        _registry.counter_inc("repro.socket.recvs")
        yield from host.cpu.execute(SOCKET_TRANSLATION_CYCLES)
        if not self.streaming:
            if not self._rx_buffer:
                if self.peer_closed:
                    return 0, None
                yield from self._fill_rx_buffer()
                if not self._rx_buffer and self.peer_closed:
                    return 0, None
        else:
            while not self._rx_buffer:
                if self._rx_error is not None:
                    raise self._rx_error
                if self.peer_closed:
                    return 0, None
                event = self.env.event()
                self._rx_waiters.append(event)
                yield event
        got, payload, ring_bytes = self._consume_rx(max_bytes)
        if ring_bytes:
            yield from self._return_credits()
        return got, payload

    def _consume_rx(self, max_bytes: int) -> tuple:
        """Pop up to ``max_bytes`` from the reassembly buffer; releases
        ring space for ring-path bytes.  Re-checks ring conservation
        while :data:`RING_CHECK` is armed.
        """
        got = 0
        payload = None
        ring_bytes = 0
        while self._rx_buffer and got < max_bytes:
            remaining, data, from_ring = self._rx_buffer[0]
            take = min(remaining, max_bytes - got)
            got += take
            if from_ring:
                ring_bytes += take
            if payload is None:
                payload = data
            if take == remaining:
                self._rx_buffer.popleft()
            else:
                self._rx_buffer[0] = (remaining - take, data, from_ring)
        if ring_bytes:
            self._rx_ring.release(ring_bytes)
            self._ring_consumed += ring_bytes
        check = RING_CHECK
        if check is not None:
            check.ring(self._ring_imbalance())
        return got, payload, ring_bytes

    def _ring_imbalance(self) -> Optional[str]:
        """Balance this socket's ring accounting, both sides; returns
        what is out of balance, or ``None``.

        Receive side: the ring's occupancy equals the ring-tagged bytes
        waiting in the reassembly buffer.  Send side: ``capacity -
        credit level`` equals staged plus in-ring bytes, up to the
        grants senders hold between debit and staging.
        """
        if self._rx_ring is not None:
            buffered = sum(n for n, _p, from_ring in self._rx_buffer
                           if from_ring)
            if self._rx_ring.used != buffered:
                return (
                    f"receive-ring accounting out of balance on "
                    f"{self.container.name!r}: ring holds "
                    f"{self._rx_ring.used} byte(s) but the reassembly "
                    f"buffer carries {buffered} ring-tagged byte(s) — a "
                    f"coalesced WRITE was applied without its chunks (or "
                    f"vice versa)"
                )
        if self._tx_ring is not None and self._tx_credits is not None:
            debited = self._tx_credits.capacity - self._tx_credits.level
            outstanding = self._tx_ring.used + self._staged_bytes
            if not (outstanding <= debited
                    <= outstanding + self._credit_debt_pending):
                return (
                    f"send-ring credit accounting out of balance on "
                    f"{self.container.name!r}: {debited} byte(s) of "
                    f"credit debited but {outstanding} staged/un-acked "
                    f"({self._staged_bytes} staged + {self._tx_ring.used} "
                    f"in the ring, {self._credit_debt_pending} granted "
                    f"but not yet staged) — the credit protocol minted "
                    f"or leaked ring bytes"
                )
        return None

    def _return_credits(self):
        """Advertise consumed ring bytes back to the sender — batched to
        one 8-byte WRITE per :data:`CREDIT_RETURN_BYTES` (see that
        constant for the no-deadlock argument; per-message acks are
        exactly what this path exists to avoid)."""
        owed = self._ring_consumed - self._credits_returned
        if owed < CREDIT_RETURN_BYTES or self.peer_closed or self.closed:
            return
        self._credits_returned = self._ring_consumed
        _registry.counter_inc("repro.socket.credit_updates")
        yield from self._qp.post_send(WorkRequest(
            opcode=Opcode.WRITE_WITH_IMM, length=_CREDIT_MSG_BYTES,
            wr_id=next(_wr_ids), remote_key=self._peer_ctrl_rkey,
            remote_offset=_CTRL_CREDIT_OFFSET,
            payload=self._ring_consumed, imm_data=CREDIT_IMM,
            signaled=False,
        ))

    def recv_exactly(self, nbytes: int):
        """Loop :meth:`recv` until exactly ``nbytes`` arrived (generator)."""
        got = 0
        payload = None
        while got < nbytes:
            chunk, data = yield from self.recv(nbytes - got)
            if payload is None:
                payload = data
            got += chunk
        return got, payload

    def _fill_rx_buffer(self):
        """Legacy path: block for the next completed RECV and repost its
        credit (the one-``wait()``-per-message pattern SIM008 flags; the
        streaming dispatcher replaces it)."""
        if self._qp is None:
            raise SocketError(
                "socket has no queue pair — receives require a connected "
                "socket (invariant: _require_open precedes buffer fills)"
            )
        # The measured per-message baseline the streaming path is
        # benchmarked against — deliberately unbatched.
        # simlint: disable=SIM008
        wc = yield from self._qp.recv_cq.wait()
        if not wc.ok:
            raise SocketError(f"receive failed: {wc.status.value}")
        if wc.payload is _FIN or wc.imm_data == FIN_IMM:
            self.peer_closed = True
            return
        self._rx_buffer.append((wc.byte_len, wc.payload, False))
        self._qp.post_recv(WorkRequest(
            opcode=Opcode.RECV, length=MAX_FRAGMENT_BYTES,
            wr_id=next(_wr_ids), local_mr=self._recv_mr,
        ))

    def _require_open(self, receiving: bool = False) -> None:
        if self.closed:
            if receiving and self._fin_sent:
                raise SocketShutdownError(
                    "recv on a half-shut socket: this end already called "
                    "shutdown(), no more data can arrive"
                )
            raise SocketError("socket is closed")
        if not self.connected:
            raise SocketError("socket is not connected")

    def shutdown(self):
        """Orderly shutdown (generator): flushes anything still in the
        ring, then sends FIN; the peer's next ``recv`` after draining
        buffered data returns EOF."""
        if not self.connected or self.closed:
            self.close()
            return
        self._fin_sent = True
        yield from self.container.host.cpu.execute(SOCKET_TRANSLATION_CYCLES)
        if self.streaming:
            # Take the send lock so the FIN orders after every send that
            # already entered the stream, then wait out the flusher —
            # bytes still in the ring must reach the peer before EOF.
            with self._tx_lock.request() as claim:
                yield claim
                yield from self._await_tx_idle()
                yield from self._qp.post_send(WorkRequest(
                    opcode=Opcode.WRITE_WITH_IMM, length=1,
                    wr_id=next(_wr_ids), remote_key=self._peer_ctrl_rkey,
                    remote_offset=_CTRL_FIN_OFFSET, payload=_FIN,
                    imm_data=FIN_IMM, signaled=False,
                ))
        else:
            yield from self._qp.post_send(WorkRequest(
                opcode=Opcode.SEND, length=1, wr_id=next(_wr_ids),
                payload=_FIN, imm_data=FIN_IMM, signaled=False,
            ))
        self.close()

    def close(self) -> None:
        """Abrupt local close (no FIN); use :meth:`shutdown` for EOF.

        The connection's flow stays open and its memory regions stay
        registered: without the FIN exchange neither end learns that
        the other will not WRITE again.  Two orderly shutdowns release
        both (:meth:`_release`).
        """
        self.closed = True
        self.connected = False
