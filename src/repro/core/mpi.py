"""MPI translated onto RDMA Verbs (paper §4.2 and §6).

"The same concepts described for FreeFlow can also be applicable for MPI
run-time libraries.  This can be achieved either by layering the MPI
implementation on top of FreeFlow..." — this module is that layering: a
rank-addressed communicator whose point-to-point primitives are verbs
SEND/RECV on policy-chosen channels, plus the standard collectives built
from them (barrier, bcast, reduce, allreduce, gather, allgather).

Collective algorithms are the textbook ones so their cost structure is
realistic:

* barrier — dissemination (⌈log2 n⌉ rounds);
* bcast — binomial tree;
* reduce/allreduce — ring reduce-scatter + allgather (bandwidth-optimal);
* gather/allgather — linear gather / ring allgather.

Tag matching uses the lane's filtered receive, preserving per-pair FIFO
as MPI requires.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import FreeFlowError
from ..sim.resources import Store
from ..telemetry import registry as _registry
from .verbs import Opcode, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.container import Container
    from .network import FreeFlowNetwork

__all__ = ["MPI_TRANSLATION_CYCLES", "Communicator", "PendingRequest", "RankEndpoint"]

#: CPU cycles per MPI call spent translating onto verbs.
MPI_TRANSLATION_CYCLES = 400.0

_wr_ids = itertools.count(1)


class PendingRequest:
    """A non-blocking operation handle (the MPI_Request analogue).

    Returned by :meth:`RankEndpoint.isend` / :meth:`RankEndpoint.irecv`;
    resolve it with :meth:`wait` (generator) or test :attr:`done`.
    """

    def __init__(self, process) -> None:
        self._process = process

    @property
    def done(self) -> bool:
        return self._process.processed or not self._process.is_alive

    def wait(self):
        """Generator: block until the operation finishes; returns its
        result (``(nbytes, payload)`` for receives, None for sends)."""
        result = yield self._process
        return result


class RankEndpoint:
    """One rank's handle: owns its QPs to every peer (built lazily)."""

    def __init__(self, comm: "Communicator", rank: int,
                 container: "Container") -> None:
        self.comm = comm
        self.rank = rank
        self.container = container
        self.env = container.env
        self.vnic = comm.network.vnic(container.name)
        #: peer rank -> (qp, recv_mr)
        self._endpoints: dict[int, tuple] = {}
        #: peer rank -> Store of (tag, nbytes, payload) awaiting recv
        self._inboxes: dict[int, Store] = {}
        self._pumps: set[int] = set()

    # -- plumbing ---------------------------------------------------------------

    def _inbox(self, peer: int) -> Store:
        if peer not in self._inboxes:
            self._inboxes[peer] = Store(self.env)
        return self._inboxes[peer]

    def _ensure_link(self, peer: int):
        """Connect QPs to ``peer`` on first use (generator).

        Concurrent first-touches from both ranks are serialised through a
        per-pair latch so exactly one QP pair is built per rank pair.
        """
        if peer in self._endpoints:
            return
        key = (min(self.rank, peer), max(self.rank, peer))
        latch = self.comm._linking.get(key)
        if latch is not None:
            yield latch
            return
        latch = self.env.event()
        self.comm._linking[key] = latch
        other = self.comm.endpoint(peer)
        qp_a, mr_a = self._make_qp()
        qp_b, mr_b = other._make_qp()
        yield from self.comm.network.connect(qp_a, qp_b)
        for qp, mr in ((qp_a, mr_a), (qp_b, mr_b)):
            self._post_credits(qp, mr)
        self._endpoints[peer] = (qp_a, mr_a)
        other._endpoints[self.rank] = (qp_b, mr_b)
        self._start_pump(peer)
        other._start_pump(self.rank)
        del self.comm._linking[key]
        latch.succeed()

    def _make_qp(self):
        pd = self.vnic.alloc_pd()
        qp = self.vnic.create_qp(pd, self.vnic.create_cq(), self.vnic.create_cq())
        mr = self.vnic.reg_mr(pd, 1 << 30)
        return qp, mr

    @staticmethod
    def _post_credits(qp, mr, credits: int = 128) -> None:
        """Pre-post receive buffers once the QP can accept them (≥ INIT)."""
        for _ in range(credits):
            qp.post_recv(WorkRequest(
                opcode=Opcode.RECV, length=1 << 30,
                wr_id=next(_wr_ids), local_mr=mr,
            ))

    def _start_pump(self, peer: int) -> None:
        if peer in self._pumps:
            return
        self._pumps.add(peer)
        self.env.process(self._pump(peer))

    def _pump(self, peer: int):
        """Move completed RECVs into the tag-matchable inbox."""
        qp, mr = self._endpoints[peer]
        inbox = self._inbox(peer)
        while True:
            # One wake drains every completion already queued.
            for wc in (yield from qp.recv_cq.wait_batch()):
                if not wc.ok:
                    raise FreeFlowError(
                        f"MPI receive failed: {wc.status.value}")
                tag, payload = wc.payload
                inbox.put((tag, wc.byte_len, payload))
                qp.post_recv(WorkRequest(
                    opcode=Opcode.RECV, length=1 << 30,
                    wr_id=next(_wr_ids), local_mr=mr,
                ))

    # -- point-to-point -------------------------------------------------------------

    def send(self, dest: int, nbytes: int, payload: Any = None, tag: int = 0):
        """MPI_Send (generator)."""
        self.comm._check_rank(dest)
        if dest == self.rank:
            raise FreeFlowError("a rank does not send to itself")
        _registry.counter_inc("repro.mpi.sends")
        _registry.counter_inc("repro.mpi.send_bytes", max(1, nbytes))
        yield from self.container.host.cpu.execute(MPI_TRANSLATION_CYCLES)
        yield from self._ensure_link(dest)
        qp, _ = self._endpoints[dest]
        yield from qp.post_send(WorkRequest(
            opcode=Opcode.SEND, length=max(1, nbytes),
            wr_id=next(_wr_ids), payload=(tag, payload), signaled=False,
        ))

    def recv(self, source: int, tag: Optional[int] = None):
        """MPI_Recv (generator): returns ``(nbytes, payload)``."""
        self.comm._check_rank(source)
        _registry.counter_inc("repro.mpi.recvs")
        yield from self.container.host.cpu.execute(MPI_TRANSLATION_CYCLES)
        yield from self._ensure_link(source)
        inbox = self._inbox(source)
        predicate = None if tag is None else (lambda item: item[0] == tag)
        got_tag, nbytes, payload = yield inbox.get(predicate)
        return nbytes, payload

    def sendrecv(self, dest: int, nbytes: int, payload: Any,
                 source: int, tag: int = 0):
        """Concurrent send+recv (generator), as collectives need."""
        send_proc = self.env.process(self.send(dest, nbytes, payload, tag))
        nrecv, precv = yield from self.recv(source, tag)
        yield send_proc
        return nrecv, precv

    # -- non-blocking point-to-point -------------------------------------------

    def isend(self, dest: int, nbytes: int, payload: Any = None,
              tag: int = 0) -> PendingRequest:
        """MPI_Isend: returns immediately with a waitable request."""
        return PendingRequest(
            self.env.process(self.send(dest, nbytes, payload, tag))
        )

    def irecv(self, source: int, tag: Optional[int] = None) -> PendingRequest:
        """MPI_Irecv: returns immediately with a waitable request."""
        return PendingRequest(
            self.env.process(self.recv(source, tag))
        )

    def waitall(self, requests):
        """Generator: resolve every request; returns their results."""
        results = []
        for request in requests:
            result = yield from request.wait()
            results.append(result)
        return results

    # -- collectives ------------------------------------------------------------------

    def barrier(self, tag_base: int = 1 << 20):
        """Dissemination barrier (generator)."""
        n = self.comm.size
        rounds = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        for k in range(rounds):
            dist = 1 << k
            dest = (self.rank + dist) % n
            source = (self.rank - dist) % n
            yield from self.sendrecv(dest, 1, None, source, tag=tag_base + k)

    def bcast(self, root: int, nbytes: int, payload: Any = None,
              tag: int = 1 << 21):
        """Binomial-tree broadcast (generator): returns the payload."""
        n = self.comm.size
        rel = (self.rank - root) % n
        mask = 1
        value = payload if self.rank == root else None
        # Receive phase: wait for the parent.
        while mask < n:
            if rel & mask:
                source = (self.rank - mask) % n
                __, value = yield from self.recv(source, tag=tag)
                break
            mask <<= 1
        # Send phase: fan out to children.
        mask >>= 1
        while mask > 0:
            if rel + mask < n and not (rel & mask):
                dest = (self.rank + mask) % n
                yield from self.send(dest, nbytes, value, tag=tag)
            mask >>= 1
        return value

    def allreduce(self, value: float, nbytes: int,
                  op: Callable[[float, float], float] = lambda a, b: a + b,
                  tag: int = 1 << 22):
        """Ring allreduce (generator): returns the reduced value.

        The data volume per step is ``nbytes / n`` (reduce-scatter then
        allgather), matching the bandwidth-optimal algorithm used by real
        MPI/NCCL — so the bench's scaling with rank count is honest.
        """
        n = self.comm.size
        if n == 1:
            return value
        chunk = max(1, nbytes // n)
        right = (self.rank + 1) % n
        left = (self.rank - 1) % n
        # Reduce-scatter phase: n-1 steps of chunk-sized exchanges.  Each
        # rank forwards the *original* contribution it last received, so
        # after n-1 steps every original value has been folded in once.
        result = value
        outgoing = value
        for step in range(n - 1):
            __, incoming = yield from self.sendrecv(
                right, chunk, outgoing, left, tag=tag + step
            )
            result = op(result, incoming)
            outgoing = incoming
        # Allgather phase: n-1 more chunk-sized steps circulate the
        # reduced chunks (cost only; scalars are already complete).
        for step in range(n - 1):
            yield from self.sendrecv(
                right, chunk, result, left, tag=tag + n + step
            )
        return result

    def reduce(self, root: int, value: float, nbytes: int,
               op: Callable[[float, float], float] = lambda a, b: a + b,
               tag: int = 1 << 25):
        """Binomial-tree reduce (generator): root returns the result.

        The reversed broadcast tree: leaves send first, each internal
        node folds its subtree before passing the partial up — log2(n)
        rounds of ``nbytes`` messages.
        """
        n = self.comm.size
        rel = (self.rank - root) % n
        accumulated = value
        mask = 1
        # Absorb children (they have rel | mask set and are in range).
        while mask < n:
            if rel & mask:
                break
            child = rel + mask
            if child < n:
                source = (child + root) % n
                __, incoming = yield from self.recv(source, tag=tag)
                accumulated = op(accumulated, incoming)
            mask <<= 1
        # Then pass the partial to the parent (unless we are the root).
        if rel != 0:
            parent = ((rel & (rel - 1)) + root) % n
            yield from self.send(parent, nbytes, accumulated, tag=tag)
            return None
        return accumulated

    def scatter(self, root: int, nbytes: int, values=None,
                tag: int = 1 << 26):
        """Linear scatter (generator): each rank returns its slice."""
        n = self.comm.size
        if self.rank == root:
            if values is None or len(values) != n:
                raise FreeFlowError(
                    f"root must supply exactly {n} values to scatter"
                )
            for dest in range(n):
                if dest == root:
                    continue
                yield from self.send(dest, nbytes, values[dest], tag=tag)
            return values[root]
        __, value = yield from self.recv(root, tag=tag)
        return value

    def gather(self, root: int, nbytes: int, payload: Any,
               tag: int = 1 << 23):
        """Linear gather (generator): root returns the list by rank."""
        n = self.comm.size
        if self.rank == root:
            gathered: list[Any] = [None] * n
            gathered[root] = payload
            for source in range(n):
                if source == root:
                    continue
                __, value = yield from self.recv(source, tag=tag)
                gathered[source] = value
            return gathered
        yield from self.send(root, nbytes, payload, tag=tag)
        return None

    def allgather(self, nbytes: int, payload: Any, tag: int = 1 << 24):
        """Ring allgather (generator): everyone returns the full list."""
        n = self.comm.size
        gathered: list[Any] = [None] * n
        gathered[self.rank] = payload
        current = (self.rank, payload)
        right = (self.rank + 1) % n
        left = (self.rank - 1) % n
        for step in range(n - 1):
            __, incoming = yield from self.sendrecv(
                right, nbytes, current, left, tag=tag + step
            )
            source, value = incoming
            gathered[source] = value
            current = incoming
        return gathered


class Communicator:
    """An MPI_COMM_WORLD over FreeFlow: containers become ranks."""

    def __init__(self, network: "FreeFlowNetwork",
                 containers: list["Container"]) -> None:
        if not containers:
            raise FreeFlowError("a communicator needs at least one rank")
        names = {c.name for c in containers}
        if len(names) != len(containers):
            raise FreeFlowError("duplicate containers in communicator")
        self.network = network
        self._linking: dict[tuple[int, int], Any] = {}
        self._endpoints = [
            RankEndpoint(self, rank, container)
            for rank, container in enumerate(containers)
        ]

    @property
    def size(self) -> int:
        return len(self._endpoints)

    def endpoint(self, rank: int) -> RankEndpoint:
        self._check_rank(rank)
        return self._endpoints[rank]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise FreeFlowError(
                f"rank {rank} outside communicator of size {self.size}"
            )
