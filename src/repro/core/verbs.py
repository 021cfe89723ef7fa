"""RDMA Verbs API objects (paper §4.2's network abstraction).

FreeFlow picks Verbs as *the* data-transfer abstraction because it is
"flexible for upper-layer APIs" (sockets and MPI translate onto it) and
"flexible to under-layer data-plane mechanism" (its semantics map onto
real RDMA, onto TCP, and — via its "memory copying APIs" — onto shared
memory).  This module provides the API surface the paper's Fig. 5
pseudo-code uses:

* :class:`ProtectionDomain` / :class:`MemoryRegion` — registered buffers
  with local/remote keys and bounds checking;
* :class:`CompletionQueue` — poll or block for work completions;
* :class:`QueuePair` — the RESET→INIT→RTR→RTS state machine with
  ``post_send`` / ``post_recv`` for SEND/RECV/WRITE/READ(+IMM).

Execution of work requests happens in :mod:`repro.core.vnic`, which
binds each connected QP to whatever FreeFlow channel the policy chose.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..errors import (
    CompletionError,
    MemoryRegionError,
    QueuePairStateError,
    VerbsError,
)
from ..sim.resources import Store
from ..telemetry import registry as _registry

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment
    from .vnic import VirtualNic

__all__ = [
    "CQ_POLL_BATCH",
    "QpState",
    "Opcode",
    "WcStatus",
    "ProtectionDomain",
    "MemoryRegion",
    "WorkRequest",
    "WorkCompletion",
    "CompletionQueue",
    "QueuePair",
]

_pd_ids = itertools.count(1)
_mr_keys = itertools.count(0x1000)
_qp_nums = itertools.count(100)

#: Default completion batch: one :meth:`CompletionQueue.poll` /
#: :meth:`CompletionQueue.wait_batch` drains up to this many CQEs in a
#: single pass.  The value is load-bearing for the streaming socket
#: path (it bounds how many WRITE notifications one dispatcher wake
#: amortises), so it is exposed as a NIC capability
#: (:attr:`repro.hardware.specs.NicSpec.cq_poll_batch`) rather than
#: buried as a keyword default; observed batch sizes are published on
#: the ``repro.verbs.cq.batch`` histogram.
CQ_POLL_BATCH = 16


class QpState(enum.Enum):
    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  # ready to receive
    RTS = "RTS"  # ready to send
    ERROR = "ERROR"


class Opcode(enum.Enum):
    SEND = "SEND"
    RECV = "RECV"
    WRITE = "WRITE"
    WRITE_WITH_IMM = "WRITE_WITH_IMM"
    READ = "READ"
    ATOMIC_CAS = "ATOMIC_CAS"
    ATOMIC_FADD = "ATOMIC_FADD"


class WcStatus(enum.Enum):
    SUCCESS = "SUCCESS"
    LOCAL_LENGTH_ERROR = "LOCAL_LENGTH_ERROR"
    REMOTE_ACCESS_ERROR = "REMOTE_ACCESS_ERROR"
    REMOTE_INVALID_REQUEST = "REMOTE_INVALID_REQUEST"
    WR_FLUSH_ERROR = "WR_FLUSH_ERROR"


class ProtectionDomain:
    """Groups MRs and QPs that may work together."""

    def __init__(self, vnic: "VirtualNic") -> None:
        self.vnic = vnic
        self.pd_id = next(_pd_ids)
        self.regions: list["MemoryRegion"] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PD {self.pd_id} of {self.vnic.container.name}>"


class MemoryRegion:
    """A registered buffer: bounds, keys and (simulated) contents.

    Contents are one entry per write, not bytes, so functional tests can
    verify one-sided WRITE/READ semantics without allocating gigabytes.
    Every write (a WRITE, a RECV or READ response landing, an atomic set)
    covers ``[offset, offset + length)`` and replaces each entry whose
    range it overlaps; a zero-length write covers the byte at its offset,
    so it replaces the entry that starts there, as does any write that
    starts at the same offset.  :meth:`read` returns the
    payload of the entry that starts at ``offset``, and an entry that a
    later write overlapped, even partly, is gone: it reads None.

    So a region holds only what no later write touched: live entries are
    disjoint, at most one per byte, and a receive ring that WRITEs at
    moving offsets holds about one lap of batches however long it runs.
    Entries sit in parallel lists sorted by start, so a write costs a
    bisect plus the entries it evicts.
    """

    def __init__(self, pd: ProtectionDomain, length: int) -> None:
        if length <= 0:
            raise MemoryRegionError(f"MR length must be positive, got {length}")
        self.pd = pd
        self.length = length
        self.lkey = next(_mr_keys)
        self.rkey = next(_mr_keys)
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._payloads: list[Any] = []
        self.bytes_written = 0
        self.valid = True
        pd.regions.append(self)

    def check_range(self, offset: int, length: int) -> None:
        if not self.valid:
            raise MemoryRegionError("memory region was deregistered")
        if offset < 0 or length < 0 or offset + length > self.length:
            raise MemoryRegionError(
                f"access [{offset}, {offset + length}) outside MR of "
                f"{self.length} bytes"
            )

    def write(self, offset: int, length: int, payload: Any) -> None:
        self.check_range(offset, length)
        self._store(offset, length, payload)
        self.bytes_written += length

    def read(self, offset: int, length: int) -> Any:
        self.check_range(offset, length)
        return self._entry(offset, None)

    def _store(self, offset: int, length: int, payload: Any) -> None:
        """Replace every entry overlapping the write with its own."""
        starts = self._starts
        end = offset + (length or 1)
        first = bisect_left(starts, offset)
        if first and self._ends[first - 1] > offset:
            first -= 1
        last = bisect_left(starts, end, first)
        starts[first:last] = (offset,)
        self._ends[first:last] = (end,)
        self._payloads[first:last] = (payload,)

    def _entry(self, offset: int, default: Any) -> Any:
        """Payload of the entry starting at ``offset``, else ``default``."""
        starts = self._starts
        i = bisect_left(starts, offset)
        if i < len(starts) and starts[i] == offset:
            return self._payloads[i]
        return default

    # -- 64-bit atomic cells (for ATOMIC_CAS / ATOMIC_FADD) ----------------

    def atomic_value(self, offset: int) -> int:
        """Current value of the 8-byte atomic cell at ``offset``."""
        self.check_range(offset, 8)
        value = self._entry(offset, 0)
        if not isinstance(value, int):
            raise MemoryRegionError(
                f"offset {offset} holds non-integer data; atomics need a "
                f"64-bit cell"
            )
        return value

    def atomic_set(self, offset: int, value: int) -> None:
        self.check_range(offset, 8)
        self._store(offset, 8, int(value))
        self.bytes_written += 8

    def deregister(self) -> None:
        self.valid = False
        if self in self.pd.regions:
            self.pd.regions.remove(self)


@dataclass
class WorkRequest:
    """One entry for a send or receive queue."""

    opcode: Opcode
    length: int = 0
    wr_id: int = 0
    local_mr: Optional[MemoryRegion] = None
    local_offset: int = 0
    remote_key: Optional[int] = None
    remote_offset: int = 0
    payload: Any = None
    imm_data: Optional[int] = None
    signaled: bool = True
    #: Atomics: the compare value (CAS) or the addend (FADD).
    compare_add: int = 0
    #: Atomics: the swap value (CAS only).
    swap: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise VerbsError(f"negative WR length {self.length}")
        atomic = self.opcode in (Opcode.ATOMIC_CAS, Opcode.ATOMIC_FADD)
        needs_remote = atomic or self.opcode in (
            Opcode.WRITE, Opcode.WRITE_WITH_IMM, Opcode.READ
        )
        if needs_remote and self.remote_key is None:
            raise VerbsError(f"{self.opcode.value} needs remote_key")
        if self.opcode is Opcode.RECV and self.local_mr is None:
            raise VerbsError("RECV needs a local MR to land data in")
        if atomic and self.length not in (0, 8):
            raise VerbsError("atomics operate on 8-byte cells")


@dataclass(frozen=True)
class WorkCompletion:
    """One completion-queue entry."""

    wr_id: int
    status: WcStatus
    opcode: Opcode
    byte_len: int
    qp_num: int
    timestamp: float
    imm_data: Optional[int] = None
    payload: Any = None

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


class CompletionQueue:
    """Completion delivery: non-blocking :meth:`poll` or blocking wait.

    ``poll_batch`` is the default drain size for :meth:`poll` and
    :meth:`wait_batch`; the vNIC seeds it from the host NIC's
    :attr:`~repro.hardware.specs.NicSpec.cq_poll_batch` capability.
    """

    def __init__(self, env: "Environment", depth: int = 1024,
                 poll_batch: int = CQ_POLL_BATCH) -> None:
        if depth <= 0:
            raise VerbsError(f"CQ depth must be positive, got {depth}")
        if poll_batch <= 0:
            raise VerbsError(
                f"CQ poll batch must be positive, got {poll_batch}"
            )
        self.env = env
        self.depth = depth
        self.poll_batch = poll_batch
        self._cqes: Store = Store(env)
        self.overflowed = False

    def __len__(self) -> int:
        return len(self._cqes)

    def push(self, wc: WorkCompletion) -> None:
        if len(self._cqes) >= self.depth:
            # Real NICs move the QP to error on CQ overrun; surfacing the
            # bug loudly beats silently dropping completions.
            self.overflowed = True
            _registry.counter_inc("repro.verbs.cq_overflows")
            raise CompletionError(
                f"CQ overrun (depth {self.depth}); poll more often"
            )
        self._cqes.put(wc)

    def poll(self, max_entries: Optional[int] = None) -> list[WorkCompletion]:
        """Non-blocking: drain up to ``max_entries`` completions
        (default: this CQ's :attr:`poll_batch`)."""
        if max_entries is None:
            max_entries = self.poll_batch
        if max_entries <= 0:
            raise VerbsError("max_entries must be positive")
        polled = []
        while len(polled) < max_entries:
            wc = self._cqes.try_get()
            if wc is None:
                break
            polled.append(wc)
        if polled:
            _registry.histogram_observe("repro.verbs.cq.batch",
                                        float(len(polled)))
        return polled

    def wait(self):
        """Blocking (generator): return the next completion.

        Per-completion waits in a loop are the pattern simlint SIM008
        flags — prefer :meth:`wait_batch` on any hot path.
        """
        wc = yield self._cqes.get()
        return wc

    def wait_batch(self, max_entries: Optional[int] = None):
        """Blocking (generator): wait for at least one completion, then
        drain whatever else is already queued, up to ``max_entries``
        (default :attr:`poll_batch`).

        One wake services a whole burst — callers wake all their
        waiters in a single scheduler pass instead of paying one
        park/unpark round-trip per work request.
        """
        if max_entries is None:
            max_entries = self.poll_batch
        if max_entries <= 0:
            raise VerbsError("max_entries must be positive")
        first = yield self._cqes.get()
        batch = [first]
        while len(batch) < max_entries:
            wc = self._cqes.try_get()
            if wc is None:
                break
            batch.append(wc)
        _registry.histogram_observe("repro.verbs.cq.batch",
                                    float(len(batch)))
        return batch


class QueuePair:
    """A reliable-connected queue pair on a virtual NIC."""

    def __init__(
        self,
        vnic: "VirtualNic",
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_send_wr: int = 256,
    ) -> None:
        if pd.vnic is not vnic:
            raise VerbsError("PD belongs to a different vNIC")
        self.vnic = vnic
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qp_num = next(_qp_nums)
        self.state = QpState.RESET
        self.max_send_wr = max_send_wr
        self.sq: Store = Store(vnic.env, capacity=max_send_wr)
        self.rq: Store = Store(vnic.env)
        #: Set when the vNIC connects this QP to a peer.
        self.remote: Optional["QueuePair"] = None
        self.channel_end = None
        #: The vNIC's send and receive engines while bound.
        self._engines: tuple = ()
        #: The flow that connects this QP, set by
        #: :meth:`~repro.core.network.FreeFlowNetwork.connect`.
        self.flow = None

    # -- state machine --------------------------------------------------------------

    _TRANSITIONS = {
        QpState.RESET: {QpState.INIT, QpState.ERROR},
        QpState.INIT: {QpState.RTR, QpState.ERROR},
        QpState.RTR: {QpState.RTS, QpState.ERROR},
        QpState.RTS: {QpState.ERROR, QpState.RESET},
        QpState.ERROR: {QpState.RESET},
    }

    def modify(self, new_state: QpState) -> None:
        allowed = self._TRANSITIONS[self.state]
        if new_state not in allowed:
            raise QueuePairStateError(
                f"QP{self.qp_num}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        if new_state is QpState.ERROR:
            self._flush()

    def _flush(self) -> None:
        """Error state: flush outstanding receives with WR_FLUSH_ERROR."""
        while True:
            wr = self.rq.try_get()
            if wr is None:
                break
            self.recv_cq.push(WorkCompletion(
                wr_id=wr.wr_id, status=WcStatus.WR_FLUSH_ERROR,
                opcode=Opcode.RECV, byte_len=0, qp_num=self.qp_num,
                timestamp=self.vnic.env.now,
            ))

    # -- posting --------------------------------------------------------------------

    def post_send(self, wr: WorkRequest):
        """Queue a send-side WR (generator; returns after SQ admission)."""
        if self.state is not QpState.RTS:
            raise QueuePairStateError(
                f"QP{self.qp_num} must be RTS to send (is {self.state.value})"
            )
        if wr.opcode is Opcode.RECV:
            raise VerbsError("RECV work requests go to post_recv()")
        if wr.local_mr is not None:
            wr.local_mr.check_range(wr.local_offset, wr.length)
        yield from self.vnic.charge_post()
        yield self.sq.put(wr)
        self.vnic.kick(self)

    def post_recv(self, wr: WorkRequest) -> None:
        """Queue a receive buffer (non-blocking, allowed from INIT up)."""
        if self.state in (QpState.RESET, QpState.ERROR):
            raise QueuePairStateError(
                f"QP{self.qp_num} cannot accept receives in {self.state.value}"
            )
        if wr.opcode is not Opcode.RECV:
            raise VerbsError(f"post_recv got a {wr.opcode.value} WR")
        if wr.local_mr is None:
            raise MemoryRegionError(
                f"RECV WR {wr.wr_id} has no local memory region — "
                "WorkRequest validation admits RECVs only with a landing MR"
            )
        wr.local_mr.check_range(wr.local_offset, wr.length)
        self.rq.put(wr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<QP {self.qp_num} {self.state.value}>"
