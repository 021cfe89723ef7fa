"""Per-connection ring buffer over a registered memory region.

TSoR-style socket streaming treats the byte stream as a circular
producer/consumer window inside one pre-registered MR: the sender
appends coalesced batches with RDMA WRITEs at ``tail % capacity`` and
the receiver releases space as the application consumes, advertising
the freed bytes back as credits.  This module holds only the
*accounting* — cumulative head/tail offsets, wrap arithmetic and the
conservation invariant ``0 <= tail - head <= capacity`` — because in
the simulation the payload itself rides the verbs descriptors.  Both
sides of a connection keep one :class:`RingBuffer`:

* the **receiver** mirrors its own ring (tail advanced by the
  dispatcher on each landed WRITE, head advanced by ``recv``);
* the **sender** mirrors the *remote* ring (tail advanced at flush
  time to pick the WRITE target offset, head advanced on each credit
  update), so ``free`` equals the credits it may still spend.

Every advance is bounds-checked and raises
:class:`~repro.errors.RingBufferError` on violation; the runtime
sanitizer (``REPRO_SANITIZE=1``) additionally has the socket cross-check
the ring against its buffered bytes after every dispatch/consume
(``sockets.RING_CHECK``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import RingBufferError

if TYPE_CHECKING:  # pragma: no cover
    from .verbs import MemoryRegion

__all__ = ["RingBuffer"]


class RingBuffer:
    """Byte accounting for one circular window of ``capacity`` bytes.

    ``head`` and ``tail`` are *cumulative* stream offsets (they never
    wrap); physical offsets are derived modulo ``capacity``.  This
    keeps the arithmetic overflow-free in the simulation and makes the
    conservation counters (``bytes_appended``/``bytes_released``)
    trivially equal to ``tail``/``head``.
    """

    __slots__ = ("capacity", "region", "head", "tail")

    def __init__(self, capacity: int,
                 region: Optional["MemoryRegion"] = None) -> None:
        if capacity <= 0:
            raise RingBufferError(
                f"ring capacity must be positive, got {capacity}"
            )
        if region is not None and capacity > region.length:
            raise RingBufferError(
                f"ring capacity {capacity} exceeds the backing MR of "
                f"{region.length} bytes"
            )
        self.capacity = capacity
        #: The registered MR the ring lives in (None for the sender-side
        #: mirror of a remote ring — it only has the rkey).
        self.region = region
        self.head = 0  # cumulative bytes consumed/released
        self.tail = 0  # cumulative bytes appended/written

    # -- observers ---------------------------------------------------------

    @property
    def used(self) -> int:
        """Bytes appended but not yet released."""
        return self.tail - self.head

    @property
    def free(self) -> int:
        """Bytes of window space still available to the producer."""
        return self.capacity - self.used

    @property
    def bytes_appended(self) -> int:
        return self.tail

    @property
    def bytes_released(self) -> int:
        return self.head

    def offset(self) -> int:
        """Physical offset of the next append inside the region."""
        return self.tail % self.capacity

    def contiguous(self) -> int:
        """Bytes appendable before the write would cross the wrap
        boundary (callers split batches here so every WRITE targets one
        contiguous ``[offset, offset+n)`` range of the MR)."""
        return self.capacity - self.offset()

    # -- mutators ----------------------------------------------------------

    def append(self, nbytes: int) -> int:
        """Advance the tail by ``nbytes``; returns the physical offset
        the appended run starts at."""
        if nbytes <= 0:
            raise RingBufferError(
                f"ring append must be positive, got {nbytes}"
            )
        if nbytes > self.free:
            raise RingBufferError(
                f"ring overflow: append of {nbytes} bytes with only "
                f"{self.free} free (capacity {self.capacity}) — the "
                f"credit protocol must prevent this"
            )
        if nbytes > self.contiguous():
            raise RingBufferError(
                f"append of {nbytes} bytes crosses the wrap boundary "
                f"({self.contiguous()} contiguous); split the batch"
            )
        start = self.offset()
        self.tail += nbytes
        return start

    def release(self, nbytes: int) -> None:
        """Advance the head by ``nbytes`` (consumer freed that much)."""
        if nbytes <= 0:
            raise RingBufferError(
                f"ring release must be positive, got {nbytes}"
            )
        if nbytes > self.used:
            raise RingBufferError(
                f"ring underflow: release of {nbytes} bytes with only "
                f"{self.used} in use — released bytes were never "
                f"appended"
            )
        self.head += nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<RingBuffer {self.used}/{self.capacity}B used "
                f"head={self.head} tail={self.tail}>")
