"""Bare shared-memory IPC (Fig. 1's upper-bound baseline).

"This requires special setup, to bypass the namespace isolation, and
offers the least isolation, and the least portability" — two containers
share a memory segment directly, with hand-written IPC.  It is the
performance ceiling FreeFlow chases for co-located pairs, and the
baseline FreeFlow matches *without* requiring applications to be
rewritten against a bespoke IPC API.
"""

from __future__ import annotations

from ..cluster.container import Container
from ..errors import TransportUnavailable
from ..transports.shmem import ShmChannel

__all__ = ["ShmIpcNetwork"]


class ShmIpcNetwork:
    """Hand-rolled shared-memory IPC between co-located containers."""

    def connect(self, a: Container, b: Container) -> ShmChannel:
        if not a.colocated(b):
            raise TransportUnavailable(
                "shared-memory IPC only works on a single host "
                f"({a.name} is on {a.host.name}, {b.name} on {b.host.name})"
            )
        return ShmChannel(a.host)
