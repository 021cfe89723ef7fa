"""Hardware occupancy: cores, the NIC's RDMA engine and every pipe are
FIFO servers, and the time-weighted count of busy ones is utilisation
(2.0 on a CPU is the paper's "200%").  Only this module claims them."""

from __future__ import annotations

from typing import Optional

from ..sim.monitor import TimeWeighted
from ..sim.resources import Resource

__all__ = ["CoreClaim", "ServicePool"]


class ServicePool:
    """``capacity`` FIFO servers and the time-weighted count of busy ones."""

    __slots__ = ("env", "_servers", "busy")

    def __init__(self, env, capacity: int = 1) -> None:
        self.env = env
        self._servers = Resource(env, capacity=capacity)
        self.busy = TimeWeighted(env)

    def seconds_for(self, work: float) -> float:
        """Service time of ``work``: seconds here, cycles or bytes below."""
        return work

    def serve(self, work: float):
        """Hold one server for ``seconds_for(work)`` (generator), read at
        the grant: a rate changed while the request queued applies."""
        with self._servers.request() as claim:
            yield claim
            self.busy.add(1)
            try:
                yield self.env.timeout(self.seconds_for(work))
            finally:
                self.busy.add(-1)

    def hold(self, work):
        """Hold one server while the generator ``work`` runs (generator)."""
        with self._servers.request() as claim:
            yield claim
            self.busy.add(1)
            try:
                yield from work
            finally:
                self.busy.add(-1)

    def claim(self) -> Optional["CoreClaim"]:
        """Take a free server until released; None when all are busy."""
        request = self._servers.request()
        if not request.triggered:
            request.cancel()
            return None
        self.busy.add(1)
        return CoreClaim(self, request)

    def utilisation(self) -> float:
        """Mean busy servers since the last :meth:`reset_accounting`."""
        return self.busy.mean()

    def reset_accounting(self) -> None:
        self.busy.reset()


class CoreClaim:
    """A server held from :meth:`ServicePool.claim` until :meth:`release`,
    busy throughout: a DPDK poll-mode thread's core, as ``top`` shows it."""

    __slots__ = ("_pool", "_request")

    def __init__(self, pool: ServicePool, request) -> None:
        self._pool = pool
        self._request = request

    def release(self) -> None:
        """Give the server back (idempotent)."""
        if self._request is not None:
            self._request.cancel()
            self._request = None
            self._pool.busy.add(-1)
