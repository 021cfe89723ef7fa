"""Workload generators (S13): the traffic shapes behind every figure.

Streaming and ping-pong (the paper's two microbenchmarks) live in
:mod:`repro.metrics`; this module adds the richer shapes used by the
multi-pair sweeps and the application examples:

* :class:`MessageSizeSweep` — log-spaced message sizes for latency and
  throughput curves;
* :class:`MultiPairStream` — N concurrent pairs over a connect factory,
  for the "throughput vs number of pairs" figures (E5/E6);
* :class:`RequestResponse` — open-loop Poisson request arrivals with a
  response per request, for the KV-style application workloads;
* :class:`HeavyTailedStream` — bounded-Pareto message sizes, the classic
  datacenter mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..sim.monitor import StreamingSeries
from ..sim.rand import RandomStream

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = [
    "MessageSizeSweep",
    "MultiPairStream",
    "RequestResponse",
    "HeavyTailedStream",
]


@dataclass(frozen=True)
class MessageSizeSweep:
    """Log-spaced message sizes, e.g. 64 B … 4 MB (powers of ``factor``)."""

    minimum: int = 64
    maximum: int = 4 * 1024 * 1024
    factor: int = 4

    def sizes(self) -> list[int]:
        if self.minimum <= 0 or self.maximum < self.minimum:
            raise ValueError("bad sweep bounds")
        if self.factor < 2:
            raise ValueError("factor must be at least 2")
        sizes = []
        size = self.minimum
        while size <= self.maximum:
            sizes.append(size)
            size *= self.factor
        if sizes[-1] != self.maximum:
            sizes.append(self.maximum)
        return sizes


class MultiPairStream:
    """N concurrent streaming pairs built from a connect factory.

    ``connect(i)`` must return an object with ``a``/``b`` endpoint
    attributes (any channel/connection in this library qualifies).
    """

    def __init__(
        self,
        env: "Environment",
        connect: Callable[[int], object],
        pairs: int,
    ) -> None:
        if pairs <= 0:
            raise ValueError(f"pairs must be positive, got {pairs}")
        self.env = env
        self.channels = [connect(i) for i in range(pairs)]

    def endpoint_pairs(self) -> list[tuple]:
        return [(ch.a, ch.b) for ch in self.channels]


class RequestResponse:
    """Open-loop request/response client against a server endpoint.

    Requests arrive Poisson at ``rate_per_s``; each request of
    ``request_bytes`` gets a ``response_bytes`` reply.  Records
    end-to-end response times.
    """

    def __init__(
        self,
        env: "Environment",
        client_end,
        server_end,
        rate_per_s: float,
        request_bytes: int = 512,
        response_bytes: int = 4096,
        rng: Optional[RandomStream] = None,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.client_end = client_end
        self.server_end = server_end
        self.rate = rate_per_s
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.rng = rng or RandomStream(0, "reqresp")
        self.response_times = StreamingSeries(reservoir=math.inf)
        self.completed = 0

    def run(self, duration_s: float):
        """Generator: drive the workload for ``duration_s``."""
        self.env.process(self._server())
        stop_at = self.env.now + duration_s
        inflight = []
        while self.env.now < stop_at:
            yield self.env.timeout(self.rng.expovariate(self.rate))
            inflight.append(self.env.process(self._one_request()))
        for request in inflight:
            yield request

    def _one_request(self):
        started = self.env.now
        yield from self.client_end.send(self.request_bytes)
        yield from self.client_end.recv()
        self.response_times.add(self.env.now - started)
        self.completed += 1

    def _server(self):
        while True:
            yield from self.server_end.recv()
            yield from self.server_end.send(self.response_bytes)


class HeavyTailedStream:
    """Sender pushing bounded-Pareto-sized messages (DC traffic mix)."""

    def __init__(
        self,
        env: "Environment",
        send_end,
        recv_end,
        shape: float = 1.2,
        min_bytes: int = 256,
        max_bytes: int = 4 * 1024 * 1024,
        rng: Optional[RandomStream] = None,
    ) -> None:
        self.env = env
        self.send_end = send_end
        self.recv_end = recv_end
        self.shape = shape
        self.min_bytes = min_bytes
        self.max_bytes = max_bytes
        self.rng = rng or RandomStream(0, "heavytail")
        self.bytes_delivered = 0
        self.messages_delivered = 0

    def run(self, duration_s: float):
        """Generator: stream for ``duration_s`` and count deliveries."""
        stop_at = self.env.now + duration_s

        def sender():
            while self.env.now < stop_at:
                size = int(self.rng.pareto_size(
                    self.shape, self.min_bytes, self.max_bytes
                ))
                yield from self.send_end.send(size)

        def receiver():
            while True:
                message = yield from self.recv_end.recv()
                self.bytes_delivered += message.size_bytes
                self.messages_delivered += 1

        self.env.process(sender())
        self.env.process(receiver())
        yield self.env.timeout(duration_s)
