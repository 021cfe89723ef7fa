"""Rate limiting for kernel-bypass traffic (paper §1 + §7).

The paper's intro notes that kernel bypass "offers less isolation (...
kernel cannot provide protections like rate limiting and firewalls)".
The firewall half is :mod:`repro.core.middlebox`; this module restores
the rate-limiting half: a token-bucket limiter enforced in the FreeFlow
library layer, where every bypass byte already passes.

A :class:`TokenBucket` can be shared across lanes (per-tenant limits) or
private to one connection.  Enforcement is work-conserving: senders are
delayed, never dropped — the shaping a cloud operator applies to tame a
noisy tenant without breaking it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..transports.base import ForwardingLane, Lane

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["TokenBucket", "RateLimitedLane"]


class TokenBucket:
    """A classic token bucket in simulated time.

    Tokens are bytes; they accrue at ``rate_bytes_per_s`` up to
    ``burst_bytes``.  ``take`` is a generator that parks the caller until
    the requested tokens exist, then consumes them — concurrent takers
    are served in arrival order via a turnstile.
    """

    def __init__(
        self,
        env: "Environment",
        rate_bytes_per_s: float,
        burst_bytes: float = 1 << 20,
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError("rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.env = env
        self.rate = float(rate_bytes_per_s)
        self.burst = float(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last_refill = env.now
        from ..sim.resources import Resource

        self._turnstile = Resource(env, capacity=1)
        self.bytes_shaped = 0
        self.delays_imposed = 0

    def _refill(self) -> None:
        now = self.env.now
        self._tokens = min(
            self.burst, self._tokens + (now - self._last_refill) * self.rate
        )
        self._last_refill = now

    def take(self, nbytes: float):
        """Generator: consume ``nbytes`` tokens, waiting if necessary."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        with self._turnstile.request() as turn:
            yield turn
            self._refill()
            if nbytes <= self._tokens:
                self._tokens -= nbytes
            else:
                # Drain what exists, then wait for exactly the deficit to
                # accrue; that accrual belongs to this request, so the
                # refill clock restarts at the wake-up instant.
                deficit = nbytes - self._tokens
                self._tokens = 0.0
                self._last_refill = self.env.now
                self.delays_imposed += 1
                yield self.env.timeout(deficit / self.rate)
                self._last_refill = self.env.now
            self.bytes_shaped += nbytes


class RateLimitedLane(ForwardingLane):
    """Lane wrapper that charges a token bucket before each send.

    Composes with :class:`~repro.core.middlebox.InspectedLane`: both
    forward everything but ``send`` to the lane they wrap
    (:class:`~repro.transports.base.ForwardingLane`).
    """

    def __init__(self, inner: Lane, bucket: TokenBucket) -> None:
        super().__init__(inner)
        self.bucket = bucket

    def send(self, nbytes: int, payload: Any = None):
        yield from self.bucket.take(nbytes)
        message = yield from self.inner.send(nbytes, payload)
        return message
