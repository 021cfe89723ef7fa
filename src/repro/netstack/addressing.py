"""IP address management for the overlay network (substrate S4).

FreeFlow keeps the overlay control plane of existing solutions: every
container gets a location-independent IP from an overlay subnet, and that
IP follows the container across hosts and migrations ("IP assignments is
independent to container's locations", §2.4).  This module is the IPAM:
deterministic, reusable allocation out of a configurable pool, with
support for manual (configuration-pinned) assignment, as §4 allows
("Container IPs can be assigned automatically by network agents via DHCP,
or manually assigned by containers' configurations").
"""

from __future__ import annotations

import heapq
import ipaddress
from typing import Optional

from ..errors import AddressError, AddressExhausted

__all__ = ["IpPool", "OverlaySubnets"]


class IpPool:
    """Allocates host addresses from one overlay subnet.

    Addresses are handed out in order, lowest-free-first, and released
    addresses are reused — matching the behaviour of the DHCP-style agent
    allocation the paper describes.

    Allocation never scans the subnet.  Every address at or above an
    integer high-water cursor that is not pinned is free; a free address
    below the cursor sits on a min-heap of released addresses.  The lowest
    free address is therefore the heap's smallest live entry, or else the
    cursor itself, so ``allocate()`` costs O(log released) whatever the
    pool's size.  Heap entries pinned again through ``allocate(requested)``
    go stale and are skipped when popped.
    """

    def __init__(self, cidr: str = "10.32.0.0/16") -> None:
        try:
            self.network = ipaddress.ip_network(cidr, strict=True)
        except ValueError as exc:
            raise AddressError(f"bad CIDR {cidr!r}: {exc}") from exc
        if self.network.num_addresses < 4:
            raise AddressError(f"subnet {cidr} too small for allocation")
        #: address text -> its integer value, for every live address.
        self._allocated: dict[str, int] = {}
        # Reserve network and broadcast addresses plus the gateway (.1).
        self._reserved = {
            str(self.network.network_address),
            str(self.network.broadcast_address),
            str(self.network.network_address + 1),
        }
        #: IPv4Address or IPv6Address: builds an address from its integer.
        self._address = type(self.network.network_address)
        #: Next never-handed-out address; the assignable range ends at
        #: ``_last``, just below broadcast (the reserved three lie outside).
        self._cursor = int(self.network.network_address) + 2
        self._last = int(self.network.broadcast_address) - 1
        #: Released addresses below the cursor (may hold stale entries).
        self._free: list[int] = []

    @property
    def cidr(self) -> str:
        return str(self.network)

    @property
    def gateway(self) -> str:
        return str(self.network.network_address + 1)

    @property
    def allocated(self) -> frozenset[str]:
        return frozenset(self._allocated)

    @property
    def capacity(self) -> int:
        """Number of assignable addresses in the pool."""
        return self.network.num_addresses - len(self._reserved)

    def __contains__(self, ip: str) -> bool:
        try:
            return ipaddress.ip_address(ip) in self.network
        except ValueError:
            return False

    def allocate(self, requested: Optional[str] = None) -> str:
        """Grab a free address (or pin ``requested`` if it is free).

        A pinned address is stored and returned in canonical form, so
        ``"fd00:0::5"`` and ``"fd00::5"`` name the same lease.
        """
        allocated = self._allocated
        if requested is not None:
            try:
                address = ipaddress.ip_address(requested)
            except ValueError:
                address = None
            if address is None or address not in self.network:
                raise AddressError(
                    f"{requested} is outside the overlay subnet {self.cidr}"
                )
            text = str(address)
            if text in self._reserved:
                raise AddressError(f"{requested} is reserved")
            if text in allocated:
                raise AddressError(f"{requested} is already allocated")
            allocated[text] = int(address)
            return text
        free = self._free
        while free:
            value = heapq.heappop(free)
            text = str(self._address(value))
            if text not in allocated:
                allocated[text] = value
                return text
        while self._cursor <= self._last:
            value = self._cursor
            self._cursor = value + 1
            text = str(self._address(value))
            if text not in allocated:
                allocated[text] = value
                return text
        raise AddressExhausted(f"no free addresses in {self.cidr}")

    def release(self, ip: str) -> None:
        """Return an address to the pool."""
        value = self._allocated.pop(ip, None)
        if value is None:
            raise AddressError(f"{ip} was not allocated from {self.cidr}")
        if value < self._cursor:
            heapq.heappush(self._free, value)


class OverlaySubnets:
    """Carves one supernet into per-tenant (or per-network) subnets.

    Mirrors how multi-tenant overlays (Docker networks, Weave subnets)
    isolate address spaces while sharing the physical fabric.
    """

    def __init__(self, supernet: str = "10.32.0.0/12", subnet_prefix: int = 16) -> None:
        try:
            self.supernet = ipaddress.ip_network(supernet, strict=True)
        except ValueError as exc:
            raise AddressError(f"bad supernet {supernet!r}: {exc}") from exc
        if subnet_prefix <= self.supernet.prefixlen:
            raise AddressError(
                f"subnet prefix /{subnet_prefix} must be longer than "
                f"supernet /{self.supernet.prefixlen}"
            )
        self.subnet_prefix = subnet_prefix
        self._subnet_iter = self.supernet.subnets(new_prefix=subnet_prefix)
        self._pools: dict[str, IpPool] = {}

    def pool(self, tenant: str) -> IpPool:
        """Get (or carve) the pool for ``tenant``."""
        if tenant not in self._pools:
            try:
                subnet = next(self._subnet_iter)
            except StopIteration:
                raise AddressExhausted(
                    f"supernet {self.supernet} has no free /{self.subnet_prefix}"
                ) from None
            self._pools[tenant] = IpPool(str(subnet))
        return self._pools[tenant]

    def tenant_of(self, ip: str) -> Optional[str]:
        """Reverse lookup: which tenant's subnet contains ``ip``."""
        for tenant, pool in self._pools.items():
            if ip in pool:
                return tenant
        return None
