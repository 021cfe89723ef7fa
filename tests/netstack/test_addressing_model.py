"""Reference tests for the IPAM: a state machine against a naive model.

The model is the definition of lowest-free-first allocation: the next
address is ``min(hosts - reserved - allocated)``, computed by scanning
the subnet.  ``IpPool`` must agree with it on every result and every
error, whatever mix of automatic allocation, pinning and release drives
it.
"""

import ipaddress

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import AddressError, AddressExhausted
from repro.netstack import IpPool


class _IpPoolModel(RuleBasedStateMachine):
    CIDR = ""

    def __init__(self):
        super().__init__()
        self.pool = IpPool(self.CIDR)
        net = ipaddress.ip_network(self.CIDR)
        self.net = net
        self.reserved = {
            net.network_address,
            net.broadcast_address,
            net.network_address + 1,
        }
        self.hosts = sorted(set(net.hosts()) - self.reserved)
        self.allocated: set = set()

    # -- the model ---------------------------------------------------------

    def _lowest_free(self):
        free = [a for a in self.hosts if a not in self.allocated]
        return min(free) if free else None

    def _address(self, index: int):
        """The subnet's ``index``-th address, wrapping over all of it."""
        return self.net.network_address + index % self.net.num_addresses

    @staticmethod
    def _spell(address, exploded: bool) -> str:
        # IPv6 has non-canonical spellings; IPv4's exploded form is its
        # canonical one.
        return address.exploded if exploded else str(address)

    def _expect_pin(self, address, text: str) -> None:
        if address in self.reserved:
            error = "reserved"
        elif address in self.allocated:
            error = "already allocated"
        else:
            assert self.pool.allocate(text) == str(address)
            self.allocated.add(address)
            return
        with pytest.raises(AddressError, match=error):
            self.pool.allocate(text)

    # -- rules -------------------------------------------------------------

    @rule()
    def allocate(self):
        expected = self._lowest_free()
        if expected is None:
            with pytest.raises(AddressExhausted):
                self.pool.allocate()
            return
        assert self.pool.allocate() == str(expected)
        self.allocated.add(expected)

    @rule()
    def allocate_until_exhausted(self):
        while self._lowest_free() is not None:
            self.allocate()
        with pytest.raises(AddressExhausted):
            self.pool.allocate()

    @rule(index=st.integers(min_value=0), exploded=st.booleans())
    def pin_any(self, index, exploded):
        """Free, reserved or already-allocated, as the index falls."""
        address = self._address(index)
        self._expect_pin(address, self._spell(address, exploded))

    @rule(index=st.integers(min_value=0), exploded=st.booleans())
    def pin_free(self, index, exploded):
        """Re-pinning a released address leaves a stale heap entry."""
        free = [a for a in self.hosts if a not in self.allocated]
        if not free:
            return
        address = free[index % len(free)]
        self._expect_pin(address, self._spell(address, exploded))

    @rule(index=st.integers(min_value=0), exploded=st.booleans())
    def pin_duplicate(self, index, exploded):
        if not self.allocated:
            return
        address = sorted(self.allocated)[index % len(self.allocated)]
        self._expect_pin(address, self._spell(address, exploded))

    @rule(offset=st.integers(min_value=1, max_value=64),
          kind=st.sampled_from(["above", "below", "other-family", "garbage"]))
    def pin_outside(self, offset, kind):
        if kind == "above":
            text = str(self.net.broadcast_address + offset)
        elif kind == "below":
            text = str(self.net.network_address - offset)
        elif kind == "other-family":
            text = "10.0.0.5" if self.net.version == 6 else "fd00::5"
        else:
            text = "not-an-address"
        with pytest.raises(AddressError, match="outside"):
            self.pool.allocate(text)

    @rule(index=st.integers(min_value=0))
    def release_allocated(self, index):
        if not self.allocated:
            return
        address = sorted(self.allocated)[index % len(self.allocated)]
        self.pool.release(str(address))
        self.allocated.discard(address)

    @rule(index=st.integers(min_value=0))
    def release_unallocated(self, index):
        address = self._address(index)
        if address in self.allocated:
            return
        with pytest.raises(AddressError, match="not allocated"):
            self.pool.release(str(address))

    @invariant()
    def snapshot_matches(self):
        assert self.pool.allocated == frozenset(str(a) for a in self.allocated)


class IPv4PoolModel(_IpPoolModel):
    CIDR = "10.40.0.0/28"


class IPv6PoolModel(_IpPoolModel):
    CIDR = "fd00:40::/124"


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestIPv4PoolModel = IPv4PoolModel.TestCase
TestIPv4PoolModel.settings = _SETTINGS
TestIPv6PoolModel = IPv6PoolModel.TestCase
TestIPv6PoolModel.settings = _SETTINGS


def test_allocation_does_not_scan_the_subnet(monkeypatch):
    def no_scan(self):
        raise AssertionError("IpPool walked the subnet")

    monkeypatch.setattr(ipaddress.IPv4Network, "hosts", no_scan)
    pool = IpPool("10.50.0.0/16")
    ips = [pool.allocate() for _ in range(4096)]
    assert ips[0] == "10.50.0.2"
    assert ips[-1] == "10.50.16.1"
    assert len(set(ips)) == 4096
    pool.release("10.50.8.0")
    assert pool.allocate() == "10.50.8.0"
