"""Unit tests for the IPAM."""

import pytest

from repro.errors import AddressError, AddressExhausted
from repro.netstack import IpPool, OverlaySubnets


class TestIpPool:
    def test_allocates_lowest_free_first(self):
        pool = IpPool("10.32.0.0/24")
        assert pool.allocate() == "10.32.0.2"  # .1 is the gateway
        assert pool.allocate() == "10.32.0.3"

    def test_gateway_reserved(self):
        pool = IpPool("10.32.0.0/24")
        assert pool.gateway == "10.32.0.1"
        with pytest.raises(AddressError):
            pool.allocate("10.32.0.1")

    def test_release_enables_reuse(self):
        pool = IpPool("10.32.0.0/24")
        first = pool.allocate()
        pool.release(first)
        assert pool.allocate() == first

    def test_repinned_release_is_not_handed_out_again(self):
        pool = IpPool("10.32.0.0/24")
        for _ in range(3):
            pool.allocate()
        pool.release("10.32.0.3")
        assert pool.allocate("10.32.0.3") == "10.32.0.3"
        assert pool.allocate() == "10.32.0.5"

    def test_release_unallocated_raises(self):
        pool = IpPool("10.32.0.0/24")
        with pytest.raises(AddressError):
            pool.release("10.32.0.5")

    def test_manual_assignment(self):
        pool = IpPool("10.32.0.0/24")
        assert pool.allocate("10.32.0.77") == "10.32.0.77"
        with pytest.raises(AddressError):
            pool.allocate("10.32.0.77")  # double allocation

    def test_manual_assignment_outside_subnet(self):
        pool = IpPool("10.32.0.0/24")
        with pytest.raises(AddressError):
            pool.allocate("192.168.0.1")

    def test_exhaustion(self):
        pool = IpPool("10.32.0.0/29")  # 8 addresses, 3 reserved
        for _ in range(pool.capacity):
            pool.allocate()
        with pytest.raises(AddressExhausted):
            pool.allocate()

    def test_contains(self):
        pool = IpPool("10.32.0.0/24")
        assert "10.32.0.200" in pool
        assert "10.33.0.1" not in pool
        assert "garbage" not in pool

    def test_bad_cidr_rejected(self):
        with pytest.raises(AddressError):
            IpPool("not-a-cidr")
        with pytest.raises(AddressError):
            IpPool("10.0.0.1/24")  # host bits set (strict)

    def test_tiny_subnet_rejected(self):
        with pytest.raises(AddressError):
            IpPool("10.0.0.0/31")

    def test_pinned_address_is_canonicalised(self):
        pool = IpPool("fd00::/120")
        assert pool.allocate("fd00:0::5") == "fd00::5"
        assert pool.allocated == {"fd00::5"}
        # The pin blocks every spelling of the address, and automatic
        # allocation steps over it instead of handing it out twice.
        with pytest.raises(AddressError):
            pool.allocate("fd00::5")
        assert [pool.allocate() for _ in range(4)] == [
            "fd00::2", "fd00::3", "fd00::4", "fd00::6"]
        pool.release("fd00::5")
        assert "fd00::5" not in pool.allocated
        assert pool.allocate() == "fd00::5"

    def test_allocated_snapshot_is_frozen(self):
        pool = IpPool("10.32.0.0/24")
        ip = pool.allocate()
        assert ip in pool.allocated
        with pytest.raises(AttributeError):
            pool.allocated.add("x")


class TestOverlaySubnets:
    def test_per_tenant_pools_disjoint(self):
        subnets = OverlaySubnets("10.32.0.0/12", subnet_prefix=16)
        a = subnets.pool("tenant-a")
        b = subnets.pool("tenant-b")
        assert a is subnets.pool("tenant-a")
        assert a.cidr != b.cidr
        ip_a = a.allocate()
        assert ip_a in a and ip_a not in b

    def test_tenant_reverse_lookup(self):
        subnets = OverlaySubnets()
        pool = subnets.pool("team1")
        ip = pool.allocate()
        assert subnets.tenant_of(ip) == "team1"
        assert subnets.tenant_of("192.168.1.1") is None

    def test_prefix_must_be_longer_than_supernet(self):
        with pytest.raises(AddressError):
            OverlaySubnets("10.0.0.0/16", subnet_prefix=16)

    def test_supernet_exhaustion(self):
        subnets = OverlaySubnets("10.0.0.0/28", subnet_prefix=30)
        for tenant in "abcd":  # exactly four /30s fit in a /28
            subnets.pool(tenant)
        with pytest.raises(AddressExhausted):
            subnets.pool("e")
