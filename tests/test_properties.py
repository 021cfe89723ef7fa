"""Property-based tests (hypothesis) on core data structures/invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressExhausted
from repro.hardware import BandwidthPipe, Host
from repro.netstack import IpPool, RouteTable, segment_count
from repro.sim import Environment, Resource, Store, StreamingSeries, Tank
from repro.sim.rand import RandomStream


# ---------------------------------------------------------------- sim core


@given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1,
                max_size=40))
@settings(max_examples=60, deadline=None)
def test_event_processing_order_is_chronological(delays):
    """Events must always be processed in non-decreasing time order."""
    env = Environment()
    seen = []
    for delay in delays:
        t = env.timeout(delay)
        t.callbacks.append(lambda e, d=delay: seen.append(env.now))
    env.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity(capacity, jobs):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    peak = {"value": 0}

    def worker():
        with resource.request() as request:
            yield request
            peak["value"] = max(peak["value"], resource.count)
            yield env.timeout(1)

    for _ in range(jobs):
        env.process(worker())
    env.run()
    assert peak["value"] <= capacity


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
@settings(max_examples=40, deadline=None)
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer())
    done = env.process(consumer())
    env.run(until=done)
    assert received == items


@given(st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=0.001, max_value=10)),
                min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_tank_level_stays_in_bounds(operations):
    env = Environment()
    tank = Tank(env, capacity=100, initial=50)
    levels = []

    def driver():
        for is_put, amount in operations:
            event = tank.put(amount) if is_put else tank.get(amount)
            # Do not wait for blocked operations; just observe levels.
            levels.append(tank.level)
            yield env.timeout(0)

    env.process(driver())
    env.run()
    assert all(0 <= level <= 100 for level in levels)
    assert 0 <= tank.level <= 100


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                min_size=1, max_size=200),
       st.floats(min_value=0, max_value=100))
@settings(max_examples=60, deadline=None)
def test_series_percentile_bounded_and_monotone(samples, p):
    series = StreamingSeries(reservoir=math.inf)
    series.extend(samples)
    value = series.percentile(p)
    assert series.minimum() <= value <= series.maximum()
    # Monotonicity in p.
    assert series.percentile(0) <= value <= series.percentile(100)


@given(st.integers(min_value=0, max_value=1 << 30),
       st.integers(min_value=1, max_value=1 << 20))
def test_segment_count_covers_payload_exactly(payload, segment):
    count = segment_count(payload, segment)
    assert count >= 1
    assert count * segment >= payload
    if payload > segment:
        assert (count - 1) * segment < payload


# ---------------------------------------------------------------- addressing


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_ipam_never_hands_out_duplicates(n):
    pool = IpPool("10.32.0.0/24")
    allocated = set()
    for _ in range(min(n, pool.capacity)):
        ip = pool.allocate()
        assert ip not in allocated
        assert ip in pool
        allocated.add(ip)


@given(st.lists(st.booleans(), min_size=1, max_size=120))
@settings(max_examples=30, deadline=None)
def test_ipam_allocate_release_interleaving(ops):
    """Invariant: allocated set size == allocations - releases; never a
    duplicate live address."""
    pool = IpPool("10.32.0.0/26")
    live: list[str] = []
    for do_allocate in ops:
        if do_allocate:
            try:
                ip = pool.allocate()
            except AddressExhausted:
                assert len(live) == pool.capacity
                continue
            assert ip not in live
            live.append(ip)
        elif live:
            pool.release(live.pop())
    assert set(pool.allocated) == set(live)


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=30))
@settings(max_examples=30, deadline=None)
def test_route_table_lookup_matches_installed_host_routes(last_octets):
    table = RouteTable("t")
    expected = {}
    for octet in last_octets:
        ip = f"10.0.0.{octet}"
        table.install(ip, f"host-{octet}")
        expected[ip] = f"host-{octet}"
    for ip, owner in expected.items():
        assert table.lookup(ip) == owner


# ---------------------------------------------------------------- hardware


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=100))
@settings(max_examples=25, deadline=None)
def test_pipe_conserves_bytes_and_respects_rate(flows, kbytes):
    env = Environment()
    pipe = BandwidthPipe(env, rate_bytes=1e6, chunk_bytes=1024)
    per_flow = kbytes * 1024

    def move():
        yield from pipe.transfer(per_flow)

    for _ in range(flows):
        env.process(move())
    env.run()
    total = flows * per_flow
    assert pipe.bytes_moved == total
    # Time can never beat the serialisation bound.
    assert env.now >= total / 1e6 - 1e-9


@given(st.integers(min_value=0, max_value=1 << 24))
@settings(max_examples=50, deadline=None)
def test_wire_bytes_monotone_and_bounded(payload):
    from repro.hardware import PAPER_TESTBED

    kernel = PAPER_TESTBED.kernel
    wire = kernel.wire_bytes(payload)
    assert wire >= payload
    if payload > 0:
        # Header overhead is bounded by one header per MTU (plus one).
        max_headers = (payload // kernel.mtu_bytes + 1) * kernel.header_bytes
        assert wire <= payload + max_headers


# ---------------------------------------------------------------- rand


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1,
                                                          max_size=20))
@settings(max_examples=40, deadline=None)
def test_random_streams_are_deterministic(seed, name):
    a = RandomStream(seed, name)
    b = RandomStream(seed, name)
    assert [a.randint(0, 10**9) for _ in range(3)] == [
        b.randint(0, 10**9) for _ in range(3)
    ]


@given(st.integers(min_value=1, max_value=1000),
       st.floats(min_value=0.1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_zipf_always_in_range(n, skew):
    stream = RandomStream(0, "zipf")
    for _ in range(20):
        assert 0 <= stream.zipf_index(n, skew) < n
