"""Unit tests for resources, stores and tanks."""

import pytest

from repro.sim import Environment, Resource, Store, Tank


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        first, second, third = (resource.request() for _ in range(3))
        assert first.triggered and second.triggered
        assert not third.triggered

    def test_release_grants_next_waiter(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        first.cancel()
        assert second.triggered

    def test_with_block_releases(self, env, runner):
        resource = Resource(env, capacity=1)
        order = []

        def worker(name):
            with resource.request() as request:
                yield request
                order.append((env.now, name))
                yield env.timeout(1)

        env.process(worker("a"))
        done = env.process(worker("b"))
        env.run(until=done)
        assert order == [(0, "a"), (1, "b")]

    def test_waiters_granted_in_request_order(self, env):
        resource = Resource(env, capacity=1)
        holder = resource.request()
        waiters = [resource.request() for _ in range(4)]
        granted = []
        for _ in waiters:
            holder.cancel()
            (holder,) = resource.users
            granted.append(holder)
        assert granted == waiters

    def test_cancel_queued_request(self, env):
        resource = Resource(env, capacity=1)
        resource.request()
        queued = resource.request()
        queued.cancel()
        assert queued not in resource.queue

    def test_count_tracks_users(self, env):
        resource = Resource(env, capacity=3)
        requests = [resource.request() for _ in range(2)]
        assert resource.count == 2
        requests[0].cancel()
        assert resource.count == 1


class TestStore:
    def test_put_get_fifo(self, env, runner):
        store = Store(env)

        def flow():
            yield store.put("first")
            yield store.put("second")
            a = yield store.get()
            b = yield store.get()
            return a, b

        assert runner(flow()) == ("first", "second")

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        results = []

        def consumer():
            item = yield store.get()
            results.append((env.now, item))

        def producer():
            yield env.timeout(3)
            yield store.put("x")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert results == [(3, "x")]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        done = []

        def producer():
            yield store.put(1)
            yield store.put(2)  # blocks until a get
            done.append(env.now)

        def consumer():
            yield env.timeout(5)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert done == [5]

    def test_filtered_get(self, env, runner):
        store = Store(env)

        def flow():
            yield store.put(("b", 2))
            yield store.put(("a", 1))
            item = yield store.get(lambda i: i[0] == "a")
            return item

        assert runner(flow()) == ("a", 1)
        assert list(store.items) == [("b", 2)]

    def test_try_get_nonblocking(self, env):
        store = Store(env)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestTank:
    def test_initial_level(self, env):
        tank = Tank(env, capacity=10, initial=4)
        assert tank.level == 4

    def test_put_blocks_at_capacity(self, env):
        tank = Tank(env, capacity=10)
        done = []

        def filler():
            yield tank.put(8)
            yield tank.put(8)  # must wait for a get
            done.append(env.now)

        def drainer():
            yield env.timeout(2)
            yield tank.get(8)

        env.process(filler())
        env.process(drainer())
        env.run()
        assert done == [2]
        assert tank.level == 8

    def test_get_blocks_until_available(self, env):
        tank = Tank(env, capacity=10)
        got = []

        def taker():
            yield tank.get(5)
            got.append(env.now)

        def giver():
            yield env.timeout(1)
            yield tank.put(5)

        env.process(taker())
        env.process(giver())
        env.run()
        assert got == [1]

    def test_invalid_arguments(self, env):
        with pytest.raises(ValueError):
            Tank(env, capacity=0)
        with pytest.raises(ValueError):
            Tank(env, capacity=5, initial=6)
        tank = Tank(env, capacity=5)
        with pytest.raises(ValueError):
            tank.put(-1)
        with pytest.raises(ValueError):
            tank.get(-1)


class TestInterruptAbandonsClaims:
    """Regression: an interrupted waiter must not leave a claim behind
    that would silently swallow the next item/slot (found via the live-
    migration rebind path)."""

    def test_interrupted_store_get_does_not_steal_items(self, env):
        from repro.sim import Interrupt

        store = Store(env)
        received = []

        def doomed():
            try:
                yield store.get()
            except Interrupt:
                return

        def survivor():
            item = yield store.get()
            received.append(item)

        victim = env.process(doomed())
        env.process(survivor())

        def driver():
            yield env.timeout(1)
            victim.interrupt()
            yield env.timeout(1)
            yield store.put("precious")

        env.process(driver())
        env.run()
        assert received == ["precious"]

    def test_interrupted_resource_request_leaves_queue(self, env):
        from repro.sim import Interrupt

        resource = Resource(env, capacity=1)
        holder = resource.request()
        order = []

        def doomed():
            try:
                with resource.request() as req:
                    yield req
            except Interrupt:
                order.append("interrupted")

        def patient():
            with resource.request() as req:
                yield req
                order.append("granted")

        victim = env.process(doomed())
        env.process(patient())

        def driver():
            yield env.timeout(1)
            victim.interrupt()
            yield env.timeout(1)
            holder.cancel()

        env.process(driver())
        env.run()
        assert order == ["interrupted", "granted"]

    def test_interrupted_tank_get_withdraws(self, env):
        from repro.sim import Interrupt

        tank = Tank(env, capacity=10)
        got = []

        def doomed():
            try:
                yield tank.get(5)
            except Interrupt:
                return

        def survivor():
            yield tank.get(5)
            got.append(env.now)

        victim = env.process(doomed())
        env.process(survivor())

        def driver():
            yield env.timeout(1)
            victim.interrupt()
            yield env.timeout(1)
            yield tank.put(5)

        env.process(driver())
        env.run()
        assert got == [2]


class TestStoreFastPath:
    """The immediate-handoff fast path must not change observable order."""

    def test_get_from_buffer_triggers_synchronously(self, env):
        store = Store(env)
        store.put(1)
        get = store.get()
        # Fast path: triggered at creation, before any env.run().
        assert get.triggered
        env.run()
        assert get.value == 1

    def test_fifo_preserved_across_fast_and_queued_gets(self, env):
        store = Store(env)
        results = []

        def getter(name):
            item = yield store.get()
            results.append((name, item))

        env.process(getter("queued-a"))
        env.process(getter("queued-b"))
        env.run()  # both getters park on the empty store
        store.put(1)
        store.put(2)
        store.put(3)

        def late_getter():
            item = yield store.get()
            results.append(("late", item))

        env.process(late_getter())
        env.run()
        # Queued getters drain in arrival order; the latecomer gets the
        # remaining item — the fast path never lets it overtake.
        assert results == [("queued-a", 1), ("queued-b", 2), ("late", 3)]

    def test_predicate_get_fast_path_takes_matching_item(self, env):
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        get = store.get(predicate=lambda x: x == 2)
        assert get.triggered
        env.run()
        assert get.value == 2
        assert list(store.items) == [1, 3]

    def test_predicate_get_without_match_waits(self, env):
        store = Store(env)
        store.put(1)
        get = store.get(predicate=lambda x: x == 99)
        assert not get.triggered
        store.put(99)
        env.run()
        assert get.value == 99
        assert list(store.items) == [1]

    def test_fast_get_readmits_blocked_put(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        blocked = store.put("b")
        assert not blocked.triggered  # store full, put parks
        get = store.get()
        assert get.triggered  # fast path handoff of "a"
        assert blocked.triggered  # freed slot admits the queued put
        env.run()
        assert get.value == "a"
        assert list(store.items) == ["b"]

    def test_put_fast_path_wakes_parked_getter(self, env):
        store = Store(env)
        results = []

        def getter():
            item = yield store.get()
            results.append(item)

        env.process(getter())
        env.run()
        put = store.put("x")
        assert put.triggered  # space available: accepted on the spot
        env.run()
        assert results == ["x"]

    def test_queued_puts_not_overtaken_by_newcomer(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        first = store.put("b")
        second = store.put("c")
        env.run()
        assert not first.triggered and not second.triggered
        gets = [store.get(), store.get(), store.get()]
        env.run()
        assert [g.value for g in gets] == ["a", "b", "c"]


class TestTankFastPath:
    def test_put_get_trigger_synchronously_when_room(self, env):
        tank = Tank(env, capacity=10.0)
        put = tank.put(4.0)
        assert put.triggered
        assert tank.level == 4.0
        get = tank.get(3.0)
        assert get.triggered
        assert tank.level == 1.0

    def test_queued_put_not_overtaken_by_smaller_newcomer(self, env):
        tank = Tank(env, capacity=10.0, initial=8.0)
        big = tank.put(5.0)  # 8 + 5 > 10: parks
        small = tank.put(1.0)  # would fit, but must queue behind `big`
        assert not big.triggered
        assert not small.triggered
        assert tank.level == 8.0
        get = tank.get(5.0)  # frees room: head-of-line put admitted first
        assert get.triggered
        env.run()
        assert big.triggered
        assert small.triggered
        assert tank.level == 8.0 - 5.0 + 5.0 + 1.0

    def test_fast_get_wakes_blocked_put(self, env):
        tank = Tank(env, capacity=10.0, initial=10.0)
        put = tank.put(2.0)
        assert not put.triggered
        get = tank.get(2.0)
        assert get.triggered
        assert put.triggered
        assert tank.level == 10.0

    def test_queued_get_not_overtaken(self, env):
        tank = Tank(env, capacity=100.0)
        big = tank.get(50.0)  # empty: parks
        small = tank.get(1.0)  # must queue behind `big`
        tank.put(30.0)
        env.run()
        assert not big.triggered
        assert not small.triggered
        tank.put(25.0)
        env.run()
        assert big.triggered
        assert small.triggered
        assert tank.level == 30.0 + 25.0 - 50.0 - 1.0


class TestStoreDrain:
    """Bulk non-blocking drain: the consumption primitive behind
    coalesced watch delivery and batch completion reaping."""

    def test_drain_returns_fifo_and_clears(self, env):
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        assert store.drain() == [1, 2, 3]
        assert len(store) == 0
        assert store.drain() == []

    def test_drain_admits_blocked_puts_for_next_drain(self, env):
        store = Store(env, capacity=2)
        store.put(1)
        store.put(2)
        blocked = store.put(3)
        assert not blocked.triggered
        assert store.drain() == [1, 2]
        env.run()
        # The freed capacity admitted the blocked put — but only the
        # *next* drain sees it: a drain returns what had already been
        # delivered when it was called.
        assert blocked.triggered
        assert store.drain() == [3]

    def test_drain_wakes_parked_getter_via_later_put(self, env):
        store = Store(env)
        store.put(1)
        store.drain()
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        env.process(getter())
        env.run()
        assert got == []  # drain emptied the buffer: the getter parks
        store.put(2)
        env.run()
        assert got == [2]
