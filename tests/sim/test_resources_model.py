"""Reference model for :class:`Store` and :class:`Tank`.

A store or tank grants on the spot when it can (its fast paths), and
builds its buffer and wait queues only on the first put or park.  The
reference here does neither: a list buffer and FIFO waiter lists, with
every waiter rescanned after every operation.  Random programs drive
two stores (one bounded) and two tanks side by side, so state leaking
from one to another shows, and must fire the same events in the same
order with the same values, and leave the same lengths and levels.

Every put and get runs in a process of its own, so a parked one can be
interrupted the way the engine withdraws a claim.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim import Environment, Interrupt, Store, Tank

PREDICATES = {
    None: None,
    "even": lambda item: item % 2 == 0,
    "odd": lambda item: item % 2 == 1,
    "big": lambda item: item >= 7,
}
STORE_CAPACITY = (float("inf"), 2)
TANK_SHAPE = ((10, 0), (6, 3))  # (capacity, initial level)

which = st.integers(min_value=0, max_value=1)
items = st.integers(min_value=0, max_value=9)
amounts = st.integers(min_value=1, max_value=8)


class StoreRef:
    """A list buffer and FIFO waiter lists of (op, item or predicate)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buffer = []
        self.puts = []
        self.gets = []

    def rescan(self, fired):
        progressed = True
        while progressed:
            progressed = False
            while self.puts and len(self.buffer) < self.capacity:
                op, item = self.puts.pop(0)
                self.buffer.append(item)
                fired.append((op, None))
                progressed = True
            for op, predicate in list(self.gets):
                match = PREDICATES[predicate]
                for index, item in enumerate(self.buffer):
                    if match is None or match(item):
                        del self.buffer[index]
                        self.gets.remove((op, predicate))
                        fired.append((op, item))
                        progressed = True
                        break


class TankRef:
    """A level and head-of-line FIFO waiter lists of (op, amount)."""

    def __init__(self, capacity, level):
        self.capacity = capacity
        self.level = level
        self.puts = []
        self.gets = []

    def rescan(self, fired):
        progressed = True
        while progressed:
            progressed = False
            if self.puts and self.level + self.puts[0][1] <= self.capacity:
                op, amount = self.puts.pop(0)
                self.level += amount
                fired.append((op, None))
                progressed = True
            if self.gets and self.level >= self.gets[0][1]:
                op, amount = self.gets.pop(0)
                self.level -= amount
                fired.append((op, None))
                progressed = True


class ResourcesModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.stores = [Store(self.env, capacity=c) for c in STORE_CAPACITY]
        self.tanks = [Tank(self.env, capacity=c, initial=level)
                      for c, level in TANK_SHAPE]
        self.store_refs = [StoreRef(c) for c in STORE_CAPACITY]
        self.tank_refs = [TankRef(c, level) for c, level in TANK_SHAPE]
        #: (op, value) in the order the engine resumed its processes,
        #: and in the order the reference granted them.
        self.fired = []
        self.expected = []
        self.processes = {}
        #: op -> the reference store or tank it waits on.
        self.owner = {}
        self.granted = []
        self.ops = 0

    # -- helpers -----------------------------------------------------------

    def _start(self, operation):
        """Run ``operation`` in a process of its own and wait for the
        event it returns; returns the op's number."""
        self.ops += 1
        op = self.ops

        def waiter():
            event = operation()
            try:
                value = yield event
            except Interrupt:
                self.fired.append((op, "interrupted"))
            else:
                self.fired.append((op, value))
                self.granted.append(event)

        self.processes[op] = self.env.process(waiter())
        return op

    def _wait(self, ref, queue, op, arg):
        queue.append((op, arg))
        self.owner[op] = ref
        self._settle(ref)

    def _settle(self, ref):
        ref.rescan(self.expected)
        self.env.run()

    def _parked(self):
        return sorted(op for ref in self.store_refs + self.tank_refs
                      for op, _ in ref.puts + ref.gets)

    # -- store operations ----------------------------------------------------

    @rule(i=which, item=items)
    def put(self, i, item):
        op = self._start(lambda: self.stores[i].put(item))
        self._wait(self.store_refs[i], self.store_refs[i].puts, op, item)

    @rule(i=which, predicate=st.sampled_from(sorted(PREDICATES, key=str)))
    def get(self, i, predicate):
        op = self._start(lambda: self.stores[i].get(PREDICATES[predicate]))
        self._wait(self.store_refs[i], self.store_refs[i].gets, op,
                   predicate)

    @rule(i=which)
    def try_get(self, i):
        self.ops += 1
        ref = self.store_refs[i]
        self.fired.append((self.ops, self.stores[i].try_get()))
        self.expected.append((self.ops, ref.buffer.pop(0) if ref.buffer
                              else None))
        self._settle(ref)

    @rule(i=which)
    def drain(self, i):
        self.ops += 1
        ref = self.store_refs[i]
        self.fired.append((self.ops, self.stores[i].drain()))
        self.expected.append((self.ops, ref.buffer))
        ref.buffer = []
        self._settle(ref)

    # -- tank operations -----------------------------------------------------

    @rule(i=which, amount=amounts)
    def tank_put(self, i, amount):
        op = self._start(lambda: self.tanks[i].put(amount))
        self._wait(self.tank_refs[i], self.tank_refs[i].puts, op, amount)

    @rule(i=which, amount=amounts)
    def tank_get(self, i, amount):
        op = self._start(lambda: self.tanks[i].get(amount))
        self._wait(self.tank_refs[i], self.tank_refs[i].gets, op, amount)

    # -- withdrawing claims ----------------------------------------------------

    @precondition(lambda self: self._parked())
    @rule(pick=st.integers(min_value=0))
    def interrupt(self, pick):
        parked = self._parked()
        op = parked[pick % len(parked)]
        ref = self.owner[op]
        for queue in (ref.puts, ref.gets):
            queue[:] = [entry for entry in queue if entry[0] != op]
        self.processes[op].interrupt()
        self.expected.append((op, "interrupted"))
        self._settle(ref)

    @precondition(lambda self: self.granted)
    @rule(pick=st.integers(min_value=0))
    def abandon_granted(self, pick):
        """Withdrawing an already-granted claim is a no-op, also on a
        store or tank that never built a wait queue."""
        self.granted[pick % len(self.granted)]._abandon()
        self.env.run()

    # -- checks ----------------------------------------------------------------

    @invariant()
    def same_events_in_the_same_order(self):
        assert self.fired == self.expected

    @invariant()
    def same_lengths_and_levels(self):
        assert [len(s) for s in self.stores] == \
            [len(r.buffer) for r in self.store_refs]
        assert [t.level for t in self.tanks] == \
            [r.level for r in self.tank_refs]


ResourcesModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestResourcesModel = ResourcesModel.TestCase
