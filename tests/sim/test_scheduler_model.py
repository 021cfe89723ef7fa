"""Reference model for the three-queue scheduler and its batched drain.

The engine keeps a ready deque, a monotone tail deque and a heap, and
``run()`` drains same-instant ready entries in a batch; DESIGN §7
claims the processing order is still exactly that of one heap keyed
``(time, priority, creation order)``.  Random programs check it: every
processed event schedules children with a delay (zero, tiny or larger)
and a priority, so zero-delay appends land mid-drain, URGENT entries
(what ``Process.interrupt`` schedules) land on the heap mid-drain, and
a tiny delay rounds to the current instant (the clock starts at 1.0,
where 1e-18 is below one ulp).  Each program runs through ``run()``
(the batched drain), through ``run(until=...)`` (one ``step()`` per
event) and through a single ``heapq``; the three orders must be equal.
"""

import heapq

from hypothesis import example, given, settings, strategies as st

from repro.sim import Environment
from repro.sim.scheduler import NORMAL, URGENT

#: Delays a child may take: zero, one that rounds to ``now``, and two
#: larger ones that make time ties.
DELAYS = (0.0, 1e-18, 0.25, 1.0)
START = 1.0
HORIZON = 1e6

# Half the draws stay at the current instant (NORMAL, zero or tiny delay),
# where the batched drain runs; the rest may take any delay and priority.
child = st.one_of(
    st.tuples(st.sampled_from(DELAYS[:2]), st.just(NORMAL)),
    st.tuples(st.sampled_from(DELAYS), st.sampled_from((NORMAL, URGENT))),
)
children = st.lists(child, max_size=3)
programs = st.tuples(st.lists(child, min_size=1, max_size=4),
                     st.lists(children, max_size=24))


def _run_engine(program, until):
    """Processing order of ``program`` on the engine: (label, time)."""
    roots, plans = program
    env = Environment(initial_time=START)
    log = []
    labels = iter(range(10**6))

    def spawn(delay, priority):
        label = next(labels)
        if priority == NORMAL and delay == 0.0:
            event = env.event()
            event.callbacks.append(lambda e: fire(label))
            event.succeed()  # the inlined ready-deque append
        elif priority == NORMAL:
            event = env.timeout(delay)  # the inlined tail/heap insert
            event.callbacks.append(lambda e: fire(label))
        else:
            # Triggered by hand and scheduled URGENT, as an interrupt is.
            event = env.event()
            event._ok, event._value = True, None
            event.callbacks.append(lambda e: fire(label))
            env.schedule(event, delay=delay, priority=priority)

    def fire(label):
        log.append((label, env.now))
        if label < len(plans):
            for delay, priority in plans[label]:
                spawn(delay, priority)

    for delay, priority in roots:
        spawn(delay, priority)
    env.run(until=until)
    return log


def _run_reference(program):
    """Processing order of ``program`` on one heap."""
    roots, plans = program
    heap = []
    log = []
    created = 0
    now = START

    def spawn(delay, priority):
        nonlocal created
        heapq.heappush(heap, (now + delay, priority, created, created))
        created += 1

    for delay, priority in roots:
        spawn(delay, priority)
    while heap:
        now, _, _, label = heapq.heappop(heap)
        log.append((label, now))
        if label < len(plans):
            for delay, priority in plans[label]:
                spawn(delay, priority)
    return log


@settings(max_examples=400, deadline=None)
@given(programs)
# An URGENT child of the first of two same-instant events runs before
# the second: the drain must bail out when the heap gains an entry.
@example(([(0.0, NORMAL), (0.0, NORMAL)], [[(0.0, URGENT)]]))
# Mid-drain, a tiny delay's timeout lands on the empty tail at the
# current instant, ahead of a later zero-delay append.
@example(([(0.0, NORMAL)], [[(1e-18, NORMAL), (0.0, NORMAL)]]))
def test_three_queues_and_batched_drain_match_one_heap(program):
    expected = _run_reference(program)
    assert _run_engine(program, until=None) == expected
    assert _run_engine(program, until=HORIZON) == expected
