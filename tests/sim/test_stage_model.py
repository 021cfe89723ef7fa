"""Reference model for :class:`~repro.sim.stage.Stage`.

A stage starts its worker on the first item and lets it return once the
queue is empty.  The reference is one worker started up front and
parked forever on a :class:`Store`.  Random programs put items at
random instants (several in one instant, some while the worker is busy,
some after it went idle, some from processes that reach the instant
later than others), give each item a service time (none, zero or
positive; some items put a follow-up into the stage when served), drain
the queue, and start probe processes that log the time at each of a
few same-instant hops.  Both shapes must write the same log, entry for
entry: the worker's start takes the ready-queue slot of the parked
worker's wake-up, and a queued item takes one hop, as its ``get`` did.
"""

from __future__ import annotations

from itertools import count

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Stage, Store
from repro.telemetry import profiler

#: (delay or None for no yield at all, whether serving it puts another).
services = st.tuples(st.sampled_from([None, 0.0, 0.5, 1.0, 3.0]),
                     st.booleans())
hops = st.integers(min_value=0, max_value=3)
actions = st.one_of(
    st.tuples(st.just("put"), services),
    st.tuples(st.just("late-put"), hops, services),
    st.tuples(st.just("probe"), hops),
    st.tuples(st.just("drain")),
)
#: (gap from the previous step, 0 for the same instant; its actions).
programs = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 4.0]),
              st.lists(actions, min_size=1, max_size=4)),
    min_size=1, max_size=20,
)


class Parked:
    """The reference: a worker started up front, parked on a Store."""

    def __init__(self, env, serve):
        self.store = Store(env)
        env.process(self._worker(serve))

    def _worker(self, serve):
        while True:
            item = yield self.store.get()
            yield from serve(item)

    def put(self, item):
        self.store.put(item)

    def drain(self):
        return self.store.drain()


class OnDemand:
    """The shape under test: a worker that runs while it has work."""

    def __init__(self, env, serve):
        self.stage = Stage(env)
        self.serve = serve

    def _worker(self, item):
        while item is not None:
            yield from self.serve(item)
            item = yield from self.stage.next()

    def put(self, item):
        self.stage.put(item, self._worker)

    def drain(self):
        return self.stage.drain()


def _run(program, shape) -> list:
    env = Environment()
    log = []
    service_of = {}
    ids = count()

    def serve(item):
        log.append((env.now, "serve", item))
        delay, again = service_of[item]
        if delay is not None:
            yield env.timeout(delay)
        log.append((env.now, "served", item))
        if again:
            put((None, False))

    stage = shape(env, serve)

    def put(service):
        item = next(ids)
        service_of[item] = service
        log.append((env.now, "put", item))
        stage.put(item)

    def late_put(hops, service):
        for _ in range(hops):
            yield env.timeout(0)
        put(service)

    def probe(tag, hops):
        for hop in range(hops + 1):
            log.append((env.now, "probe", tag, hop))
            if hop < hops:
                yield env.timeout(0)

    def driver():
        tags = count()
        for gap, step in program:
            if gap:
                yield env.timeout(gap)
            for action in step:
                kind = action[0]
                if kind == "put":
                    put(action[1])
                elif kind == "late-put":
                    env.process(late_put(action[1], action[2]))
                elif kind == "probe":
                    env.process(probe(next(tags), action[1]))
                else:
                    log.append((env.now, "drain", stage.drain()))

    env.process(driver())
    env.run()
    log.append((env.now, "end", stage.drain()))
    return log


@settings(max_examples=300, deadline=None)
@given(programs)
def test_stage_matches_a_parked_worker(program):
    assert _run(program, OnDemand) == _run(program, Parked)


def test_an_idle_stage_owns_no_process():
    env = Environment()
    stage = Stage(env)
    served = []

    def worker(item):
        while item is not None:
            served.append(item)
            yield env.timeout(1.0)
            item = yield from stage.next()

    assert env.peek() == float("inf")
    for item in range(3):
        stage.put(item, worker)
    env.run()
    assert served == [0, 1, 2]
    assert (stage.drain(), env.peek()) == ([], float("inf"))
    stage.put(3, worker)  # idle again: a fresh worker serves it
    env.run()
    assert served == [0, 1, 2, 3]


def test_the_profiler_names_the_worker_not_the_stage():
    env = Environment()
    stage = Stage(env)

    def pipeline_worker(item):
        while item is not None:
            yield env.timeout(1.0)
            item = yield from stage.next()

    armed = profiler.installed()
    active = profiler.install()
    try:
        for item in range(3):
            stage.put(item, pipeline_worker)
        env.run()
    finally:
        if not armed:
            profiler.uninstall()
    sites = [site for site in active.sites if "pipeline_worker" in site]
    assert sites and all("tests/sim/test_stage_model.py" in s for s in sites)
    assert not [site for site in active.sites if "sim/stage.py" in site]
