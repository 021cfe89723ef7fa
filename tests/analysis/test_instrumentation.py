"""Instrumentation composition: sanitizer + profiler + wait-for graph.

None of the three tools replaces a method on any class.  Each arms a
slot — the engine's ``scheduler.OBSERVERS`` tuple, for the wait-for
graph also ``resources.WAITS``, and for the sanitizer also
``sockets.RING_CHECK`` — so every tool sees every run whatever order
they were armed in.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitizer, waitfor
from repro.core import sockets
from repro.core.flows import ChannelFactory, FlowConnection, FlowTable
from repro.core.sockets import FreeFlowSocket
from repro.sim import Environment, resources, scheduler
from repro.sim.resources import Resource, Store, Tank
from repro.telemetry import profiler as profiler_mod
from repro.transports.base import Lane

PATCHABLE = (Environment, Resource, Store, Tank, Lane, ChannelFactory,
             FlowTable, FlowConnection, FreeFlowSocket)


def _class_dicts():
    return [dict(cls.__dict__) for cls in PATCHABLE]


def _run_stalling_workload():
    """A lock park, a store get, then a credit get nobody ever fills."""
    env = Environment()
    lock = Resource(env, label="wl-lock")
    inbox = Store(env, label="wl-inbox")
    credits = Tank(env, capacity=16, initial=16, label="wl-credits")
    got = []

    def consumer():
        with lock.request() as claim:
            yield claim
            item = yield inbox.get()
            got.append(item)
        yield credits.get(16)
        yield credits.get(4)  # never completes: nobody banks credit back

    def contender():
        with lock.request() as claim:  # parks behind consumer
            yield claim

    def producer():
        yield env.timeout(1e-6)
        inbox.put("payload")

    env.process(consumer())
    env.process(contender())
    env.process(producer())
    env.run()
    assert got == ["payload"]


@pytest.fixture
def disarmed():
    """Start with no tool armed (the suite may run with REPRO_SANITIZE /
    REPRO_WAITFOR set) and re-arm whatever was armed afterwards."""
    armed = [(tool.install, tool.uninstall)
             for tool in (sanitizer, waitfor) if tool.installed()]
    for _install, uninstall in armed:
        uninstall()
    yield
    for install, _uninstall in armed:
        install()


def test_every_tool_observes_whatever_the_arming_order(disarmed):
    pristine = _class_dicts()

    # Armed the other way round, the sanitizer and the profiler used to
    # replace run() without calling the wait-for graph's wrapper, and
    # its idle report was lost.
    waitfor.install()
    sanitizer.install()
    profiler = profiler_mod.install()
    try:
        assert _class_dicts() == pristine
        _run_stalling_workload()
        idle = waitfor.idle_report()
        assert idle is not None
        assert idle["parked"] == [{
            "process": "consumer", "waits_on": "wl-credits",
            "kind": "tank-get", "amount": 4,
            "holders": [
                {"process": "consumer", "holds": "credit", "amount": 16}],
        }]
        assert waitfor.stats()["parks"] >= 2  # lock + store get
        assert sanitizer.stats()["engine_step"] > 0
        assert profiler.events_total > 0
    finally:
        waitfor.uninstall()
        sanitizer.uninstall()
        profiler_mod.uninstall()

    assert scheduler.OBSERVERS == ()
    assert resources.WAITS is None
    assert sockets.RING_CHECK is None
    assert _class_dicts() == pristine


def test_nested_uninstall_mid_stack_leaves_outer_layers_working(disarmed):
    """Disarming one tool leaves the others armed and observing."""
    sanitizer.install()
    waitfor.install()
    _run_stalling_workload()
    sanitizer.uninstall()  # out of arming order
    waitfor.reset_stats()
    _run_stalling_workload()  # the wait-for graph must still be live
    assert waitfor.idle_report() is not None
    waitfor.uninstall()
    assert scheduler.OBSERVERS == ()
