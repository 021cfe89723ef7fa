"""Runtime wait-for graph: park tracking, lock-cycle raises, tank
ownership ledgers, and the idle ownership report.

``test_waitgraph.py`` proves the *static* half catches the seeded
reversed-credit deadlock; this file proves the *runtime* half catches
the same fixture live, naming both resources in the ownership chain.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis import waitfor
from repro.errors import DeadlockDetected
from repro.sim import Environment, resources, scheduler
from repro.sim.resources import Resource, Store, Tank


@pytest.fixture
def armed():
    """Arm the wait-for graph for one test, restoring prior state after
    (a no-op install when the suite runs with REPRO_WAITFOR=1)."""
    was_installed = waitfor.installed()
    waitfor.install()
    waitfor.reset_stats()
    yield waitfor
    if was_installed:
        waitfor.reset_stats()
    else:
        waitfor.uninstall()


# -- lock cycles raise at park time ------------------------------------------


def test_abba_lock_cycle_raises_naming_both_locks(armed):
    env = Environment()
    lock_a = Resource(env, label="lock-a")
    lock_b = Resource(env, label="lock-b")

    def forward():
        with lock_a.request() as claim_a:
            yield claim_a
            yield env.timeout(1e-6)
            with lock_b.request() as claim_b:
                yield claim_b

    def backward():
        with lock_b.request() as claim_b:
            yield claim_b
            yield env.timeout(1e-6)
            with lock_a.request() as claim_a:
                yield claim_a

    env.process(forward())
    env.process(backward())
    with pytest.raises(DeadlockDetected) as exc_info:
        env.run()
    message = str(exc_info.value)
    assert "lock-a" in message and "lock-b" in message
    assert "forward" in message and "backward" in message
    assert armed.stats()["violations"] == 1


def test_lock_self_reentry_raises(armed):
    env = Environment()
    lock = Resource(env, label="non-reentrant")

    def reenter():
        with lock.request() as outer:
            yield outer
            with lock.request() as inner:
                yield inner

    env.process(reenter())
    with pytest.raises(DeadlockDetected, match="non-reentrant"):
        env.run()


def test_plain_lock_contention_does_not_raise(armed):
    """Sequential contention (no cycle) must pass untouched."""
    env = Environment()
    lock = Resource(env, label="shared")
    order = []

    def worker(tag):
        with lock.request() as claim:
            yield claim
            order.append(tag)
            yield env.timeout(1e-6)

    env.process(worker("first"))
    env.process(worker("second"))
    env.run()
    assert order == ["first", "second"]
    assert armed.stats()["parks"] >= 1
    assert armed.stats()["violations"] == 0


# -- tank backpressure: report, never raise ----------------------------------


def test_tank_backpressure_reports_instead_of_raising(armed):
    env = Environment()
    window = Tank(env, capacity=100, label="window")

    def filler():
        yield window.put(80)
        yield window.put(50)  # never fits: nobody drains

    env.process(filler())
    env.run()  # must NOT raise
    idle = armed.idle_report()
    assert idle is not None
    (parked,) = idle["parked"]
    assert parked["waits_on"] == "window"
    assert parked["kind"] == "tank-put"
    assert parked["amount"] == 50
    assert parked["holders"] == [
        {"process": "filler", "holds": "occupancy", "amount": 80}
    ]


def test_runtime_catches_reversed_credit_fixture(armed):
    """The seeded deadlock: drain holds the lock waiting for credits;
    refill drew every credit and waits for the lock.  Mixed lock/tank
    ring, so no raise — but the idle report must name BOTH resources
    and the full ownership chain."""
    env = Environment()
    credits = Tank(env, capacity=64, initial=64, label="peer.credits")
    tx_lock = Resource(env, label="peer.tx-lock")

    def drain():
        with tx_lock.request() as claim:
            yield claim
            yield env.timeout(1e-6)
            yield credits.get(64)

    def refill():
        yield credits.get(64)
        with tx_lock.request() as claim:
            yield claim
            yield credits.put(64)

    env.process(drain())
    env.process(refill())
    env.run()
    idle = armed.idle_report()
    assert idle is not None
    by_resource = {entry["waits_on"]: entry for entry in idle["parked"]}
    assert set(by_resource) == {"peer.credits", "peer.tx-lock"}
    credit_wait = by_resource["peer.credits"]
    assert credit_wait["process"] == "drain"
    assert credit_wait["holders"] == [
        {"process": "refill", "holds": "credit", "amount": 64}
    ]
    lock_wait = by_resource["peer.tx-lock"]
    assert lock_wait["process"] == "refill"
    assert lock_wait["holders"] == [
        {"process": "drain", "holds": "slot", "amount": None}
    ]


def test_ledger_repays_fifo(armed):
    """Credits return to the oldest outstanding debit first, matching
    the tank's own FIFO grant order."""
    env = Environment()
    credits = Tank(env, capacity=100, initial=100, label="credits")

    def taker(amount):
        yield credits.get(amount)
        yield env.timeout(1.0)  # hold the credit past the repayment

    env.process(taker(10))
    second = env.process(taker(5))

    def repay():
        yield env.timeout(1e-6)
        yield credits.put(12)  # clears the 10, leaves 3 of the 5

    env.process(repay())
    env.run()
    sign, entries = armed._graph(env).ledgers[credits]
    assert sign == -1  # net credit holders outstanding
    assert [(p, n) for p, n in entries] == [(second, 3)]


# -- store waits and resume ---------------------------------------------------


def test_store_wait_purged_on_delivery(armed):
    env = Environment()
    inbox = Store(env, label="inbox")
    got = []

    def consumer():
        item = yield inbox.get()
        got.append(item)

    def producer():
        yield env.timeout(1e-6)
        inbox.put("payload")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == ["payload"]
    assert armed.idle_report() is None  # nothing left parked
    assert armed.stats()["parks"] >= 1


def test_live_report_names_store_wait(armed):
    env = Environment()
    inbox = Store(env, label="inbox")

    def consumer():
        yield inbox.get()

    env.process(consumer())
    env.run()
    snapshot = armed.report(env)
    (parked,) = snapshot["parked"]
    assert parked == {"process": "consumer", "waits_on": "inbox",
                      "kind": "store-get", "amount": None, "holders": []}


# -- one graph per simulation -------------------------------------------------


def _parked_simulation(name: str) -> Environment:
    """A simulation whose one process parks on ``<name>-inbox``."""
    env = Environment()
    inbox = Store(env, label=f"{name}-inbox")

    def consumer():
        yield inbox.get()

    env.process(consumer())
    env.run()
    return env


def test_idle_report_names_only_its_own_simulation(armed):
    first = _parked_simulation("a")
    assert [entry["waits_on"] for entry in armed.idle_report()["parked"]] \
        == ["a-inbox"]
    second = _parked_simulation("b")
    assert [entry["waits_on"] for entry in armed.idle_report()["parked"]] \
        == ["b-inbox"]
    assert [entry["waits_on"] for entry in armed.report(first)["parked"]] \
        == ["a-inbox"]
    assert [entry["waits_on"] for entry in armed.report(second)["parked"]] \
        == ["b-inbox"]


def test_unlabeled_names_restart_in_each_simulation(armed):
    """Default names are numbered per simulation, so a report does not
    depend on what ran before it under the same arming."""
    names = []
    for _ in range(2):
        env = Environment()
        Tank(env, capacity=8)  # never waited on: takes no name
        window = Tank(env, capacity=8)

        def filler(window=window):
            yield window.put(8)
            yield window.put(1)

        env.process(filler())
        env.run()
        names.append([entry["waits_on"]
                      for entry in armed.report(env)["parked"]])
    assert names == [["tank#1"], ["tank#1"]]


def test_dropped_simulation_with_parked_processes_is_freed(armed):
    alive = weakref.ref(_parked_simulation("dropped"))
    gc.collect()
    assert alive() is None


# -- lifecycle ----------------------------------------------------------------


@pytest.fixture
def disarmed():
    """Run with the wait-for graph off, re-arming it afterwards when the
    suite runs with REPRO_WAITFOR=1."""
    was_installed = waitfor.installed()
    waitfor.uninstall()
    yield
    if was_installed:
        waitfor.install()


def test_install_is_idempotent_and_uninstall_restores(disarmed):
    others = scheduler.OBSERVERS
    waitfor.install()
    waitfor.install()  # no double arming
    assert waitfor.installed()
    assert resources.WAITS is not None
    assert len(scheduler.OBSERVERS) == len(others) + 1
    waitfor.uninstall()
    waitfor.uninstall()  # no-op
    assert not waitfor.installed()
    assert resources.WAITS is None
    assert scheduler.OBSERVERS == others


def test_report_when_not_installed(disarmed):
    assert waitfor.report(Environment()) == {"installed": False}
    assert waitfor.stats() == {"installed": False}
    assert waitfor.idle_report() is None
