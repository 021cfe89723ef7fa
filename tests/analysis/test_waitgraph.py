"""Static interprocedural wait/credit analysis: SIM010, SIM011, SIM012.

The seeded deadlock fixture (credits returned in the reverse of the
documented acquisition order) must be caught here by SIM010 *and* by
the runtime wait-for graph (``test_waitfor.py``) — the two halves of
the same checker.
"""

from __future__ import annotations

import textwrap

from repro.analysis.core import LintContext, lint_paths, lint_source


def lint(source: str, path: str = "repro/core/example.py",
         rule: str = None):
    ctx = LintContext()
    findings = lint_source(textwrap.dedent(source), path, ctx=ctx)
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


REVERSED_CREDIT_ORDER = """
class Peer:
    def __init__(self, env):
        self._tx_lock = Resource(env, capacity=1)
        self._credits = Tank(env, capacity=64, initial=64)

    def drain(self):
        with self._tx_lock.request() as claim:
            yield claim
            yield self._credits.get(1)
            self._staged += 1

    def refill(self):
        yield self._credits.get(64)
        with self._tx_lock.request() as claim:
            yield claim
            yield self._credits.put(64)
"""


# -- SIM010: hold-and-wait cycles -------------------------------------------


def test_sim010_reversed_credit_order_names_both_resources():
    """The seeded fixture: drain holds the lock then draws credits;
    refill draws credits then takes the lock.  Both sites report, and
    every message names the full ring."""
    findings = lint(REVERSED_CREDIT_ORDER, rule="SIM010")
    assert len(findings) == 2
    for finding in findings:
        assert "Peer._tx_lock" in finding.message
        assert "Peer._credits" in finding.message


def test_sim010_silent_on_consistent_order():
    findings = lint(
        """
        class Peer:
            def __init__(self, env):
                self._tx_lock = Resource(env, capacity=1)
                self._credits = Tank(env, capacity=64, initial=64)

            def drain(self):
                with self._tx_lock.request() as claim:
                    yield claim
                    yield self._credits.get(1)
                    self._staged += 1

            def refill(self):
                with self._tx_lock.request() as claim:
                    yield claim
                    yield self._credits.get(64)
                    yield self._credits.put(64)
        """,
        rule="SIM010",
    )
    assert findings == []


def test_sim010_fires_on_lock_self_reentry():
    """A non-reentrant FIFO lock re-requested while held is a
    self-deadlock even with no second resource involved."""
    findings = lint(
        """
        class Worker:
            def __init__(self, env):
                self._lock = Resource(env, capacity=1)

            def outer(self):
                with self._lock.request() as outer_claim:
                    yield outer_claim
                    with self._lock.request() as inner_claim:
                        yield inner_claim
        """,
        rule="SIM010",
    )
    assert findings
    assert all("Worker._lock" in f.message for f in findings)


def test_sim010_sees_acquisitions_through_helper_calls():
    """The cycle only exists interprocedurally: ``locked_draw`` debits
    the tank via ``yield from self._draw()``."""
    findings = lint(
        """
        class Peer:
            def __init__(self, env):
                self._lock = Resource(env, capacity=1)
                self._credits = Tank(env, capacity=8, initial=8)

            def locked_draw(self):
                with self._lock.request() as claim:
                    yield claim
                    yield from self._draw()

            def _draw(self):
                yield self._credits.get(1)
                self._held += 1

            def refill(self):
                yield self._credits.get(8)
                with self._lock.request() as claim:
                    yield claim
                    yield self._credits.put(8)
        """,
        rule="SIM010",
    )
    assert findings
    assert any("Peer._credits" in f.message
               and "Peer._lock" in f.message for f in findings)


def test_sim010_pragma_suppresses():
    """A pragma on each participating edge site silences the cycle."""
    source = """
    class Peer:
        def __init__(self, env):
            self._tx_lock = Resource(env, capacity=1)
            self._credits = Tank(env, capacity=64, initial=64)

        def drain(self):
            with self._tx_lock.request() as claim:
                yield claim
                yield self._credits.get(1)  # simlint: disable=SIM010
                self._staged += 1

        def refill(self):
            yield self._credits.get(64)
            # simlint: disable=SIM010
            with self._tx_lock.request() as claim:
                yield claim
                yield self._credits.put(64)
    """
    assert lint(source, rule="SIM010") == []


# -- SIM011: unsafe holds across parks --------------------------------------


def test_sim011_fires_on_bare_request_held_across_park():
    findings = lint(
        """
        class Pump:
            def __init__(self, env):
                self._lock = Resource(env, capacity=1)
                self._inbox = Store(env)

            def pump(self):
                req = self._lock.request()
                yield req
                item = yield self._inbox.get()
                req.cancel()
                return item
        """,
        rule="SIM011",
    )
    assert len(findings) == 1
    assert "Pump._lock" in findings[0].message


def test_sim011_silent_on_context_manager_hold():
    findings = lint(
        """
        class Pump:
            def __init__(self, env):
                self._lock = Resource(env, capacity=1)
                self._inbox = Store(env)

            def pump(self):
                with self._lock.request() as claim:
                    yield claim
                    item = yield self._inbox.get()
                return item
        """,
        rule="SIM011",
    )
    assert findings == []


def test_sim011_silent_when_released_in_finally():
    findings = lint(
        """
        class Pump:
            def __init__(self, env):
                self._lock = Resource(env, capacity=1)
                self._inbox = Store(env)

            def pump(self):
                req = self._lock.request()
                yield req
                try:
                    item = yield self._inbox.get()
                finally:
                    req.cancel()
                return item
        """,
        rule="SIM011",
    )
    assert findings == []


# -- SIM012: debit/credit imbalance ------------------------------------------


def test_sim012_fires_on_debit_parked_before_banking():
    findings = lint(
        """
        class Sender:
            def __init__(self, env):
                self._credits = Tank(env, capacity=64, initial=64)
                self._wire = Store(env)

            def send(self, env, nbytes):
                yield self._credits.get(nbytes)
                yield env.timeout(1e-6)
                self._wire.put(nbytes)
        """,
        rule="SIM012",
    )
    assert len(findings) == 1
    assert "Sender._credits" in findings[0].message


def test_sim012_silent_when_banked_before_park():
    findings = lint(
        """
        class Sender:
            def __init__(self, env):
                self._credits = Tank(env, capacity=64, initial=64)
                self._wire = Store(env)

            def send(self, env, nbytes):
                yield self._credits.get(nbytes)
                self._wire.put(nbytes)
                yield env.timeout(1e-6)
        """,
        rule="SIM012",
    )
    assert findings == []


def test_sim012_silent_when_repaid_by_inverse_op():
    findings = lint(
        """
        class Sender:
            def __init__(self, env):
                self._credits = Tank(env, capacity=64, initial=64)

            def borrow(self, env, nbytes):
                yield self._credits.get(nbytes)
                yield self._credits.put(nbytes)
                yield env.timeout(1e-6)
        """,
        rule="SIM012",
    )
    assert findings == []


def test_sim012_window_tank_debits_by_put():
    """A bounded window tank (no ``initial``) is debited by ``put`` —
    the opposite polarity of a credit tank."""
    findings = lint(
        """
        class Ring:
            def __init__(self, env):
                self._ring = Tank(env, capacity=1024)
                self._wire = Store(env)

            def stage(self, env, nbytes):
                yield self._ring.put(nbytes)
                yield env.timeout(1e-6)
                self._wire.put(nbytes)
        """,
        rule="SIM012",
    )
    assert len(findings) == 1
    assert "Ring._ring" in findings[0].message


# -- integration -------------------------------------------------------------


def test_lint_paths_runs_the_project_pass(tmp_path):
    """``lint_paths`` builds one whole-program analysis over the file
    set and the per-file rules read their findings out of it."""
    bad = tmp_path / "repro" / "peer.py"
    bad.parent.mkdir()
    bad.write_text(textwrap.dedent(REVERSED_CREDIT_ORDER))
    findings = lint_paths([str(bad)])
    # SIM012 also legitimately fires: refill parks on the lock with 64
    # un-banked credits drawn (an interrupt there leaks the window).
    assert sorted({f.rule for f in findings}) == ["SIM010", "SIM012"]


def test_waitgraph_rules_skip_test_files():
    findings = lint(REVERSED_CREDIT_ORDER,
                    path="tests/core/test_peer.py")
    assert [f for f in findings if f.rule == "SIM010"] == []
