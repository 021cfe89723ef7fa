"""Fixture pairs for every simlint rule: one that fires, one that stays
silent.  Each rule is exercised through :func:`repro.analysis.lint_source`
exactly as the CLI drives it (pragmas and path handling included)."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.core import LintContext
from repro.analysis.rules import RULES_BY_CODE


def lint(source: str, path: str = "repro/core/example.py",
         rule: str = None, known_families: set = None):
    ctx = LintContext(known_families=known_families)
    findings = lint_source(textwrap.dedent(source), path, ctx=ctx)
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


def codes(findings):
    return sorted({f.rule for f in findings})


# -- SIM001: determinism ----------------------------------------------------


def test_sim001_fires_on_wall_clock_and_random():
    findings = lint(
        """
        import random
        import time

        def stamp():
            return time.time()
        """,
        rule="SIM001",
    )
    assert len(findings) == 2
    assert findings[0].line == 2  # the import
    assert "time.time()" in findings[1].message


def test_sim001_silent_on_seeded_stream_and_sim_clock():
    findings = lint(
        """
        from repro.sim.rand import RandomStream

        def jitter(env, stream):
            return env.now + stream.uniform(0.0, 1e-6)
        """,
        rule="SIM001",
    )
    assert findings == []


def test_sim001_allowlists_the_rand_module_itself():
    source = "import random\n"
    assert lint(source, path="src/repro/sim/rand.py", rule="SIM001") == []
    assert len(lint(source, path="repro/core/x.py", rule="SIM001")) == 1


# -- SIM002: lost event -----------------------------------------------------


def test_sim002_fires_on_discarded_event_in_generator():
    findings = lint(
        """
        def proc(env, store):
            env.timeout(1.0)
            store.get()
            yield env.timeout(2.0)
        """,
        rule="SIM002",
    )
    assert len(findings) == 2
    assert "timeout" in findings[0].message
    assert "get" in findings[1].message


def test_sim002_silent_when_yielded_stored_or_returned():
    findings = lint(
        """
        def proc(env, store):
            first = env.timeout(1.0)
            yield first
            yield store.get()
            return env.timeout(0.0)
        """,
        rule="SIM002",
    )
    assert findings == []


def test_sim002_ignores_non_generator_functions():
    # A plain function's return values are the caller's business.
    findings = lint(
        """
        def helper(env):
            env.timeout(1.0)
        """,
        rule="SIM002",
    )
    assert findings == []


# -- SIM003: yield-point atomicity ------------------------------------------


def test_sim003_fires_on_rmw_spanning_yield():
    findings = lint(
        """
        def drain(self, env):
            pending = self.pending
            yield env.timeout(1.0)
            self.pending = pending - 1
        """,
        rule="SIM003",
    )
    assert len(findings) == 1
    assert "self.pending" in findings[0].message


def test_sim003_silent_when_reread_after_yield_or_no_yield_between():
    findings = lint(
        """
        def fixed(self, env):
            yield env.timeout(1.0)
            pending = self.pending
            self.pending = pending - 1

        def no_yield_between(self, env):
            pending = self.pending
            self.pending = pending - 1
            yield env.timeout(1.0)
        """,
        rule="SIM003",
    )
    assert findings == []


# -- SIM004: unbounded growth ------------------------------------------------


def test_sim004_fires_on_unpruned_long_lived_list():
    findings = lint(
        """
        class Log:
            def __init__(self):
                self.entries = []

            def record(self, item):
                self.entries.append(item)
        """,
        rule="SIM004",
    )
    assert len(findings) == 1
    assert "self.entries" in findings[0].message


def test_sim004_silent_when_pruned_or_capped():
    findings = lint(
        """
        class Window:
            def __init__(self):
                self.entries = []

            def record(self, item):
                self.entries.append(item)
                if len(self.entries) > 100:
                    self.entries.pop(0)

        class Rolled:
            def __init__(self):
                self.entries = []

            def record(self, item):
                self.entries.append(item)

            def roll(self):
                self.entries = self.entries[-10:]
        """,
        rule="SIM004",
    )
    assert findings == []


def test_sim004_module_level_list():
    fired = lint(
        """
        EVENTS = []

        def note(e):
            EVENTS.append(e)
        """,
        rule="SIM004",
    )
    assert len(fired) == 1
    silent = lint(
        """
        EVENTS = []

        def note(e):
            EVENTS.append(e)

        def flush():
            EVENTS.clear()
        """,
        rule="SIM004",
    )
    assert silent == []


def test_sim004_pragma_suppresses_inline_and_comment_line():
    findings = lint(
        """
        class Log:
            def __init__(self):
                self.entries = []
                self.audit = []

            def record(self, item):
                self.entries.append(item)  # simlint: disable=SIM004

            def note(self, item):
                # Bounded by construction: callers cap at 10 entries.
                # simlint: disable=SIM004
                self.audit.append(item)
        """,
        rule="SIM004",
    )
    assert findings == []


# -- SIM005: telemetry naming ------------------------------------------------


def test_sim005_fires_on_malformed_metric_and_kind():
    findings = lint(
        """
        def bump(emit, env):
            counter_inc("repro.Socket.Sends")
            counter_inc("other.socket.sends")
            emit(env, "BadKind")
        """,
        rule="SIM005",
    )
    assert len(findings) == 3


def test_sim005_family_cross_check():
    source = """
        def bump():
            counter_inc("repro.sokcet.sends")
            counter_inc("repro.socket.sends")
        """
    fired = lint(source, rule="SIM005",
                 known_families={"repro.socket"})
    assert len(fired) == 1
    assert "repro.sokcet" in fired[0].message
    # Without a known-family set the cross-check is disabled.
    assert lint(source, rule="SIM005") == []


def test_sim005_silent_on_well_named_sites():
    findings = lint(
        """
        def bump(emit, env, registry, host):
            counter_inc("repro.socket.sends")
            registry.gauge(f"repro.host.{host}.cpu_pct")
            emit(env, "flow.rebind", generation=2)
        """,
        rule="SIM005",
        known_families={"repro.socket", "repro.host"},
    )
    assert findings == []


# -- SIM006: flow-state ownership --------------------------------------------


def test_sim006_fires_outside_flows_module():
    findings = lint(
        """
        def hack(flow):
            flow.state = FlowState.BROKEN

        def sneak(conn, value):
            conn.state = value
        """,
        rule="SIM006",
    )
    assert len(findings) == 2


def test_sim006_silent_in_owner_module_and_for_other_state_machines():
    source = """
        def legal(flow):
            flow.state = FlowState.ACTIVE
        """
    assert lint(source, path="repro/core/flows.py", rule="SIM006") == []
    # verbs.py's QP state machine owns its own .state: self is not flow-ish
    # and the RHS never mentions FlowState.
    findings = lint(
        """
        class QueuePair:
            def modify(self, new_state):
                self.state = new_state
        """,
        rule="SIM006",
    )
    assert findings == []


# -- SIM007: bare assert -----------------------------------------------------


def test_sim007_fires_in_library_code_only():
    source = """
        def check(x):
            assert x > 0
        """
    fired = lint(source, path="repro/core/x.py", rule="SIM007")
    assert len(fired) == 1
    assert "python -O" in fired[0].message
    assert lint(source, path="tests/core/test_x.py", rule="SIM007") == []


def test_sim007_silent_on_typed_raise():
    findings = lint(
        """
        def check(x):
            if x <= 0:
                raise ValueError(f"x must be positive, got {x}")
        """,
        rule="SIM007",
    )
    assert findings == []


def test_sim007_exempts_test_functions_of_collected_bench_files():
    source = """
        def _helper(x):
            assert x > 0
            return x

        def test_shape():
            assert _helper(1) == 1

        class TestShape:
            def test_method(self):
                assert _helper(2) == 2
        """
    fired = lint(source, path="benchmarks/bench_x.py", rule="SIM007")
    assert [f.snippet for f in fired] == ["assert x > 0"]
    # A module pytest does not collect gets no exemption.
    assert len(lint(source, path="benchmarks/common.py", rule="SIM007")) == 3


def test_sim007_collected_file_patterns_match_pytest_config():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[2]
    config = tomllib.loads((root / "pyproject.toml").read_text())
    python_files = config["tool"]["pytest"]["ini_options"]["python_files"]
    assert tuple(python_files) == RULES_BY_CODE["SIM007"].PYTEST_FILES


# -- SIM008: per-message cq.wait() in a loop ---------------------------------


def test_sim008_fires_on_cq_wait_in_loop():
    findings = lint(
        """
        def pump(qp):
            while True:
                wc = yield from qp.recv_cq.wait()
                handle(wc)
        """,
        rule="SIM008",
    )
    assert len(findings) == 1
    assert "wait_batch" in findings[0].message
    assert "recv_cq.wait()" in findings[0].snippet


def test_sim008_silent_on_wait_batch_and_one_shot_wait():
    findings = lint(
        """
        def pump(qp):
            while True:
                wcs = yield from qp.recv_cq.wait_batch()
                for wc in wcs:
                    handle(wc)

        def one_shot(cq, request):
            wc = yield from cq.wait()
            result = yield from request.wait()  # not a CQ
            return wc, result

        def other_waits(queue):
            while True:
                yield from queue.wait()  # not CQ-named
        """,
        rule="SIM008",
    )
    assert findings == []


def test_sim008_library_code_only_and_nested_loops_dedup():
    source = """
        def pump(cq):
            for _ in range(2):
                while True:
                    yield from cq.wait()
        """
    fired = lint(source, path="repro/core/x.py", rule="SIM008")
    assert len(fired) == 1  # nested loops report the call once
    assert lint(source, path="tests/core/test_x.py", rule="SIM008") == []


# -- SIM009: unbounded accumulation in telemetry/monitor paths ---------------


def test_sim009_fires_on_dynamic_key_dict_without_eviction():
    findings = lint(
        """
        class PerFlowCounts:
            def __init__(self):
                self.by_flow = {}
                self.meta = {}

            def record(self, flow, nbytes):
                self.by_flow[flow] = self.by_flow.get(flow, 0) + nbytes
                self.meta.setdefault(flow, []).append(nbytes)
        """,
        path="repro/telemetry/example.py",
        rule="SIM009",
    )
    assert len(findings) == 2
    assert {"self.by_flow" in f.message or "self.meta" in f.message
            for f in findings} == {True}
    assert "SpaceSaving" in findings[0].message


def test_sim009_silent_on_pruned_bounded_and_static_key_dicts():
    findings = lint(
        """
        class BoundedCounts:
            def __init__(self):
                self.memo = {}
                self.entries = {}
                self.totals = {}

            def record(self, key, value):
                if len(self.memo) >= 64:
                    self.memo.clear()
                self.memo[key] = value
                if len(self.entries) >= 32:
                    victim = min(self.entries)
                    del self.entries[victim]
                self.entries[key] = value
                self.totals["bytes"] = value  # fixed label set
        """,
        path="repro/telemetry/example.py",
        rule="SIM009",
    )
    assert findings == []


def test_sim009_scoped_to_telemetry_and_monitor_paths():
    source = """
        class Cache:
            def __init__(self):
                self.slots = {}

            def put(self, key, value):
                self.slots[key] = value
        """
    assert lint(source, path="repro/core/cache.py", rule="SIM009") == []
    assert lint(source, path="tests/telemetry/test_x.py",
                rule="SIM009") == []
    fired = lint(source, path="repro/sim/monitor.py", rule="SIM009")
    assert len(fired) == 1


# -- infrastructure ----------------------------------------------------------


def test_disable_file_pragma_and_rule_registry():
    findings = lint(
        """
        # simlint: disable-file=SIM007
        def check(x):
            assert x > 0
        """,
        rule="SIM007",
    )
    assert findings == []
    assert set(RULES_BY_CODE) == {
        "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
        "SIM007", "SIM008", "SIM009", "SIM010", "SIM011", "SIM012",
    }


def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n", "repro/x.py")
    assert [f.rule for f in findings] == ["SIM000"]
