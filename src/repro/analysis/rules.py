"""simlint rules: FreeFlow-repro-specific invariants.

The advertised range is never hardcoded — :func:`rule_range` derives it
from the registry (:data:`ALL_RULES`), currently SIM001–SIM012.

Each rule is a small AST pass.  They are deliberately narrow — tuned to
how *this* codebase expresses the pattern — because a repo-specific
linter earns its keep by being quiet: a rule that cries wolf gets
pragma'd into noise.  Where a rule cannot decide statically (a metric
name built entirely from variables, a loop back-edge), it stays silent;
the runtime sanitizer (:mod:`repro.analysis.sanitizer`) is the dynamic
complement that catches what escapes here.

Rule index:

* **SIM001** determinism — no wall clock / unseeded randomness in
  ``src/repro`` outside the ``sim/rand.py`` allowlist;
* **SIM002** lost event — an Event/Timeout/Store operation created in a
  sim-process generator but neither yielded, stored, nor returned;
* **SIM003** yield-point atomicity — read-modify-write of ``self.*``
  spanning a ``yield`` (state can change while the process is parked);
* **SIM004** unbounded growth — ``.append`` onto a long-lived list that
  is never pruned anywhere in its class/module;
* **SIM005** telemetry naming — metric literals must match
  ``repro.[a-z0-9_.]+`` and belong to a family the registry knows;
  event kinds must be lowercase dotted names;
* **SIM006** flow-state ownership — ``.state`` on flow connections is
  assigned only inside ``core/flows.py`` (the FlowTable state machine);
* **SIM007** no bare ``assert`` in library code — asserts vanish under
  ``python -O``; raise a typed error from :mod:`repro.errors`;
* **SIM008** per-message completion wait — ``cq.wait()`` inside a loop
  wakes the scheduler once per message; drain with
  ``CompletionQueue.wait_batch()`` so one wake applies a burst;
* **SIM009** unbounded accumulation — a telemetry/monitor dict keyed by
  runtime values (flow labels, host names) that is never pruned; a
  monitor must cost O(1) memory, so evict, bound, or sketch it;
* **SIM010** wait-cycle — two paths acquire/wait on the same pair of
  blocking resources in opposite order (interprocedural, via
  :mod:`repro.analysis.waitgraph`);
* **SIM011** unsafe hold — a blocking wait while holding a bare
  (non-context-manager) resource request with no exception-safe
  release;
* **SIM012** debit/credit imbalance — a Tank debit reachable from a
  path that can raise or return without the matching credit.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatch
from typing import Iterator, Optional

from .core import Finding, LintContext

__all__ = [
    "Rule",
    "ALL_RULES",
    "RULES_BY_CODE",
    "rule_range",
    "DeterminismRule",
    "LostEventRule",
    "YieldAtomicityRule",
    "UnboundedGrowthRule",
    "TelemetryNamingRule",
    "FlowStateOwnershipRule",
    "BareAssertRule",
    "PerMessageCqWaitRule",
    "UnboundedAccumulationRule",
    "WaitCycleRule",
    "UnsafeHoldRule",
    "CreditImbalanceRule",
]


class Rule:
    """Base class: one code, one summary, one AST pass.

    Each concrete rule carries its user-facing documentation with it:
    the class docstring explains the invariant and the fix, and
    ``example_bad``/``example_good`` are a minimal fixture pair —
    ``python -m repro lint --explain CODE`` prints all three, and a
    consistency test asserts the bad example fires and the good one
    stays silent, so the documentation can never rot.
    """

    code = "SIM000"
    summary = ""
    #: Minimal source that trips the rule / its fixed twin.
    example_bad = ""
    example_good = ""
    #: Display path the examples are linted under (some rules scope by
    #: location, e.g. SIM009 applies to telemetry modules only).
    example_path = "repro/core/example.py"

    def check(
        self, tree: ast.Module, path: str, lines: list, ctx: LintContext
    ) -> list[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str,
                lines: list) -> Finding:
        line = getattr(node, "lineno", 1)
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return Finding(self.code, path, line,
                       getattr(node, "col_offset", 0), message, snippet)


def _in_tests(path: str) -> bool:
    return path.startswith("tests/") or "/tests/" in path


def _is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _walk_own_scope(body: list) -> Iterator[ast.AST]:
    """Walk statements/expressions of one function body, skipping nested
    function and class scopes (their yields/statements are not ours)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


def _is_generator(fn: ast.FunctionDef) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in _walk_own_scope(fn.body))


# ---------------------------------------------------------------------------
# SIM001 — determinism
# ---------------------------------------------------------------------------


class DeterminismRule(Rule):
    """Simulation code must be a pure function of the seed: the wall
    clock (``time.time``, ``datetime.now``) and unseeded randomness
    (the ``random``/``secrets`` modules, ``os.urandom``) make runs
    unreproducible and break the byte-identical-report CI gates.  Use
    ``env.now`` for time and a named
    :class:`~repro.sim.rand.RandomStream` for randomness."""

    code = "SIM001"
    summary = ("no wall clock / unseeded randomness in simulation code; "
               "use repro.sim.rand.RandomStream")

    example_bad = """\
import time

def stamp():
    return time.time()
"""
    example_good = """\
def stamp(env, stream):
    return env.now + stream.uniform(0.0, 1e-6)
"""

    #: Modules whose import alone is a violation: all their useful entry
    #: points are nondeterministic from the simulation's point of view.
    BANNED_MODULES = {"random", "secrets"}

    #: ``module_or_class -> {attribute}`` calls that read the wall clock
    #: or an OS entropy source.
    BANNED_ATTRS = {
        "time": {"time", "time_ns", "monotonic", "monotonic_ns",
                 "perf_counter", "perf_counter_ns"},
        "datetime": {"now", "utcnow", "today"},
        "date": {"today"},
        "os": {"urandom", "getrandom"},
        "uuid": {"uuid1", "uuid4"},
    }

    #: ``from module import name`` pairs equivalent to the above.
    BANNED_FROM = {
        ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
        ("time", "perf_counter"), ("os", "urandom"),
        ("uuid", "uuid1"), ("uuid", "uuid4"),
    }

    #: The seeded-randomness home (its own ``import random`` is the
    #: point) and the engine profiler (wall-clock attribution is its
    #: job; its deterministic outputs exclude the wall columns).
    ALLOWLIST_SUFFIXES = ("repro/sim/rand.py",
                          "repro/telemetry/profiler.py")

    def check(self, tree, path, lines, ctx):
        if path.endswith(self.ALLOWLIST_SUFFIXES) or _in_tests(path):
            return []
        out: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        out.append(self.finding(
                            path, node,
                            f"import of nondeterministic module "
                            f"{alias.name!r} — use repro.sim.rand."
                            f"RandomStream (seeded) instead", lines))
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[0]
                if module in self.BANNED_MODULES:
                    out.append(self.finding(
                        path, node,
                        f"import from nondeterministic module {module!r} — "
                        f"use repro.sim.rand.RandomStream (seeded) instead",
                        lines))
                    continue
                for alias in node.names:
                    if (module, alias.name) in self.BANNED_FROM:
                        out.append(self.finding(
                            path, node,
                            f"import of nondeterministic "
                            f"{module}.{alias.name} — simulation code must "
                            f"use env.now / seeded streams", lines))
            elif isinstance(node, ast.Call):
                out.extend(self._check_call(node, path, lines))
        return out

    def _check_call(self, call: ast.Call, path, lines):
        func = call.func
        if isinstance(func, ast.Name) and func.id == "hash" and call.args:
            yield self.finding(
                path, call,
                "builtin hash() is salted per interpreter run "
                "(PYTHONHASHSEED) — derive stable keys with "
                "hashlib.sha256 or repro.sim.rand", lines)
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        base_name = None
        if isinstance(base, ast.Name):
            base_name = base.id
        elif isinstance(base, ast.Attribute):
            base_name = base.attr
        if base_name is None:
            return
        banned = self.BANNED_ATTRS.get(base_name)
        if banned and func.attr in banned:
            yield self.finding(
                path, call,
                f"nondeterministic call {base_name}.{func.attr}() — "
                f"simulation code must use env.now (sim clock) or "
                f"repro.sim.rand (seeded)", lines)


# ---------------------------------------------------------------------------
# SIM002 — lost event
# ---------------------------------------------------------------------------


class LostEventRule(Rule):
    """An ``env.timeout()``/``store.get()``-style call in a sim-process
    generator returns an *event* — discarding it either creates an
    event nobody can wait on, or worse (``.get``) consumes an item that
    is then dropped on the floor.  Yield it, store it, or return it."""

    code = "SIM002"
    summary = ("event/store operation created in a generator but neither "
               "yielded, stored, nor returned")

    example_bad = """\
def worker(env):
    env.timeout(1e-6)
    yield env.timeout(1e-6)
"""
    example_good = """\
def worker(env):
    yield env.timeout(1e-6)
    yield env.timeout(1e-6)
"""

    #: Methods whose return value *is* the claim: discarding it either
    #: leaks an event nobody can wait on, or worse (``.get``) consumes an
    #: item that is then dropped on the floor.
    DISCARD_METHODS = {"timeout", "event", "all_of", "any_of", "get"}
    DISCARD_CTORS = {"Timeout", "Event", "AllOf", "AnyOf", "Condition"}

    def check(self, tree, path, lines, ctx):
        out: list[Finding] = []
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or not _is_generator(fn):
                continue
            for node in _walk_own_scope(fn.body):
                if not (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)):
                    continue
                func = node.value.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in self.DISCARD_METHODS):
                    out.append(self.finding(
                        path, node,
                        f".{func.attr}() result discarded inside generator "
                        f"{fn.name!r} — yield it, store it, or return it "
                        f"(a dropped event is a lost wakeup; a dropped "
                        f"get() is a lost item)", lines))
                elif (isinstance(func, ast.Name)
                        and func.id in self.DISCARD_CTORS):
                    out.append(self.finding(
                        path, node,
                        f"{func.id}(...) created and discarded inside "
                        f"generator {fn.name!r} — nobody can ever wait on "
                        f"it", lines))
        return out


# ---------------------------------------------------------------------------
# SIM003 — yield-point atomicity
# ---------------------------------------------------------------------------


class YieldAtomicityRule(Rule):
    """A ``yield`` parks the process: any other process may run and
    mutate shared state before it resumes.  Reading ``self.x`` into a
    local, yielding, then writing the stale local back loses every
    concurrent update.  Re-read after resuming (or do the whole
    read-modify-write on one side of the yield)."""

    code = "SIM003"
    summary = ("read-modify-write of self.* spanning a yield — re-read "
               "after resuming")

    example_bad = """\
class Counter:
    def bump(self, env):
        count = self.pending
        yield env.timeout(1e-6)
        self.pending = count + 1
"""
    example_good = """\
class Counter:
    def bump(self, env):
        yield env.timeout(1e-6)
        self.pending = self.pending + 1
"""

    def check(self, tree, path, lines, ctx):
        out: list[Finding] = []
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and _is_generator(fn):
                _AtomicityScan(self, path, lines, out).run(fn.body)
        return out


class _AtomicityScan:
    """Lexical single pass over one generator body.

    Tracks *carriers* — locals assigned directly from ``self.attr`` —
    together with how many yields had executed at the read.  A later
    ``self.attr = <expr using carrier>`` after additional yields is the
    classic lost-update: the process was parked in between and another
    process may have changed ``self.attr``.

    If/else branches are scanned independently from a snapshot and
    merged (union of carriers, max yield count); loop back-edges are not
    modeled — a single lexical pass keeps the rule predictable.
    """

    def __init__(self, rule: Rule, path: str, lines: list,
                 out: list) -> None:
        self.rule = rule
        self.path = path
        self.lines = lines
        self.out = out
        self.yields = 0
        #: local name -> (attr read from self, yields seen at the read)
        self.carriers: dict = {}

    def run(self, body: list) -> None:
        self._stmts(body)

    def _stmts(self, stmts: list) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            self._count(stmt.value)
            self._assign(stmt)
        elif isinstance(stmt, ast.If):
            self._count(stmt.test)
            snapshot = dict(self.carriers)
            base_yields = self.yields
            self._stmts(stmt.body)
            body_carriers = dict(self.carriers)
            body_yields = self.yields
            self.carriers = dict(snapshot)
            self.yields = base_yields
            self._stmts(stmt.orelse)
            self.carriers.update(body_carriers)
            self.yields = max(self.yields, body_yields)
        elif isinstance(stmt, (ast.For, ast.While)):
            self._count(stmt.iter if isinstance(stmt, ast.For)
                        else stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._count(item.context_expr)
            self._stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
        else:
            self._count(stmt)

    def _count(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                self.yields += 1

    def _assign(self, stmt: ast.Assign) -> None:
        value = stmt.value
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            if _is_self_attr(value):
                self.carriers[name] = (value.attr, self.yields)
            else:
                self.carriers.pop(name, None)
            return
        for target in stmt.targets:
            if not _is_self_attr(target):
                continue
            for sub in ast.walk(value):
                if not (isinstance(sub, ast.Name)
                        and sub.id in self.carriers):
                    continue
                attr, read_yields = self.carriers[sub.id]
                if attr == target.attr and read_yields < self.yields:
                    self.out.append(self.rule.finding(
                        self.path, stmt,
                        f"read-modify-write of self.{attr} spans a yield: "
                        f"{sub.id!r} was read before the process parked — "
                        f"re-read self.{attr} after resuming or update it "
                        f"before yielding", self.lines))
                    break


# ---------------------------------------------------------------------------
# SIM004 — unbounded growth
# ---------------------------------------------------------------------------


class UnboundedGrowthRule(Rule):
    """A list initialized in ``__init__`` and appended to on the hot
    path, with no ``pop``/``clear``/``remove`` anywhere in the class,
    grows for the lifetime of the object — at datacenter scale that is
    an OOM with a delay timer.  Cap it, prune on a schedule, or use a
    bounded deque."""

    code = "SIM004"
    summary = ("append onto a long-lived list that is never pruned — "
               "cap it or prune it")

    example_bad = """\
class Log:
    def __init__(self):
        self.entries = []

    def add(self, item):
        self.entries.append(item)
"""
    example_good = """\
class Log:
    def __init__(self):
        self.entries = []

    def add(self, item):
        self.entries.append(item)
        if len(self.entries) > 64:
            self.entries.pop(0)
"""

    GROW = {"append", "extend", "appendleft"}
    PRUNE = {"pop", "popleft", "clear", "remove"}

    @staticmethod
    def _is_list_value(node: ast.AST) -> bool:
        if isinstance(node, ast.List):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "list")

    def check(self, tree, path, lines, ctx):
        out: list[Finding] = []
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                self._check_class(cls, path, lines, out)
        self._check_module(tree, path, lines, out)
        return out

    def _check_class(self, cls: ast.ClassDef, path, lines, out) -> None:
        # Long-lived lists: attributes initialised to a list in __init__.
        candidates: set = set()
        for node in cls.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "__init__"):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Assign)
                            and len(sub.targets) == 1
                            and _is_self_attr(sub.targets[0])
                            and self._is_list_value(sub.value)):
                        candidates.add(sub.targets[0].attr)
                    elif (isinstance(sub, ast.AnnAssign)
                            and sub.value is not None
                            and _is_self_attr(sub.target)
                            and self._is_list_value(sub.value)):
                        candidates.add(sub.target.attr)
        if not candidates:
            return
        grows: list = []
        pruned: set = set()
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and _is_self_attr(node.func.value)):
                attr = node.func.value.attr
                if node.func.attr in self.GROW:
                    grows.append((attr, node))
                elif node.func.attr in self.PRUNE:
                    pruned.add(attr)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = (target.value
                            if isinstance(target, ast.Subscript)
                            else target)
                    if _is_self_attr(base):
                        pruned.add(base.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    # Reassignment (self.x = self.x[-n:]) or slice store
                    # counts as a prune — but the defining `self.x = []`
                    # in __init__ does not.
                    if (_is_self_attr(target)
                            and not self._is_list_value(node.value)):
                        pruned.add(target.attr)
                    elif (isinstance(target, ast.Subscript)
                            and _is_self_attr(target.value)
                            and isinstance(target.slice, ast.Slice)):
                        pruned.add(target.value.attr)
        for attr, node in grows:
            if attr in candidates and attr not in pruned:
                out.append(self.finding(
                    path, node,
                    f"self.{attr} grows on every call and nothing in class "
                    f"{cls.name!r} ever prunes it — bound it (maxlen, "
                    f"reservoir, rollover) or prune on a schedule", lines))

    def _check_module(self, tree: ast.Module, path, lines, out) -> None:
        candidates = set()
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and self._is_list_value(stmt.value)):
                candidates.add(stmt.targets[0].id)
            elif (isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and isinstance(stmt.target, ast.Name)
                    and self._is_list_value(stmt.value)):
                candidates.add(stmt.target.id)
        if not candidates:
            return
        grows: list = []
        pruned: set = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in candidates):
                if node.func.attr in self.GROW:
                    grows.append((node.func.value.id, node))
                elif node.func.attr in self.PRUNE:
                    pruned.add(node.func.value.id)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = (target.value
                            if isinstance(target, ast.Subscript)
                            else target)
                    if isinstance(base, ast.Name) and base.id in candidates:
                        pruned.add(base.id)
            elif isinstance(node, ast.Assign) and node not in tree.body:
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id in candidates):
                        pruned.add(target.id)
        for name, node in grows:
            if name not in pruned:
                out.append(self.finding(
                    path, node,
                    f"module-level list {name!r} grows and is never pruned "
                    f"— it lives for the whole process; bound it or move "
                    f"it into an object with a lifecycle", lines))


# ---------------------------------------------------------------------------
# SIM005 — telemetry naming
# ---------------------------------------------------------------------------


class TelemetryNamingRule(Rule):
    """Metric name literals must match ``repro.[a-z0-9_.]+`` and (when
    the registry module is in view) belong to a known family; event
    kinds must be lowercase dotted names.  One naming scheme keeps
    dashboards greppable and lets the registry reject typos at
    run time instead of silently creating a parallel series."""

    code = "SIM005"
    summary = ("metric names must match repro.[a-z0-9_.]+ in a registered "
               "family; event kinds must be lowercase dotted names")

    example_bad = """\
from repro.telemetry.registry import counter_inc

def account():
    counter_inc("Socket.Sends")
"""
    example_good = """\
from repro.telemetry.registry import counter_inc

def account():
    counter_inc("repro.socket.sends")
"""

    METRIC_CALLS = {"counter_inc", "histogram_observe",
                    "counter", "gauge", "histogram"}
    METRIC_RE = re.compile(r"^repro(\.[a-z0-9_]+)+$")
    KIND_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

    def check(self, tree, path, lines, ctx):
        out: list[Finding] = []
        in_registry = path.endswith("telemetry/registry.py")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in self.METRIC_CALLS:
                self._check_metric(node, path, lines, ctx, in_registry, out)
            elif name == "emit":
                self._check_kind(node, path, lines, out)
        return out

    def _family(self, literal: str) -> Optional[str]:
        segments = [s for s in literal.split(".") if s]
        if len(segments) >= 2:
            return ".".join(segments[:2])
        return None

    def _check_metric(self, node, path, lines, ctx, in_registry, out):
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
            if not self.METRIC_RE.match(name):
                out.append(self.finding(
                    path, node,
                    f"metric name {name!r} does not match "
                    f"repro.[a-z0-9_.]+ — every metric lives under the "
                    f"repro. namespace, lowercase dotted", lines))
                return
            family = self._family(name)
            if (ctx.known_families is not None and not in_registry
                    and family is not None
                    and family not in ctx.known_families):
                out.append(self.finding(
                    path, node,
                    f"metric family {family!r} is not declared in "
                    f"telemetry/registry.py (KNOWN_FAMILIES or a "
                    f"register_* prefix) — typo, or declare the family",
                    lines))
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            head = arg.values[0]
            if not (isinstance(head, ast.Constant)
                    and isinstance(head.value, str)):
                return  # fully dynamic name: the rule stays silent
            if not head.value.startswith("repro."):
                out.append(self.finding(
                    path, node,
                    f"metric f-string starts with {head.value!r} — every "
                    f"metric name must start with 'repro.'", lines))
                return
            # Family check only when the first two segments are complete
            # (i.e. the literal head contains a second dot).
            if (head.value.count(".") >= 2
                    and ctx.known_families is not None and not in_registry):
                family = self._family(head.value)
                if family is not None and family not in ctx.known_families:
                    out.append(self.finding(
                        path, node,
                        f"metric family {family!r} is not declared in "
                        f"telemetry/registry.py — typo, or declare the "
                        f"family", lines))

    def _check_kind(self, node, path, lines, out):
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                kind = arg.value
                if not self.KIND_RE.match(kind):
                    out.append(self.finding(
                        path, node,
                        f"event kind {kind!r} does not match "
                        f"subject.verb naming ([a-z0-9_] segments joined "
                        f"by dots, e.g. 'flow.rebind')", lines))
                return  # only the first string positional is the kind


# ---------------------------------------------------------------------------
# SIM006 — flow-state ownership
# ---------------------------------------------------------------------------


class FlowStateOwnershipRule(Rule):
    """The flow lifecycle state machine lives in ``core/flows.py``;
    assigning ``.state`` on a flow/connection anywhere else bypasses
    the transition table, its legality checks, and the telemetry
    events it emits.  Call ``FlowTable.transition()`` instead."""

    code = "SIM006"
    summary = ("flow .state is assigned only inside core/flows.py — "
               "use FlowTable.transition()")

    example_bad = """\
def force_active(flow, state):
    flow.state = state
"""
    example_good = """\
def force_active(table, flow, state):
    table.transition(flow, state)
"""

    OWNER_SUFFIX = "core/flows.py"
    FLOWISH = re.compile(r"^(flow|conn)", re.IGNORECASE)

    def check(self, tree, path, lines, ctx):
        if path.endswith(self.OWNER_SUFFIX):
            return []
        out: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr == "state"):
                    continue
                if self._mentions_flowstate(value):
                    out.append(self.finding(
                        path, node,
                        "direct FlowState assignment — flow lifecycle is "
                        "owned by the FlowTable state machine in "
                        "core/flows.py; call table.transition() so the "
                        "legality check, watchers and telemetry fire",
                        lines))
                elif (isinstance(target.value, ast.Name)
                        and self.FLOWISH.match(target.value.id)):
                    out.append(self.finding(
                        path, node,
                        f"assignment to {target.value.id}.state outside "
                        f"core/flows.py — flow state transitions must go "
                        f"through FlowTable.transition()", lines))
        return out

    @staticmethod
    def _mentions_flowstate(value: ast.AST) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id == "FlowState"
                   for sub in ast.walk(value))


# ---------------------------------------------------------------------------
# SIM007 — no bare assert in library code
# ---------------------------------------------------------------------------


class BareAssertRule(Rule):
    """``assert`` statements are compiled away under ``python -O``, so
    a library invariant guarded by one silently stops being checked in
    optimized runs.  Raise a typed error from :mod:`repro.errors`.

    Tests are exempt, because pytest rewrites their asserts: everything
    under ``tests/``, and the ``test*`` functions of any other file
    pytest collects (the bench scripts' pytest entry points).  A bench
    script's helpers also run as a plain program, so they are not."""

    code = "SIM007"
    summary = ("bare assert vanishes under python -O — raise a typed "
               "error from repro.errors")

    example_bad = """\
def reserve(nbytes):
    assert nbytes > 0
    return nbytes
"""
    example_good = """\
def reserve(nbytes):
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    return nbytes
"""

    #: Module names pytest collects (pyproject ``python_files``).
    PYTEST_FILES = ("test_*.py", "bench_*.py")

    def check(self, tree, path, lines, ctx):
        if _in_tests(path):
            return []
        rewritten: set = set()
        name = path.rpartition("/")[2]
        if any(fnmatch(name, pattern) for pattern in self.PYTEST_FILES):
            for fn in ast.walk(tree):
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and fn.name.startswith("test")):
                    rewritten.update(id(node) for node in ast.walk(fn))
        return [
            self.finding(
                path, node,
                "bare assert in library code — it disappears under "
                "python -O and names no invariant; raise the matching "
                "repro.errors type instead", lines)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) and id(node) not in rewritten
        ]


# ---------------------------------------------------------------------------
# SIM008 — per-message completion wait in a loop
# ---------------------------------------------------------------------------


class PerMessageCqWaitRule(Rule):
    """``cq.wait()`` inside a loop wakes the scheduler once per
    completion — the exact per-message overhead the streaming socket
    path exists to amortize (PR 6 measured 3.9–6.8x from batching).
    Drain with ``CompletionQueue.wait_batch()`` so one wake applies a
    burst."""

    code = "SIM008"
    summary = ("cq.wait() inside a loop is one scheduler wake per "
               "message — drain with wait_batch()")

    example_bad = """\
class Dispatcher:
    def run(self):
        while True:
            wc = yield from self.recv_cq.wait()
            self.apply(wc)
"""
    example_good = """\
class Dispatcher:
    def run(self):
        while True:
            wcs = yield from self.recv_cq.wait_batch()
            for wc in wcs:
                self.apply(wc)
"""

    @staticmethod
    def _receiver_name(node: ast.AST) -> Optional[str]:
        """Terminal name of the object ``.wait`` is called on."""
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def check(self, tree, path, lines, ctx):
        if _in_tests(path):
            return []
        # Keyed by position: nested loops walk the same call twice.
        found: dict[tuple, Finding] = {}
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While, ast.AsyncFor)):
                continue
            for node in ast.walk(loop):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "wait"):
                    continue
                name = self._receiver_name(node.func.value)
                if name is None or not name.lower().endswith("cq"):
                    continue
                key = (node.lineno, node.col_offset)
                found.setdefault(key, self.finding(
                    path, node,
                    f"{name}.wait() inside a loop blocks once per "
                    f"completion — one scheduler wake and one poll "
                    f"charge per message; use "
                    f"{name}.wait_batch() to drain a burst per wake "
                    f"(see the streaming socket dispatcher)", lines))
        return list(found.values())


# ---------------------------------------------------------------------------
# SIM009 — unbounded accumulation in telemetry/monitor paths
# ---------------------------------------------------------------------------


class UnboundedAccumulationRule(Rule):
    """Observability code sees every flow, host and event; a dict keyed
    by runtime values (flow labels, host names) that is never pruned
    makes the monitor's memory proportional to everything it ever
    watched.  A monitor must cost O(1): evict, bound, or use a sketch
    (:class:`~repro.telemetry.sketches.SpaceSaving`)."""

    code = "SIM009"
    summary = ("telemetry/monitor dict keyed by runtime values and never "
               "pruned — a monitor must cost O(1) memory; evict, bound, "
               "or sketch it")
    example_path = "repro/telemetry/example.py"

    example_bad = """\
class Monitor:
    def __init__(self):
        self.seen = {}

    def record(self, flow, nbytes):
        self.seen[flow] = nbytes
"""
    example_good = """\
class Monitor:
    def __init__(self):
        self.seen = {}

    def record(self, flow, nbytes):
        self.seen[flow] = nbytes
        while len(self.seen) > 64:
            self.seen.pop(next(iter(self.seen)))
"""

    #: Where the rule applies: observability code, which by design sees
    #: every flow/host/event and therefore must not grow per key it
    #: sees.  SIM004 covers lists repo-wide; this rule covers the
    #: dict-keyed-by-label pattern that telemetry code reaches for.
    SCOPE = ("repro/telemetry/", "repro/sim/monitor.py")

    PRUNE = {"pop", "popitem", "clear"}

    @staticmethod
    def _is_dict_value(node: ast.AST) -> bool:
        if isinstance(node, ast.Dict):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "dict")

    @staticmethod
    def _is_static_key(node: ast.AST) -> bool:
        """Constant keys make a bounded dict (a fixed label set)."""
        return isinstance(node, ast.Constant)

    def check(self, tree, path, lines, ctx):
        if not any(marker in path or path.endswith(marker)
                   for marker in self.SCOPE):
            return []
        if _in_tests(path):
            return []
        out: list[Finding] = []
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                self._check_class(cls, path, lines, out)
        return out

    def _check_class(self, cls: ast.ClassDef, path, lines, out) -> None:
        candidates: set = set()
        for node in cls.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "__init__"):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Assign)
                            and len(sub.targets) == 1
                            and _is_self_attr(sub.targets[0])
                            and self._is_dict_value(sub.value)):
                        candidates.add(sub.targets[0].attr)
                    elif (isinstance(sub, ast.AnnAssign)
                            and sub.value is not None
                            and _is_self_attr(sub.target)
                            and self._is_dict_value(sub.value)):
                        candidates.add(sub.target.attr)
        if not candidates:
            return
        grows: list = []
        pruned: set = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and _is_self_attr(target.value)
                            and not self._is_static_key(target.slice)):
                        grows.append((target.value.attr, node))
                    elif (_is_self_attr(target)
                            and not self._is_dict_value(node.value)):
                        pruned.add(target.attr)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and _is_self_attr(node.func.value)):
                attr = node.func.value.attr
                if (node.func.attr == "setdefault" and node.args
                        and not self._is_static_key(node.args[0])):
                    grows.append((attr, node))
                elif node.func.attr in self.PRUNE:
                    pruned.add(attr)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = (target.value
                            if isinstance(target, ast.Subscript)
                            else target)
                    if _is_self_attr(base):
                        pruned.add(base.attr)
        for attr, node in grows:
            if attr in candidates and attr not in pruned:
                out.append(self.finding(
                    path, node,
                    f"self.{attr} accumulates one entry per runtime key "
                    f"and nothing in class {cls.name!r} ever evicts — "
                    f"telemetry state must be O(1): bound it (ring, "
                    f"capacity cap) or use a sketch "
                    f"(telemetry.sketches.SpaceSaving)", lines))


# ---------------------------------------------------------------------------
# SIM010–SIM012 — interprocedural wait/credit analysis
# ---------------------------------------------------------------------------
#
# The heavy lifting lives in analysis/waitgraph.py (shared resource
# vocabulary with the runtime wait-for graph); these rule classes are
# thin adapters that surface its per-file findings through the normal
# pragma/baseline machinery.


def _project_for(tree: ast.Module, path: str, ctx: LintContext):
    """The whole-program wait analysis, or a single-file fallback.

    ``lint_paths`` pre-builds one :class:`~repro.analysis.waitgraph.
    ProjectWaitGraph` over every collected file (cross-file cycles need
    the global edge set); ``lint_source`` callers without one get a
    single-module analysis, memoized on the context so the three rules
    share one pass per tree.
    """
    project = getattr(ctx, "project", None)
    if project is not None and project.covers(path):
        return project
    cache = ctx.single_cache
    key = id(tree)
    if key not in cache:
        from . import waitgraph
        cache[key] = waitgraph.analyze_modules([(path, tree)])
    return cache[key]


class _WaitGraphRule(Rule):
    """Shared check(): pull this rule's findings out of the analysis."""

    def check(self, tree, path, lines, ctx) -> list:
        if _in_tests(path):
            return []
        project = _project_for(tree, path, ctx)
        out = []
        for line, col, message in project.findings_for(self.code, path):
            snippet = (lines[line - 1].strip()
                       if 0 < line <= len(lines) else "")
            out.append(Finding(self.code, path, line, col, message, snippet))
        return out


class WaitCycleRule(_WaitGraphRule):
    """Two code paths acquire the same pair of blocking resources in
    opposite order (or re-enter a non-reentrant FIFO lock): schedule the
    two paths concurrently and each parks holding what the other needs.
    Every blocking acquisition of a holdable resource (lock request,
    tank debit) while another is held contributes a directed edge to a
    project-wide graph — including across ``yield from self.helper()``
    calls — and any cycle is reported at every participating site.
    The fix is a global acquisition order (the streaming socket path
    documents one: send lock before credit tank, never the reverse)."""

    code = "SIM010"
    summary = ("hold-and-wait cycle: resources acquired in opposite "
               "order on two paths can deadlock")

    example_bad = """\
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
    example_good = """\
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
"""


class UnsafeHoldRule(_WaitGraphRule):
    """A lock acquired outside any ``with`` block (bare ``req =
    r.request()`` … ``yield req``) is still held at a later park, raise,
    or function end with no ``try/finally``-protected release.  If the
    parked process is interrupted or the wait raises, the slot leaks and
    every later requester blocks forever.  Use the context-manager form
    (``with r.request() as claim: yield claim``) — its ``__exit__``
    releases on every path — or release in a ``finally``."""

    code = "SIM011"
    summary = ("blocking wait while holding a bare (non-context-manager) "
               "resource request with no exception-safe release")

    example_bad = """\
class Pump:
    def __init__(self, env):
        self._lock = Resource(env, capacity=1)
        self._inbox = Store(env)

    def pump(self):
        req = self._lock.request()
        yield req
        item = yield self._inbox.get()
        self._lock.release(req)
        return item
"""
    example_good = """\
class Pump:
    def __init__(self, env):
        self._lock = Resource(env, capacity=1)
        self._inbox = Store(env)

    def pump(self):
        with self._lock.request() as claim:
            yield claim
            item = yield self._inbox.get()
        return item
"""


class CreditImbalanceRule(_WaitGraphRule):
    """A tank debit (credits drawn from a credit tank, or bytes reserved
    in a bounded window tank) reaches a park, ``raise`` or ``return``
    before the debited amount is credited back, banked into object state
    (attribute assignment, or an ``append``/``put``/``submit`` call on
    ``self``), or protected by a ``try/finally`` that repays it.  An
    exception on that path leaks the bytes: the tank level never
    recovers and the flow-control window shrinks permanently — the
    exact bug class the sockets credit-protocol comments argue away.
    Debits that are deliberately repaid by the *peer* process (ring
    hand-offs) should carry a pragma naming who repays."""

    code = "SIM012"
    summary = ("tank debit can raise/return/park with no matching credit "
               "banked — leaked bytes shrink the window forever")

    example_bad = """\
class Sender:
    def __init__(self, env):
        self._credits = Tank(env, capacity=64, initial=64)
        self._wire = Store(env)

    def send(self, env, nbytes):
        yield self._credits.get(nbytes)
        yield env.timeout(1e-6)
        self._wire.put(nbytes)
"""
    example_good = """\
class Sender:
    def __init__(self, env):
        self._credits = Tank(env, capacity=64, initial=64)
        self._wire = Store(env)

    def send(self, env, nbytes):
        yield self._credits.get(nbytes)
        self._wire.put(nbytes)
        yield env.timeout(1e-6)
"""


ALL_RULES = (
    DeterminismRule(),
    LostEventRule(),
    YieldAtomicityRule(),
    UnboundedGrowthRule(),
    TelemetryNamingRule(),
    FlowStateOwnershipRule(),
    BareAssertRule(),
    PerMessageCqWaitRule(),
    UnboundedAccumulationRule(),
    WaitCycleRule(),
    UnsafeHoldRule(),
    CreditImbalanceRule(),
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}


def rule_range() -> str:
    """Advertised code range (``SIM001-SIM012``), derived from the
    registry so user-facing strings can never drift from the rules that
    actually run."""
    codes = sorted(RULES_BY_CODE)
    return f"{codes[0]}-{codes[-1]}"
