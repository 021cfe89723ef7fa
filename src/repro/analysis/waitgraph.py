"""Interprocedural wait/credit analysis: rules SIM010–SIM012.

The FreeFlow data path rests on blocking primitives — CQ
``wait_batch``, ``Store``/``Tank`` gets, the FIFO send lock and the
credit tank on the streaming socket path — whose deadlock-freedom
historically lived only in comments.  This pass turns those comments
into checked claims.  It shares one **resource vocabulary** with the
runtime wait-for graph (:mod:`repro.analysis.waitfor`):

========== ==================================================== =========
kind       constructor / usage evidence                          holdable
========== ==================================================== =========
lock       ``Resource(env, capacity=n)``; ``.request()``          yes
tank-credit ``Tank(env, capacity=c, initial=c)``; debit = ``get`` yes
tank-window ``Tank(env, capacity=c)``; debit = ``put``            yes
store      ``Store(env)``; ``.get()`` with no byte count          no
cq         ``CompletionQueue``; ``.wait()``/``.wait_batch()``     no
========== ==================================================== =========

A resource is *held* from the op that reserves it (a granted request,
a tank debit) until the op that releases it (``with`` exit, explicit
release, the inverse tank op, or banking the bytes into object state).
"Holdable" kinds can appear on both sides of a hold-and-wait edge;
store/CQ waits can park a process but never block anyone else, so they
can end a chain but not cycle it.

The three rules:

* **SIM010 — wait-cycle.**  Every blocking acquisition of a holdable
  resource B while holding A contributes a directed edge A→B (including
  across ``yield from self.helper()`` calls, via
  :mod:`repro.analysis.callgraph`).  Any cycle in the global edge set —
  two paths taking the same pair in opposite order, or a self-edge on a
  non-reentrant FIFO lock — is reported at every participating site.
* **SIM011 — unsafe hold across a park.**  A lock acquired *outside* a
  ``with`` block (bare ``req = r.request()`` … ``yield req``) and still
  held at a later park, raise, or function end, with no
  ``try/finally``-protected release: an exception while parked leaks
  the slot forever.
* **SIM012 — debit/credit imbalance.**  A tank debit reachable from a
  park, ``raise`` or ``return`` before the debited amount is either
  credited back, banked into object state (attribute assignment, or an
  ``append``/``put``/``submit``/``release`` call on ``self``), or
  protected by a ``try/finally`` that repays it.  This is exactly the
  bug class the sockets credit-protocol comments argue away.

The pass is deliberately narrow (see :mod:`repro.analysis.rules` for
the philosophy): resolution never crosses object boundaries, branch
analysis is lexical with conservative merging, and unresolvable
receivers classify by name heuristics only.  What escapes here, the
runtime side catches.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionInfo

__all__ = ["ProjectWaitGraph", "analyze_modules", "HOLDABLE_KINDS"]

#: Resource kinds that can appear as the *held* side of an edge.
HOLDABLE_KINDS = ("lock", "tank-credit", "tank-window")

#: Method calls on ``self``(-owned objects) that count as *banking* an
#: outstanding tank debit: the bytes now live in object state some other
#: process is responsible for releasing.
_BANK_METHODS = {"append", "appendleft", "extend", "put", "submit",
                 "release", "push"}

#: Receiver names that are never resources (scheduler handles).
_NON_RESOURCE_NAMES = {"env", "self"}

#: Yielded method names that park without touching a resource.
_GENERIC_PARK_METHODS = {"timeout", "process", "event", "all_of", "any_of",
                         "execute", "memcpy", "sleep"}


@dataclass(frozen=True)
class Resource:
    """One named resource: shared vocabulary key + classified kind."""

    key: str    #: e.g. ``FreeFlowSocket._tx_credits`` or ``drain.lock``
    kind: str

    @property
    def holdable(self) -> bool:
        return self.kind in HOLDABLE_KINDS


@dataclass(frozen=True)
class Site:
    """Where something happened, in display coordinates."""

    module: str
    line: int
    col: int
    func: str


@dataclass
class _Hold:
    """A resource currently held by the function being scanned."""

    res: Resource
    how: str                  # "with" | "bare" | "debit"
    site: Site
    safe: bool = False        # try/finally- or with-protected
    settled: bool = False     # debit banked into object state
    reported: bool = False    # one finding per hold


@dataclass
class _Summary:
    """Per-generator facts the interprocedural pass composes."""

    info: FunctionInfo
    #: Holdable resources this function acquires with a blocking op.
    acquires: List[Tuple[Resource, Site]] = field(default_factory=list)
    #: Resolved inline calls: (callee qualname, call site, held keys).
    calls: List[Tuple[str, Site, Tuple[str, ...]]] = field(
        default_factory=list)


class ProjectWaitGraph:
    """The whole-program wait structure plus the findings it implies."""

    def __init__(self) -> None:
        self.graph: Optional[CallGraph] = None
        #: Resource key -> classified kind (constructor evidence).
        self.kinds: Dict[str, str] = {}
        #: Directed hold-and-wait edges: (held, acquired) -> sites.
        self.edges: Dict[Tuple[str, str], List[Site]] = {}
        self.summaries: Dict[str, _Summary] = {}
        self._modules: Set[str] = set()
        #: (rule code, module) -> [(line, col, message)].
        self._findings: Dict[Tuple[str, str], List[Tuple[int, int, str]]] = {}

    # -- public API --------------------------------------------------------

    def covers(self, module: str) -> bool:
        return module in self._modules

    def findings_for(self, code: str, module: str) -> List[Tuple[int, int, str]]:
        return sorted(self._findings.get((code, module), []))

    def resource_kind(self, key: str) -> Optional[str]:
        return self.kinds.get(key)

    # -- analysis ----------------------------------------------------------

    def analyze(self, modules: Iterable[Tuple[str, ast.Module]]) -> None:
        pairs = list(modules)
        self._modules = {module for module, _ in pairs}
        self.graph = CallGraph.build(pairs)
        for module, tree in pairs:
            self._collect_kinds(module, tree)
        for info in self.graph.generators():
            scan = _Scan(self, info)
            scan.run()
            self.summaries[info.qualname] = scan.summary
        self._propagate_calls()
        self._report_cycles()

    # -- constructor evidence ----------------------------------------------

    def _collect_kinds(self, module: str, tree: ast.Module) -> None:
        """Register ``self._x = Tank(...)`` style constructor sites."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for stmt in ast.walk(fn):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    kind = _ctor_kind(stmt.value)
                    if kind is None:
                        continue
                    for target in stmt.targets:
                        dotted = _self_dotted(target)
                        if dotted is not None:
                            self.kinds[f"{node.name}.{dotted}"] = kind

    # -- edge bookkeeping ---------------------------------------------------

    def _edge(self, held: Resource, acquired: Resource, site: Site) -> None:
        if not (held.holdable and acquired.holdable):
            return
        if held.key == acquired.key and acquired.kind != "lock":
            # Re-debiting the same tank is ordinary backpressure; only a
            # non-reentrant FIFO lock self-edge is a true deadlock.
            return
        self.edges.setdefault((held.key, acquired.key), []).append(site)

    def _emit(self, code: str, module: str, line: int, col: int,
              message: str) -> None:
        self._findings.setdefault((code, module), []).append(
            (line, col, message))

    # -- interprocedural composition ----------------------------------------

    def _propagate_calls(self) -> None:
        """Fold callee acquisitions into callers' held contexts."""
        memo: Dict[str, List[Resource]] = {}

        def transitive(qualname: str, trail: Set[str]) -> List[Resource]:
            if qualname in memo:
                return memo[qualname]
            if qualname in trail:       # recursion guard
                return []
            trail.add(qualname)
            summary = self.summaries.get(qualname)
            acquired: List[Resource] = []
            seen: Set[str] = set()
            if summary is not None:
                for res, _site in summary.acquires:
                    if res.key not in seen:
                        seen.add(res.key)
                        acquired.append(res)
                for callee, _site, _held in summary.calls:
                    for res in transitive(callee, trail):
                        if res.key not in seen:
                            seen.add(res.key)
                            acquired.append(res)
            trail.discard(qualname)
            memo[qualname] = acquired
            return acquired

        for summary in self.summaries.values():
            for callee, site, held_keys in summary.calls:
                if not held_keys:
                    continue
                for res in transitive(callee, set()):
                    for held_key in held_keys:
                        held_kind = self.kinds.get(held_key, "lock")
                        self._edge(Resource(held_key, held_kind), res, site)

    # -- SIM010 cycle detection ---------------------------------------------

    def _report_cycles(self) -> None:
        adjacency: Dict[str, Set[str]] = {}
        for held, acquired in self.edges:
            adjacency.setdefault(held, set()).add(acquired)
        cycles = _find_cycles(adjacency)
        for cycle in cycles:
            ring = " -> ".join(cycle + (cycle[0],))
            for index, held in enumerate(cycle):
                acquired = cycle[(index + 1) % len(cycle)]
                sites = self.edges[(held, acquired)]
                opposite = self.edges[
                    (acquired, cycle[(index + 2) % len(cycle)])
                    if len(cycle) > 1 else (held, acquired)
                ]
                for site in sites:
                    where = opposite[0]
                    message = (
                        f"wait-cycle: acquires {acquired} while holding "
                        f"{held}; cycle {ring} (opposing hold at "
                        f"{where.module}:{where.line} in {where.func})"
                    )
                    self._emit("SIM010", site.module, site.line, site.col,
                               message)


def _find_cycles(adjacency: Dict[str, Set[str]]) -> List[Tuple[str, ...]]:
    """Elementary cycles (deduplicated by rotation), shortest first."""
    cycles: Set[Tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: List[str]) -> None:
        for nxt in sorted(adjacency.get(node, ())):
            if nxt == start:
                rotated = _canonical(tuple(path))
                cycles.add(rotated)
            elif nxt not in path and len(path) < 6:
                path.append(nxt)
                dfs(start, nxt, path)
                path.pop()

    for start in sorted(adjacency):
        dfs(start, start, [start])
    return sorted(cycles, key=lambda c: (len(c), c))


def _canonical(cycle: Tuple[str, ...]) -> Tuple[str, ...]:
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


# -- constructor / expression helpers ---------------------------------------


def _ctor_kind(value: ast.AST) -> Optional[str]:
    """Classify ``Tank(...)`` / ``Resource(...)`` / ``Store(...)`` calls."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if name == "Tank":
        has_initial = any(kw.arg == "initial" for kw in value.keywords)
        return "tank-credit" if has_initial else "tank-window"
    if name == "Resource":
        return "lock"
    if name == "Store":
        return "store"
    if name == "CompletionQueue":
        return "cq"
    return None


def _self_dotted(node: ast.AST) -> Optional[str]:
    """``self._a.b`` -> ``"_a.b"``; None for non-self targets."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _kind_heuristic(key: str) -> str:
    """Name-based fallback when no constructor was seen."""
    leaf = key.rsplit(".", 1)[-1].lstrip("_").lower()
    if "lock" in leaf or "mutex" in leaf or "turnstile" in leaf:
        return "lock"
    if "credit" in leaf:
        return "tank-credit"
    if "tank" in leaf or "window" in leaf or "ring" in leaf or "pool" in leaf:
        return "tank-window"
    if leaf == "cq" or leaf.endswith("cq"):
        return "cq"
    return "store"


# -- the per-function scan ---------------------------------------------------


class _Scan:
    """Lexical walk of one generator: holds, parks, debits, calls.

    Branch bodies are walked from a snapshot of the held set and the
    snapshot is restored afterwards — holds acquired inside a branch do
    not leak out (quietness over completeness), while settlement flags
    mutate the shared hold records so a debit banked in *any* branch
    counts as banked.
    """

    def __init__(self, project: ProjectWaitGraph, info: FunctionInfo) -> None:
        self.project = project
        self.info = info
        self.summary = _Summary(info)
        self.held: List[_Hold] = []
        #: bare-request variables: name -> Resource.
        self.requests: Dict[str, Resource] = {}
        #: granted bare requests: name -> Resource (``req.cancel()``).
        self.granted: Dict[str, Resource] = {}
        #: ``with r.request() as claim`` names: yield of them is a park.
        self.claims: Set[str] = set()
        #: local constructor evidence: name -> kind.
        self.local_kinds: Dict[str, str] = {}

    # -- driving ------------------------------------------------------------

    def run(self) -> None:
        self._block(self.info.node.body, frozenset())
        self._end_of_function()

    def _site(self, node: ast.AST) -> Site:
        return Site(self.info.module, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), self.info.name)

    def _block(self, stmts: List[ast.stmt], safe_keys: frozenset) -> None:
        for stmt in stmts:
            self._stmt(stmt, safe_keys)

    def _branch(self, stmts: List[ast.stmt], safe_keys: frozenset) -> None:
        snapshot = list(self.held)
        self._block(stmts, safe_keys)
        self.held = snapshot

    # -- statements ---------------------------------------------------------

    def _stmt(self, stmt: ast.stmt, safe_keys: frozenset) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt, safe_keys)
        elif isinstance(stmt, ast.Try):
            released = self._finally_released(stmt.finalbody)
            protected = safe_keys | released
            # A hold taken *before* the try is exception-safe inside it
            # when the finally releases that key (the finalbody walk
            # then pops the hold via _maybe_release).
            for hold in self.held:
                if not hold.safe and hold.res.key in released:
                    hold.safe = True
            self._block(stmt.body, protected)
            for handler in stmt.handlers:
                self._branch(handler.body, safe_keys)
            self._block(stmt.orelse, safe_keys)
            self._block(stmt.finalbody, safe_keys)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test, stmt, safe_keys)
            self._branch(stmt.body, safe_keys)
            self._branch(stmt.orelse, safe_keys)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, stmt, safe_keys)
            self._branch(stmt.body, safe_keys)
            self._branch(stmt.orelse, safe_keys)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, stmt, safe_keys)
            self._branch(stmt.body, safe_keys)
            self._branch(stmt.orelse, safe_keys)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt, safe_keys)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value, stmt, safe_keys)
            if _self_dotted(stmt.target) is not None:
                self._settle_debits()
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, stmt, safe_keys)
            self._maybe_bank(stmt.value)
            self._maybe_release(stmt.value)
        elif isinstance(stmt, ast.Raise):
            self._check_sim012(stmt, "can raise")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, stmt, safe_keys)
            self._check_sim012(stmt, "can return")
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, stmt, safe_keys)

    def _assign(self, stmt: ast.Assign, safe_keys: frozenset) -> None:
        value = stmt.value
        kind = _ctor_kind(value)
        if kind is not None:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.local_kinds[target.id] = kind
            return
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "request"):
            res = self._resource_of(value.func.value, default_kind="lock")
            if res is not None:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.requests[target.id] = res
                return
        self._expr(value, stmt, safe_keys)
        if any(_self_dotted(t) is not None for t in stmt.targets):
            self._settle_debits()

    def _with(self, stmt: ast.With, safe_keys: frozenset) -> None:
        entered = 0
        for item in stmt.items:
            expr = item.context_expr
            if (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "request"):
                res = self._resource_of(expr.func.value, default_kind="lock")
                if res is not None:
                    self._acquire(res, stmt)
                    self.held.append(_Hold(res, "with", self._site(stmt),
                                           safe=True))
                    entered += 1
                    if isinstance(item.optional_vars, ast.Name):
                        self.claims.add(item.optional_vars.id)
                    continue
            self._expr(expr, stmt, safe_keys)
        self._block(stmt.body, safe_keys)
        for _ in range(entered):
            self.held.pop()

    # -- expressions (parks live here) ---------------------------------------

    def _expr(self, expr: ast.expr, stmt: ast.stmt,
              safe_keys: frozenset) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.YieldFrom):
                self._park(node, stmt, safe_keys)
            elif isinstance(node, ast.Yield) and node.value is not None:
                self._park(node, stmt, safe_keys)

    def _park(self, node: ast.AST, stmt: ast.stmt,
              safe_keys: frozenset) -> None:
        value = node.value
        site = self._site(stmt)
        if isinstance(value, ast.Name):
            if value.id in self.requests:
                # ``req = lock.request()`` ... ``yield req``: the bare
                # acquisition this rule set exists for.
                res = self.granted[value.id] = self.requests.pop(value.id)
                self._park_checks(stmt)
                self._acquire(res, stmt)
                self.held.append(_Hold(res, "bare", site,
                                       safe=res.key in safe_keys))
                return
            # ``yield claim`` inside a with, or any stored event.
            self._park_checks(stmt)
            return
        if isinstance(value, ast.Call) and isinstance(value.func,
                                                      ast.Attribute):
            method = value.func.attr
            receiver = value.func.value
            if method in _GENERIC_PARK_METHODS:
                self._park_checks(stmt)
                return
            if isinstance(node, ast.YieldFrom):
                callee = (self.project.graph.resolve(self.info, value)
                          if self.project.graph is not None else None)
                if callee is not None and callee.is_generator:
                    held_keys = tuple(sorted({h.res.key for h in self.held}))
                    self.summary.calls.append(
                        (callee.qualname, site, held_keys))
                    self._park_checks(stmt)
                    return
            if method in ("wait", "wait_batch"):
                self._park_checks(stmt)
                return
            if method == "get":
                self._park_get(value, receiver, stmt, safe_keys)
                return
            if method == "put":
                self._park_put(value, receiver, stmt, safe_keys)
                return
            if method == "request":
                # ``yield lock.request()``: acquired and instantly
                # unreachable — hold until function end.
                res = self._resource_of(receiver, default_kind="lock")
                self._park_checks(stmt)
                if res is not None:
                    self._acquire(res, stmt)
                    self.held.append(_Hold(res, "bare", site,
                                           safe=res.key in safe_keys))
                return
        # Anything else that parks: plain events, unresolved yield-froms.
        self._park_checks(stmt)

    def _park_get(self, call: ast.Call, receiver: ast.expr,
                  stmt: ast.stmt, safe_keys: frozenset) -> None:
        res = self._resource_of(receiver)
        if res is not None and res.kind == "tank-window":
            # Consumer side: frees window bytes someone else debited.
            # Repay before the park checks — this op *is* the credit.
            self._repay(res)
        self._park_checks(stmt)
        if res is None:
            return
        if res.kind == "tank-credit" and call.args:
            # Debit: credits leave the tank and this process owns them.
            self._acquire(res, stmt)
            self.held.append(_Hold(res, "debit", self._site(stmt),
                                   safe=res.key in safe_keys))

    def _park_put(self, call: ast.Call, receiver: ast.expr,
                  stmt: ast.stmt, safe_keys: frozenset) -> None:
        res = self._resource_of(receiver)
        if res is not None and res.kind == "tank-credit":
            self._repay(res)
        self._park_checks(stmt)
        if res is None:
            return
        if res.kind == "tank-window":
            # Producer side of a bounded window: blocking debit.
            self._acquire(res, stmt)
            self.held.append(_Hold(res, "debit", self._site(stmt),
                                   safe=res.key in safe_keys))

    # -- hold-set effects ----------------------------------------------------

    def _acquire(self, res: Resource, stmt: ast.stmt) -> None:
        site = self._site(stmt)
        if res.holdable:
            self.summary.acquires.append((res, site))
        for hold in self.held:
            self.project._edge(hold.res, res, site)

    def _repay(self, res: Resource) -> None:
        for hold in reversed(self.held):
            if hold.how == "debit" and hold.res.key == res.key:
                self.held.remove(hold)
                return

    def _settle_debits(self) -> None:
        for hold in self.held:
            if hold.how == "debit":
                hold.settled = True

    def _maybe_bank(self, expr: ast.expr) -> None:
        """``self._q.append(...)`` / ``self._sq.put(...)``: debit banked."""
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _BANK_METHODS
                and _self_dotted(expr.func.value) is not None):
            self._settle_debits()

    def _maybe_release(self, expr: ast.expr) -> None:
        """``req.cancel()`` / ``res.release(...)``: bare hold released."""
        if not (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)):
            return
        if expr.func.attr in ("cancel", "release"):
            res = self._released_by(expr.func.value)
            for hold in reversed(self.held):
                if hold.how == "bare" and (
                        res is None or hold.res.key == res.key):
                    self.held.remove(hold)
                    return

    def _finally_released(self, finalbody: List[ast.stmt]) -> frozenset:
        """Resource keys a ``finally`` block credits or releases."""
        keys: Set[str] = set()
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("put", "get", "release",
                                               "cancel")):
                    res = self._released_by(node.func.value)
                    if res is not None:
                        keys.add(res.key)
        return frozenset(keys)

    def _released_by(self, receiver: ast.expr) -> Optional[Resource]:
        """What a call on ``receiver`` releases (a request's resource)."""
        if isinstance(receiver, ast.Name) and receiver.id in self.granted:
            return self.granted[receiver.id]
        return self._resource_of(receiver)

    # -- rule checks ---------------------------------------------------------

    def _report(self, code: str, line: int, col: int, message: str) -> None:
        self.project._emit(code, self.info.module, line, col, message)

    def _park_checks(self, stmt: ast.stmt) -> None:
        site = self._site(stmt)
        for hold in self.held:
            if hold.reported:
                continue
            if hold.how == "bare" and not hold.safe:
                hold.reported = True
                self._report("SIM011", site.line, site.col, (
                    f"blocking wait while holding {hold.res.key} "
                    f"(acquired at line {hold.site.line} outside any "
                    f"with/try-finally: an exception while parked leaks "
                    f"the slot)"))
            elif (hold.how == "debit" and not hold.safe
                    and not hold.settled):
                hold.reported = True
                self._report("SIM012", site.line, site.col, (
                    f"parks with {hold.res.key} debited at line "
                    f"{hold.site.line} but not yet credited back or "
                    f"banked; an exception here leaks the bytes"))

    def _check_sim012(self, stmt: ast.stmt, how: str) -> None:
        site = self._site(stmt)
        for hold in self.held:
            if (hold.how == "debit" and not hold.safe and not hold.settled
                    and not hold.reported):
                hold.reported = True
                self._report("SIM012", site.line, site.col, (
                    f"{how} with {hold.res.key} debited at line "
                    f"{hold.site.line} and no matching credit on this "
                    f"path"))

    def _end_of_function(self) -> None:
        for hold in self.held:
            if hold.reported:
                continue
            if hold.how == "bare" and not hold.safe:
                self._report("SIM011", hold.site.line, hold.site.col, (
                    f"{hold.res.key} acquired here is never released on "
                    f"this path"))
            elif hold.how == "debit" and not hold.safe and not hold.settled:
                self._report("SIM012", hold.site.line, hold.site.col, (
                    f"{hold.res.key} debited here reaches the end of "
                    f"{self.info.name}() without a matching credit"))

    # -- resource resolution -------------------------------------------------

    def _resource_of(self, expr: ast.expr,
                     default_kind: Optional[str] = None) -> Optional[Resource]:
        dotted = _self_dotted(expr)
        if dotted is not None:
            if dotted.split(".")[0] in _NON_RESOURCE_NAMES:
                return None
            key = f"{self.info.cls or self.info.name}.{dotted}"
        elif isinstance(expr, ast.Name):
            if expr.id in _NON_RESOURCE_NAMES:
                return None
            key = f"{self.info.scope}.{expr.id}"
            if expr.id in self.local_kinds:
                return Resource(key, self.local_kinds[expr.id])
        elif isinstance(expr, ast.Attribute):
            # Non-self dotted receiver (``host.cpu`` ...): refuse to
            # guess identity across objects.
            return None
        else:
            return None
        kind = self.project.kinds.get(key)
        if kind is None:
            kind = default_kind or _kind_heuristic(key)
        return Resource(key, kind)


def analyze_modules(
    modules: Iterable[Tuple[str, ast.Module]]
) -> ProjectWaitGraph:
    """Build and run the project analysis over parsed modules."""
    project = ProjectWaitGraph()
    project.analyze(modules)
    return project
