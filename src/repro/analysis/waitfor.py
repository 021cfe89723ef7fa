"""Runtime wait-for graph: who is parked on what, and who can fire it.

The static pass (:mod:`repro.analysis.waitgraph`) proves properties of
the *source*; this module watches the *running* engine — armed by
``REPRO_WAITFOR=1`` or :func:`install`.  It arms two slots: the
resources' park/grant hook :data:`repro.sim.resources.WAITS`, which
:class:`~repro.sim.resources.Resource`,
:class:`~repro.sim.resources.Store` and :class:`~repro.sim.resources.Tank`
call on every blocking operation, and the engine's observer tuple
:data:`repro.sim.scheduler.OBSERVERS`, whose ``idle`` hook fires when
``run()`` drains its queues:

* **Park tracking** — every blocking ``request()``/``get()``/``put()``
  issued from inside a process records a wait edge ``process →
  resource`` (fast-path operations that complete on the spot cost one
  dict probe and no edge).
* **Lock cycle check at park time** — when a process blocks on a
  :class:`Resource` slot, the holders of that slot are chased through
  their own lock waits; a ring back to the parking process raises
  :class:`~repro.errors.DeadlockDetected` *at the park site*, naming
  every process and resource in the cycle.  Only pure-lock cycles
  raise: a slot can never be released by anyone outside the ring.
  Tank/store waits are backpressure — a third party can always put or
  get — so they never raise, but they do appear in the reports.  A
  slot's owner is remembered only while its request is granted or
  queued: the hook's release report forgets it, so a finished process
  is not kept alive by the graph.
* **Ownership ledgers** — each :class:`Tank` carries a signed FIFO
  ledger of outstanding amounts: net successful ``put`` entries mean
  those processes hold ring/window occupancy, net successful ``get``
  entries mean they hold credit.  The inverse operation repays the
  ledger head first (the FIFO matches the tank's own grant order), so
  at any instant the ledger names exactly who owes the bytes a parked
  peer is waiting for.  A ledger that settles is dropped, and ledgers
  are keyed weakly, so a dropped tank takes its ledger with it.
* **Idle report instead of a silent hang** — when ``run()`` returns
  with the event queues drained while processes are still parked, the
  full ownership chain (who waits on what, who holds it, how much) is
  snapshotted; :func:`idle_report` returns it.  A live snapshot of one
  simulation is available any time via :func:`report` — the chaos
  harness uses it to assert that a stalled credit's owner is named
  while the stall is in progress.

Everything the graph learns about one simulation — its waits, lock
owners, ledgers and names — lives in one object stored on that
:class:`~repro.sim.scheduler.Environment` (the way the sanitizer keeps
its last popped time there).  A report covers only its own simulation,
and a dropped simulation takes its graph with it, armed or not; the
tool itself keeps only counters and the last idle report.

Resources accept a ``label=`` at construction; unlabeled ones get a
deterministic ``<type>#<n>`` name in first-seen order within their
simulation (never ``id()``/hex, so reports are byte-stable across
runs).  Processes are named from their generator's qualname, with a
``#n`` suffix for repeats.

No method is replaced, so it composes with the sanitizer and the
profiler in any install and uninstall order.
"""

from __future__ import annotations

from collections import deque
from typing import Optional
from weakref import WeakKeyDictionary

from ..errors import DeadlockDetected
from ..sim import resources, scheduler

__all__ = [
    "install",
    "uninstall",
    "installed",
    "stats",
    "reset_stats",
    "report",
    "idle_report",
]


class _Graph:
    """One simulation's wait-for graph, stored on its Environment."""

    __slots__ = ("tool", "waits", "request_owner", "ledgers", "labels",
                 "label_counts", "proc_names", "name_counts")

    def __init__(self, tool: "_State") -> None:
        #: The arming this graph was built under (a re-arm starts over).
        self.tool = tool
        #: process -> (event, resource, kind, amount) for its live wait.
        self.waits: dict = {}
        #: Request -> owning process, while granted or queued.
        self.request_owner: dict = {}
        #: Tank -> [sign, deque[(process, amount)]], for tanks with an
        #: outstanding amount.  sign +1: the entries hold occupancy (net
        #: puts); sign -1: they hold credit (net gets).
        self.ledgers: WeakKeyDictionary = WeakKeyDictionary()
        self.labels: dict = {}
        self.label_counts: dict = {}
        self.proc_names: dict = {}
        self.name_counts: dict = {}


def _graph(env) -> _Graph:
    """``env``'s graph under the current arming, created on first use."""
    graph = env.__dict__.get("_waitfor")
    if graph is None or graph.tool is not _state:
        graph = env.__dict__["_waitfor"] = _Graph(_state)
    return graph


class _State(scheduler.Observer):
    """The ``resources.WAITS`` hook and the engine observer that
    snapshots idle stalls, plus the counters of the whole arming."""

    def __init__(self) -> None:
        self.checks: dict = {}
        self.violations = 0
        self.last_idle: Optional[dict] = None

    # -- resources.WAITS hook ----------------------------------------------

    def request(self, resource, request) -> None:
        env = resource.env
        proc = env._active_process
        if proc is not None:
            graph = _graph(env)
            graph.request_owner[request] = proc
            if not request.triggered:
                _record_wait(graph, proc, request, resource, "lock", None)
                _lock_cycle_check(graph, proc, resource)

    def release(self, resource, request) -> None:
        _graph(resource.env).request_owner.pop(request, None)

    def store_get(self, store, event) -> None:
        if not event.triggered:
            env = store.env
            proc = env._active_process
            if proc is not None:
                _record_wait(_graph(env), proc, event, store, "store-get",
                             None)

    def tank(self, tank, event, amount, sign) -> None:
        env = tank.env
        proc = env._active_process
        graph = _graph(env)
        if event.triggered:
            _tank_account(graph, tank, proc, amount, sign)
            return
        if proc is not None:
            kind = "tank-get" if sign < 0 else "tank-put"
            _record_wait(graph, proc, event, tank, kind, amount)

        def _granted(_event, graph=graph, tank=tank, proc=proc,
                     amount=amount, sign=sign):
            _tank_account(graph, tank, proc, amount, sign)

        event._add_callback(_granted)

    # -- engine observer ----------------------------------------------------

    def idle(self, env) -> None:
        snapshot = report(env)
        if snapshot.get("parked"):
            self.last_idle = snapshot
            _bump("idle_reports")


_state: Optional[_State] = None


def installed() -> bool:
    return _state is not None


def stats() -> dict:
    """Counters: parks recorded, cycle checks run, violations raised."""
    if _state is None:
        return {"installed": False}
    return {
        "installed": True,
        "violations": _state.violations,
        **dict(sorted(_state.checks.items())),
    }


def reset_stats() -> None:
    """Zero the counters and forget the last idle report.  (Waits,
    ledgers and names belong to each simulation and go with it.)"""
    if _state is not None:
        _state.checks.clear()
        _state.violations = 0
        _state.last_idle = None


def _bump(key: str) -> None:
    state = _state
    if state is not None:
        state.checks[key] = state.checks.get(key, 0) + 1


# -- naming ------------------------------------------------------------------


def _label(graph: _Graph, resource) -> str:
    explicit = getattr(resource, "label", None)
    if explicit:
        return explicit
    name = graph.labels.get(resource)
    if name is None:
        base = type(resource).__name__.lower()
        n = graph.label_counts.get(base, 0) + 1
        graph.label_counts[base] = n
        name = f"{base}#{n}"
        graph.labels[resource] = name
    return name


def _proc_name(graph: _Graph, proc) -> str:
    if proc is None:
        return "external"
    name = graph.proc_names.get(proc)
    if name is None:
        gen = proc._generator
        code = getattr(gen, "gi_code", None)
        base = (getattr(code, "co_qualname", None)
                or getattr(gen, "__name__", None) or "process")
        # Qualnames of nested generators carry an `outer.<locals>.`
        # prefix that only adds noise to reports; keep the leaf name
        # (collisions are disambiguated by the #n suffix below).
        base = base.rpartition(".")[2]
        n = graph.name_counts.get(base, 0) + 1
        graph.name_counts[base] = n
        name = base if n == 1 else f"{base}#{n}"
        graph.proc_names[proc] = name
    return name


# -- wait records ------------------------------------------------------------


def _record_wait(graph, proc, event, resource, kind, amount) -> None:
    graph.waits[proc] = (event, resource, kind, amount)
    _bump("parks")

    # Matched by the event it fires with, not by the record: a callback
    # holding the record would hold its own event, and a wait abandoned
    # by an interrupt would keep that pair, and the process, alive
    # until the cyclic collector ran.
    def _purge(fired, graph=graph, proc=proc):
        wait = graph.waits.get(proc)
        if wait is not None and wait[0] is fired:
            del graph.waits[proc]

    event._add_callback(_purge)


def _wait_live(wait) -> bool:
    """Is this wait still pending?  (Abandoned waits leave no trace on
    the event, so validity is checked against the resource's queue.)"""
    event, resource, kind, _amount = wait
    if event.triggered:
        return False
    if kind == "lock":
        return event in resource.queue
    if kind == "store-get":
        return event in resource._get_queue
    if kind == "tank-get":
        return event in resource._gets
    return event in resource._puts  # tank-put


def _live_wait(graph, proc):
    """The process's wait record, lazily purging stale entries."""
    wait = graph.waits.get(proc)
    if wait is None:
        return None
    if not _wait_live(wait):
        del graph.waits[proc]
        return None
    return wait


# -- tank ledgers ------------------------------------------------------------


def _tank_account(graph, tank, proc, amount, sign) -> None:
    """Fold one successful get (sign -1) / put (sign +1) into the ledger.

    An op of the opposite sign repays the FIFO head first; any leftover
    flips the ledger's sign.  Amounts of zero settle nothing and are
    dropped, and so is a ledger once it settles.
    """
    _bump("tank_ops")
    if amount <= 0:
        return
    entry = graph.ledgers.get(tank)
    if entry is None:
        entry = graph.ledgers[tank] = [0, deque()]
    entries = entry[1]
    remaining = amount
    if entry[0] == -sign:
        while remaining and entries:
            holder, held = entries[0]
            if held > remaining:
                entries[0] = (holder, held - remaining)
                remaining = 0
            else:
                entries.popleft()
                remaining -= held
        if not entries:
            if not remaining:
                del graph.ledgers[tank]
                return
            entry[0] = 0
    if remaining:
        entries.append((proc, remaining))
        entry[0] = sign


def _tank_holders(graph, tank) -> list:
    entry = graph.ledgers.get(tank)
    if entry is None or not entry[1]:
        return []
    holds = "occupancy" if entry[0] > 0 else "credit"
    return [
        {"process": _proc_name(graph, holder), "holds": holds,
         "amount": held}
        for holder, held in entry[1]
    ]


# -- lock cycle check --------------------------------------------------------


def _lock_holders(graph, resource) -> list:
    out = []
    for request in resource.users:
        owner = graph.request_owner.get(request)
        if owner is not None:
            out.append(owner)
    return out


def _lock_cycle_check(graph, proc, resource) -> None:
    """DFS the holder chain from ``resource``; a path of lock waits
    leading back to ``proc`` is an unbreakable ring — raise."""
    _bump("lock_checks")

    def _walk(waiter, res, path, seen):
        for holder in _lock_holders(graph, res):
            step = (waiter, res, holder)
            if holder is proc:
                _raise_deadlock(graph, path + [step])
            if holder in seen:
                continue
            wait = _live_wait(graph, holder)
            if wait is None or wait[2] != "lock":
                continue
            _walk(holder, wait[1], path + [step], seen | {holder})

    _walk(proc, resource, [], {proc})


def _raise_deadlock(graph, steps) -> None:
    graph.tool.violations += 1
    parts = [
        f"{_proc_name(graph, waiter)} waits on {_label(graph, res)} "
        f"held by {_proc_name(graph, holder)}"
        for waiter, res, holder in steps
    ]
    raise DeadlockDetected(
        "lock wait-for cycle (no process in the ring can ever release): "
        + "; ".join(parts)
    )


# -- reports -----------------------------------------------------------------


def report(env) -> dict:
    """Live snapshot of one simulation: every process parked in ``env``,
    what it waits on, and the ownership chain that could fire it."""
    if _state is None:
        return {"installed": False}
    graph = _graph(env)
    parked = []
    for proc in list(graph.waits):
        wait = _live_wait(graph, proc)
        if wait is None:
            continue
        _event, resource, kind, amount = wait
        if kind == "lock":
            holders = [
                {"process": _proc_name(graph, owner), "holds": "slot",
                 "amount": None}
                for owner in _lock_holders(graph, resource)
            ]
        elif kind in ("tank-get", "tank-put"):
            holders = _tank_holders(graph, resource)
        else:
            holders = []
        parked.append({
            "process": _proc_name(graph, proc),
            "waits_on": _label(graph, resource),
            "kind": kind,
            "amount": amount,
            "holders": holders,
        })
    parked.sort(key=lambda entry: (entry["process"], entry["waits_on"]))
    return {"installed": True, "parked": parked}


def idle_report() -> Optional[dict]:
    """The ownership chain captured the last time the engine drained its
    queues with processes still parked (None if that never happened)."""
    if _state is None:
        return None
    return _state.last_idle


# -- install / uninstall -----------------------------------------------------


def install() -> None:
    """Arm the wait-for graph (idempotent)."""
    global _state
    if _state is not None:
        return
    _state = _State()
    resources.WAITS = _state
    scheduler.OBSERVERS += (_state,)


def uninstall() -> None:
    """Disarm the wait-for graph (idempotent)."""
    global _state
    if _state is None:
        return
    resources.WAITS = None
    scheduler.OBSERVERS = tuple(
        observer for observer in scheduler.OBSERVERS if observer is not _state)
    _state = None
