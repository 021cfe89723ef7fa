"""Engine profiler: wall-clock + event counts per subsystem callback site.

ROADMAP item 1 (the ~1M ev/s ceiling) needs to know *where* engine time
goes before anything can be tuned; ``Environment.events_processed`` says
how many events ran, not which subsystem ran them.  This profiler
attributes every event to the code site of its callback — for process
resumes, the *process generator's* code object, which is what names the
subsystem (``netstack/tcp.py:_rx_worker``, ``core/vnic.py:_sq_loop``,
…) rather than the engine-internal trampoline.

:func:`install` adds the profiler to the engine's observer tuple
(:data:`repro.sim.scheduler.OBSERVERS`): ``step()`` calls its
``before``/``after`` hooks around each event's callbacks, and an armed
observer sends ``run()``'s drain loop through ``step()``.  A disarmed
engine only tests the empty tuple.  Observers compose in any install and
uninstall order, so the profiler runs alongside the sanitizer and the
wait-for graph without caring which was armed first.

Determinism: event counts and shares are a pure function of the
simulation and appear in the deterministic report artifact; wall-clock
seconds obviously are not, and are exported separately
(:meth:`EngineProfiler.wall_records`).  This module is the one
sanctioned ``perf_counter`` user inside ``src/repro`` — it is on
simlint SIM001's allowlist for exactly this purpose.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from ..sim import scheduler
from ..sim.events import NO_CALLBACKS

__all__ = ["ACTIVE", "EngineProfiler", "install", "uninstall", "installed"]

#: The active profiler, or None when profiling is disabled.
ACTIVE: Optional["EngineProfiler"] = None


def _short_path(filename: str) -> str:
    """Anchor a code filename at the repo package (like display_path)."""
    parts = filename.replace("\\", "/").split("/")
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return parts[-1]


class EngineProfiler(scheduler.Observer):
    """Per-callback-site event counts and wall-clock attribution."""

    __slots__ = ("sites", "events_total", "wall_total_s", "_code_labels",
                 "_site", "_started")

    def __init__(self) -> None:
        #: site label -> [events, wall_seconds].  Keyspace is bounded by
        #: the program text (one entry per callback code site).
        self.sites: dict[str, list] = {}
        self.events_total = 0
        self.wall_total_s = 0.0
        self._code_labels: dict[int, str] = {}
        self._site = ""
        self._started = 0.0

    # -- attribution -------------------------------------------------------

    def _label_for_code(self, code) -> str:
        label = self._code_labels.get(id(code))
        if label is None:
            qualname = getattr(code, "co_qualname", code.co_name)
            label = f"{_short_path(code.co_filename)}:{qualname}"
            # Keyspace is the program's code objects — static text.
            # simlint: disable=SIM009
            self._code_labels[id(code)] = label
        return label

    def site_of(self, event) -> str:
        """Code-site label for one event's callback(s)."""
        callbacks = event._callbacks
        if type(callbacks) is list:
            callback = callbacks[0] if callbacks else None
        elif callbacks is NO_CALLBACKS:
            callback = None
        else:
            callback = callbacks
        if callback is None:
            return "(engine) no-callback"
        # A process resume: attribute to the generator actually running,
        # not the Process._step trampoline every resume shares.
        owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "_generator", None)
        if generator is not None and hasattr(generator, "gi_code"):
            return self._label_for_code(generator.gi_code)
        code = getattr(callback, "__code__", None)
        if code is not None:
            return self._label_for_code(code)
        return type(callback).__qualname__

    def record(self, site: str, wall_s: float) -> None:
        entry = self.sites.get(site)
        if entry is None:
            # Keyspace is the set of callback sites — static text.
            # simlint: disable=SIM009
            entry = self.sites[site] = [0, 0.0]
        entry[0] += 1
        entry[1] += wall_s
        self.events_total += 1
        self.wall_total_s += wall_s

    # -- engine observer ---------------------------------------------------

    def before(self, env, entry) -> None:
        self._site = self.site_of(entry[3])
        self._started = perf_counter()

    def after(self, env, entry) -> None:
        self.record(self._site, perf_counter() - self._started)

    # -- queries -----------------------------------------------------------

    def records(self) -> list[dict]:
        """Deterministic attribution: events + share per site, ranked.

        Wall-clock is deliberately excluded so the report artifact stays
        byte-identical for a given seed; see :meth:`wall_records`.
        """
        total = self.events_total or 1
        ranked = sorted(self.sites.items(),
                        key=lambda item: (-item[1][0], item[0]))
        return [
            {
                "record": "profile",
                "site": site,
                "events": entry[0],
                "event_share_pct": round(100.0 * entry[0] / total, 3),
            }
            for site, entry in ranked
        ]

    def wall_records(self) -> list[dict]:
        """Wall-clock attribution per site (not deterministic)."""
        total = self.wall_total_s or 1.0
        ranked = sorted(self.sites.items(),
                        key=lambda item: (-item[1][1], item[0]))
        return [
            {
                "site": site,
                "events": entry[0],
                "wall_s": entry[1],
                "wall_share_pct": 100.0 * entry[1] / total,
            }
            for site, entry in ranked
        ]

    def state_size(self) -> int:
        return len(self.sites) + len(self._code_labels)


# -- install / uninstall ---------------------------------------------------


def installed() -> bool:
    return ACTIVE is not None


def install(profiler: Optional[EngineProfiler] = None) -> EngineProfiler:
    """Arm the profiler (idempotent; returns the active profiler).

    Passing a profiler while one is armed swaps it in.
    """
    global ACTIVE
    if ACTIVE is not None:
        if profiler is None:
            return ACTIVE
        uninstall()
    ACTIVE = profiler if profiler is not None else EngineProfiler()
    scheduler.OBSERVERS += (ACTIVE,)
    return ACTIVE


def uninstall() -> Optional[EngineProfiler]:
    """Disarm the profiler; returns it for reading."""
    global ACTIVE
    profiler, ACTIVE = ACTIVE, None
    if profiler is not None:
        scheduler.OBSERVERS = tuple(
            observer for observer in scheduler.OBSERVERS
            if observer is not profiler)
    return profiler
