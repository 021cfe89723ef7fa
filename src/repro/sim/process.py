"""Simulation processes: generators driven by the event loop.

A :class:`Process` wraps a Python generator.  Each ``yield`` hands an
:class:`~repro.sim.events.Event` to the environment; when that event
triggers, the process resumes with the event's value (or the event's
exception is thrown into the generator).

A process is itself an event — it triggers with the generator's return
value when the generator finishes — so processes can wait on each other,
which the FreeFlow agents use extensively (e.g. an RDMA WRITE completion
waits on the DMA process and the link-transmission process).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, NO_CALLBACKS, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Environment

__all__ = ["Process", "Interrupt", "ProcessGen"]

#: Type alias for generators usable as simulation processes.
ProcessGen = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    ``cause`` carries an arbitrary payload describing why (e.g. a failed
    host, a migrated container).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class _Initialize(Event):
    """Internal event that kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self._ok = True
        self._value = None
        self.defused = False
        self._callbacks = process._resume
        env.schedule(self)


class Process(Event):
    """A running simulation process (also an event: triggers on return)."""

    #: ``_resume`` holds the bound ``_step`` method, cached once at start:
    #: registering a callback on every yield would otherwise allocate a
    #: fresh bound-method object per event — pure churn on the hot path
    #: (and caching it makes interrupt's identity-based detach exact).
    #: It points back at the process, so it is cleared when the generator
    #: returns or raises: a process that returned or failed is freed by
    #: reference counting, not left in a cycle for the collector.  (A
    #: waiter whose frame keeps a failed process in a local still makes
    #: one: frame -> process -> exception -> traceback -> frame.)
    __slots__ = ("_generator", "_target", "_resume")

    def __init__(self, env: "Environment", generator: ProcessGen) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None if running
        #: or finished).  Used by interrupt() to detach cleanly.
        self._target: Optional[Event] = None
        self._resume = self._step
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a dead process is an error; interrupting a process
        that is waiting detaches it from its target event first (the event
        itself is left to trigger normally for any other waiters).
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        target = self._target
        if target is not None:
            target._remove_callback(self._resume)
            if not target.triggered:
                # Withdraw pending claims (store gets, resource requests)
                # so they cannot consume items nobody will receive.
                target._abandon()
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._callbacks = self._resume_interrupt
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        self.env.schedule(interrupt_event, priority=0)

    # -- internal stepping machinery ------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        # An interrupt may land after the process finished in the same
        # timestep; drop it silently in that case.
        if self.is_alive:
            self._step(event)

    def _step(self, event: Event) -> None:
        """Advance the generator by one yield using ``event``'s outcome."""
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                # Throw the failure into the generator; if it handles it,
                # we continue with whatever it yields next.  Either way the
                # failure has been delivered, so it is no longer unhandled.
                event.defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._resume = None
            self._ok = True
            self._value = stop.value
            env.schedule(self)
            return
        except BaseException as exc:
            env._active_process = None
            self._resume = None
            self._ok = False
            # The traceback's first entry is this frame, which holds the
            # process: drop it, or the stored failure keeps the process
            # in a cycle.  The generator's own frames stay.
            self._value = exc.with_traceback(exc.__traceback__.tb_next)
            env.schedule(self)
            return
        env._active_process = None

        if not isinstance(result, Event):
            raise TypeError(
                f"process {self._generator!r} yielded {result!r}, not an Event"
            )
        cbs = result._callbacks
        if cbs is NO_CALLBACKS:
            # Inlined _add_callback: a fresh event with us as the only
            # waiter — the common case for every yield in the simulation.
            result._callbacks = self._resume
            self._target = result
        elif cbs is None:
            # Already processed: resume immediately at the current time.
            immediate = Event(env)
            immediate._callbacks = self._resume
            immediate._ok = result._ok
            immediate._value = result._value
            env.schedule(immediate)
            self._target = immediate
        else:
            result._add_callback(self._resume)
            self._target = result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = getattr(self._generator, "__name__", repr(self._generator))
        return f"<Process {name} {'alive' if self.is_alive else 'done'}>"
