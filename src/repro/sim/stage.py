"""Pipeline stages: a FIFO worker that runs only while it has work.

``stage.put(item, worker)`` starts ``worker(item)`` as a process when the
stage is idle and queues the item when it is busy.  The worker loops on
``item = yield from stage.next()``, which takes the oldest queued item
or, once the queue is empty, marks the stage idle and returns None, so
the worker returns.  An idle stage owns no process and schedules no
event, and the worker's frame dies with its last item.

The event order is the one a worker parked forever on a
:class:`~repro.sim.resources.Store` gives: the worker is handed its first
item, so its start takes the ready-queue slot of the parked worker's
wake-up, and a queued item takes one ``get`` hop.  Only event counts
differ.  A stage holds neither its owner nor its worker (the owner
passes the worker with each put), and the process runs the worker's own
generator, so the engine profiler names the owner's site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from .process import ProcessGen
from .resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Environment

__all__ = ["Stage"]


class Stage:
    """A FIFO queue whose worker process runs only while it has work."""

    __slots__ = ("env", "_queue", "_busy")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Items waiting for the busy worker; built on the first backlog.
        self._queue: Optional[Store] = None
        self._busy = False

    def put(self, item: Any, worker: Callable[[Any], ProcessGen]) -> None:
        """Start ``worker(item)`` when idle, else queue ``item``."""
        if not self._busy:
            self._busy = True
            self.env.process(worker(item))
            return
        queue = self._queue
        if queue is None:
            queue = self._queue = Store(self.env)
        queue.put(item)

    def next(self):
        """The worker's next item (generator), or None once the queue is
        empty: the stage is idle then, and the worker must return."""
        queue = self._queue
        if queue is None or not queue.items:
            self._busy = False
            return None
        item = yield queue.get()
        return item

    def drain(self) -> list[Any]:
        """Take every queued item, oldest first; the worker keeps the
        one it is serving."""
        queue = self._queue
        return [] if queue is None else queue.drain()
