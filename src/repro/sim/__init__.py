"""Discrete-event simulation engine (substrate S1).

A from-scratch, SimPy-style process-interaction engine: generators yield
:class:`Event` objects and the :class:`Environment` resumes them in
virtual-time order.  See DESIGN.md §3.
"""

from .backoff import Backoff
from .events import AllOf, AnyOf, Condition, Event, EventAlreadyTriggered, Timeout
from .monitor import StreamingSeries, ThroughputTimeline, TimeWeighted
from .process import Interrupt, Process, ProcessGen
from .rand import RandomStream, StreamFactory
from .resources import (
    Request,
    Resource,
    Store,
    StoreGet,
    StorePut,
    Tank,
    TankGet,
    TankPut,
)
from .scheduler import EmptySchedule, Environment
from .stage import Stage

__all__ = [
    "AllOf",
    "AnyOf",
    "Backoff",
    "Condition",
    "EmptySchedule",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "Process",
    "ProcessGen",
    "RandomStream",
    "Request",
    "Resource",
    "Stage",
    "Store",
    "StoreGet",
    "StorePut",
    "StreamFactory",
    "StreamingSeries",
    "Tank",
    "TankGet",
    "TankPut",
    "ThroughputTimeline",
    "TimeWeighted",
    "Timeout",
]
