"""Unified telemetry for the FreeFlow reproduction (tracing + metrics).

Cooperating components, each with its own module-level ``ACTIVE``
handle so hot paths can gate on a single pointer compare:

* :mod:`~repro.telemetry.tracer` — span-based flow tracer recording
  per-hop sim-time segments for sampled messages;
* :mod:`~repro.telemetry.registry` — one queryable namespace of
  counters/gauges/histograms over every layer's stats;
* :mod:`~repro.telemetry.events` — structured control-plane event log
  (mechanism decisions, attaches, migrations, failures);
* :mod:`~repro.telemetry.flowrecords` — sketch-based top talkers plus
  NetFlow-style sampled flow records (the fleet flight recorder);
* :mod:`~repro.telemetry.timeseries` — fixed-interval windowed rollups
  of the registry on a bounded ring (the utilization timeline);
* :mod:`~repro.telemetry.profiler` — engine profiler attributing
  events (and wall-clock) to subsystem callback sites.  Armed
  separately via :func:`profiler.install` because it is an engine
  observer (``repro.sim.scheduler.OBSERVERS``) rather than a
  message-path hook.

Use :func:`session` to enable the message-path components::

    with telemetry.session(sample_rate=1.0, seed=7) as t:
        result = run_pingpong(env, a, b)
        print(export.format_breakdown(t.tracer.breakdown()))

The flight recorder is off by default; pass ``flow_sample_rate`` (and
optionally ``rollup_interval_s``) to arm it::

    with telemetry.session(flow_sample_rate=0.01,
                           rollup_interval_s=1e-3) as t:
        ...
        print(export.format_top(t.flows, t.registry))

Outside a session everything is disabled and the instrumentation hooks
cost one module-attribute load per message (see ``bench_telemetry.py``
and ``bench_observability.py`` for the measured overhead).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from . import events as events_module
from . import flowrecords as flowrecords_module
from . import profiler as profiler_module
from . import registry as registry_module
from . import timeseries as timeseries_module
from . import tracer as tracer_module
from .events import ControlEvent, EventLog
from .flowrecords import FlowRecorder
from .profiler import EngineProfiler
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .sketches import SpaceSaving
from .timeseries import RollupRecorder
from .tracer import SEGMENT_ORDER, MessageTrace, Tracer

__all__ = [
    "Tracer",
    "MessageTrace",
    "SEGMENT_ORDER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "ControlEvent",
    "SpaceSaving",
    "FlowRecorder",
    "RollupRecorder",
    "EngineProfiler",
    "TelemetrySession",
    "session",
]


@dataclass(frozen=True)
class TelemetrySession:
    """Handles to the active telemetry components.

    ``flows`` and ``rollups`` are None unless the session armed the
    flight recorder (``flow_sample_rate`` / ``rollup_interval_s``).
    """

    tracer: Tracer
    registry: MetricsRegistry
    events: EventLog
    flows: Optional[FlowRecorder] = None
    rollups: Optional[RollupRecorder] = None


@contextmanager
def session(
    sample_rate: float = 1.0,
    seed: int = 0x7E1E,
    max_traces_per_flow: int = 512,
    event_capacity: int = 4096,
    flow_sample_rate: Optional[float] = None,
    flow_top_k: int = 32,
    flow_max_records: int = 256,
    rollup_interval_s: Optional[float] = None,
    rollup_retention: int = 256,
):
    """Enable tracer + registry + event log (and, when asked, the
    flight recorder) for the ``with`` body.

    Restores whatever was active before on exit, so sessions nest and
    tests cannot leak telemetry state into each other.
    """
    previous = (
        tracer_module.ACTIVE,
        registry_module.ACTIVE,
        events_module.ACTIVE,
        flowrecords_module.ACTIVE,
        timeseries_module.ACTIVE,
    )
    registry = MetricsRegistry()
    rollups = None
    if rollup_interval_s is not None:
        rollups = RollupRecorder(registry, interval_s=rollup_interval_s,
                                 retention=rollup_retention)
    flows = None
    if flow_sample_rate is not None:
        flows = FlowRecorder(seed=seed, sample_rate=flow_sample_rate,
                             top_k=flow_top_k,
                             max_records=flow_max_records, rollup=rollups)
    handle = TelemetrySession(
        tracer=Tracer(sample_rate, seed, max_traces_per_flow),
        registry=registry,
        events=EventLog(event_capacity),
        flows=flows,
        rollups=rollups,
    )
    # The recorder's own loss counters ride inside the record: a
    # truncated flight record must say so itself (ring evictions,
    # sampling drops, record-table evictions).
    registry.register_telemetry(tracer=handle.tracer, events=handle.events,
                                flows=flows, rollups=rollups)
    tracer_module.ACTIVE = handle.tracer
    registry_module.ACTIVE = handle.registry
    events_module.ACTIVE = handle.events
    flowrecords_module.ACTIVE = flows
    timeseries_module.ACTIVE = rollups
    try:
        yield handle
    finally:
        (
            tracer_module.ACTIVE,
            registry_module.ACTIVE,
            events_module.ACTIVE,
            flowrecords_module.ACTIVE,
            timeseries_module.ACTIVE,
        ) = previous
