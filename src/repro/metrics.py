"""Measurement harness (S14): the paper's three metrics, made runnable.

Every evaluation figure reports some mix of *throughput*, *latency* and
*CPU usage*.  This module drives any duplex endpoint pair (kernel TCP
ends, transport channel ends, FreeFlow connection ends — they all share
the ``send``/``recv`` generator protocol) through the two canonical
workloads and collects those metrics:

* :func:`run_stream` — saturating one-way stream of fixed-size messages
  (throughput + CPU);
* :func:`run_pingpong` — closed-loop request/response (latency
  distribution).

Both take care of warm-up, accounting resets and running the simulation,
so a benchmark is three lines: build testbed, connect, measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .hardware.specs import to_gbps
from .sim.monitor import StreamingSeries
from .sim.process import Interrupt
from .telemetry import registry as _registry
from .telemetry import tracer as _tracer

if TYPE_CHECKING:  # pragma: no cover
    from .hardware.host import Host
    from .sim.scheduler import Environment

__all__ = ["StreamResult", "PingPongResult", "run_stream", "run_pingpong"]


@dataclass
class StreamResult:
    """Outcome of a saturating streaming measurement."""

    gbps: float
    messages: int
    payload_bytes: int
    duration_s: float
    cpu_percent: dict[str, float] = field(default_factory=dict)
    nic_engine_util: dict[str, float] = field(default_factory=dict)
    link_util: dict[str, float] = field(default_factory=dict)
    membus_util: dict[str, float] = field(default_factory=dict)
    #: Bytes delivered per endpoint pair within the measurement window.
    per_pair_bytes: list = field(default_factory=list)
    #: Engine events processed during the measurement window — the cost of
    #: simulating this workload, for perf tracking (see bench_engine.py).
    engine_events: int = 0
    #: Per-hop latency breakdown from the active tracer (None when
    #: tracing was disabled or sampled nothing during the run).
    breakdown: Optional[dict] = None

    @property
    def total_cpu_percent(self) -> float:
        return sum(self.cpu_percent.values())

    def pair_gbps(self, index: int) -> float:
        """Goodput of one pair over the measurement window."""
        if self.duration_s <= 0:
            return 0.0
        return to_gbps(self.per_pair_bytes[index] / self.duration_s)


@dataclass
class PingPongResult:
    """Outcome of a closed-loop latency measurement."""

    latencies: StreamingSeries
    rounds: int
    message_bytes: int
    #: Per-hop latency breakdown from the active tracer (None when
    #: tracing was disabled or sampled nothing during the run).
    breakdown: Optional[dict] = None

    def mean_us(self) -> float:
        return self.latencies.mean() * 1e6

    def p99_us(self) -> float:
        return self.latencies.percentile(99) * 1e6


def _pair_in_flight(send_end, recv_end) -> int:
    """Count of messages accepted but not yet delivered on one pair.

    Every supported endpoint flavour exposes one of two shapes: an
    ``_out`` lane whose stats carry both ``messages_sent`` and
    ``messages_delivered`` (the end of any duplex channel, kernel TCP
    included), or a ``_connection`` with an ``in_flight()`` method
    (FreeFlow connection ends).  Anything else is a bug in the caller —
    silently answering 0 here used to end the drain loop early and
    corrupt the *next* measurement on the channel, so unknown endpoints
    are rejected loudly.
    """
    out_lane = getattr(send_end, "_out", None)
    if out_lane is not None and hasattr(out_lane, "stats"):
        stats = out_lane.stats
        sent = getattr(stats, "messages_sent", None)
        delivered = getattr(stats, "messages_delivered", None)
        if sent is not None and delivered is not None:
            return sent - delivered
    connection = getattr(send_end, "_connection", None)
    if connection is not None:
        return connection.in_flight()
    raise TypeError(
        f"cannot count in-flight messages on {type(send_end).__name__}: "
        "expected an endpoint with lane stats "
        "(messages_sent/messages_delivered) or a FlowConnection facade"
    )


def _snapshot(hosts: Sequence["Host"]) -> tuple[dict, dict, dict, dict]:
    """Per-host utilisation, read through the registry's single set of
    host readers so the harness and the ``repro.host.*`` gauges can
    never disagree about what "utilisation" means."""
    cpu: dict = {}
    engine: dict = {}
    link: dict = {}
    membus: dict = {}
    for host in hosts:
        util = _registry.host_utilisation(host)
        cpu[host.name] = util["cpu_pct"]
        engine[host.name] = util["nic_engine_util"]
        link[host.name] = util["link_util"]
        membus[host.name] = util["membus_util"]
    return cpu, engine, link, membus


def run_stream(
    env: "Environment",
    pairs,
    duration_s: float = 0.05,
    message_bytes: int = 1 << 20,
    hosts: Sequence["Host"] = (),
    warmup_s: float = 0.002,
    drain_s: float = 0.001,
    max_drain_s: float = 1.0,
) -> StreamResult:
    """Saturate one or more endpoint pairs and measure delivered goodput.

    ``pairs`` is one ``(send_end, recv_end)`` tuple or a list of them
    (multi-pair experiments pass 2-16).  Each sender pushes back-to-back
    ``message_bytes`` messages; each receiver consumes as fast as the
    data plane delivers.  Counting starts after ``warmup_s``.
    """
    if hasattr(pairs, "send"):
        raise TypeError("pass (send_end, recv_end) tuples, not a single end")
    if pairs and hasattr(pairs[0], "send"):
        pairs = [tuple(pairs)]
    if not pairs:
        raise ValueError("need at least one endpoint pair")

    stop_at = env.now + warmup_s + duration_s
    counting = {"on": warmup_s == 0, "messages": 0, "bytes": 0}
    per_pair = [0] * len(pairs)
    tracer = _tracer.ACTIVE
    trace_mark = len(tracer) if tracer is not None else 0

    def sender(end):
        try:
            while env.now < stop_at:
                yield from end.send(message_bytes)
        except Interrupt:
            return

    def receiver(end, index):
        try:
            while True:
                message = yield from end.recv()
                if counting["on"]:
                    counting["messages"] += 1
                    counting["bytes"] += message.size_bytes
                    per_pair[index] += message.size_bytes
        except Interrupt:
            return

    workers = []
    for index, (send_end, recv_end) in enumerate(pairs):
        workers.append(env.process(sender(send_end)))
        workers.append(env.process(receiver(recv_end, index)))

    if warmup_s > 0:
        env.run(until=env.now + warmup_s)
        for host in hosts:
            host.reset_accounting()
        counting["on"] = True
    measure_start = env.now
    events_before = env.events_processed
    env.run(until=stop_at)
    elapsed = env.now - measure_start
    engine_events = env.events_processed - events_before
    cpu, engine, link, membus = _snapshot(hosts)
    # Tear the workload down so the endpoints are reusable: stop the
    # senders, let the receivers drain everything still in flight, then
    # retire the receivers — a parked receiver (or a stale queued
    # message) would corrupt the next measurement on this channel.
    counting["on"] = False
    for worker in workers[0::2]:
        if worker.is_alive:
            worker.interrupt("measurement over")
    deadline = env.now + max_drain_s
    while env.now < deadline:
        env.run(until=min(deadline, env.now + drain_s))
        if all(_pair_in_flight(s, r) == 0 for s, r in pairs):
            # One settle window so the last delivery gets consumed.
            env.run(until=env.now + drain_s)
            break
    for worker in workers[1::2]:
        if worker.is_alive:
            worker.interrupt("measurement over")
    env.run(until=env.now)

    result = StreamResult(
        gbps=to_gbps(counting["bytes"] / elapsed) if elapsed > 0 else 0.0,
        messages=counting["messages"],
        payload_bytes=counting["bytes"],
        duration_s=elapsed,
        cpu_percent=cpu,
        nic_engine_util=engine,
        link_util=link,
        membus_util=membus,
        per_pair_bytes=per_pair,
        engine_events=engine_events,
    )
    if tracer is not None and len(tracer) > trace_mark:
        result.breakdown = tracer.breakdown(start=trace_mark)
    _registry.counter_inc("repro.bench.stream.runs")
    _registry.histogram_observe("repro.bench.stream.gbps", result.gbps)
    return result


def run_pingpong(
    env: "Environment",
    client_end,
    server_end,
    rounds: int = 200,
    message_bytes: int = 4096,
    warmup_rounds: int = 20,
) -> PingPongResult:
    """Closed-loop ping-pong; records one-way latencies (RTT / 2)."""
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    latencies = StreamingSeries(reservoir=math.inf)
    tracer = _tracer.ACTIVE
    trace_mark = len(tracer) if tracer is not None else 0

    def client():
        nonlocal trace_mark
        for i in range(warmup_rounds + rounds):
            if i == warmup_rounds and tracer is not None:
                # Scope the breakdown to the measured rounds only.
                trace_mark = len(tracer)
            started = env.now
            yield from client_end.send(message_bytes)
            yield from client_end.recv()
            if i >= warmup_rounds:
                latencies.add((env.now - started) / 2)
                _registry.histogram_observe(
                    "repro.bench.pingpong.latency_s", (env.now - started) / 2
                )

    def server():
        try:
            while True:
                yield from server_end.recv()
                yield from server_end.send(message_bytes)
        except Interrupt:
            return

    done = env.process(client())
    echo = env.process(server())
    env.run(until=done)
    if echo.is_alive:
        echo.interrupt("measurement over")
    env.run(until=env.now)
    result = PingPongResult(
        latencies=latencies, rounds=rounds, message_bytes=message_bytes
    )
    if tracer is not None and len(tracer) > trace_mark:
        result.breakdown = tracer.breakdown(start=trace_mark)
    _registry.counter_inc("repro.bench.pingpong.runs")
    return result
