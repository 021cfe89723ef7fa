"""The traced run: per-layer numbers, measured from outside the program.

Four public instruments, armed only here, never in the end-to-end run:

* ``repro.telemetry.profiler`` attributes each engine event's wall time
  to the code site of its callback; :class:`LayerProfiler` rolls sites
  up by module (``repro/<layer>/...``).
* Spans (:class:`Spans`) wrap public entry points of each layer for the
  traced episode.  A plain call is timed whole; a generator gets a proxy
  that counts wall time inside each resume as busy time and sim time
  from first resume to return as waiting.  Self time is busy time minus
  the child spans' busy time, and it moves from the event's site to the
  span's layer: a process resume runs code of every layer it delegates
  to with ``yield from``, and only the spans can tell those apart.
* ``gc.callbacks`` time collector pauses (:class:`GcTimer`); pauses are
  taken out of the span or event they interrupted.
* ``tracemalloc``, grouped by source file, gives live memory per flow
  (fleet-churn only, in a pass of its own).

The registry (counts) and the tracer (sim time per hop) come from
``repro.telemetry.session``.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import tracemalloc
from collections import defaultdict
# Wall-clock time is what the benchmark measures.
# simlint: disable=SIM001
from time import perf_counter

from repro import telemetry
from repro.telemetry import profiler as profiler_module
from repro.telemetry.profiler import EngineProfiler
from repro.telemetry.tracer import SEGMENT_ORDER

from metrics import ratio
from workloads import Episode

#: Layers a wall fraction is reported for.  ``baselines`` builds netstack
#: paths, so its time is netstack's.  Events of the benchmark's own
#: load-generating processes count as ``sim``: once the spans have taken
#: out the layers they call, what is left is the engine resuming them
#: plus a few of their own statements per resume.
LAYERS = ("sim", "hardware", "netstack", "transports", "core", "cluster",
          "telemetry")
_DIR_LAYER = {layer: layer for layer in LAYERS}
_DIR_LAYER["baselines"] = "netstack"
MEMORY_LAYERS = ("core", "transports", "sim", "cluster", "netstack",
                 "telemetry")

#: (module, class, method, span).  The first block is the public entry
#: points the per-layer metrics name; the rest are the calls the
#: workloads make into each layer, so that their time leaves the
#: workload's own sites.
SPANS = (
    ("repro.core.network", "FreeFlowNetwork", "connect_containers",
     "core.connect"),
    ("repro.core.network", "FreeFlowNetwork", "connect", "core.connect"),
    ("repro.core.network", "FreeFlowNetwork", "resolve", "core.resolve"),
    ("repro.core.network", "FreeFlowNetwork", "attach", "core.attach"),
    ("repro.core.network", "FreeFlowNetwork", "close_connection",
     "core.flow_close"),
    ("repro.core.flows", "ChannelFactory", "build", "core.channel_build"),
    ("repro.core.sockets", "FreeFlowSocket", "send", "core.socket_send"),
    ("repro.core.sockets", "FreeFlowSocket", "recv", "core.socket_recv"),
    ("repro.core.sockets", "FreeFlowSocket", "recv_exactly",
     "core.socket_recv_exactly"),
    ("repro.cluster.orchestrator", "ClusterOrchestrator", "submit",
     "cluster.submit"),
    ("repro.cluster.kvstore", "KeyValueStore", "put", "cluster.kv_put"),
    ("repro.netstack.addressing", "IpPool", "allocate",
     "netstack.ip_allocate"),
    ("repro.transports.shmem", "ShmLane", "send", "transports.lane_send"),
    ("repro.transports.rdma", "RdmaLane", "send", "transports.lane_send"),
    ("repro.hardware.link", "Fabric", "send", "hardware.fabric_send"),
    ("repro.hardware.topology", "FatTreeFabric", "send",
     "hardware.fabric_send"),
    # -- attribution only
    ("repro.core.flows", "ConnectionEnd", "send", "core.conn_send"),
    ("repro.core.flows", "ConnectionEnd", "recv", "core.conn_recv"),
    ("repro.core.agent", "RelayLane", "send", "core.relay_send"),
    ("repro.core.agent", "RelayLane", "recv", "core.relay_recv"),
    ("repro.transports.shmem", "ShmLane", "recv", "transports.lane_recv"),
    ("repro.transports.rdma", "RdmaLane", "recv", "transports.lane_recv"),
    ("repro.netstack.tcp", "TcpEnd", "send", "netstack.tcp_send"),
    ("repro.netstack.tcp", "TcpEnd", "recv", "netstack.tcp_recv"),
    ("repro.hardware.cpu", "CpuSet", "execute", "hardware.cpu"),
    ("repro.hardware.memory", "MemoryBus", "copy", "hardware.membus"),
    ("repro.hardware.memory", "MemoryBus", "dma", "hardware.membus"),
    ("repro.hardware.nic", "PhysicalNic", "engine_service", "hardware.nic"),
    ("repro.telemetry.tracer", "Tracer", "begin", "telemetry.tracer"),
    ("repro.telemetry.tracer", "Tracer", "finish", "telemetry.tracer"),
    ("repro.telemetry.tracer", "MessageTrace", "add", "telemetry.tracer"),
    ("repro.telemetry.registry", "MetricsRegistry", "counter",
     "telemetry.registry"),
    ("repro.telemetry.registry", "MetricsRegistry", "histogram",
     "telemetry.registry"),
)

#: Spans whose mean busy time is reported, and the window they are
#: read from: set-up calls from the set-up, the rest from the phase.
SETUP_BUSY = ("core.attach", "netstack.ip_allocate", "cluster.submit")
PHASE_BUSY = ("core.connect", "core.channel_build", "core.flow_close",
              "cluster.kv_put", "core.socket_send", "core.socket_recv",
              "transports.lane_send", "hardware.fabric_send")

#: Traces kept per flow label: bounds tracer memory on long phases.
TRACES_PER_FLOW = 256


def path_layer(path: str):
    """Layer of a source path or profiler site (``.../repro/<layer>/``),
    or None outside the package's layers.

    Searches from the right, so a checkout that itself sits under a
    directory named ``repro`` still resolves.
    """
    parts = path.split(":", 1)[0].replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and parts[i + 1] in _DIR_LAYER:
            return _DIR_LAYER[parts[i + 1]]
    return None


def site_layer(site: str) -> str:
    """Layer of a profiler site; engine internals and the benchmark's
    load-generating processes are ``sim``."""
    return path_layer(site) or "sim"


class GcTimer:
    """Collector pauses via ``gc.callbacks``; ``total`` only grows."""

    def __init__(self) -> None:
        self.total = 0.0
        self._started = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        elif self._started is not None:
            self.total += perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s", "sim_wait_s", "returns")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.sim_wait_s = 0.0
        self.returns = 0


class _GenSpan:
    """Generator proxy: one span over every resume of ``gen``."""

    __slots__ = ("_spans", "_name", "_gen", "_env", "_started")

    def __init__(self, spans, name, gen, env) -> None:
        self._spans = spans
        self._name = name
        self._gen = gen
        self._env = env
        self._started = None

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, step, *args):
        spans = self._spans
        spans.enter(self._name)
        if self._started is None and self._env is not None:
            self._started = self._env.now
        try:
            return step(*args)
        except StopIteration:
            if self._env is not None:
                spans.returned(self._name, self._env.now - self._started)
            raise
        finally:
            spans.exit()

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        self._gen.close()


class Spans:
    """Span bookkeeping plus the patches that arm it."""

    def __init__(self, gc_timer: GcTimer) -> None:
        self.gc = gc_timer
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        #: layer -> self seconds not yet handed to the profiler
        self.pending: dict[str, float] = defaultdict(float)
        #: open frames: [name, start, gc total at start, child seconds]
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        #: (outer, inner) span names seen nested, for the nesting test
        self.edges: set[tuple[str, str]] = set()

    # -- bookkeeping --------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), self.gc.total, 0.0])

    def exit(self) -> None:
        name, started, gc0, child = self._stack.pop()
        elapsed = perf_counter() - started - (self.gc.total - gc0)
        own = elapsed - child
        stats = self.stats[name]
        stats.busy_s += elapsed
        stats.self_s += own
        self.pending[name.split(".", 1)[0]] += own
        if self._stack:
            parent = self._stack[-1]
            parent[3] += elapsed
            self.edges.add((parent[0], name))

    def returned(self, name: str, sim_wait_s: float) -> None:
        stats = self.stats[name]
        stats.returns += 1
        stats.sim_wait_s += sim_wait_s

    def take_pending(self) -> dict[str, float]:
        pending, self.pending = self.pending, defaultdict(float)
        return pending

    def take_stats(self) -> dict[str, SpanStats]:
        stats, self.stats = self.stats, defaultdict(SpanStats)
        return stats

    # -- arming -------------------------------------------------------------

    def _wrap(self, name: str, original):
        spans = self

        if inspect.isgeneratorfunction(original):
            def traced(obj, *args, **kwargs):
                spans.stats[name].calls += 1
                return _GenSpan(spans, name, original(obj, *args, **kwargs),
                                getattr(obj, "env", None))
        else:
            def traced(obj, *args, **kwargs):
                spans.stats[name].calls += 1
                spans.enter(name)
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    spans.exit()
        return traced

    def install(self) -> None:
        for module, cls_name, method, name in SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "Spans":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class LayerProfiler(EngineProfiler):
    """Engine profiler that splits each event's wall time by layer."""

    __slots__ = ("spans", "gc_timer", "layer_wall", "gc_in_events",
                 "_gc_mark")

    def __init__(self, spans: Spans, gc_timer: GcTimer) -> None:
        super().__init__()
        self.spans = spans
        self.gc_timer = gc_timer
        self.layer_wall: dict[str, float] = defaultdict(float)
        self.gc_in_events = 0.0
        self._gc_mark = gc_timer.total

    def record(self, site: str, wall_s: float) -> None:
        super().record(site, wall_s)
        gc_s = self.gc_timer.total - self._gc_mark
        self._gc_mark = self.gc_timer.total
        self.gc_in_events += gc_s
        moved = self.spans.take_pending()
        for layer, seconds in moved.items():
            self.layer_wall[layer] += seconds
        self.layer_wall[site_layer(site)] += (
            wall_s - gc_s - sum(moved.values()))


def _counters(registry) -> dict:
    return {name: value for name, value in registry.snapshot().items()
            if not isinstance(value, dict)}


def _control(w) -> dict:
    """Control-plane counters read through public attributes."""
    nets, kvs = w.networks, w.kvs
    return {
        "hits": sum(n.cache_hits for n in nets),
        "misses": sum(n.cache_misses for n in nets),
        "transitions": sum(n.flows.transitions for n in nets),
        "retries": sum(n.reconciler.retries for n in nets),
        "gave_up": sum(n.reconciler.gave_up for n in nets),
        "checks": sum(kv.dispatch_checks for kv in kvs),
        "events": sum(kv.dispatch_events for kv in kvs),
    }


def _mean_busy_us(stats: dict, name: str) -> float:
    entry = stats.get(name)
    return ratio(entry.busy_s, entry.calls) * 1e6 if entry else 0.0


def traced_episode(workload, inputs):
    """Run one set-up + phase with every instrument armed.

    Returns ``(episode, phase wall seconds, layer metrics, spans)``.
    """
    gc_timer = GcTimer()
    spans = Spans(gc_timer)
    with gc_timer, spans, telemetry.session(
            max_traces_per_flow=TRACES_PER_FLOW) as session:
        w = workload.setup(inputs)
        setup_stats = spans.take_stats()
        spans.take_pending()
        control0 = _control(w)
        counters0 = _counters(session.registry)
        trace_mark = len(session.tracer)
        prof = LayerProfiler(spans, gc_timer)
        gc0 = gc_timer.total
        ep = Episode()
        profiler_module.install(prof)
        started = perf_counter()
        try:
            workload.phase(w, ep)
        finally:
            wall = perf_counter() - started
            profiler_module.uninstall()
        gc_s = gc_timer.total - gc0
        for layer, seconds in spans.take_pending().items():
            prof.layer_wall[layer] += seconds
        control = {k: v - control0[k] for k, v in _control(w).items()}
        counters = {k: v - counters0.get(k, 0.0)
                    for k, v in _counters(session.registry).items()}
        cq_batch = session.registry.snapshot().get("repro.verbs.cq.batch", {})
        traces = session.tracer.traces[trace_mark:]
        breakdown = session.tracer.breakdown(start=trace_mark)
    phase_stats = spans.stats

    ops = max(1, ep.ops)
    layer_wall = dict(prof.layer_wall)
    # Engine self time: run() minus the events it dispatched, less the
    # collector pauses that fell between events.
    engine_self = (ep.run_wall_s - prof.wall_total_s
                   - max(0.0, gc_s - prof.gc_in_events))
    layer_wall["sim"] = (layer_wall.get("sim", 0.0) + engine_self
                         + wall - ep.run_wall_s)
    metrics = {f"{layer}.wall_frac": ratio(layer_wall.get(layer, 0.0), wall)
               for layer in LAYERS}
    metrics["python.gc_wall_frac"] = ratio(gc_s, wall)
    metrics["sim.events_per_op"] = prof.events_total / ops
    for name in SETUP_BUSY:
        metrics[f"{name}.busy_us"] = _mean_busy_us(setup_stats, name)
    for name in PHASE_BUSY:
        metrics[f"{name}.busy_us"] = _mean_busy_us(phase_stats, name)
    resolve = phase_stats.get("core.resolve")
    metrics.update({
        "core.flows.transitions_per_op": control["transitions"] / ops,
        "cluster.kv_put.calls_per_op":
            phase_stats["cluster.kv_put"].calls / ops
            if "cluster.kv_put" in phase_stats else 0.0,
        "core.resolve.cache_hit_ratio":
            ratio(control["hits"], control["hits"] + control["misses"]),
        "core.resolve.sim_wait_us":
            ratio(resolve.sim_wait_s, resolve.returns) * 1e6
            if resolve else 0.0,
        "cluster.kv.dispatch_checks_per_event":
            ratio(control["checks"], control["events"]),
        "core.reconciler.retries": float(control["retries"]),
        "core.reconciler.gave_up": float(control["gave_up"]),
        "core.socket.sends_per_ring_write":
            ratio(counters.get("repro.socket.sends", 0.0),
                  counters.get("repro.socket.ring_writes", 0.0)),
        "core.socket.credit_updates_per_op":
            counters.get("repro.socket.credit_updates", 0.0) / ops,
        "core.verbs.cq_batch_mean": float(cq_batch.get("mean", 0.0)),
    })
    segments = breakdown["segments"]
    for segment in SEGMENT_ORDER:
        metrics[f"hop.{segment}_us"] = segments.get(segment, 0.0) * 1e6
    exact = all(
        abs(sum(t.breakdown().values()) - t.total_s) <= 1e-9 * t.total_s
        for t in traces if t.closed)
    ep.check("trace.hops_sum_to_latency", exact)
    metrics.update(ep.layer)
    metrics.update(ep.sim)
    return ep, wall, metrics, spans


def live_memory_per_flow(workload, inputs) -> dict[str, float]:
    """KiB of live memory per open flow, by layer (tracemalloc pass).

    Builds the fleet, then traces allocations across the open and
    close/reopen requests; the collector runs before each snapshot, so
    only what open flows keep alive is counted.
    """
    w = workload.setup(inputs)
    flows = []

    def go():
        flows.extend((yield from workload.churn(w, [])))

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        w.env.run(until=w.env.process(go()))
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    by_layer: dict[str, int] = defaultdict(int)
    for stat in after.compare_to(before, "filename"):
        by_layer[path_layer(stat.traceback[0].filename)] += stat.size_diff
    count = max(1, len(flows))
    return {f"{layer}.live_kib_per_flow": by_layer[layer] / 1024 / count
            for layer in MEMORY_LAYERS}
