"""The benchmark's four workloads.

Each workload makes its inputs from the seed and a part number
(``inputs``), builds a fresh simulated world from them (``setup``, timed
as ``setup_s``) and runs one measured phase (``phase``, timed for
``ops_per_wall_s``).  A phase records its operations, its correctness
checks and its sim-clock results in an :class:`Episode`; sim-clock
results depend only on the inputs, so two episodes of one part read the
same.

Why these four (each stresses layers the others barely touch):

* ``rpc-small`` — per-message cost: engine, ``core.sockets``/verbs/vNIC
  and ``transports.rdma`` on a flat fabric; no cluster or netstack work.
* ``mode-sweep`` — per-byte bulk traffic on the paper's five paths
  (FreeFlow shm and RDMA, host, bridge, overlay); the only workload
  that runs ``netstack`` TCP, bridges and overlay routers.
* ``fleet-churn`` — the control plane alone at 512 hosts: flow
  open/close, policy and its decision cache, the reconciler, leases,
  ``cluster.kvstore`` and ``netstack.addressing``, plus memory and GC
  cost per flow.
* ``fabric-mix`` — elephants and open-loop mice on a k=4 fat-tree:
  ``hardware.topology`` and ``netstack.pathsel``, which no other
  workload uses.
"""

from __future__ import annotations

# Wall-clock time is what the benchmark measures.
# simlint: disable=SIM001
from time import perf_counter
from types import SimpleNamespace

from repro import ContainerSpec, quickstart_cluster
from repro.baselines import (
    BridgeModeNetwork,
    HostModeNetwork,
    OverlayModeNetwork,
)
from repro.cluster import ClusterOrchestrator, RackAwareStrategy
from repro.core import FreeFlowNetwork, SocketLayer
from repro.core.flows import FlowState
from repro.hardware import Fabric, Host
from repro.sim import Environment, Interrupt, Store, Tank
from repro.sim.rand import RandomStream
from repro.telemetry.registry import host_utilisation
from repro.transports.base import Mechanism

from metrics import geomean, percentile


class Episode:
    """What one measured phase did and produced."""

    def __init__(self) -> None:
        self.ops = 0
        #: check name -> passed
        self.checks: dict[str, bool] = {}
        #: latency samples (µs) per group; ``sim_latency_p50_us`` and
        #: ``_p99_us`` are the geometric mean over groups of each
        #: group's percentile
        self.latency_us: dict[str, list[float]] = {}
        #: the other end-to-end sim-clock metrics
        self.sim: dict[str, float] = {}
        #: per-layer sim-clock metric -> value
        self.layer: dict[str, float] = {}
        #: wall seconds spent inside ``env.run`` (the engine's share)
        self.run_wall_s = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def run(self, env, until):
        started = perf_counter()
        try:
            return env.run(until=until)
        finally:
            self.run_wall_s += perf_counter() - started

    def sim_results(self) -> dict:
        """Everything the simulation decided (compared across repeats)."""
        return {"latency_us": self.latency_us, **self.sim, **self.layer}


def sim_metrics(episodes) -> dict[str, tuple[float, int]]:
    """End-to-end sim metrics of a run: latency percentiles over the
    pooled samples of ``episodes`` (one per part), the rest averaged."""
    groups: dict[str, list[float]] = {}
    for ep in episodes:
        for group, samples in ep.latency_us.items():
            groups.setdefault(group, []).extend(samples)
    count = sum(len(samples) for samples in groups.values())
    out = {}
    for name, pct in (("sim_latency_p50_us", 50), ("sim_latency_p99_us", 99)):
        out[name] = (geomean(percentile(samples, pct)
                             for samples in groups.values()), count)
    for name in episodes[0].sim:
        out[name] = (sum(ep.sim[name] for ep in episodes) / len(episodes),
                     len(episodes))
    return out


def world(**fields) -> SimpleNamespace:
    """A built world; ``networks``/``kvs`` are what the traced run reads."""
    fields.setdefault("networks", [])
    fields.setdefault("kvs", [])
    return SimpleNamespace(**fields)


def hardware_util(hosts) -> dict[str, float]:
    """Host-side utilisation over the current accounting window."""
    utils = [host_utilisation(host) for host in hosts]
    return {
        "hardware.cpu_cores": sum(u["cpu_pct"] for u in utils) / 100.0,
        "hardware.nic_engine_util": max(u["nic_engine_util"] for u in utils),
        "hardware.link_util": max(u["link_util"] for u in utils),
        "hardware.membus_util": max(u["membus_util"] for u in utils),
    }


def connect(env, network, src: str, dst: str):
    """Open a FreeFlow flow, running the control plane to completion."""

    def go():
        flow = yield from network.connect_containers(src, dst)
        return flow

    return env.run(until=env.process(go()))


def drain(env, done, poll_s: float, limit_s: float):
    """Generator: poll until ``done()`` or ``limit_s`` of sim time."""
    deadline = env.now + limit_s
    while not done() and env.now < deadline:
        yield env.timeout(poll_s)


def stop_all(procs) -> None:
    for proc in procs:
        if proc.is_alive:
            proc.interrupt("phase over")


def counted_receiver(end, totals, key, on_message=None):
    """Receive forever, adding each message's bytes to ``totals[key]``."""
    try:
        while True:
            message = yield from end.recv()
            totals[key] += message.size_bytes
            if on_message is not None:
                on_message(message)
    except Interrupt:
        return


def rng_for(name: str, seed: int, part: int) -> RandomStream:
    return RandomStream(seed, f"bench.{name}.{part}")


# -- rpc-small ---------------------------------------------------------------


class RpcSmall:
    """Closed-loop echo RPC over one FreeFlow socket (RDMA by policy).

    One connection keeps ``WINDOW`` requests in flight; request sizes are
    drawn by the seed from :data:`SIZES` and each response echoes its
    request.  An op is one completed round trip; latency is the round
    trip, from request send to response fully received.
    """

    name = "rpc-small"
    SIZES = (64, 128, 256, 512)
    WINDOW = 128
    REQUESTS = 20_000

    def inputs(self, seed: int, scale: float, part: int = 0):
        rng = rng_for(self.name, seed, part)
        return [rng.choice(self.SIZES)
                for _ in range(max(1, int(self.REQUESTS * scale)))]

    def setup(self, sizes):
        env, cluster, network = quickstart_cluster(hosts=2)
        client_c = cluster.submit(ContainerSpec("client", pinned_host="host0"))
        server_c = cluster.submit(ContainerSpec("server", pinned_host="host1"))
        network.attach(client_c)
        network.attach(server_c)
        layer = SocketLayer(network)
        listener = layer.listen(server_c, 7000)
        client = layer.socket(client_c)

        def handshake():
            decision = yield from client.connect(server_c.ip, 7000)
            server = yield from listener.accept()
            return decision, server

        decision, server = env.run(until=env.process(handshake()))
        return world(env=env, hosts=list(cluster.hosts), client=client,
                     server=server, mechanism=decision.mechanism,
                     sizes=sizes, networks=[network],
                     kvs=[cluster.kv, network.orchestrator.kv])

    def phase(self, w, ep: Episode) -> None:
        env, sizes, n = w.env, w.sizes, len(w.sizes)
        tokens = Tank(env, capacity=self.WINDOW, initial=self.WINDOW)
        echo = Store(env)
        sent_at = [0.0] * n
        rtts: list[float] = []
        got = {"server": 0, "client": 0, "misordered": 0}

        def server_rx():
            for i, size in enumerate(sizes):
                nbytes, tag = yield from w.server.recv_exactly(size)
                got["server"] += nbytes
                got["misordered"] += tag != i
                yield echo.put(i)

        def server_tx():
            for _ in range(n):
                i = yield echo.get()
                yield from w.server.send(sizes[i], i)

        def client_tx():
            for i, size in enumerate(sizes):
                yield tokens.get(1)
                sent_at[i] = env.now
                yield from w.client.send(size, i)

        def client_rx():
            for i, size in enumerate(sizes):
                nbytes, tag = yield from w.client.recv_exactly(size)
                got["client"] += nbytes
                got["misordered"] += tag != i
                rtts.append((env.now - sent_at[i]) * 1e6)
                yield tokens.put(1)

        for host in w.hosts:
            host.reset_accounting()
        start = env.now
        for gen in (server_rx(), server_tx(), client_tx()):
            env.process(gen)
        ep.run(env, env.process(client_rx()))
        elapsed = env.now - start

        expected = sum(sizes)
        ep.ops = len(rtts)
        ep.check("rpc.request_bytes_conserved", got["server"] == expected)
        ep.check("rpc.response_bytes_conserved", got["client"] == expected)
        ep.check("rpc.in_order", got["misordered"] == 0)
        ep.check("rpc.routed_over_rdma", w.mechanism is Mechanism.RDMA)
        ep.latency_us["rtt"] = rtts
        util = hardware_util(w.hosts)
        ep.sim["sim_goodput_gbps"] = 2 * expected * 8 / elapsed / 1e9
        ep.sim["sim_host_cpu_cores"] = util["hardware.cpu_cores"]
        ep.layer.update(util)


# -- mode-sweep --------------------------------------------------------------


class ModeSweep:
    """Paper Fig. 1 / E7 on five paths, each loaded two ways at once.

    Every path carries one saturating stream of ``STREAM_BYTES`` messages
    and, on a second connection between the same containers, a
    closed-loop ``PING_BYTES`` ping-pong with seeded exponential think
    times (mean ``THINK_S``), so pings land at random points of the
    stream.  Per path: stream goodput over the ping-pong's lifetime,
    one-way ping-pong latency (RTT/2) and host CPU.  The end-to-end sim
    metrics are geometric means over the five paths, so any one path
    getting worse shows.  An op is one delivered message.
    """

    name = "mode-sweep"
    PATHS = ("transports.shm", "transports.rdma", "netstack.host",
             "netstack.bridge", "netstack.overlay")
    STREAM_BYTES = 1 << 20
    PING_BYTES = 4096
    ROUNDS = 1_200
    THINK_S = 20e-6
    DRAIN_POLL_S = 10e-6

    def inputs(self, seed: int, scale: float, part: int = 0):
        rng = rng_for(self.name, seed, part)
        rounds = max(1, int(self.ROUNDS * scale))
        return [(path, [rng.expovariate(1 / self.THINK_S)
                        for _ in range(rounds)])
                for path in self.PATHS]

    def _path(self, path: str):
        """(env, hosts, network, stream conn, ping conn) for one path."""
        remote = path == "transports.rdma"
        env, cluster, network = quickstart_cluster(hosts=2 if remote else 1)
        a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
        b = cluster.submit(ContainerSpec(
            "b", pinned_host="host1" if remote else "host0"))
        hosts = [cluster.host("host0")] + (
            [cluster.host("host1")] if remote else [])
        if path.startswith("transports."):
            network.attach(a)
            network.attach(b)
            conns = [connect(env, network, "a", "b") for _ in range(2)]
        elif path == "netstack.host":
            host_mode = HostModeNetwork(env)
            conns = [host_mode.connect(a, b, 5000 + 2 * i, 5001 + 2 * i)
                     for i in range(2)]
        elif path == "netstack.bridge":
            bridge = BridgeModeNetwork(env)
            conns = [bridge.connect(a, b) for _ in range(2)]
        else:
            overlay = OverlayModeNetwork(env)
            conns = [overlay.connect(a, b, 1 + 2 * i, 2 + 2 * i)
                     for i in range(2)]
        return SimpleNamespace(env=env, hosts=hosts, network=network,
                               stream=conns[0], ping=conns[1])

    def setup(self, paths):
        built = [(path, thinks, self._path(path)) for path, thinks in paths]
        return world(paths=built,
                     networks=[p.network for *_, p in built],
                     kvs=[p.network.orchestrator.kv for *_, p in built])

    def _run_path(self, ep: Episode, p, thinks: list) -> dict:
        env = p.env
        totals = {"sent": 0, "stream": 0, "stream_msgs": 0, "window": 0,
                  "ping": 0, "pong": 0}
        state = {"measuring": False, "stop": False}
        one_way: list[float] = []

        def on_stream(message):
            totals["stream_msgs"] += 1
            if state["measuring"]:
                totals["window"] += message.size_bytes

        def sender():
            while not state["stop"]:
                yield from p.stream.a.send(self.STREAM_BYTES)
                totals["sent"] += self.STREAM_BYTES

        def echo():
            try:
                while True:
                    message = yield from p.ping.b.recv()
                    totals["ping"] += message.size_bytes
                    yield from p.ping.b.send(self.PING_BYTES)
            except Interrupt:
                return

        def scenario():
            for host in p.hosts:
                host.reset_accounting()
            state["measuring"] = True
            started = env.now
            for think in thinks:
                yield env.timeout(think)
                sent = env.now
                yield from p.ping.a.send(self.PING_BYTES)
                message = yield from p.ping.a.recv()
                totals["pong"] += message.size_bytes
                one_way.append((env.now - sent) / 2 * 1e6)
            state["measuring"] = False
            result = {"elapsed": env.now - started,
                      **hardware_util(p.hosts)}
            state["stop"] = True
            yield stream_tx
            yield from drain(env, lambda: totals["stream"] == totals["sent"],
                             self.DRAIN_POLL_S, 1.0)
            stop_all((stream_rx, echo_proc))
            return result

        stream_tx = env.process(sender())
        stream_rx = env.process(counted_receiver(p.stream.b, totals, "stream",
                                                 on_stream))
        echo_proc = env.process(echo())
        result = ep.run(env, env.process(scenario()))

        rounds = len(thinks)
        ping_bytes = rounds * self.PING_BYTES
        ep.check("mode-sweep.stream_bytes_conserved",
                 totals["stream"] == totals["sent"])
        ep.check("mode-sweep.ping_bytes_conserved",
                 totals["ping"] == ping_bytes and totals["pong"] == ping_bytes)
        ep.ops += totals["stream_msgs"] + 2 * rounds
        result["gbps"] = totals["window"] * 8 / result["elapsed"] / 1e9
        result["one_way_us"] = one_way
        return result

    def phase(self, w, ep: Episode) -> None:
        results = {path: self._run_path(ep, p, thinks)
                   for path, thinks, p in w.paths}
        for path, r in results.items():
            ep.latency_us[path] = r["one_way_us"]
            ep.layer[f"{path}.sim_gbps"] = r["gbps"]
            ep.layer[f"{path}.sim_latency_p50_us"] = percentile(
                r["one_way_us"], 50)
        for key in ("hardware.cpu_cores", "hardware.nic_engine_util",
                    "hardware.link_util", "hardware.membus_util"):
            ep.layer[key] = sum(r[key] for r in results.values()) / len(results)
        ep.sim["sim_goodput_gbps"] = geomean(
            r["gbps"] for r in results.values())
        ep.sim["sim_host_cpu_cores"] = geomean(
            r["hardware.cpu_cores"] for r in results.values())

        # The paper's ordering (Fig. 1, E7, E10).  FreeFlow's RDMA path
        # pays the sender's copy into the shared ring (E10: ~1/4 of
        # kernel TCP's CPU), so it is held to a third of host mode's CPU,
        # not to raw RDMA's near-zero.
        gbps = {path: r["gbps"] for path, r in results.items()}
        shm, rdma = gbps["transports.shm"], gbps["transports.rdma"]
        host, bridge = gbps["netstack.host"], gbps["netstack.bridge"]
        ep.check("paper.shm_beats_rdma", shm > rdma)
        ep.check("paper.rdma_near_host", rdma >= 0.9 * host)
        ep.check("paper.host_beats_bridge", host > bridge)
        ep.check("paper.bridge_beats_overlay",
                 bridge > gbps["netstack.overlay"])
        ep.check("paper.rdma_cpu_below_third_of_host",
                 results["transports.rdma"]["hardware.cpu_cores"]
                 < results["netstack.host"]["hardware.cpu_cores"] / 3)


# -- fleet-churn -------------------------------------------------------------


class FleetChurn:
    """Control-plane churn on a lease-backed 512-host fleet.

    Setup builds 512 hosts in 32 racks with 1 s host leases and attaches
    2,048 rack-aware containers.  The phase opens ``OPENS`` flows between
    seeded pairs, then runs ``CHURNS`` close/reopen ops on seeded flows:
    even ops reopen the same pair (served by the library's decision
    cache), odd ops reopen between a new seeded pair.  Last, it silences
    one seeded rack and respawns its containers.

    Requests arrive open-loop (seeded Poisson) and one client session
    serves them in order.  Connect latency runs from the request's due
    time, for connects to a new pair (the ones that query the
    orchestrator); arrival rates hold that session at 70% utilisation,
    so most of them queue and the percentiles do not sit on the bare
    50 µs query time.  An op is one flow opened, or closed and reopened.
    Recovery runs from the rack going silent until every affected flow
    is ACTIVE.
    """

    name = "fleet-churn"
    HOSTS, RACKS, PER_HOST = 512, 32, 4
    OPENS, CHURNS = 4_000, 8_000
    #: orchestrator query (50 µs) x rate = 0.7; odd churn ops only query
    OPEN_RATE, CHURN_RATE = 14_000.0, 28_000.0
    HOST_LEASE_TTL_S = 1.0
    POLL_S = 1e-3

    def inputs(self, seed: int, scale: float, part: int = 0):
        rng = rng_for(self.name, seed, part)
        hosts = max(self.RACKS // 4, int(self.HOSTS * scale))
        racks = max(1, min(self.RACKS, hosts // 8))
        containers = hosts * self.PER_HOST
        opens = max(1, int(self.OPENS * scale))
        churns = max(1, int(self.CHURNS * scale))

        def pair():
            a = rng.randrange(containers)
            b = rng.randrange(containers - 1)
            return a, b + (b >= a)

        order = list(range(opens))
        rng.shuffle(order)
        return SimpleNamespace(
            hosts=hosts, racks=racks, containers=containers,
            pairs=[pair() for _ in range(opens)],
            churns=[(order[i % opens], pair() if i % 2 else None)
                    for i in range(churns)],
            open_gaps=[rng.expovariate(self.OPEN_RATE) for _ in range(opens)],
            churn_gaps=[rng.expovariate(self.CHURN_RATE)
                        for _ in range(churns)],
            rack=f"rack{rng.randrange(racks)}")

    def setup(self, spec):
        env = Environment()
        fabric = Fabric(env)
        strategy = RackAwareStrategy()
        cluster = ClusterOrchestrator(env, strategy=strategy,
                                      host_lease_ttl_s=self.HOST_LEASE_TTL_S)
        strategy.cluster = cluster
        for i in range(spec.hosts):
            cluster.add_host(Host(env, f"host{i}", fabric=fabric),
                             rack=f"rack{i % spec.racks}")
        network = FreeFlowNetwork(cluster)
        network.reconciler.start()
        names = []
        for i in range(spec.containers):
            container = cluster.submit(ContainerSpec(f"c{i}"))
            network.attach(container)
            names.append(container.name)
        return world(env=env, cluster=cluster, network=network, names=names,
                     spec=spec, networks=[network],
                     kvs=[cluster.kv, network.orchestrator.kv])

    def churn(self, w, latencies: list):
        """Generator: the open and close/reopen requests, open-loop.

        Returns the open flows; appends connect latencies (µs) of
        connects to a new pair to ``latencies``.
        """
        env, network, names, spec = w.env, w.network, w.names, w.spec
        flows = []
        due = env.now
        for (a, b), gap in zip(spec.pairs, spec.open_gaps):
            due += gap
            if env.now < due:
                yield env.timeout(due - env.now)
            flows.append((yield from network.connect_containers(
                names[a], names[b])))
            latencies.append((env.now - due) * 1e6)
        due = max(due, env.now)
        for (index, peer), gap in zip(spec.churns, spec.churn_gaps):
            due += gap
            if env.now < due:
                yield env.timeout(due - env.now)
            old = flows[index]
            network.close_connection(old)
            if peer is None:
                src, dst = old.src_name, old.dst_name
            else:
                src, dst = names[peer[0]], names[peer[1]]
            flows[index] = yield from network.connect_containers(src, dst)
            if peer is not None:
                latencies.append((env.now - due) * 1e6)
        return flows

    def phase(self, w, ep: Episode) -> None:
        env, cluster, network = w.env, w.cluster, w.network
        latencies: list[float] = []
        outcome = {}

        def fail_rack():
            victims = [host.name for host in cluster.rack_hosts(w.spec.rack)]
            lost = [name for host in victims
                    for name in cluster.containers_on(host)]
            affected = {flow.flow_id: flow for name in lost
                        for flow in network.flows.flows_for(name)}
            affected = list(affected.values())
            silenced_at = env.now
            for host in victims:
                cluster.silence_keepalives(host)
            yield from drain(env, lambda: all(
                f.state is FlowState.BROKEN for f in affected),
                self.POLL_S, 10 * self.HOST_LEASE_TTL_S)
            outcome["detected"] = bool(affected) and all(
                f.state is FlowState.BROKEN for f in affected) and not any(
                cluster.is_host_up(host) for host in victims)
            for name in lost:
                network.attach(cluster.submit(ContainerSpec(name)))
            yield from drain(env, lambda: all(
                f.state is FlowState.ACTIVE for f in affected),
                self.POLL_S, 10 * self.HOST_LEASE_TTL_S)
            outcome["repaired"] = all(
                f.state is FlowState.ACTIVE for f in affected)
            outcome["recovery_s"] = env.now - silenced_at

        def scenario():
            flows = yield from self.churn(w, latencies)
            outcome["open_active"] = all(
                f.state is FlowState.ACTIVE for f in flows)
            outcome["pruned"] = len(network.flows) == len(flows)
            yield from fail_rack()

        ep.run(env, env.process(scenario()))
        ep.ops = len(w.spec.pairs) + len(w.spec.churns)
        ep.check("fleet.flows_active", outcome["open_active"])
        ep.check("fleet.closed_flows_pruned", outcome["pruned"])
        ep.check("fleet.rack_detected", outcome["detected"])
        ep.check("fleet.affected_flows_active", outcome["repaired"])
        ep.latency_us["connect"] = latencies
        ep.sim["sim_recovery_ms"] = outcome["recovery_s"] * 1e3


# -- fabric-mix --------------------------------------------------------------


class FabricMix:
    """Elephants and open-loop mice on ``quickstart_cluster(16, k=4)``.

    Elephants: 8 cross-pod FreeFlow connections in a seeded permutation
    (two leave and two enter each pod), each sending bursts of ``BURST``
    x ``ELEPHANT_BYTES`` with ``GAP_S`` idle between bursts (above the
    200 µs flowlet threshold).  Mice: one connection from every host to a
    seeded cross-pod peer (a permutation: every host also receives one),
    carrying Poisson arrivals of ``MOUSE_BYTES`` messages at
    ``MOUSE_RATE``.  Mouse latency runs from each mouse's due time, and
    the generator reports how late it ran.  An op is one delivered
    message.  Balancing sources and sinks per pod keeps the seed from
    deciding how loaded the core is, only which paths collide.  Mice on
    every host, rather than on 8 seeded ones, keep the seed from
    deciding which hosts' mice queue behind elephants: with 8, mouse
    p50 latency varied over 11% across seeds.
    """

    name = "fabric-mix"
    HOSTS, K = 16, 4
    ELEPHANTS_PER_POD = 2
    ELEPHANT_BYTES, BURST, GAP_S = 64 * 1024, 16, 300e-6
    MOUSE_BYTES, MOUSE_RATE = 2048, 20_000.0
    DURATION_S = 0.02
    DRAIN_POLL_S = 10e-6

    def inputs(self, seed: int, scale: float, part: int = 0):
        rng = rng_for(self.name, seed, part)
        per_pod = self.K * self.K // 4
        pods = [list(range(p * per_pod, (p + 1) * per_pod))
                for p in range(self.HOSTS // per_pod)]

        def cross_pod(sources, sinks):
            """Seeded pairing of sources to sinks, every pair cross-pod."""
            while True:
                rng.shuffle(sinks)
                if all(s // per_pod != d // per_pod
                       for s, d in zip(sources, sinks)):
                    return list(zip(sources, sinks))

        k = self.ELEPHANTS_PER_POD
        elephants = cross_pod([h for pod in pods for h in rng.sample(pod, k)],
                              [h for pod in pods for h in rng.sample(pod, k)])
        mice = cross_pod(list(range(self.HOSTS)), list(range(self.HOSTS)))
        duration = self.DURATION_S * scale
        dues = []
        for _ in mice:
            t, times = rng.expovariate(self.MOUSE_RATE), []
            while t < duration:
                times.append(t)
                t += rng.expovariate(self.MOUSE_RATE)
            dues.append(times)
        return SimpleNamespace(elephants=elephants, mice=mice, dues=dues,
                               duration=duration)

    def setup(self, spec):
        env, cluster, network = quickstart_cluster(hosts=self.HOSTS,
                                                   fat_tree_k=self.K)
        conns = []
        for kind, pairs in (("e", spec.elephants), ("m", spec.mice)):
            for i, (src, dst) in enumerate(pairs):
                names = (f"{kind}{i}a", f"{kind}{i}b")
                for name, host in zip(names, (src, dst)):
                    network.attach(cluster.submit(
                        ContainerSpec(name, pinned_host=f"host{host}")))
                conns.append(connect(env, network, *names))
        return world(env=env, spec=spec, hosts=list(cluster.hosts),
                     fabric=cluster.host("host0").fabric,
                     elephants=conns[:len(spec.elephants)],
                     mice=conns[len(spec.elephants):], networks=[network],
                     kvs=[cluster.kv, network.orchestrator.kv])

    def phase(self, w, ep: Episode) -> None:
        env, spec = w.env, w.spec
        start = env.now
        end = start + spec.duration
        conns = w.elephants + w.mice
        sent = [0] * len(conns)
        got = [0] * len(conns)
        delivered = {"msgs": 0, "window_bytes": 0}
        latencies: list[float] = []
        late: list[float] = []

        def on_message(message):
            delivered["msgs"] += 1
            if env.now <= end:
                delivered["window_bytes"] += message.size_bytes
            if type(message.payload) is float:
                latencies.append((env.now - message.payload) * 1e6)

        def elephant(i, flow):
            while env.now < end:
                for _ in range(self.BURST):
                    yield from flow.a.send(self.ELEPHANT_BYTES)
                    sent[i] += self.ELEPHANT_BYTES
                yield env.timeout(self.GAP_S)

        def mice(i, flow, dues):
            for due in dues:
                due += start
                if env.now < due:
                    yield env.timeout(due - env.now)
                late.append(env.now - due)
                yield from flow.a.send(self.MOUSE_BYTES, due)
                sent[i] += self.MOUSE_BYTES

        senders = [env.process(elephant(i, flow))
                   for i, flow in enumerate(w.elephants)]
        first_mouse = len(w.elephants)
        senders += [env.process(mice(first_mouse + i, flow, dues))
                    for i, (flow, dues) in enumerate(zip(w.mice, spec.dues))]
        receivers = [env.process(counted_receiver(flow.b, got, i, on_message))
                     for i, flow in enumerate(conns)]

        def scenario():
            for host in w.hosts:
                host.reset_accounting()
            yield env.all_of(senders)
            util = {**w.fabric.topology.tier_utilisation(),
                    **hardware_util(w.hosts)}
            yield from drain(env, lambda: got == sent, self.DRAIN_POLL_S, 1.0)
            stop_all(receivers)
            return util

        util = ep.run(env, env.process(scenario()))
        ep.ops = delivered["msgs"]
        ep.check("fabric.bytes_conserved", got == sent)
        ep.check("fabric.zero_reorders", w.fabric.reorders() == 0)
        ep.latency_us["mice"] = latencies
        ep.sim["sim_goodput_gbps"] = (
            delivered["window_bytes"] * 8 / spec.duration / 1e9)
        rehashes = w.fabric.selector.rehashes
        ep.layer.update({
            "hardware.fabric.util.edge-agg": util.pop("edge-agg"),
            "hardware.fabric.util.agg-core": util.pop("agg-core"),
            "hardware.fabric.reorders": float(w.fabric.reorders()),
            "netstack.pathsel.rehashes_per_kmsg":
                1e3 * rehashes / max(1, w.fabric.tracer.checked),
            "bench.mice_late_p99_us": percentile(late, 99) * 1e6,
            **util,
        })


WORKLOADS = {cls.name: cls for cls in (RpcSmall, ModeSweep, FleetChurn,
                                       FabricMix)}
