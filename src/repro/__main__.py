"""Command-line demo runner: ``python -m repro [demo]``.

Gives the library a zero-setup "does it work?" entry point:

* ``python -m repro``          — the quickstart demo (default)
* ``python -m repro matrix``   — the Fig. 2 / Table 1 mechanism matrix
* ``python -m repro compare``  — FreeFlow vs every baseline, intra+inter
* ``python -m repro trace``    — per-hop latency breakdown per mechanism

Besides the demos there are four tool subcommands:

* ``python -m repro lint``     — simlint static analysis (the rule range
  is derived from the registry; ``--list-rules`` prints it); see
  :mod:`repro.analysis.cli` for flags (``--fail-on-new``, ``--explain``)
* ``python -m repro chaos``    — deterministic fault-injection scenarios
  with invariant verification; see :mod:`repro.chaos.runner` for flags
  (``--smoke``, ``--scenario``, ``--seed``, ``--json``, ``--list``)
* ``python -m repro top``      — live top-talkers / link-utilisation /
  flow-state view over a chaos scenario (default host-crash-storm)
* ``python -m repro report``   — deterministic flight-record artifact
  (JSON-lines) for a synthetic fleet; see :mod:`repro.telemetry.cli`
"""

from __future__ import annotations

import argparse
import sys

from . import ContainerSpec, quickstart_cluster
from .metrics import run_pingpong, run_stream


def demo_quickstart() -> None:
    """Two containers per host; FreeFlow picks shm locally, RDMA across."""
    env, cluster, network = quickstart_cluster(hosts=2)
    for name, host in (("web", "host0"), ("cache", "host0"),
                       ("db", "host1")):
        container = cluster.submit(ContainerSpec(name, pinned_host=host))
        network.attach(container)
        print(f"  {name:6s} on {host}  ip={container.ip}")

    def wire():
        local = yield from network.connect_containers("web", "cache")
        remote = yield from network.connect_containers("web", "db")
        return local, remote

    local, remote = env.run(until=env.process(wire()))
    for label, connection in (("local", local), ("remote", remote)):
        result = run_stream(env, [(connection.a, connection.b)],
                            duration_s=0.02, hosts=list(cluster.hosts))
        latency = run_pingpong(env, connection.a, connection.b, rounds=60)
        print(f"  {label:6s} -> {connection.mechanism.value.upper():4s}  "
              f"{result.gbps:6.1f} Gb/s  {latency.mean_us():5.2f} us  "
              f"CPU {result.total_cpu_percent:4.0f} %")


def demo_matrix() -> None:
    """The deployment-case mechanism matrix (paper Fig. 2 + Table 1)."""
    from .cluster import ClusterOrchestrator
    from .core import FreeFlowNetwork
    from .hardware import Fabric, Host, NO_RDMA_TESTBED, VirtualMachine
    from .sim import Environment

    cases = {
        "(a) same host": ("h1", "h1", False),
        "(b) two hosts": ("h1", "h2", False),
        "(c) same VM": ("vm0", "vm0", True),
        "(d) VMs, two hosts": ("vm0", "vm1", True),
    }
    constraints = ("none", "w/o trust", "w/o RDMA NIC")
    print(f"  {'case':20s}" + "".join(f"{c:>14s}" for c in constraints))
    for case, (loc_a, loc_b, with_vms) in cases.items():
        cells = []
        for constraint in constraints:
            env = Environment()
            fabric = Fabric(env)
            spec = NO_RDMA_TESTBED if constraint == "w/o RDMA NIC" else None
            cluster = ClusterOrchestrator(env)
            h1 = Host(env, "h1", spec=spec, fabric=fabric)
            h2 = Host(env, "h2", spec=spec, fabric=fabric)
            cluster.add_host(h1)
            cluster.add_host(h2)
            if with_vms:
                cluster.add_vm(VirtualMachine(h1, "vm0"))
                if case.startswith("(d)"):
                    cluster.add_vm(VirtualMachine(h2, "vm1"))
            tenants = (("blue", "red") if constraint == "w/o trust"
                       else ("t", "t"))
            network = FreeFlowNetwork(cluster)
            for name, tenant, loc in (("a", tenants[0], loc_a),
                                      ("b", tenants[1], loc_b)):
                container = cluster.submit(
                    ContainerSpec(name, tenant=tenant, pinned_host=loc)
                )
                network.attach(container)

            def wire():
                connection = yield from network.connect_containers("a", "b")
                return connection

            connection = env.run(until=env.process(wire()))
            cells.append(connection.mechanism.value)
        print(f"  {case:20s}" + "".join(f"{c:>14s}" for c in cells))


def demo_compare() -> None:
    """FreeFlow vs every baseline (the paper's E10 headline table)."""
    from .baselines import (
        BridgeModeNetwork,
        HostModeNetwork,
        OverlayModeNetwork,
        RawRdmaNetwork,
        ShmIpcNetwork,
    )

    for intra in (True, False):
        where = "intra-host" if intra else "inter-host"
        print(f"  -- {where} --")
        for kind in ("freeflow", "shm-ipc", "rdma", "host", "bridge",
                     "overlay"):
            if kind == "shm-ipc" and not intra:
                continue
            env, cluster, network = quickstart_cluster(hosts=2)
            hosts = list(cluster.hosts)
            a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
            b = cluster.submit(ContainerSpec(
                "b", pinned_host="host0" if intra else "host1"
            ))
            network.attach(a)
            network.attach(b)
            if kind == "freeflow":
                def wire():
                    connection = yield from network.connect_containers(
                        "a", "b"
                    )
                    return connection

                channel = env.run(until=env.process(wire()))
            elif kind == "shm-ipc":
                channel = ShmIpcNetwork().connect(a, b)
            elif kind == "rdma":
                channel = RawRdmaNetwork().connect(a, b)
            elif kind == "host":
                channel = HostModeNetwork(env).connect(a, b, 1, 2)
            elif kind == "bridge":
                channel = BridgeModeNetwork(env).connect(a, b)
            else:
                channel = OverlayModeNetwork(env).connect(a, b)
            result = run_stream(env, [(channel.a, channel.b)],
                                duration_s=0.02, hosts=hosts)
            print(f"  {kind:9s} {result.gbps:6.1f} Gb/s  "
                  f"CPU {result.total_cpu_percent:4.0f} %")


def demo_trace() -> None:
    """Where does each mechanism's latency go?  (telemetry tentpole)

    Runs a traced ping-pong over shared memory, RDMA and kernel TCP and
    prints the tracer's per-hop breakdown next to the harness's measured
    latency — the segment means sum to the end-to-end mean exactly, so
    the two numbers must agree (CI checks within 1%).
    """
    from . import telemetry
    from .hardware import Fabric, Host
    from .netstack import TcpConnection
    from .sim import Environment
    from .telemetry import export
    from .transports import RdmaChannel, ShmChannel

    def mk_shm(env):
        return ShmChannel(Host(env, "h0"))

    def mk_rdma(env):
        fabric = Fabric(env)
        return RdmaChannel(Host(env, "a", fabric=fabric),
                           Host(env, "b", fabric=fabric))

    def mk_tcp(env):
        fabric = Fabric(env)
        return TcpConnection(Host(env, "a", fabric=fabric),
                             Host(env, "b", fabric=fabric))

    for label, make in (("shm", mk_shm), ("rdma", mk_rdma),
                        ("kernel-tcp", mk_tcp)):
        env = Environment()
        channel = make(env)
        with telemetry.session(sample_rate=1.0) as handle:
            result = run_pingpong(env, channel.a, channel.b,
                                  rounds=100, warmup_rounds=0)
            aggregate = handle.tracer.breakdown()
        measured = result.latencies.mean()
        traced = aggregate["mean_total_s"]
        error = abs(traced - measured) / measured if measured else 0.0
        print(export.format_breakdown(aggregate, label=label))
        print(f"  harness one-way mean: {measured * 1e6:.3f} us  "
              f"(trace vs harness: {error * 100:.3f}% apart)")
        if error > 0.01:
            raise SystemExit(
                f"trace/harness mismatch for {label}: {error * 100:.2f}%"
            )
        print()
    print("  all mechanisms: segment sums match end-to-end latency (<1%)")


def demo_flows() -> None:
    """Flow lifecycle + watch-driven reconciler (control-plane tentpole).

    Starts the FlowReconciler, streams traffic over two flows, then hits
    the control plane with the three events it watches for — an external
    relocate, a runtime NIC-capability change, and a host failure with
    replacement containers — and shows every flow converging without any
    caller invoking rebind/repair directly.  Exits non-zero if a message
    is lost across the rebinds (CI runs this as a smoke test).
    """
    from . import telemetry
    from .errors import ConnectionReset
    from .telemetry.events import FLOW_TRANSITION

    env, cluster, network = quickstart_cluster(hosts=3)
    with telemetry.session() as handle:
        network.reconciler.start()
        for name, host in (("web", "host0"), ("cache", "host0"),
                           ("db", "host1")):
            container = cluster.submit(ContainerSpec(name, pinned_host=host))
            network.attach(container)
            print(f"  {name:6s} on {host}  ip={container.ip}")

        def wire():
            local = yield from network.connect_containers("web", "cache")
            remote = yield from network.connect_containers("web", "db")
            return {"web->cache": local, "web->db": remote}

        flows = env.run(until=env.process(wire()))
        counters = {label: {"sent": 0, "received": 0} for label in flows}
        stop = {"v": False}

        def sender(label, flow):
            while not stop["v"]:
                try:
                    yield from flow.a.send(4096)
                except ConnectionReset:
                    return
                counters[label]["sent"] += 1
                yield env.timeout(20e-6)

        def receiver(label, flow):
            while True:
                try:
                    yield from flow.b.recv()
                except ConnectionReset:
                    return
                counters[label]["received"] += 1

        for label, flow in flows.items():
            env.process(sender(label, flow))
            env.process(receiver(label, flow))

        def scenario():
            yield env.timeout(0.002)
            print("  [1] external relocate: cache host0 -> host1")
            cluster.relocate("cache", "host1")
            network.orchestrator.refresh_location("cache")
            yield from network.reconciler.wait_settled("cache")
            flow = flows["web->cache"]
            print(f"      web->cache now {flow.mechanism.value} "
                  f"(gen {flow.generation}, {flow.state.value})")

            yield env.timeout(0.002)
            print("  [2] registry change: host1 loses RDMA")
            network.orchestrator.set_nic_capability("host1", rdma=False)
            yield from network.reconciler.wait_settled()
            for label, flow in flows.items():
                print(f"      {label:10s} {flow.mechanism.value:5s} "
                      f"[{flow.state.value}]")

            # Quiesce traffic so the loss check below is exact.
            yield env.timeout(0.002)
            stop["v"] = True
            yield from network.reconciler.drain(list(flows.values()))

            print("  [3] host1 fails; replacements attach -> auto-repair")
            broken = network.handle_host_failure("host1")
            print(f"      flows broken: {len(broken)}")
            for name in ("cache", "db"):
                replacement = cluster.submit(
                    ContainerSpec(name, pinned_host="host2")
                )
                network.attach(replacement)
            yield from network.reconciler.wait_settled()
            for label, flow in flows.items():
                print(f"      {label:10s} {flow.mechanism.value:5s} "
                      f"[{flow.state.value}] gen {flow.generation}")

            # Prove the repaired channels carry traffic.
            for label, flow in flows.items():
                yield from flow.a.send(4096)
                counters[label]["sent"] += 1
                yield from flow.b.recv()
                counters[label]["received"] += 1

        env.run(until=env.process(scenario()))
        transitions = handle.events.of_kind(FLOW_TRANSITION)
        history = [e.fields["new"] for e in transitions
                   if e.fields["flow"] == flows["web->db"].flow_id]
        print(f"  web->db lifecycle: {' -> '.join(history)}")
        print(f"  reconciler: {network.reconciler.rebinds} rebinds, "
              f"{network.reconciler.repairs} repairs, "
              f"{len(transitions)} transitions logged")

    lost = 0
    for label, c in counters.items():
        print(f"  {label:10s} sent={c['sent']:4d} received={c['received']:4d}")
        lost += c["sent"] - c["received"]
    if lost:
        raise SystemExit(f"message conservation violated: {lost} lost")
    print("  message conservation holds across every rebind")


DEMOS = {
    "quickstart": demo_quickstart,
    "matrix": demo_matrix,
    "compare": demo_compare,
    "trace": demo_trace,
    "flows": demo_flows,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # Tool subcommand with its own flag namespace; dispatched before
        # the demo parser so `lint --fail-on-new` is not read as a demo.
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "chaos":
        from .chaos.runner import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "top":
        from .telemetry.cli import top_main

        return top_main(argv[1:])
    if argv and argv[0] == "report":
        from .telemetry.cli import report_main

        return report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FreeFlow (HotNets'16) reproduction demos "
                    "(plus the 'lint' and 'chaos' tool subcommands)",
    )
    parser.add_argument("demo", nargs="?", default="quickstart",
                        choices=sorted(DEMOS))
    args = parser.parse_args(argv)
    print(f"[repro] running demo: {args.demo}")
    DEMOS[args.demo]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
