#!/usr/bin/env python
"""Datacenter-scale control-plane benchmark (DESIGN.md §15).

Builds a lease-backed fleet — default 1024 hosts in 32 racks, 4
containers per host placed by the rack-aware strategy — opens 100k
flows through the full control plane (policy query + channel build),
then kills one rack by silencing its lease keepalives.  Four headline
metrics come out:

* **fleet build** — wall-clock µs per container to register the hosts
  and place and attach every container, and the placement heap entries
  the orchestrator examined per submit (``placement_checks``, an exact
  count: a scan of every rack examines at least racks + rack size);
* **flow-setup rate** — wall-clock flows/sec through
  ``connect_containers`` with the fleet live (watch dispatch, placement
  accounting and lease keepalives all running);
* **convergence** — sim-time from "rack goes silent" to every affected
  flow BROKEN (detection is lease-expiry-driven: nobody calls
  ``fail_host``), then from the respawns to every one ACTIVE again;
* **control-plane memory** — flight-recorder state size, KV footprint
  (keys / history / watches), the library's decision-cache entries
  against its live ones (each resolve forgets the expired entries),
  peak RSS and GC-tracked objects per flow.  The object count is exact,
  so it repeats from run to run.

The watch-dispatch counters ride along: ``checks/event`` stays flat as
the fleet grows because dispatch walks the key trie, not the watch set.

Results merge into ``BENCH_datacenter.json`` keyed by ``--label``::

    PYTHONPATH=src python benchmarks/bench_datacenter.py --label current
    PYTHONPATH=src python benchmarks/bench_datacenter.py --smoke

``--smoke`` runs 64 hosts / 2k flows and asserts the flow-setup rate
stays above ``--floor`` flows/sec (CI's control-plane scaling trip
wire), that an open flow holds at most ``SMOKE_MAX_OBJECTS_PER_FLOW``
GC-tracked objects and that a submit examines at most
``SMOKE_MAX_PLACEMENT_CHECKS_PER_SUBMIT`` placement heap entries (both
exact, so those gates cannot flake).  The cyclic GC is disabled for the run: with ~8 live
objects per flow the collector's pauses would otherwise dominate the
measured rates without ever finding garbage (everything stays
reachable).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from pathlib import Path
# Wall-clock time is what the benchmark measures.
# simlint: disable=SIM001
from time import perf_counter

from repro.cluster import (
    ClusterOrchestrator,
    ContainerSpec,
    RackAwareStrategy,
)
from repro.core import FreeFlowNetwork
from repro.core.flows import FlowState
from repro.hardware import Fabric, Host
from repro.sim import Environment
from repro.sim.rand import RandomStream
from repro.telemetry import flowrecords as _flowrecords
from repro.telemetry.flowrecords import FlowRecorder

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_datacenter.json"
)

#: Host lease TTL (sim seconds).  Detection latency after a rack goes
#: silent is bounded by one TTL plus the watch coalescing window.
HOST_LEASE_TTL_S = 1.0

#: ``--smoke`` fails above this many GC-tracked objects per open flow.
#: An idle flow holds about 8: the flow, its channel, four lanes and its
#: pair's decision-cache entry.
SMOKE_MAX_OBJECTS_PER_FLOW = 10

#: ``--smoke`` fails above this many placement heap entries examined per
#: submit while the fleet is built.  A submit reads two live heads and
#: pops the dead entries above them, and it kills at most two entries
#: (its rack's and its host's), so a fleet built without failures
#: examines at most 4 per submit; it reads 3.96 at 64 hosts / 8 racks
#: and 3.99 at 8,192 / 256.  A scan of every rack examines at least
#: racks + rack size: 16 at the smoke fleet.
SMOKE_MAX_PLACEMENT_CHECKS_PER_SUBMIT = 4.0


# -- fleet construction ------------------------------------------------------


def build_fleet(hosts: int, racks: int, per_host: int):
    """Lease-backed cluster + network with rack-aware placement."""
    env = Environment()
    fabric = Fabric(env)
    strategy = RackAwareStrategy()
    cluster = ClusterOrchestrator(
        env, strategy=strategy, host_lease_ttl_s=HOST_LEASE_TTL_S
    )
    strategy.cluster = cluster
    t0 = perf_counter()
    for i in range(hosts):
        cluster.add_host(
            Host(env, f"host{i}", fabric=fabric), rack=f"rack{i % racks}"
        )
    network = FreeFlowNetwork(cluster)
    network.reconciler.start()
    names = []
    for i in range(hosts * per_host):
        container = cluster.submit(ContainerSpec(f"c{i}"))
        network.attach(container)
        names.append(container.name)
    build_wall = perf_counter() - t0
    return env, cluster, network, names, build_wall


# -- phase 1: flow setup -----------------------------------------------------


def setup_flows(env, network, names, n_flows: int, seed: int):
    """Open ``n_flows`` connections between seeded-random pairs."""
    rng = RandomStream(seed, "bench.datacenter.pairs")
    flows = []
    total = len(names)

    def go():
        for _ in range(n_flows):
            a = rng.randrange(total)
            b = rng.randrange(total)
            if b == a:
                b = (a + 1) % total
            flow = yield from network.connect_containers(names[a], names[b])
            flows.append(flow)

    proc = env.process(go())
    sim0 = env.now
    t0 = perf_counter()
    env.run(until=proc)
    wall = perf_counter() - t0
    kv = network.orchestrator.kv
    stats = {
        "flows": n_flows,
        "wall_s": wall,
        "flows_per_sec": n_flows / wall,
        "sim_s": env.now - sim0,
        "dispatch_events": kv.dispatch_events,
        "dispatch_checks": kv.dispatch_checks,
        "dispatch_checks_per_event": (
            kv.dispatch_checks / kv.dispatch_events
            if kv.dispatch_events else 0.0
        ),
        "watches": len(kv._watches),
    }
    return flows, stats


# -- phase 2: rack failure ---------------------------------------------------


def _run_until(env, predicate, poll_s: float, deadline: float) -> bool:
    """Advance sim time until ``predicate()`` holds (or the deadline)."""

    def probe():
        while not predicate() and env.now < deadline:
            yield env.timeout(poll_s)

    env.run(until=env.process(probe()))
    return predicate()


def fail_rack(env, cluster, network, rack: str):
    """Silence one rack's keepalives; measure detection + repair."""
    victims = [host.name for host in cluster.rack_hosts(rack)]
    lost = [
        name for host in victims for name in cluster.containers_on(host)
    ]
    affected_by_id = {}
    for name in lost:
        for flow in network.flows.flows_for(name):
            affected_by_id[id(flow)] = flow
    affected = list(affected_by_id.values())
    poll = HOST_LEASE_TTL_S / 200.0

    t0 = env.now
    for host in victims:
        cluster.silence_keepalives(host)
    detected = _run_until(
        env,
        lambda: all(f.state is FlowState.BROKEN for f in affected),
        poll, t0 + 10.0 * HOST_LEASE_TTL_S,
    )
    detect_sim_s = env.now - t0

    t1 = env.now
    wall1 = perf_counter()
    for name in lost:
        container = cluster.submit(ContainerSpec(name))
        network.attach(container)
    repaired = _run_until(
        env,
        lambda: all(f.state is FlowState.ACTIVE for f in affected),
        poll, t1 + 10.0 * HOST_LEASE_TTL_S,
    )
    return {
        "rack": rack,
        "hosts_lost": len(victims),
        "containers_lost": len(lost),
        "flows_affected": len(affected),
        "detected": detected,
        "detect_sim_s": detect_sim_s,
        "repaired": repaired,
        "repair_sim_s": env.now - t1,
        "repair_wall_s": perf_counter() - wall1,
    }


# -- phase 3: control-plane memory -------------------------------------------


def peak_rss_kb() -> int:
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def gc_tracked() -> int:
    """Live GC-tracked objects, after a full collection."""
    gc.collect()
    return len(gc.get_objects())


def memory_report(cluster, network, recorder, n_flows: int) -> dict:
    ckv, nkv = cluster.kv, network.orchestrator.kv
    rss = peak_rss_kb()
    return {
        "recorder_state_size": recorder.state_size(),
        "recorder_transitions": sum(recorder.transition_counts.values()),
        "cluster_kv_keys": len(ckv),
        "cluster_kv_history": len(ckv._history),
        "cluster_kv_watches": len(ckv._watches),
        "network_kv_keys": len(nkv),
        "network_kv_history": len(nkv._history),
        "network_kv_watches": len(nkv._watches),
        "leases": ckv.lease_count(),
        "decision_cache_entries": len(network._cache),
        "decision_cache_live": sum(
            1 for _, expiry in network._cache.values()
            if expiry > network.env.now
        ),
        "peak_rss_kb": rss,
        "rss_kb_per_flow": rss / n_flows if n_flows else 0.0,
    }


# -- harness -----------------------------------------------------------------


def run_suite(hosts: int, racks: int, per_host: int, n_flows: int,
              seed: int) -> dict:
    recorder = FlowRecorder(seed=seed, sample_rate=0.01)
    previous = _flowrecords.ACTIVE
    _flowrecords.ACTIVE = recorder
    try:
        env, cluster, network, names, build_wall = build_fleet(
            hosts, racks, per_host
        )
        placement_checks = cluster.placement_checks
        fleet_objects = gc_tracked()
        flows, setup = setup_flows(env, network, names, n_flows, seed)
        failure = fail_rack(env, cluster, network, rack="rack0")
        memory = memory_report(cluster, network, recorder, n_flows)
        # Counted after peak RSS is read: the census list is not the
        # fleet's memory.
        memory["gc_tracked_per_flow"] = (
            (gc_tracked() - fleet_objects) / n_flows if n_flows else 0.0
        )
    finally:
        _flowrecords.ACTIVE = previous
    return {
        "fleet": {
            "hosts": hosts,
            "racks": racks,
            "containers": hosts * per_host,
            "host_lease_ttl_s": HOST_LEASE_TTL_S,
            "build_wall_s": build_wall,
            "build_us_per_container": build_wall / len(names) * 1e6,
            "placement_checks_per_submit": placement_checks / len(names),
        },
        "flow_setup": setup,
        "rack_failure": failure,
        "memory": memory,
    }


def merge_and_write(path: Path, label: str, record: dict) -> None:
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    data[label] = record
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current",
                        help="key under which results are stored")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON file to merge results into")
    parser.add_argument("--smoke", action="store_true",
                        help="64 hosts / 2k flows + flow-setup rate floor")
    parser.add_argument("--floor", type=float, default=500.0,
                        help="minimum flows/sec in --smoke mode")
    parser.add_argument("--hosts", type=int, default=None,
                        help="fleet size (default 1024, smoke 64)")
    parser.add_argument("--racks", type=int, default=None,
                        help="rack count (default 32, smoke 8)")
    parser.add_argument("--per-host", type=int, default=4,
                        help="containers submitted per host")
    parser.add_argument("--flows", type=int, default=None,
                        help="flows to open (default 100000, smoke 2000)")
    parser.add_argument("--seed", type=int, default=11,
                        help="seed for the pair-selection stream")
    parser.add_argument("--no-write", action="store_true",
                        help="print results without touching the JSON file")
    args = parser.parse_args(argv)

    hosts = args.hosts or (64 if args.smoke else 1024)
    racks = args.racks or (8 if args.smoke else 32)
    n_flows = args.flows or (2_000 if args.smoke else 100_000)

    gc.disable()
    try:
        results = run_suite(hosts, racks, args.per_host, n_flows, args.seed)
    finally:
        gc.enable()
    record = {
        "python": platform.python_version(),
        "smoke": args.smoke,
        "results": results,
    }

    fleet, setup = results["fleet"], results["flow_setup"]
    failure, memory = results["rack_failure"], results["memory"]
    print(f"datacenter benchmark ({'smoke' if args.smoke else 'full'} mode)")
    print(f"  fleet            {fleet['hosts']} hosts / {fleet['racks']} "
          f"racks / {fleet['containers']} containers "
          f"(built in {fleet['build_wall_s']:.2f}s)")
    print(f"  fleet build      {fleet['build_us_per_container']:.1f} µs "
          f"per container, {fleet['placement_checks_per_submit']:.2f} "
          f"placement checks/submit")
    print(f"  flow setup       {setup['flows']:,} flows at "
          f"{setup['flows_per_sec']:,.0f} flows/s wall "
          f"({setup['wall_s']:.2f}s)")
    print(f"  watch dispatch   {setup['dispatch_checks_per_event']:.2f} "
          f"checks/event over {setup['watches']} watches")
    print(f"  rack failure     {failure['hosts_lost']} hosts, "
          f"{failure['containers_lost']} containers, "
          f"{failure['flows_affected']:,} flows affected")
    print(f"  detection        {failure['detect_sim_s']*1e3:.0f} ms sim "
          f"(lease TTL {fleet['host_lease_ttl_s']*1e3:.0f} ms)")
    print(f"  repair           {failure['repair_sim_s']*1e3:.0f} ms sim / "
          f"{failure['repair_wall_s']:.2f} s wall")
    print(f"  memory           peak RSS {memory['peak_rss_kb']:,} KiB "
          f"({memory['rss_kb_per_flow']:.1f} KiB/flow, "
          f"{memory['gc_tracked_per_flow']:.2f} GC-tracked objects/flow), "
          f"recorder state {memory['recorder_state_size']}")
    print(f"  decision cache   {memory['decision_cache_entries']:,} entries, "
          f"{memory['decision_cache_live']:,} live")

    if not args.no_write:
        merge_and_write(args.output, args.label, record)
        print(f"  -> merged under {args.label!r} in {args.output}")

    failed = []
    if not failure["detected"]:
        failed.append("rack failure was not fully detected")
    if not failure["repaired"]:
        failed.append("affected flows did not all repair")
    if args.smoke and setup["flows_per_sec"] < args.floor:
        failed.append(
            f"flow setup {setup['flows_per_sec']:,.0f} flows/s below "
            f"floor {args.floor:,.0f}"
        )
    if (args.smoke
            and memory["gc_tracked_per_flow"] > SMOKE_MAX_OBJECTS_PER_FLOW):
        failed.append(
            f"{memory['gc_tracked_per_flow']:.2f} GC-tracked objects per "
            f"flow, above {SMOKE_MAX_OBJECTS_PER_FLOW}"
        )
    checks = fleet["placement_checks_per_submit"]
    if args.smoke and checks > SMOKE_MAX_PLACEMENT_CHECKS_PER_SUBMIT:
        failed.append(
            f"{checks:.2f} placement checks per submit, above "
            f"{SMOKE_MAX_PLACEMENT_CHECKS_PER_SUBMIT}"
        )
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    if args.smoke and not failed:
        print(f"  smoke floor ok ({setup['flows_per_sec']:,.0f} >= "
              f"{args.floor:,.0f} flows/s, "
              f"{memory['gc_tracked_per_flow']:.2f} <= "
              f"{SMOKE_MAX_OBJECTS_PER_FLOW} objects/flow, {checks:.2f} <= "
              f"{SMOKE_MAX_PLACEMENT_CHECKS_PER_SUBMIT} placement "
              f"checks/submit)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
