#!/usr/bin/env python
"""Flow-churn benchmark: reconciler-driven rebinds under live traffic.

N container pairs stream messages while the bench relocates destination
containers back and forth (co-located shm <-> inter-host RDMA).  Every
move is published to the KV store only; the watch-driven FlowReconciler
does the pause/drain/rebind/resume.  Reported per relocate:

* ``rebind_sim_s``   — simulated relocate-to-settled latency (mean/max);
* ``relocates_per_sec`` — wall-clock control-plane throughput;
* ``messages lost`` — sent minus received after a full drain (must be 0).

Results merge into ``BENCH_flow_churn.json`` keyed by ``--label``::

    PYTHONPATH=src python benchmarks/bench_flow_churn.py --label current
    PYTHONPATH=src python benchmarks/bench_flow_churn.py --smoke

``--smoke`` runs a reduced workload and exits non-zero if any message is
lost or any flow fails to return to ACTIVE (CI trip wire).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
# Wall-clock time is what the benchmark measures.
# simlint: disable=SIM001
from time import perf_counter

from repro import ContainerSpec, quickstart_cluster
from repro.core import FlowState
from repro.errors import ConnectionReset

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_flow_churn.json"
)


def run_churn(pairs: int, relocates: int, send_gap_s: float = 50e-6) -> dict:
    env, cluster, network = quickstart_cluster(hosts=3)
    network.reconciler.start()

    flows = {}
    counters = {}
    stop = {"v": False}

    def wire():
        for i in range(pairs):
            src = cluster.submit(ContainerSpec(f"src{i}",
                                               pinned_host="host0"))
            dst = cluster.submit(ContainerSpec(f"dst{i}",
                                               pinned_host="host1"))
            network.attach(src)
            network.attach(dst)
            conn = yield from network.connect_containers(f"src{i}",
                                                         f"dst{i}")
            flows[f"dst{i}"] = conn
            counters[f"dst{i}"] = {"sent": 0, "received": 0}

    env.run(until=env.process(wire()))

    def sender(label, flow):
        while not stop["v"]:
            try:
                yield from flow.a.send(4096)
            except ConnectionReset:
                return
            counters[label]["sent"] += 1
            yield env.timeout(send_gap_s)

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

    rebind_sim_s = []

    def churn():
        yield env.timeout(0.001)
        for move in range(relocates):
            label = f"dst{move % pairs}"
            # Alternate co-located (shm) and inter-host (rdma) placement.
            destination = "host0" if (move // pairs) % 2 == 0 else "host2"
            started = env.now
            cluster.relocate(label, destination)
            network.orchestrator.refresh_location(label)
            yield from network.reconciler.wait_settled(label)
            rebind_sim_s.append(env.now - started)
        # Quiesce and drain so the conservation check is exact.
        stop["v"] = True
        yield env.timeout(0.001)
        yield from network.reconciler.drain(list(flows.values()))

    wall_start = perf_counter()
    env.run(until=env.process(churn()))
    wall = perf_counter() - wall_start

    sent = sum(c["sent"] for c in counters.values())
    received = sum(c["received"] for c in counters.values())
    not_active = [
        flow.flow_id for flow in flows.values()
        if flow.state is not FlowState.ACTIVE
    ]
    return {
        "pairs": pairs,
        "relocates": relocates,
        "rebinds": network.reconciler.rebinds,
        "rebind_sim_mean_s": sum(rebind_sim_s) / len(rebind_sim_s),
        "rebind_sim_max_s": max(rebind_sim_s),
        "relocates_per_sec": relocates / wall,
        "wall_s": wall,
        "messages_sent": sent,
        "messages_received": received,
        "messages_lost": sent - received,
        "flows_not_active": not_active,
        "transitions": network.flows.transitions,
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
                        help="reduced workload + hard conservation check")
    parser.add_argument("--pairs", type=int, default=None,
                        help="streaming container pairs (default 8; 4 smoke)")
    parser.add_argument("--relocates", type=int, default=None,
                        help="relocations to drive (default 40; 8 smoke)")
    parser.add_argument("--no-write", action="store_true",
                        help="print results without touching the JSON file")
    args = parser.parse_args(argv)

    pairs = args.pairs or (4 if args.smoke else 8)
    relocates = args.relocates or (8 if args.smoke else 40)
    results = run_churn(pairs=pairs, relocates=relocates)
    record = {
        "python": platform.python_version(),
        "smoke": args.smoke,
        "benchmark": results,
    }

    print(f"flow churn benchmark ({'smoke' if args.smoke else 'full'} mode)")
    print(f"  pairs / relocates   {results['pairs']} / {results['relocates']}")
    print(f"  reconciler rebinds  {results['rebinds']}")
    print(f"  rebind latency      mean {results['rebind_sim_mean_s'] * 1e6:,.1f} us"
          f"  max {results['rebind_sim_max_s'] * 1e6:,.1f} us (sim)")
    print(f"  control throughput  {results['relocates_per_sec']:,.1f} relocates/s (wall)")
    print(f"  messages            {results['messages_sent']:,} sent, "
          f"{results['messages_lost']} lost")

    if not args.no_write:
        merge_and_write(args.output, args.label, record)
        print(f"  -> merged under {args.label!r} in {args.output}")

    failures = []
    if results["messages_lost"]:
        failures.append(f"{results['messages_lost']} messages lost")
    if results["flows_not_active"]:
        failures.append(f"flows not ACTIVE: {results['flows_not_active']}")
    if results["rebinds"] < relocates:
        failures.append(
            f"only {results['rebinds']} rebinds for {relocates} relocates"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("  conservation ok: every relocate rebound, zero messages lost")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
