#!/usr/bin/env python
"""Pure-engine microbenchmarks: how fast does the simulator itself run?

Every FreeFlow experiment funnels through the discrete-event engine in
``repro.sim``, so engine overhead caps how large a cluster and how many
messages we can simulate.  This harness measures that overhead directly
(wall-clock, not simulated time):

* ``timeout_churn``  — events/sec through ``Environment.schedule``/``step``
  (processes re-arming timeouts in a tight loop);
* ``store_handoff``  — producer/consumer pairs/sec through a ``Store``;
* ``tank_churn``     — put/get pairs/sec through a ``Tank`` level;
* ``transport_*``    — end-to-end messages/sec through each data-plane
  mechanism (SHM, RDMA, DPDK, kernel-TCP fallback) with 4 KiB messages;
* ``peak_rss_kb``    — max resident set size of the whole run.

Results are merged into ``BENCH_engine.json`` keyed by ``--label`` so the
perf trajectory is tracked PR over PR::

    PYTHONPATH=src python benchmarks/bench_engine.py --label current
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke

``--smoke`` runs a reduced workload and asserts the timeout-churn rate
stays above ``--floor`` events/sec (used by CI as a perf regression trip
wire).
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

from repro.hardware import Fabric, Host
from repro.netstack import TcpConnection
from repro.sim import Environment, Store, Tank
from repro.transports import DpdkChannel, RdmaChannel, ShmChannel

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


# -- engine microbenchmarks ------------------------------------------------


def bench_timeout_churn(n_procs: int, iters: int) -> dict:
    """Processes re-arming timeouts: the purest schedule/step hot loop."""
    env = Environment()

    def churner():
        for _ in range(iters):
            yield env.timeout(1e-6)

    for _ in range(n_procs):
        env.process(churner())
    events = n_procs * iters  # one timeout event per loop iteration
    start = perf_counter()
    env.run()
    wall = perf_counter() - start
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
    }


def bench_store_handoff(n_msgs: int) -> dict:
    """One producer, one consumer, unbounded store: handoffs/sec."""
    env = Environment()
    store = Store(env)

    def producer():
        for i in range(n_msgs):
            yield store.put(i)

    def consumer():
        for _ in range(n_msgs):
            yield store.get()

    env.process(producer())
    done = env.process(consumer())
    start = perf_counter()
    env.run(until=done)
    wall = perf_counter() - start
    return {
        "handoffs": n_msgs,
        "wall_s": wall,
        "handoffs_per_sec": n_msgs / wall,
    }


def bench_tank_churn(n_ops: int) -> dict:
    """Alternating put/get on a Tank level: ops/sec (one op = put+get)."""
    env = Environment()
    tank = Tank(env, capacity=100.0)

    def churner():
        for _ in range(n_ops):
            yield tank.put(1.0)
            yield tank.get(1.0)

    done = env.process(churner())
    start = perf_counter()
    env.run(until=done)
    wall = perf_counter() - start
    return {
        "ops": n_ops,
        "wall_s": wall,
        "ops_per_sec": n_ops / wall,
    }


# -- transport message-rate benchmarks -------------------------------------


def _run_channel(env, channel, n_msgs: int, msg_bytes: int) -> dict:
    def sender(end):
        for _ in range(n_msgs):
            yield from end.send(msg_bytes)

    def receiver(end):
        for _ in range(n_msgs):
            yield from end.recv()

    env.process(sender(channel.a))
    done = env.process(receiver(channel.b))
    start = perf_counter()
    env.run(until=done)
    wall = perf_counter() - start
    return {
        "messages": n_msgs,
        "message_bytes": msg_bytes,
        "wall_s": wall,
        "messages_per_sec": n_msgs / wall,
        "sim_s": env.now,
    }


def bench_transports(n_msgs: int, msg_bytes: int = 4096) -> dict:
    results = {}

    env = Environment()
    host = Host(env, "h1", fabric=Fabric(env))
    results["transport_shm"] = _run_channel(
        env, ShmChannel(host), n_msgs, msg_bytes
    )

    env = Environment()
    fabric = Fabric(env)
    h1, h2 = Host(env, "h1", fabric=fabric), Host(env, "h2", fabric=fabric)
    results["transport_rdma"] = _run_channel(
        env, RdmaChannel(h1, h2), n_msgs, msg_bytes
    )

    env = Environment()
    fabric = Fabric(env)
    h1, h2 = Host(env, "h1", fabric=fabric), Host(env, "h2", fabric=fabric)
    results["transport_dpdk"] = _run_channel(
        env, DpdkChannel(h1, h2), n_msgs, msg_bytes
    )

    env = Environment()
    fabric = Fabric(env)
    h1, h2 = Host(env, "h1", fabric=fabric), Host(env, "h2", fabric=fabric)
    results["transport_tcp"] = _run_channel(
        env, TcpConnection(h1, h2), n_msgs, msg_bytes
    )

    return results


def peak_rss_kb() -> int:
    """Max resident set size so far, in KiB (Linux ru_maxrss unit)."""
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# -- harness ---------------------------------------------------------------


def _best_of(repeats: int, fn, *args, rate_key: str):
    """Run ``fn`` ``repeats`` times, keep the best run (least noisy)."""
    best = None
    for _ in range(repeats):
        result = fn(*args)
        if best is None or result[rate_key] > best[rate_key]:
            best = result
    best["repeats"] = repeats
    return best


def run_suite(smoke: bool, repeats: int = 3) -> dict:
    scale = 0.1 if smoke else 1.0
    results = {}
    results["timeout_churn"] = _best_of(
        repeats,
        lambda: bench_timeout_churn(n_procs=64, iters=max(200, int(3000 * scale))),
        rate_key="events_per_sec",
    )
    results["store_handoff"] = _best_of(
        repeats,
        lambda: bench_store_handoff(max(5_000, int(100_000 * scale))),
        rate_key="handoffs_per_sec",
    )
    results["tank_churn"] = _best_of(
        repeats,
        lambda: bench_tank_churn(max(5_000, int(60_000 * scale))),
        rate_key="ops_per_sec",
    )
    n_msgs = max(1_000, int(15_000 * scale))
    transports = None
    for _ in range(1 if smoke else 2):
        attempt = bench_transports(n_msgs)
        if transports is None:
            transports = attempt
        else:
            for name, result in attempt.items():
                if result["messages_per_sec"] > transports[name]["messages_per_sec"]:
                    transports[name] = result
    results.update(transports)
    return results


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
    parser.add_argument(
        "--label",
        default="current",
        help="key under which results are stored in the JSON file",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="JSON file to merge results into",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workload + assert events/sec floor (CI trip wire)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=100_000.0,
        help="minimum acceptable timeout-churn events/sec in --smoke mode",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print results without touching the JSON file",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N repeats for the engine microbenchmarks",
    )
    args = parser.parse_args(argv)

    results = run_suite(smoke=args.smoke, repeats=args.repeats)
    record = {
        "python": platform.python_version(),
        "smoke": args.smoke,
        "benchmarks": results,
        "peak_rss_kb": peak_rss_kb(),
    }

    print(f"engine benchmark ({'smoke' if args.smoke else 'full'} mode)")
    print(f"  timeout churn   {results['timeout_churn']['events_per_sec']:>12,.0f} events/s")
    print(f"  store handoff   {results['store_handoff']['handoffs_per_sec']:>12,.0f} handoffs/s")
    print(f"  tank churn      {results['tank_churn']['ops_per_sec']:>12,.0f} ops/s")
    for name in ("transport_shm", "transport_rdma", "transport_dpdk", "transport_tcp"):
        print(f"  {name:<15} {results[name]['messages_per_sec']:>12,.0f} msgs/s")
    print(f"  peak RSS        {record['peak_rss_kb']:>12,} KiB")

    if not args.no_write:
        merge_and_write(args.output, args.label, record)
        print(f"  -> merged under {args.label!r} in {args.output}")

    if args.smoke:
        rate = results["timeout_churn"]["events_per_sec"]
        if rate < args.floor:
            print(
                f"FAIL: timeout churn {rate:,.0f} events/s below floor "
                f"{args.floor:,.0f}",
                file=sys.stderr,
            )
            return 1
        print(f"  smoke floor ok ({rate:,.0f} >= {args.floor:,.0f} events/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
