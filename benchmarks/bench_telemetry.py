#!/usr/bin/env python
"""Telemetry overhead benchmark: what does tracing cost the simulator?

The telemetry subsystem (``repro.telemetry``) instruments every hot
send/recv path with hooks that must be near-free when disabled and
cheap when sampling.  This harness quantifies both claims on the same
workloads ``bench_engine.py`` tracks:

* ``engine_off``     — timeout-churn events/sec with telemetry fully
  disabled (the default state).  Compared against the engine floor in
  ``--smoke`` mode: the hooks' ``ACTIVE is None`` guards must not
  regress the raw engine (<5% budget, enforced via the same floor CI
  uses for ``bench_engine.py``).
* ``shm_off``        — shm-transport messages/sec, telemetry disabled.
* ``shm_sample_0``   — telemetry *enabled* at 0% sampling: every
  message pays the guard + one RNG-free shortcut, no trace allocated.
* ``shm_sample_1``   — 1% sampling: the recommended production setting.
* ``shm_sample_100`` — 100% sampling: every message fully traced.

Each sampled row reports ``overhead_pct`` relative to ``shm_off``.
Results merge into ``BENCH_telemetry.json`` keyed by ``--label``::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --label current
    PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke
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

from repro import telemetry
from repro.hardware import Fabric, Host
from repro.sim import Environment
from repro.transports import ShmChannel

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"


def bench_timeout_churn(n_procs: int, iters: int) -> dict:
    """Same hot loop as bench_engine.py: pure schedule/step throughput."""
    env = Environment()

    def churner():
        for _ in range(iters):
            yield env.timeout(1e-6)

    for _ in range(n_procs):
        env.process(churner())
    events = n_procs * iters
    start = perf_counter()
    env.run()
    wall = perf_counter() - start
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
    }


def bench_shm_messages(n_msgs: int, msg_bytes: int = 4096) -> dict:
    """End-to-end shm messages/sec — the most hook-dense data path."""
    env = Environment()
    host = Host(env, "h0", fabric=Fabric(env))
    channel = ShmChannel(host)

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
    }


def _best_of(repeats: int, fn, rate_key: str) -> dict:
    best = None
    for _ in range(repeats):
        result = fn()
        if best is None or result[rate_key] > best[rate_key]:
            best = result
    best["repeats"] = repeats
    return best


def run_suite(smoke: bool, repeats: int = 3) -> dict:
    scale = 0.1 if smoke else 1.0
    n_msgs = max(2_000, int(20_000 * scale))
    results: dict[str, dict] = {}

    # Baselines: telemetry fully disabled (ACTIVE is None everywhere).
    results["engine_off"] = _best_of(
        repeats,
        lambda: bench_timeout_churn(n_procs=64, iters=max(200, int(3000 * scale))),
        rate_key="events_per_sec",
    )
    results["shm_off"] = _best_of(
        repeats,
        lambda: bench_shm_messages(n_msgs),
        rate_key="messages_per_sec",
    )

    # Sampled rows: telemetry enabled at increasing trace rates.
    for pct in (0, 1, 100):
        def traced(rate=pct / 100.0):
            with telemetry.session(sample_rate=rate) as handle:
                result = bench_shm_messages(n_msgs)
            result["traces"] = len(handle.tracer)
            return result

        row = _best_of(repeats, traced, rate_key="messages_per_sec")
        row["sample_rate"] = pct / 100.0
        baseline = results["shm_off"]["messages_per_sec"]
        row["overhead_pct"] = 100.0 * (
            1.0 - row["messages_per_sec"] / baseline
        )
        results[f"shm_sample_{pct}"] = row

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
        help="reduced workload + assert the disabled-telemetry engine "
        "rate stays above --floor (CI trip wire)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=100_000.0,
        help="minimum acceptable events/sec with telemetry disabled "
        "(same floor bench_engine.py enforces)",
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
        help="best-of-N repeats per configuration",
    )
    args = parser.parse_args(argv)

    results = run_suite(smoke=args.smoke, repeats=args.repeats)
    record = {
        "python": platform.python_version(),
        "smoke": args.smoke,
        "benchmarks": results,
    }

    print(f"telemetry benchmark ({'smoke' if args.smoke else 'full'} mode)")
    print(f"  engine (telemetry off) {results['engine_off']['events_per_sec']:>12,.0f} events/s")
    print(f"  shm    (telemetry off) {results['shm_off']['messages_per_sec']:>12,.0f} msgs/s")
    for pct in (0, 1, 100):
        row = results[f"shm_sample_{pct}"]
        print(
            f"  shm    (sampling {pct:>3d}%) {row['messages_per_sec']:>12,.0f} msgs/s"
            f"  ({row['overhead_pct']:+5.1f}% vs off, {row['traces']} traces)"
        )

    if not args.no_write:
        merge_and_write(args.output, args.label, record)
        print(f"  -> merged under {args.label!r} in {args.output}")

    if args.smoke:
        rate = results["engine_off"]["events_per_sec"]
        if rate < args.floor:
            print(
                f"FAIL: engine rate with telemetry disabled {rate:,.0f} "
                f"events/s below floor {args.floor:,.0f}",
                file=sys.stderr,
            )
            return 1
        print(f"  smoke floor ok ({rate:,.0f} >= {args.floor:,.0f} events/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
