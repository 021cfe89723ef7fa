#!/usr/bin/env python3
"""FreeFlow reproduction benchmark: four workloads, end to end and by layer.

Run from the repository root::

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload rpc-small --seed 3
    python3 bench/run.py --smoke                  # ~1/10 scale, < 30 s
    python3 bench/run.py --trace 1                # per-layer (traced) run
    python3 bench/run.py --json runs.jsonl        # append JSON-lines records

Workloads run one after another, each in its own single-threaded child
process, so peak RSS is per workload.  A run repeats *episodes* (a fresh
set-up plus one measured phase) until ``run_seconds`` of
``BENCHMARK.json`` have passed (none under ``--smoke``), at least three
times.  Wall-clock metrics are medians over the episodes;
sim-clock metrics are a pure function of the seed (see ``PARTS``).
``--trace 1`` runs the traced episode that gives the per-layer metrics
instead (see ``layers.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer ones with ``--trace 1``).  A failed
correctness check counts as a failed op and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
# Wall-clock time is what the benchmark measures.
# simlint: disable=SIM001
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from metrics import (  # noqa: E402
    E2E_CLOCK,
    SRC,
    WORKLOADS,
    layer_clock,
    load_spec,
    make_record,
    metric_entries,
    source_rev,
)

#: Input parts per seed: a run's first episodes take one part each and
#: its sim-clock metrics pool them (three times the latency samples of
#: one episode); later episodes repeat the parts.  It is also the least
#: number of set-ups a run times, so ``setup_s`` is always a median.
PARTS = 3
SMOKE_SCALE = 0.1
#: The tracemalloc pass opens this share of the workload's flows.
MEMORY_SCALE = 0.25
CHILD_TIMEOUT_S = 170


# -- child: one workload in this process ------------------------------------


def _episode(workload, inputs):
    """(set-up seconds, phase seconds, Episode) of one fresh episode."""
    from workloads import Episode

    gc.collect()
    started = perf_counter()
    w = workload.setup(inputs)
    built = perf_counter()
    ep = Episode()
    workload.phase(w, ep)
    return built - started, perf_counter() - built, ep


def _episodes(workload, parts: list, seconds: float, at_least: int) -> list:
    """Episodes cycling through ``parts`` until ``seconds`` have passed."""
    runs = []
    started = perf_counter()
    while len(runs) < at_least or perf_counter() - started < seconds:
        runs.append(_episode(workload, parts[len(runs) % len(parts)]))
    return runs


def _tally(episodes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    broken = []
    for ep in episodes:
        attempted += ep.ops + len(ep.checks)
        for name, ok in ep.checks.items():
            if not ok:
                failed += 1
                broken.append(name)
    return attempted, failed, broken


def _e2e(workload, seed: int, scale: float, seconds: float) -> dict:
    from workloads import sim_metrics

    parts = [workload.inputs(seed, scale, part) for part in range(PARTS)]
    started = perf_counter()
    runs = _episodes(workload, parts, 0.0, PARTS)
    # Read after a fixed amount of work: allocator growth over however
    # many repeats fit in ``seconds`` would otherwise move it.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs += _episodes(workload, parts, seconds - (perf_counter() - started), 0)
    episodes = [ep for _, _, ep in runs]
    for i, ep in enumerate(episodes[PARTS:], PARTS):
        ep.check("determinism.episodes_repeat",
                 ep.sim_results() == episodes[i % PARTS].sim_results())
    attempted, failed, broken = _tally(episodes)
    metrics = {
        "ops_per_wall_s": (statistics.median(
            ep.ops / wall for _, wall, ep in runs), len(runs)),
        "setup_s": (statistics.median(s for s, _, _ in runs), len(runs)),
        "peak_rss_mib": (peak_rss_mib, PARTS),
        "failed_op_ratio": (failed / max(1, attempted), attempted),
        **sim_metrics(episodes[:PARTS]),
    }
    return {"attempted": attempted, "failed": failed, "broken": broken,
            "metrics": metrics}


def _traced(workload, seed: int, seconds: float, scale: float) -> dict:
    from layers import live_memory_per_flow, traced_episode

    inputs = workload.inputs(seed, scale)
    runs = _episodes(workload, [inputs], seconds / 2, 1)
    untraced = statistics.median(ep.ops / wall for _, wall, ep in runs)
    ep, wall, layer, _spans = traced_episode(workload, inputs)
    layer["telemetry.trace_overhead_pct"] = (
        untraced / (ep.ops / wall) - 1.0) * 100.0
    if workload.name == "fleet-churn":
        layer.update(live_memory_per_flow(
            workload, workload.inputs(seed, scale * MEMORY_SCALE)))
    attempted, failed, broken = _tally([ep] + [e for _, _, e in runs])
    names = [entry["name"] for entry in load_spec()["per_layer"]]
    return {"attempted": attempted, "failed": failed, "broken": broken,
            "metrics": {name: (layer.get(name, 0.0), 1) for name in names}}


def child_main(name: str, seed: int, seconds: float, trace: bool,
               scale: float) -> dict:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[name]()
    if trace:
        return _traced(workload, seed, seconds, scale)
    return _e2e(workload, seed, scale, seconds)


# -- parent: orchestrate, report --------------------------------------------


def run_child(name: str, args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           "--seed", str(args.seed), "--trace", str(int(args.trace))]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {name} exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def to_records(name: str, payload: dict, trace: bool, seed: int, rev: str,
               entries: dict) -> list[dict]:
    kind = "layer" if trace else "e2e"
    records = []
    for metric, (value, n) in payload["metrics"].items():
        clock = layer_clock(metric) if trace else E2E_CLOCK[metric]
        records.append(make_record(name, metric, value,
                                   entries[metric]["unit"], clock, kind, n,
                                   seed, rev))
    return records


def print_table(name: str, records: list[dict], payload: dict) -> None:
    print(f"\n== {name}  (attempted {payload['attempted']}, "
          f"failed {payload['failed']})")
    print(f"  {'metric':40s} {'value':>16s}  {'unit':8s} {'clock':5s} "
          f"{'n':>8s}")
    for r in records:
        print(f"  {r['metric']:40s} {r['value']:16.6g}  {r['unit']:8s} "
              f"{r['clock']:5s} {r['n']:8d}")
    for check in payload["broken"]:
        print(f"  FAILED CHECK: {check}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed the workload inputs are made from")
    # Callers of BENCHMARK.json's command pass its run_seconds here.
    parser.add_argument("--seconds", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/10 scale, three episodes: a quick check")
    parser.add_argument("--json", type=Path,
                        help="append one JSON-lines record per metric")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench: no package at {SRC / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()

    if args.child:
        seconds = args.seconds
        if seconds is None:
            seconds = 0.0 if args.smoke else float(spec["run_seconds"])
        scale = SMOKE_SCALE if args.smoke else 1.0
        try:
            payload = child_main(args.child, args.seed, seconds,
                                 bool(args.trace), scale)
        except Exception:
            traceback.print_exc()
            payload = {"attempted": 1, "failed": 1,
                       "broken": ["exception"], "metrics": {}}
        print(json.dumps(payload))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    contract = [entry["name"] for entry in
                spec["per_layer" if args.trace else "end_to_end"]]
    entries = metric_entries(spec)
    rev = source_rev()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    all_records = []
    for name in names:
        payload = run_child(name, args)
        if payload is None:
            return 1
        records = to_records(name, payload, bool(args.trace), args.seed, rev,
                             entries)
        print_table(name, records, payload)
        all_records += records
        result["attempted"] += payload["attempted"]
        result["failed"] += payload["failed"]
        by_name = {r["metric"]: r for r in records}
        for metric in contract:
            if metric not in by_name:
                result["correct"] = False
                continue
            key = metric if args.workload else f"{name}/{metric}"
            result["metrics"][key] = {"value": by_name[metric]["value"],
                                      "unit": by_name[metric]["unit"]}
    result["correct"] = result["correct"] and result["failed"] == 0
    if args.json:
        with args.json.open("a") as out:
            for record in all_records:
                out.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
