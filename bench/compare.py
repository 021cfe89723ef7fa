#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the JSON-lines records of one or more ``run.py --json``
runs.  For every metric on every workload, untraced (``e2e``) and traced
(``layer``) records apart, the report gives each side's median and
quartiles, the change of the medians, the bound it is judged by and a
verdict:

* ``regression`` — the median got worse by more than the bound;
* ``unresolved`` — otherwise, if the run-to-run spread (the wider of the
  two sides' quartile spreads) exceeds the bound and not every run of
  the second side beats every run of the first;
* ``improved`` — the median got better by more than the first side's
  quartile spread, and the second side's runs beat at least nine tenths
  of all (first, second) pairs, ties counting for neither;
* ``unchanged`` — otherwise.

Bounds: a sim-clock metric is a pure function of the seed, so when both
sides ran the same seeds any worsening counts (bound 0).  Otherwise an
end-to-end metric takes its bound from ``BENCHMARK.json``;
``failed_op_ratio`` must stay 0.  Per-layer metrics have no bound and get
no verdict.  The report also says whether the sim-clock records of the
two sides are byte-identical, leaving out ``rev`` and ``python``, which
name the code and interpreter that ran.  Exits 1 when any metric
regressed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import load_spec, metric_entries, quartiles  # noqa: E402

#: Record fields that name the run, not what it measured.
RUN_FIELDS = ("rev", "python")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def group(records) -> dict:
    """(kind, metric, workload) -> {"values", "seeds", "clock"}.

    A traced and an untraced run report some metrics under the same
    name, from different episodes; ``kind`` keeps them apart."""
    groups: dict = defaultdict(lambda: {"values": [], "seeds": set()})
    for r in records:
        entry = groups[(r["kind"], r["metric"], r["workload"])]
        entry["values"].append(r["value"])
        entry["seeds"].add(r["seed"])
        entry["clock"] = r["clock"]
    return groups


def bound_of(kind: str, metric: str, a: dict, b: dict, bounds: dict):
    if kind != "e2e":
        return None
    if a["clock"] == "sim" and a["seeds"] == b["seeds"]:
        return 0.0
    if metric == "failed_op_ratio":
        return 0.0
    return bounds.get(metric)


def verdict(a: list, b: list, better: str, bound) -> tuple[str, float]:
    """(verdict, relative change of the medians; > 0 is worse)."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(a_med) or 1.0
    worse = sign * (b_med - a_med) / scale
    if bound is None:
        return "-", worse
    if bound == 0.0:
        return ("regression" if worse > 0 else
                "improved" if worse < 0 else "unchanged"), worse
    if worse > bound:
        return "regression", worse
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / scale
    pairs = [(x, y) for x in b for y in a]
    wins = sum(1 for x, y in pairs if sign * (x - y) < 0)
    if spread > bound and wins < len(pairs):
        return "unresolved", worse
    if -worse > (a_q3 - a_q1) / scale and wins >= 0.9 * len(pairs):
        return "improved", worse
    return "unchanged", worse


def sim_records(records) -> set[str]:
    """The sim-clock records, without the fields that name the run, so a
    change and its parent compare equal when the simulation agrees."""
    return {json.dumps({k: v for k, v in r.items() if k not in RUN_FIELDS},
                       sort_keys=True)
            for r in records if r["clock"] == "sim"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (load(Path(path)) for path in argv)
    spec = load_spec()
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    entries = metric_entries(spec)
    a_groups, b_groups = group(before), group(after)
    regressions = 0
    print(f"{'kind':5s} {'metric':36s} {'workload':12s} "
          f"{'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s} "
          f"{'change':>8s} {'bound':>6s} verdict")
    for key in sorted(a_groups):
        if key not in b_groups:
            continue
        kind, metric, workload = key
        a, b = a_groups[key], b_groups[key]
        bound = bound_of(kind, metric, a, b, bounds)
        better = entries.get(metric, {}).get("better", "lower")
        result, worse = verdict(a["values"], b["values"], better, bound)
        regressions += result == "regression"
        cells = []
        for side in (a, b):
            q1, med, q3 = quartiles(side["values"])
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{kind:5s} {metric:36s} {workload:12s} {cells[0]:>32s} "
              f"{cells[1]:>32s} {worse * 100:+7.2f}% {shown:>6s} {result}")
    a_sim, b_sim = sim_records(before), sim_records(after)
    if a_sim and b_sim:
        same = "identical" if a_sim == b_sim else (
            f"differ ({len(a_sim ^ b_sim)} records)")
        print(f"\nsim-clock records: {same}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
