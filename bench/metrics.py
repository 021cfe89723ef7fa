"""Metric dictionary, record schema and statistics shared by the benchmark.

``BENCHMARK.json`` at the repository root is the contract: it names the
end-to-end metrics every workload reports (with their regression bounds)
and the per-layer metrics the traced run reports, each with its unit and
direction.  This module adds only what the contract does not carry:
which clock each metric reads, the workloads of the end-to-end metrics
that only some workloads have, and ``failed_op_ratio``.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

WORKLOADS = ("rpc-small", "mode-sweep", "fleet-churn", "fabric-mix")

#: End-to-end metric -> the clock it reads.
E2E_CLOCK = {
    "ops_per_wall_s": "wall",
    "setup_s": "wall",
    "peak_rss_mib": "wall",
    "failed_op_ratio": "both",
    "sim_latency_p50_us": "sim",
    "sim_latency_p99_us": "sim",
    "sim_goodput_gbps": "sim",
    "sim_host_cpu_cores": "sim",
    "sim_recovery_ms": "sim",
}

#: End-to-end metrics that exist on some workloads only.
#: ``BENCHMARK.json``'s end-to-end metrics must exist on every workload,
#: so it lists these among its per-layer metrics.
ONLY_ON = {
    "sim_goodput_gbps": ("rpc-small", "mode-sweep", "fabric-mix"),
    "sim_host_cpu_cores": ("rpc-small", "mode-sweep"),
    "sim_recovery_ms": ("fleet-churn",),
}

#: 0 on a healthy run, so ``BENCHMARK.json`` carries it as the result's
#: ``failed`` count instead of listing it.
FAILED_OP_RATIO = {"name": "failed_op_ratio", "unit": "ratio",
                   "better": "lower"}

#: Suffixes of per-layer metrics read from the host's clock or memory;
#: every other per-layer metric is a pure function of the simulation.
_WALL_SUFFIXES = ("wall_frac", ".busy_us", ".live_kib_per_flow",
                  "_overhead_pct")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_entries(spec: dict) -> dict[str, dict]:
    """Metric name -> its entry (``unit``, ``better``, ...) for every
    metric the benchmark reports."""
    entries = {entry["name"]: entry
               for entry in spec["end_to_end"] + spec["per_layer"]}
    entries[FAILED_OP_RATIO["name"]] = FAILED_OP_RATIO
    return entries


def layer_clock(name: str) -> str:
    return "wall" if name.endswith(_WALL_SUFFIXES) else "sim"


def source_rev() -> str:
    """Content hash of ``src/repro``: the same code gives the same rev,
    with or without a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def make_record(workload: str, metric: str, value: float, unit: str,
                clock: str, kind: str, n: int, seed: int, rev: str) -> dict:
    return {
        "workload": workload, "metric": metric, "value": value,
        "unit": unit, "clock": clock, "kind": kind, "n": n, "seed": seed,
        "rev": rev, "python": platform.python_version(),
    }


# -- statistics ------------------------------------------------------------


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile (deterministic: no interpolation)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
