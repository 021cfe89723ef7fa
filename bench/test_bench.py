"""Tests for the benchmark itself, at smoke scale: ``pytest bench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from metrics import (  # noqa: E402
    E2E_CLOCK,
    ONLY_ON,
    ROOT,
    SRC,
    WORKLOADS,
    load_spec,
    metric_entries,
    quartiles,
)

sys.path.insert(0, str(SRC))

RUN = [sys.executable, str(BENCH / "run.py"), "--smoke"]


def run_bench(tmp_path: Path, *args: str, env=None):
    out = tmp_path / f"records-{len(list(tmp_path.iterdir()))}.jsonl"
    proc = subprocess.run(RUN + ["--json", str(out), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=300)
    records = ([json.loads(line) for line in out.read_text().splitlines()]
               if out.exists() else [])
    return proc, records


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return run_bench(tmp, "--seed", "5"), tmp


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("trace"), "--trace", "1")


def test_every_metric_is_emitted_with_its_unit(e2e, traced):
    spec = load_spec()
    for (proc, records), names in (
            (e2e[0], {m["name"]: m["unit"] for m in spec["end_to_end"]}),
            (traced, {m["name"]: m["unit"] for m in spec["per_layer"]})):
        assert proc.returncode == 0, proc.stdout[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        for workload in WORKLOADS:
            emitted = {r["metric"]: r["unit"] for r in records
                       if r["workload"] == workload}
            for name, unit in names.items():
                assert emitted.get(name) == unit, (workload, name)
                assert result["metrics"][f"{workload}/{name}"]["unit"] == unit
    records = e2e[0][1]
    entries = metric_entries(spec)
    for name, clock in E2E_CLOCK.items():
        for workload in ONLY_ON.get(name, WORKLOADS):
            [record] = [r for r in records
                        if (r["workload"], r["metric"]) == (workload, name)]
            assert record["unit"] == entries[name]["unit"]
            assert record["clock"] == clock
            assert record["value"] > 0 or name == "failed_op_ratio"


def test_same_seed_gives_byte_identical_sim_records(e2e):
    (_, first), tmp = e2e
    proc, again = run_bench(tmp, "--seed", "5")
    assert proc.returncode == 0

    def sim(records):
        return [json.dumps(r, sort_keys=True) for r in records
                if r["clock"] == "sim"]

    assert sim(first) and sim(first) == sim(again)


def test_another_seed_changes_the_inputs():
    from workloads import WORKLOADS as CLASSES

    for cls in CLASSES.values():
        workload = cls()
        assert repr(workload.inputs(1, 0.1)) == repr(workload.inputs(1, 0.1))
        assert repr(workload.inputs(1, 0.1)) != repr(workload.inputs(2, 0.1))
        assert repr(workload.inputs(1, 0.1, 0)) != repr(
            workload.inputs(1, 0.1, 1))


def test_injected_conservation_fault_fails_the_run(tmp_path):
    # A lane that loses one byte of the first message it delivers: every
    # process of the run (the children too) imports this at start-up.
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from repro.transports.base import Lane\n"
        "_deliver = Lane.deliver\n"
        "def deliver(self, message, _done=[]):\n"
        "    if not _done:\n"
        "        _done.append(1)\n"
        "        message.size_bytes -= 1\n"
        "    _deliver(self, message)\n"
        "Lane.deliver = deliver\n")
    env = {"PYTHONPATH": str(tmp_path), "PATH": "/usr/bin:/bin"}
    out = tmp_path / "out"
    out.mkdir()
    proc, records = run_bench(out, "--workload", "mode-sweep", env=env)
    assert proc.returncode == 1
    [ratio] = [r["value"] for r in records if r["metric"] == "failed_op_ratio"]
    assert ratio > 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_traced_spans_nest_with_nonnegative_self_time():
    from layers import LAYERS, traced_episode
    from workloads import RpcSmall

    workload = RpcSmall()
    ep, wall, metrics, spans = traced_episode(workload,
                                              workload.inputs(1, 0.02))
    assert all(ep.checks.values()), ep.checks
    assert {("core.connect", "core.resolve"),
            ("core.socket_send", "hardware.cpu")} <= spans.edges
    assert spans.stats and all(s.self_s >= -1e-9 and s.busy_s >= s.self_s
                               for s in spans.stats.values())
    fractions = [metrics[f"{layer}.wall_frac"] for layer in LAYERS]
    assert min(fractions) >= 0
    assert sum(fractions) + metrics["python.gc_wall_frac"] == pytest.approx(
        1.0, abs=0.05)


def test_compare_verdicts():
    from compare import verdict

    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [v * 1.2 for v in base], "higher", 0.1)[0] == \
        "improved"
    assert verdict(base, [v * 0.8 for v in base], "higher", 0.1)[0] == \
        "regression"
    assert verdict(base, [v * 1.01 for v in base], "higher", 0.1)[0] == \
        "unchanged"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(noisy, [v * 0.95 for v in noisy], "higher", 0.1)[0] == \
        "unresolved"
    assert verdict([5.0], [5.0 + 1e-9], "lower", 0.0)[0] == "regression"
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_compare_keeps_traced_records_apart_and_ignores_the_rev():
    from compare import group, sim_records

    record = {"workload": "rpc-small", "metric": "sim_goodput_gbps",
              "value": 15.9, "unit": "Gb/s", "clock": "sim", "kind": "e2e",
              "n": 3, "seed": 1, "rev": "aaaaaaaaaaaa", "python": "3.11.7"}
    traced = dict(record, kind="layer", value=15.2, n=1)
    groups = group([record, traced])
    assert groups[("e2e", "sim_goodput_gbps", "rpc-small")]["values"] == [15.9]
    assert groups[("layer", "sim_goodput_gbps", "rpc-small")]["values"] == [
        15.2]
    parent = dict(record, rev="bbbbbbbbbbbb", python="3.12.1")
    assert sim_records([record]) == sim_records([parent])
    assert sim_records([record]) != sim_records([dict(record, value=16.0)])
