"""Scenario runner: build testbed, drive faults, verify, report.

``python -m repro chaos`` runs the whole catalogue (or ``--scenario``/
``--smoke`` subsets) and prints a resilience table plus, with
``--json``, a machine-readable report.  Determinism is a hard contract:
the report is a pure function of (scenario set, seed) — every random
draw comes from the harness's :class:`StreamFactory`, sim time is the
only clock, and the JSON serializer sorts keys — so CI can diff two
runs byte-for-byte.

The runtime sanitizer is armed for every scenario (engine-level
invariants raise mid-run instead of corrupting the report), and the
scenario-level probes from :mod:`repro.chaos.invariants` run at the end.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional

from ..analysis import sanitizer as _sanitizer
from ..analysis import waitfor as _waitfor
from ..cluster import ClusterOrchestrator, ContainerSpec
from ..core import FreeFlowNetwork
from ..errors import FreeFlowError, SanitizerViolation
from ..hardware import Fabric, Host
from ..sim import Environment
from ..sim.backoff import Backoff
from ..sim.rand import RandomStream, StreamFactory
from ..telemetry import session as telemetry_session
from ..telemetry.registry import counter_inc
from .faults import HostInjector, LinkInjector, NicInjector
from .invariants import (
    Violation,
    check_conservation,
    check_convergence,
    check_policy_freshness,
    check_repair_time,
    check_trace_consistency,
)
from .scenario import Scenario
from .scenarios import SCENARIOS, SMOKE_SCENARIO, get

__all__ = ["ChaosHarness", "run_scenario", "run_many", "main"]

#: Event-log ring size per scenario: large enough that the
#: trace-consistency probe never sees an eviction at these durations.
EVENT_CAPACITY = 65536


class ChaosHarness:
    """One scenario's live testbed + injectors + traffic bookkeeping.

    Scenario step closures receive this object.  The interesting
    attributes:

    * ``env`` / ``cluster`` / ``network`` / ``fabric`` — the testbed;
    * ``link`` / ``nic`` / ``hosts`` — fault injectors (fabric, NIC
      capability registry, host crash/respawn);
    * ``kernel_faults`` — optional :class:`KernelPathFaults` (install in
      ``prepare``; the harness uninstalls it on teardown);
    * ``kv_faults`` — label → :class:`FaultyKVStore` registered via
      :meth:`add_kv_fault` (auto-uninstalled on teardown);
    * ``flows`` — traffic-pair label → live :class:`FlowConnection`;
    * ``counters`` — label → ``{"sent": n, "received": n}`` app-level
      delivery counts the conservation probe checks.
    """

    #: Pause before an application-level retry after a send/recv error.
    RETRY_S = 50e-6
    QUIESCE_POLL_S = 100e-6

    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        self.streams = StreamFactory(seed)
        self.env = Environment()
        if scenario.fat_tree_k is not None:
            from ..hardware import FatTreeFabric

            self.fabric = FatTreeFabric(
                self.env, k=scenario.fat_tree_k,
                flowlet_gap_s=scenario.flowlet_gap_s,
            )
        else:
            self.fabric = Fabric(self.env)
        self.cluster = ClusterOrchestrator(
            self.env, host_lease_ttl_s=scenario.host_lease_ttl_s
        )
        for index in range(scenario.hosts):
            self.cluster.add_host(
                Host(self.env, f"host{index}", fabric=self.fabric)
            )
        self.network = FreeFlowNetwork(self.cluster)
        self.network.reconciler.backoff = Backoff(
            self.stream("reconciler.backoff")
        )
        self.link = LinkInjector(self.fabric)
        self.nic = NicInjector(self.network)
        self.hosts = HostInjector(self.network, self.cluster)
        self.kernel_faults = None
        self.kv_faults: dict = {}
        self.flows: dict = {}
        self.counters = {
            pair.label: {"sent": 0, "received": 0}
            for pair in scenario.traffic
        }
        self.step_log: list[dict] = []
        self._stop = False

    # -- helpers for scenario closures ---------------------------------------

    def stream(self, name: str) -> RandomStream:
        """A named random stream derived from the scenario seed."""
        return self.streams.stream(f"chaos.{self.scenario.name}.{name}")

    def host(self, name: str) -> Host:
        return self.cluster.host(name)

    def add_kv_fault(self, label: str, fault) -> None:
        """Track an installed FaultyKVStore for teardown + reporting."""
        if label in self.kv_faults:
            raise ValueError(f"kv fault {label!r} already registered")
        self.kv_faults[label] = fault

    # -- build / teardown ----------------------------------------------------

    def build(self) -> None:
        """Attach containers, start the reconciler, connect the flows."""
        self.network.reconciler.start()
        for placement in self.scenario.containers:
            container = self.cluster.submit(ContainerSpec(
                placement.name, tenant=placement.tenant,
                pinned_host=placement.host,
            ))
            self.network.attach(container)
        if self.scenario.prepare is not None:
            self.scenario.prepare(self)

        def connect():
            for pair in self.scenario.traffic:
                flow = yield from self.network.connect_containers(
                    pair.src, pair.dst
                )
                self.flows[pair.label] = flow

        self.env.run(until=self.env.process(connect()))
        for pair in self.scenario.traffic:
            self.env.process(self._sender(pair))
            self.env.process(self._receiver(pair))

    def teardown(self) -> None:
        """Uninstall every injector (idempotent; runs even on failure)."""
        if self.kernel_faults is not None:
            self.kernel_faults.uninstall()
        for fault in self.kv_faults.values():
            fault.uninstall()
        self.link.restore_rates()
        self.link.restore_links()
        self.fabric.heal()
        self.network.reconciler.stop()

    # -- steady-state traffic ------------------------------------------------

    def _sender(self, pair):
        """App-level sender: retries through faults until told to stop."""
        counters = self.counters[pair.label]
        while not self._stop:
            flow = self.flows[pair.label]
            try:
                yield from flow.a.send(pair.message_bytes)
            except FreeFlowError:
                # Broken mid-fault: back off, reconnect at the facade.
                yield self.env.timeout(self.RETRY_S)
                continue
            counters["sent"] += 1
            yield self.env.timeout(pair.interval_s)

    def _receiver(self, pair):
        """App-level receiver: survives resets, counts deliveries."""
        counters = self.counters[pair.label]
        while True:
            flow = self.flows[pair.label]
            try:
                yield from flow.b.recv()
            except FreeFlowError:
                yield self.env.timeout(self.RETRY_S)
                continue
            counters["received"] += 1

    # -- the timeline --------------------------------------------------------

    def timeline(self):
        """Generator: execute the scenario's steps, then quiesce."""
        for step in self.scenario.steps:
            wait = step.at_s - self.env.now
            if wait > 0:
                yield self.env.timeout(wait)
            # One entry per scenario step: bounded by the scenario itself.
            self.step_log.append(  # simlint: disable=SIM004
                {"at_s": round(self.env.now, 9), "label": step.label}
            )
            counter_inc("repro.chaos.steps")
            result = step.action(self)
            if inspect.isgenerator(result):
                yield from result
        remaining = self.scenario.duration_s - self.env.now
        if remaining > 0:
            yield self.env.timeout(remaining)
        self._stop = True
        yield from self._quiesce()
        yield from self._settle()

    def _quiesce(self):
        """Wait for in-flight traffic to land (bounded by the deadline).

        Exact-conservation scenarios exit as soon as every pair's
        received count catches its sent count; no-forge scenarios exit
        once the received totals stop moving.
        """
        deadline = self.env.now + self.scenario.quiesce_deadline_s
        stable = 0
        last_total = -1
        while self.env.now < deadline:
            if all(c["received"] >= c["sent"]
                   for c in self.counters.values()):
                return
            total = sum(c["received"] for c in self.counters.values())
            if total == last_total:
                stable += 1
                if stable >= 5 and self.scenario.conservation == "no-forge":
                    return
            else:
                stable = 0
                last_total = total
            yield self.env.timeout(self.QUIESCE_POLL_S)

    def _settle(self):
        """Bounded variant of ``reconciler.wait_settled`` (never hangs)."""
        reconciler = self.network.reconciler
        deadline = self.env.now + self.scenario.quiesce_deadline_s
        quiet = 0
        while quiet < 2 and self.env.now < deadline:
            yield self.env.timeout(reconciler.SETTLE_POLL_S)
            quiet = quiet + 1 if reconciler.settled() else 0


def run_scenario(scenario: Scenario, seed: int = 1) -> dict:
    """Run one scenario under telemetry + sanitizer; return its report."""
    harness = ChaosHarness(scenario, seed)
    violations: list[Violation] = []
    crashed: Optional[str] = None
    armed_here = not _sanitizer.installed()
    if armed_here:
        _sanitizer.install()
    # The wait-for graph rides along (both are engine observers, so the
    # arming order does not matter): lock cycles raise DeadlockDetected
    # mid-run, and scenario probes can snapshot waitfor.report(env) to name
    # who holds a stalled credit.
    waitfor_here = not _waitfor.installed()
    if waitfor_here:
        _waitfor.install()
    try:
        with telemetry_session(sample_rate=0.0,
                               event_capacity=EVENT_CAPACITY) as handle:
            try:
                harness.build()
                harness.env.run(
                    until=harness.env.process(harness.timeline())
                )
            except SanitizerViolation as exc:
                crashed = f"sanitizer: {exc}"
            except FreeFlowError as exc:
                crashed = f"{type(exc).__name__}: {exc}"
            finally:
                harness.teardown()
            if crashed is not None:
                violations.append(Violation("runtime", crashed))
            else:
                violations.extend(check_convergence(
                    harness.network.flows, handle.events))
                violations.extend(check_conservation(
                    harness.counters, scenario.conservation))
                violations.extend(check_repair_time(
                    handle.events, scenario.repair_bound_s))
                violations.extend(check_trace_consistency(handle.events))
                if scenario.check_policy_freshness:
                    violations.extend(
                        check_policy_freshness(harness.network))
                for probe in scenario.extra_invariants:
                    violations.extend(probe(harness))
            transition_count = len(handle.events.of_kind("flow.transition"))
    finally:
        if waitfor_here:
            _waitfor.uninstall()
        if armed_here:
            _sanitizer.uninstall()
    reconciler = harness.network.reconciler
    report = {
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": seed,
        "conservation_mode": scenario.conservation,
        "duration_s": scenario.duration_s,
        "sim_time_s": round(harness.env.now, 9),
        "steps": harness.step_log,
        "traffic": {
            label: dict(sorted(counts.items()))
            for label, counts in sorted(harness.counters.items())
        },
        "flows": {
            label: {
                "state": flow.state.value,
                "mechanism": (flow.mechanism.value
                              if flow.decision is not None else None),
                "generation": flow.generation,
            }
            for label, flow in sorted(harness.flows.items())
        },
        "faults": _fault_stats(harness),
        "reconciler": {
            "rebinds": reconciler.rebinds,
            "repairs": reconciler.repairs,
            "reconciliations": reconciler.reconciliations,
            "capability_rechecks": reconciler.capability_rechecks,
            "failures_handled": reconciler.failures_handled,
            "retries": reconciler.retries,
            "gave_up": reconciler.gave_up,
            "resyncs": reconciler.resyncs,
        },
        "transitions": transition_count,
        "violations": [v.as_record() for v in violations],
        "ok": not violations,
    }
    return report


def _fault_stats(harness: ChaosHarness) -> dict:
    stats = {
        "link": {
            "degrades": harness.link.degrades,
            "partitions": harness.link.partitions,
            "heals": harness.link.heals,
            "link_fails": harness.link.link_fails,
            "link_heals": harness.link.link_heals,
        },
        "nic": {"capability_faults": harness.nic.capability_faults},
        "host": {
            "crashes": harness.hosts.crashes,
            "restarts": harness.hosts.restarts,
            "respawns": harness.hosts.respawns,
        },
        "kv": {
            label: {
                "delivered": fault.delivered,
                "dropped": fault.dropped,
                "duplicated": fault.duplicated,
                "stalled": fault.stalled,
            }
            for label, fault in sorted(harness.kv_faults.items())
        },
    }
    if harness.kernel_faults is not None:
        stats["tcp"] = {
            "losses": harness.kernel_faults.losses,
            "reorders": harness.kernel_faults.reorders,
            "passed": harness.kernel_faults.passed,
        }
    return stats


def run_many(names, seed: int = 1) -> dict:
    """Run scenarios in catalogue order; aggregate into one report."""
    results = [run_scenario(get(name), seed) for name in names]
    return {
        "seed": seed,
        "scenarios": results,
        "ok": all(r["ok"] for r in results),
    }


def _format_table(report: dict) -> str:
    """The human-facing resilience table."""
    header = (f"  {'scenario':26s} {'flows':>5s} {'sent':>6s} "
              f"{'recv':>6s} {'rebinds':>7s} {'repairs':>7s} "
              f"{'viol':>4s}  verdict")
    lines = [header, "  " + "-" * (len(header) - 2)]
    for result in report["scenarios"]:
        sent = sum(c["sent"] for c in result["traffic"].values())
        received = sum(c["received"] for c in result["traffic"].values())
        verdict = "PASS" if result["ok"] else "FAIL"
        lines.append(
            f"  {result['scenario']:26s} {len(result['flows']):5d} "
            f"{sent:6d} {received:6d} "
            f"{result['reconciler']['rebinds']:7d} "
            f"{result['reconciler']['repairs']:7d} "
            f"{len(result['violations']):4d}  {verdict}"
        )
        for violation in result["violations"]:
            lines.append(f"      !! {violation['invariant']}: "
                         f"{violation['detail']}")
    overall = "PASS" if report["ok"] else "FAIL"
    lines.append(f"  overall: {overall} "
                 f"({len(report['scenarios'])} scenario(s), seed "
                 f"{report['seed']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Deterministic fault-injection scenarios over the "
                    "FreeFlow control plane",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed (same seed => byte-identical "
                             "report)")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="run only NAME (repeatable; default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"run only the CI smoke scenario "
                             f"({SMOKE_SCENARIO})")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and their fault schedules")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    if args.list:
        for name in SCENARIOS:
            scenario = get(name)
            print(f"{name}: {scenario.description}")
            for at_s, label in scenario.schedule():
                print(f"    t={at_s * 1e3:7.2f} ms  {label}")
        return 0

    if args.smoke:
        names = [SMOKE_SCENARIO]
    elif args.scenario:
        try:
            names = [get(name).name for name in args.scenario]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        names = list(SCENARIOS)

    print(f"[repro] chaos: {len(names)} scenario(s), seed {args.seed}")
    report = run_many(names, seed=args.seed)
    print(_format_table(report))
    if args.json:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
