"""The named resilience scenarios (``python -m repro chaos --list``).

Each factory returns a fresh :class:`~repro.chaos.scenario.Scenario`;
the catalogue order is the run order, and ``nic-loss-midflow`` doubles
as the CI smoke gate (fast, zero tolerated violations).  Scenario
actions receive the live :class:`~repro.chaos.runner.ChaosHarness` —
see that class for the attributes (``nic``, ``hosts``, ``link``,
``kv_faults`` …) the closures below use.

Timings are sim-seconds.  The scale (single-digit milliseconds) is
enough for thousands of messages per flow at the default 20 us send
interval while keeping every scenario sub-second in wall time.
"""

from __future__ import annotations

from .faults import CreditStaller, FaultyKVStore, KernelPathFaults
from .invariants import Violation
from .scenario import Placement, Scenario, Step, TrafficPair

__all__ = ["SCENARIOS", "SMOKE_SCENARIO", "get"]


# -- nic-loss-midflow (the smoke gate) -----------------------------------------


def _nic_loss_midflow() -> Scenario:
    """RDMA dies under live flows; policy degrades to kernel TCP and back."""

    def lose(harness):
        harness.nic.lose_bypass("host1")

    def restore(harness):
        harness.nic.restore("host1")

    return Scenario(
        name="nic-loss-midflow",
        description="RDMA+DPDK die on host1 mid-flow; flows fall back to "
                    "kernel TCP, then return when the NIC recovers",
        hosts=2,
        containers=(
            Placement("web", "host0"),
            Placement("cache", "host0"),
            Placement("db", "host1"),
        ),
        traffic=(
            TrafficPair("web", "db"),
            TrafficPair("cache", "db"),
        ),
        steps=(
            Step(0.001, "host1 loses RDMA+DPDK", lose),
            Step(0.003, "host1 NIC recovers", restore),
        ),
        duration_s=0.005,
        conservation="exact",
    )


# -- host-crash-storm ----------------------------------------------------------


def _host_crash_storm() -> Scenario:
    """Two hosts die in sequence; replacements respawn; flows auto-repair."""

    def crash_host2(harness):
        harness.hosts.crash("host2")

    def respawn_db(harness):
        harness.hosts.respawn("db", on_host="host3")

    def crash_host1(harness):
        harness.hosts.crash("host1")

    def respawn_cache(harness):
        harness.hosts.respawn("cache", on_host="host0")

    def recover_machines(harness):
        harness.hosts.restart("host1")
        harness.hosts.restart("host2")

    return Scenario(
        name="host-crash-storm",
        description="host2 then host1 crash under load; containers "
                    "respawn elsewhere and the reconciler repairs every "
                    "flow without caller involvement",
        hosts=4,
        containers=(
            Placement("web", "host0"),
            Placement("cache", "host1"),
            Placement("db", "host2"),
            Placement("worker", "host3"),
        ),
        traffic=(
            TrafficPair("web", "cache"),
            TrafficPair("web", "db"),
            TrafficPair("worker", "db"),
        ),
        steps=(
            Step(0.001, "host2 crashes (db lost)", crash_host2),
            Step(0.0013, "db respawns on host3", respawn_db),
            Step(0.0025, "host1 crashes (cache lost)", crash_host1),
            Step(0.0028, "cache respawns on host0", respawn_cache),
            Step(0.004, "crashed machines rejoin (empty)", recover_machines),
        ),
        duration_s=0.006,
        conservation="no-forge",
        repair_bound_s=0.003,
    )


# -- lease-expiry-storm --------------------------------------------------------


def _lease_expiry_storm() -> Scenario:
    """Two hosts go *silent* at once; lease expiry is the only signal."""

    ttl = 0.0005

    def go_silent(harness):
        # Nothing is told about the failure: the keepalives just stop,
        # for both hosts in the same TTL window (the "storm").  One TTL
        # later the store expires both leases, cascading the host and
        # container DELETEs to every watcher in attachment order.
        harness.hosts.silence("host2")
        harness.hosts.silence("host3")

    def respawn_db(harness):
        harness.hosts.respawn("db", on_host="host1")

    def respawn_worker(harness):
        harness.hosts.respawn("worker", on_host="host0")

    def machines_rejoin(harness):
        # recover_host re-grants the leases and resumes keepalives.
        harness.hosts.restart("host2")
        harness.hosts.restart("host3")

    return Scenario(
        name="lease-expiry-storm",
        description="host2 and host3 go silent in the same TTL window; "
                    "their leases lapse, the expiry DELETE cascade is "
                    "the only failure signal, and the reconciler repairs "
                    "every flow after the respawns",
        hosts=4,
        containers=(
            Placement("web", "host0"),
            Placement("cache", "host1"),
            Placement("db", "host2"),
            Placement("worker", "host3"),
        ),
        traffic=(
            TrafficPair("web", "cache"),
            TrafficPair("web", "db"),
            TrafficPair("worker", "db"),
        ),
        steps=(
            Step(0.001, "host2+host3 keepalives stop", go_silent),
            Step(0.0022, "db respawns on host1", respawn_db),
            Step(0.0024, "worker respawns on host0", respawn_worker),
            Step(0.004, "silent machines rejoin (empty)", machines_rejoin),
        ),
        duration_s=0.006,
        conservation="no-forge",
        repair_bound_s=0.003,
        host_lease_ttl_s=ttl,
    )


# -- control-plane-partition ---------------------------------------------------


def _control_plane_partition() -> Scenario:
    """Both KV stores stall; a migration happens in the dark; heal+resync."""

    def prepare(harness):
        harness.add_kv_fault(
            "net", FaultyKVStore(harness.network.orchestrator.kv,
                                 harness.stream("kv.net")).install()
        )
        harness.add_kv_fault(
            "cluster", FaultyKVStore(harness.cluster.kv,
                                     harness.stream("kv.cluster")).install()
        )

    def stall(harness):
        for fault in harness.kv_faults.values():
            fault.stall()

    def relocate_in_the_dark(harness):
        harness.cluster.relocate("cache", "host1")
        harness.network.orchestrator.refresh_location("cache")

    def heal_and_resync(harness):
        for fault in harness.kv_faults.values():
            fault.heal()
        harness.network.reconciler.resync()
        yield from harness.network.reconciler.wait_settled()

    return Scenario(
        name="control-plane-partition",
        description="the watch fan-out of both KV stores stalls; a "
                    "container migrates while the reconciler is blind; "
                    "heal + resync converge everything",
        hosts=3,
        containers=(
            Placement("web", "host0"),
            Placement("db", "host1"),
            Placement("cache", "host2"),
        ),
        traffic=(
            TrafficPair("web", "db"),
            TrafficPair("web", "cache"),
        ),
        steps=(
            Step(0.001, "control plane partitions (watches stall)", stall),
            Step(0.0015, "cache migrates host2 -> host1 (unseen)",
                 relocate_in_the_dark),
            Step(0.003, "partition heals; reconciler resyncs",
                 heal_and_resync),
        ),
        duration_s=0.005,
        conservation="exact",
        prepare=prepare,
    )


# -- watch-delay ---------------------------------------------------------------


def _watch_delay() -> Scenario:
    """Jittered, duplicated watch deliveries; pumps must stay idempotent."""

    def prepare(harness):
        harness.add_kv_fault(
            "net", FaultyKVStore(
                harness.network.orchestrator.kv, harness.stream("kv.net"),
                delay_s=300e-6, jitter_s=200e-6, duplicate_p=0.3,
            ).install()
        )

    def lose_rdma(harness):
        harness.nic.lose_bypass("host1", dpdk=False)

    def restore_rdma(harness):
        harness.nic.restore("host1")

    def relocate_cache(harness):
        harness.cluster.relocate("cache", "host0")
        harness.network.orchestrator.refresh_location("cache")

    return Scenario(
        name="watch-delay",
        description="every network-KV watch delivery arrives late (with "
                    "jitter) and 30% arrive twice; capability changes and "
                    "a migration still converge exactly once",
        hosts=3,
        containers=(
            Placement("web", "host0"),
            Placement("db", "host1"),
            Placement("cache", "host1"),
        ),
        traffic=(
            TrafficPair("web", "db"),
            TrafficPair("web", "cache"),
        ),
        steps=(
            Step(0.001, "host1 loses RDMA (late news)", lose_rdma),
            Step(0.0025, "host1 RDMA recovers", restore_rdma),
            Step(0.004, "cache migrates host1 -> host0", relocate_cache),
        ),
        duration_s=0.006,
        conservation="exact",
        prepare=prepare,
    )


# -- link-flap -----------------------------------------------------------------


def _link_flap() -> Scenario:
    """The inter-host path flaps; a long outage degrades to kernel TCP."""

    def cut(harness):
        harness.link.partition_hosts(
            [harness.host("host0")], [harness.host("host1")]
        )

    def mend(harness):
        harness.link.heal()

    def degrade_flag(harness):
        harness.nic.degrade("host1")

    def slow_nic(harness):
        harness.link.degrade_host(harness.host("host1"), 0.25)

    def full_recovery(harness):
        harness.link.restore_rates()
        harness.nic.restore("host1")

    return Scenario(
        name="link-flap",
        description="the host0|host1 fabric path flaps twice; during the "
                    "second outage host1 is marked degraded (flows move "
                    "to kernel TCP) and its NIC rate drops to 25%; full "
                    "recovery restores RDMA",
        hosts=2,
        containers=(
            Placement("web", "host0"),
            Placement("db", "host1"),
        ),
        traffic=(
            TrafficPair("web", "db"),
        ),
        steps=(
            Step(0.001, "fabric partition host0|host1", cut),
            Step(0.0013, "partition heals", mend),
            Step(0.0018, "partition again", cut),
            Step(0.002, "host1 marked degraded (rebind to TCP queued)",
                 degrade_flag),
            Step(0.0024, "partition heals; rebind drains through", mend),
            Step(0.003, "host1 NIC degrades to 25% rate", slow_nic),
            Step(0.004, "full recovery (rates + degraded flag)",
                 full_recovery),
        ),
        duration_s=0.006,
        conservation="exact",
    )


# -- lossy-kernel-path ---------------------------------------------------------


def _lossy_kernel_path() -> Scenario:
    """Untrusted tenants on a lossy kernel path: loss burst, still exact."""

    def prepare(harness):
        harness.kernel_faults = KernelPathFaults(
            harness.stream("tcp.faults"),
            loss_p=0.03, rto_s=200e-6, reorder_p=0.08, jitter_s=30e-6,
        ).install()

    def loss_burst(harness):
        harness.kernel_faults.loss_p = 0.15

    def loss_subsides(harness):
        harness.kernel_faults.loss_p = 0.01

    return Scenario(
        name="lossy-kernel-path",
        description="cross-tenant flows pinned to kernel TCP ride 3-15% "
                    "loss (retransmit delay) and 8% reordering; delivery "
                    "stays exact and in order per connection",
        hosts=2,
        containers=(
            Placement("api", "host0", tenant="blue"),
            Placement("web", "host0", tenant="blue"),
            Placement("db", "host1", tenant="red"),
        ),
        traffic=(
            TrafficPair("api", "db", interval_s=40e-6),
            TrafficPair("web", "db", interval_s=40e-6),
        ),
        steps=(
            Step(0.002, "loss burst to 15%", loss_burst),
            Step(0.0035, "loss subsides to 1%", loss_subsides),
        ),
        duration_s=0.006,
        conservation="exact",
        prepare=prepare,
    )


# -- kv-watch-drop -------------------------------------------------------------


def _kv_watch_drop() -> Scenario:
    """Half of all watch deliveries vanish; resync makes the state whole."""

    def prepare(harness):
        harness.add_kv_fault(
            "net", FaultyKVStore(
                harness.network.orchestrator.kv,
                harness.stream("kv.net"), drop_p=0.5,
            ).install()
        )
        harness.add_kv_fault(
            "cluster", FaultyKVStore(
                harness.cluster.kv,
                harness.stream("kv.cluster"), drop_p=0.5,
            ).install()
        )

    def lose_rdma(harness):
        harness.nic.lose_bypass("host1", dpdk=False)

    def crash_unannounced(harness):
        # Only the (50% lossy) host watch can tell the network side.
        harness.hosts.crash("host2", via_watch=True)

    def reconnect_and_resync(harness):
        for fault in harness.kv_faults.values():
            fault.uninstall()
        harness.network.reconciler.resync()
        yield from harness.network.reconciler.wait_settled()

    def respawn_cache(harness):
        harness.hosts.respawn("cache", on_host="host0")

    return Scenario(
        name="kv-watch-drop",
        description="50% of watch deliveries are dropped; host2 dies with "
                    "only the lossy watch to announce it; reconnect + "
                    "resync synthesize the missed events and repairs land",
        hosts=3,
        containers=(
            Placement("web", "host0"),
            Placement("db", "host1"),
            Placement("cache", "host2"),
        ),
        traffic=(
            TrafficPair("web", "db"),
            TrafficPair("web", "cache"),
        ),
        steps=(
            Step(0.001, "host1 loses RDMA (maybe unheard)", lose_rdma),
            Step(0.002, "host2 crashes, watch-only announcement",
                 crash_unannounced),
            Step(0.003, "watch connection re-established; resync",
                 reconnect_and_resync),
            Step(0.0033, "cache respawns on host0", respawn_cache),
        ),
        duration_s=0.0055,
        conservation="no-forge",
        repair_bound_s=0.004,
        prepare=prepare,
    )


# -- credit-stall --------------------------------------------------------------


def _credit_stall() -> Scenario:
    """A receiver stops returning ring credits; the wait-for graph must
    name who holds them, and healing must conserve the stream."""

    from ..core.sockets import RING_BYTES

    chunk = 1024
    total = RING_BYTES + 64 * 1024
    state: dict = {"sent": 0, "received": 0, "snapshot": None,
                   "stall_level": None, "staller": None}

    def open_stream(harness):
        from ..core import SocketLayer

        layer = SocketLayer(harness.network, streaming=True)
        db = harness.cluster.container("db")
        web = harness.cluster.container("web")
        listener = layer.listen(db, 7000)
        env = harness.env

        def server():
            sock = yield from listener.accept()
            state["server_sock"] = sock
            got, _payload = yield from sock.recv_exactly(total)
            state["received"] = got

        env.process(server())
        client = layer.socket(web)
        yield from client.connect(db.ip, 7000)
        state["client_sock"] = client
        while "server_sock" not in state:
            yield env.timeout(1e-6)
        # Stall the receiver's credit returns before the first batch is
        # owed: every CREDIT_IMM from here on is withheld.
        state["staller"] = CreditStaller(state["server_sock"]).install()
        state["staller"].stall()

        def pump():
            for _ in range(total // chunk):
                yield from client.send(chunk)
                state["sent"] += chunk
            yield from client.shutdown()

        env.process(pump())

    def probe(harness):
        # Mid-stall: the sender's credit tank must be exhausted and the
        # wait-for graph must name who holds the missing credits.  Kept
        # out of the report (checked by the extra invariant) so the
        # report stays a pure function of (scenario, seed).
        from ..analysis import waitfor

        state["stall_level"] = state["client_sock"]._tx_credits.level
        state["snapshot"] = waitfor.report(harness.env)

    def heal(harness):
        staller = state["staller"]
        staller.heal()
        yield from staller.flush()
        staller.uninstall()

    def check_stall_was_observed(harness) -> list:
        problems = []
        if state["sent"] != total or state["received"] != total:
            problems.append(Violation(
                "credit-stall.conservation",
                f"stream not conserved: sent {state['sent']} received "
                f"{state['received']} of {total} byte(s)",
            ))
        staller = state["staller"]
        if staller is None or staller.withheld < 1:
            problems.append(Violation(
                "credit-stall.fault-armed",
                "the staller never withheld a credit return — the "
                "scenario exercised nothing",
            ))
        if state["stall_level"] != 0:
            problems.append(Violation(
                "credit-stall.exhaustion",
                f"sender credit tank at {state['stall_level']!r} at the "
                f"probe (expected 0: fully debited)",
            ))
        snapshot = state["snapshot"] or {}
        parked = {
            entry["waits_on"]: entry
            for entry in snapshot.get("parked", ())
        }
        wait = parked.get("socket.web.tx-credits")
        if wait is None or wait["kind"] != "tank-get":
            problems.append(Violation(
                "credit-stall.wait-named",
                f"wait-for graph did not name the stalled credit tank; "
                f"parked on: {sorted(parked)}",
            ))
        else:
            held = sum(h["amount"] for h in wait["holders"]
                       if h["holds"] == "credit" and "pump" in h["process"])
            if held != RING_BYTES:
                problems.append(Violation(
                    "credit-stall.owner-named",
                    f"ownership ledger names {held} credit byte(s) held "
                    f"by the pump (expected the full ring, {RING_BYTES})",
                ))
        return problems

    return Scenario(
        name="credit-stall",
        description="a streaming receiver silently stops returning ring "
                    "credits; the sender parks on its credit tank, the "
                    "wait-for graph names the owner of every missing "
                    "byte, and healing the stall conserves the stream",
        hosts=2,
        containers=(
            Placement("web", "host0"),
            Placement("db", "host1"),
        ),
        traffic=(),
        steps=(
            Step(0.0002, "stream opens; credit returns stalled",
                 open_stream),
            Step(0.002, "probe: snapshot the wait-for graph", probe),
            Step(0.004, "stall heals; withheld credits flush", heal),
        ),
        duration_s=0.006,
        conservation="exact",
        extra_invariants=(check_stall_was_observed,),
    )


# -- core-link-failure ---------------------------------------------------------


def _core_link_failure() -> Scenario:
    """A fat-tree core link dies under cross-pod traffic; every flow
    reroutes onto the surviving equal-cost paths without drops or
    intra-flowlet reordering, and the dead cable moves no bytes until
    it heals."""

    state: dict = {"dead": None, "frozen_bytes": None, "was_down": None,
                   "recv_at_kill": None, "recv_at_heal": None,
                   "bytes_before_kill": 0}

    def _cable_bytes(harness) -> int:
        a, b = state["dead"]
        topo = harness.fabric.topology
        return (topo.link_by_name(a, b).pipe.bytes_moved
                + topo.link_by_name(b, a).pipe.bytes_moved)

    def kill_busiest_core(harness):
        link = harness.fabric.busiest_core_link()
        state["dead"] = (link.src.name, link.dst.name)
        state["bytes_before_kill"] = _cable_bytes(harness)
        harness.link.fail_link(*state["dead"])

    def snapshot_outage(harness):
        # A frame already on the wire at the kill finishes its hop (the
        # sim has no mid-transfer preemption), so the freeze baseline is
        # taken here, one in-flight window later, not at the kill itself.
        state["frozen_bytes"] = _cable_bytes(harness)
        state["recv_at_kill"] = {
            label: counts["received"]
            for label, counts in harness.counters.items()
        }

    def heal_core(harness):
        a, b = state["dead"]
        topo = harness.fabric.topology
        state["was_down"] = (not topo.link_by_name(a, b).up
                             and not topo.link_by_name(b, a).up)
        state["recv_at_heal"] = {
            label: counts["received"]
            for label, counts in harness.counters.items()
        }
        # Freeze check happens before the heal un-freezes the cable.
        state["frozen_at_heal"] = _cable_bytes(harness)
        harness.link.heal_link(a, b)

    def check_reroute(harness) -> list:
        problems = []
        if state["bytes_before_kill"] <= 0:
            problems.append(Violation(
                "core-link.fault-armed",
                "the busiest core link had moved no bytes at the kill — "
                "the scenario exercised nothing",
            ))
        if not state["was_down"]:
            problems.append(Violation(
                "core-link.cable-down",
                f"cable {state['dead']} was not down (both directions) "
                f"during the outage",
            ))
        if state["frozen_at_heal"] != state["frozen_bytes"]:
            problems.append(Violation(
                "core-link.dead-cable-frozen",
                f"dead cable {state['dead']} moved "
                f"{state['frozen_at_heal'] - state['frozen_bytes']} "
                f"byte(s) during the outage",
            ))
        for label, before in state["recv_at_kill"].items():
            after = state["recv_at_heal"][label]
            if after <= before:
                problems.append(Violation(
                    "core-link.flow-converged",
                    f"{label} delivered nothing during the outage "
                    f"({before} -> {after}): it never rerouted",
                ))
        if harness.fabric.reorders() != 0:
            problems.append(Violation(
                "core-link.flowlet-order",
                f"{harness.fabric.reorders()} intra-flowlet "
                f"reordering(s) observed",
            ))
        if harness.link.link_fails != 1 or harness.link.link_heals != 1:
            problems.append(Violation(
                "core-link.fault-count",
                f"expected exactly one fail+heal, saw "
                f"{harness.link.link_fails}/{harness.link.link_heals}",
            ))
        return problems

    return Scenario(
        name="core-link-failure",
        description="the busiest agg-core cable of a k=4 fat-tree dies "
                    "under cross-pod traffic; flowlets re-hash onto the "
                    "surviving paths, delivery stays exact and ordered, "
                    "and the dead cable is byte-frozen until it heals",
        hosts=8,
        containers=(
            Placement("web", "host0"),
            Placement("api", "host1"),
            Placement("db", "host4"),
            Placement("store", "host5"),
        ),
        traffic=(
            TrafficPair("web", "db"),
            TrafficPair("api", "store"),
            TrafficPair("web", "store"),
        ),
        steps=(
            Step(0.001, "busiest core cable dies", kill_busiest_core),
            Step(0.0012, "outage baseline snapshot", snapshot_outage),
            Step(0.0035, "core cable heals", heal_core),
        ),
        duration_s=0.005,
        conservation="exact",
        fat_tree_k=4,
        extra_invariants=(check_reroute,),
    )


#: Catalogue, in run order.  The first entry is the CI smoke gate.
SCENARIOS = {
    factory().name: factory
    for factory in (
        _nic_loss_midflow,
        _host_crash_storm,
        _lease_expiry_storm,
        _control_plane_partition,
        _watch_delay,
        _link_flap,
        _lossy_kernel_path,
        _kv_watch_drop,
        _credit_stall,
        _core_link_failure,
    )
}

SMOKE_SCENARIO = "nic-loss-midflow"


def get(name: str) -> Scenario:
    """Build a fresh Scenario by name (KeyError lists what exists)."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
    return factory()
