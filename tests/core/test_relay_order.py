"""Exact delivery timing on the FreeFlow RDMA relay path, pinned by digest.

The telemetry golden files pin shared-memory timing only.  Each seeded
program here drives two or three inter-host RDMA relay flows between
the same two hosts, so their NIC and agent workers contend, in two
phases.  In the first, several senders per direction and flow start on
a coarse grid (so sends share an instant) and one receiver of flow 0
stalls while the reconciler rebinds that flow, so its backlog is
transplanted onto the new channel.  In the second, after the rebind,
every flow sends a burst of sizes from 1 B up to the shared-memory ring
size; then the flows are closed.  A digest of every message's exact
``(seq, delivered_at, consumed_at)`` must match the one recorded from
the reference implementation, both plain (``run()``'s batched drain)
and with the sanitizer and the wait-for graph armed (every event
through ``step()``).

The pause gate holds senders only, so a receiver keeps consuming while
the reconciler drains its flow.  The programs in :data:`DIGESTS` keep
their first-phase messages at 1/64 of the ring, so the stalled
receiver's backlog is still waiting when the channel is swapped and is
transplanted.  The programs in :data:`FULL_RING_DIGESTS` let first-phase
messages reach the full ring size: the backlog outlasts the stall, the
receiver drains it during the pause, and the rebind follows.  When
receives also waited at the gate, each of those stalled the drain for
good, so they run to a sim-time horizon and fail instead of hanging.
"""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace

import pytest

from repro.analysis import sanitizer, waitfor
from repro.cluster import ClusterOrchestrator, ContainerSpec
from repro.core import FreeFlowNetwork
from repro.errors import TransportError
from repro.hardware import Fabric, Host, ShmSpec
from repro.sim import Environment
from repro.sim.rand import RandomStream
from repro.transports import Mechanism

#: Program seed -> digest of its exact delivery timeline.
DIGESTS = {
    1: "e0ebf699f6f16100",
    8: "a2b89a1eef7fdd84",
    9: "25b4258c412ed2b3",
    15: "c942dcc8aa011816",
    17: "62db8c17df2deec3",
    22: "ad5ae01d2c7de4bf",
    23: "2c634cf1e18769ee",
    24: "714c918a0503163c",
}

#: The same, for programs whose first-phase messages reach the full ring.
FULL_RING_DIGESTS = {
    41: "15b5851641d40fd5",
    45: "a234bd12f233fc75",
    73: "06ed148dbccbd069",
}
#: Sim-time bound on the full-ring programs (each closes within 25 ms).
HORIZON_S = 1.0

#: Sends are due on this grid, so senders of different flows collide.
GRID_S = 5e-6
#: How long flow 0's a->b receiver stops consuming once it has started
#: the rebind.
STALL_S = 3e-3
#: Sends per ticker.
TICKS = 4
#: First-phase messages of the :data:`DIGESTS` programs are at most this
#: share of the ring.
FIRST_PHASE_SHARE = 1 / 64


def _plan(seed: int, ring_bytes: int,
          first_share: float = FIRST_PHASE_SHARE) -> SimpleNamespace:
    """Draw the whole program up front, so no draw depends on timing."""
    rng = RandomStream(seed, "relay-order")

    def size(cap: int) -> int:
        roll = rng.random()
        if roll < 0.15:
            return 1
        if roll < 0.25:
            return cap
        return max(1, int(2 ** rng.uniform(0, math.log2(cap))))

    def schedule(lag: int, cap: int) -> list:
        """(due offset from the phase start, size) of one sender's sends."""
        due = GRID_S * (lag + rng.randint(0, 3))
        sends = []
        for _ in range(rng.randint(2, 6)):
            sends.append((due, size(cap)))
            if rng.random() >= 0.4:
                due += GRID_S * rng.randint(1, 4)
        return sends

    def senders(lag: int, least: int, most: int, cap: int) -> list:
        """A 1 B ticker (one send per grid step) plus random senders."""
        count = rng.randint(least, most)
        if not count:
            return []
        ticker = [(GRID_S * (lag + step), 1) for step in range(TICKS)]
        return [ticker] + [schedule(lag, cap) for _ in range(count - 1)]

    small = int(ring_bytes * first_share)
    flows = []
    for lag in range(rng.randint(2, 3)):
        # Flow n starts n grid steps late, so the first message on each
        # of its lanes shares an instant with the tickers of the flows
        # before it, whose lanes are already running.
        phases = (
            {"ab": senders(lag, 2, 3, small),
             "ba": senders(lag, 0, 3, small)},
            {"ab": senders(lag, 1, 3, ring_bytes),
             "ba": senders(lag, 1, 3, ring_bytes)},
        )
        counts = {d: sum(len(sends) for phase in phases for sends in phase[d])
                  for d in ("ab", "ba")}
        flows.append(SimpleNamespace(
            phases=phases,
            thinks={d: [0.0 if rng.random() < 0.7
                        else rng.uniform(1e-6, 1e-4)
                        for _ in range(counts[d])] for d in counts},
        ))
    first_ab = sum(len(sends) for sends in flows[0].phases[0]["ab"])
    return SimpleNamespace(
        flows=flows,
        stall_at=rng.randint(1, min(3, first_ab - 1)),
        total=sum(len(t) for flow in flows for t in flow.thinks.values()),
    )


def _run(plan: SimpleNamespace, horizon_s=None) -> SimpleNamespace:
    env = Environment()
    fabric = Fabric(env)
    cluster = ClusterOrchestrator(env)
    for host in ("h1", "h2"):
        cluster.add_host(Host(env, host, fabric=fabric))
    network = FreeFlowNetwork(cluster)
    for i in range(len(plan.flows)):
        for name, host in ((f"a{i}", "h1"), (f"b{i}", "h2")):
            network.attach(
                cluster.submit(ContainerSpec(name, pinned_host=host)))
    records = {}
    out = SimpleNamespace(records=records)

    def program():
        flows = []
        for i in range(len(plan.flows)):
            flows.append((yield from network.connect_containers(
                f"a{i}", f"b{i}")))
            assert flows[-1].mechanism is Mechanism.RDMA
        all_consumed = env.event()

        def sender(seq, sends):
            flow, direction = flows[seq[0]], seq[1]
            start = env.now
            for k, (due, nbytes) in enumerate(sends):
                if env.now < start + due:
                    yield env.timeout(start + due - env.now)
                end = flow.a if direction == "ab" else flow.b
                yield from end.send(nbytes, payload=seq + (k,))

        def start_phase(phase):
            for i, flow_plan in enumerate(plan.flows):
                for direction, senders in flow_plan.phases[phase].items():
                    for index, sends in enumerate(senders):
                        env.process(sender((i, direction, phase, index),
                                           sends))

        def rebind():
            yield from network.reconciler.reconcile_containers(("a0",))
            start_phase(1)

        def receiver(i, direction):
            flow = flows[i]
            for n, think in enumerate(plan.flows[i].thinks[direction], 1):
                end = flow.b if direction == "ab" else flow.a
                message = yield from end.recv()
                assert message.payload[:2] == (i, direction)
                records[message.payload] = (message.delivered_at, env.now)
                if len(records) == plan.total:
                    all_consumed.succeed()
                if (i, direction, n) == (0, "ab", plan.stall_at):
                    env.process(rebind())
                    yield env.timeout(STALL_S)
                if think:
                    yield env.timeout(think)

        for i in range(len(flows)):
            for direction in ("ab", "ba"):
                env.process(receiver(i, direction))
        start_phase(0)
        yield all_consumed
        for flow in flows:
            network.close_connection(flow)
        out.closed_at = env.now
        with pytest.raises(TransportError):
            yield from flows[0].a.send(1)
        out.generations = [flow.generation for flow in flows]

    done = env.process(program())
    env.run(until=done if horizon_s is None else horizon_s)
    assert done.triggered, "the program never finished: a rebind stalled"
    out.moved = network.factory.transplanted_messages
    return out


def _digest(out: SimpleNamespace) -> str:
    lines = [
        f"{' '.join(map(str, seq))} {delivered.hex()} {consumed.hex()}"
        for seq, (delivered, consumed) in out.records.items()
    ]
    lines.append(f"moved {out.moved} generations {out.generations} "
                 f"closed {out.closed_at.hex()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.fixture(params=["plain", "armed"])
def mode(request):
    """Run with the sanitizer and the wait-for graph both armed, or both
    disarmed, restoring whatever the suite had armed afterwards."""
    tools = (sanitizer, waitfor)
    was_armed = [tool.installed() for tool in tools]
    for tool in tools:
        if request.param == "armed":
            tool.install()
        else:
            tool.uninstall()
    yield request.param
    for tool, armed in zip(tools, was_armed):
        if armed:
            tool.install()
        else:
            tool.uninstall()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_relay_delivery_timeline_matches_reference(mode, seed):
    out = _run(_plan(seed, ShmSpec().ring_bytes))
    assert out.moved > 0 and out.generations[0] == 2
    assert _digest(out) == DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(FULL_RING_DIGESTS))
def test_full_ring_first_phase_timeline_matches_reference(mode, seed):
    ring_bytes = ShmSpec().ring_bytes
    plan = _plan(seed, ring_bytes, first_share=1.0)
    assert ring_bytes in {nbytes for flow in plan.flows
                          for senders in flow.phases[0].values()
                          for sends in senders for _, nbytes in sends}
    out = _run(plan, horizon_s=HORIZON_S)
    assert out.generations[0] == 2
    assert _digest(out) == FULL_RING_DIGESTS[seed]


def test_programs_cover_an_idle_direction_and_both_size_extremes():
    ring_bytes = ShmSpec().ring_bytes
    flows = [flow for seed in DIGESTS
             for flow in _plan(seed, ring_bytes).flows]
    sizes = {nbytes for flow in flows for phase in flow.phases
             for senders in phase.values() for sends in senders
             for _, nbytes in sends}
    assert {1, ring_bytes} <= sizes
    assert any(not flow.phases[0]["ba"] for flow in flows)
