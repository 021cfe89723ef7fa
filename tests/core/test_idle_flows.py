"""An idle flow costs only its bookkeeping.

FreeFlow picks each flow's data plane when the flow opens, so a fleet
opens and closes many flows that never carry data.  Such a flow must
schedule no engine event and leave no reference cycle: its lanes start
their workers on the first message, and a closed idle flow is freed by
reference counting alone.
"""

from __future__ import annotations

import gc
import weakref

from repro.transports import Mechanism
from repro.transports.base import Lane


def _quiet(env):
    env.run()
    assert env.peek() == float("inf")


def test_building_an_rdma_relay_channel_schedules_no_event(
        env, network, three_containers):
    _quiet(env)
    decision = network.orchestrator.decide("web", "db")
    assert decision.mechanism is Mechanism.RDMA
    channel = network.factory.build("web", "db", decision)
    assert channel.mechanism is Mechanism.RDMA
    assert env.peek() == float("inf")
    channel.close()


def _live_lanes() -> int:
    # Lanes have __slots__ without __weakref__, so count them instead.
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Lane))


def test_closed_idle_flow_is_freed_without_the_collector(
        env, network, three_containers, runner):
    refs = []
    open_lanes = []

    def open_and_close():
        flow = yield from network.connect_containers("web", "db")
        refs.extend([weakref.ref(flow), weakref.ref(flow.channel)])
        open_lanes.append(_live_lanes())
        network.close_connection(flow)

    gc.collect()
    gc.disable()
    try:
        before = _live_lanes()
        runner(open_and_close())
        # Two relay lanes, each over its own RDMA lane.
        assert open_lanes == [before + 4]
        assert [ref() for ref in refs] == [None, None]
        assert _live_lanes() == before
    finally:
        gc.enable()


def test_first_send_in_each_direction_is_delivered(
        env, network, three_containers, runner):
    def exchange():
        flow = yield from network.connect_containers("web", "db")
        assert flow.mechanism is Mechanism.RDMA
        yield from flow.a.send(100, payload="request")
        request = yield from flow.b.recv()
        yield from flow.b.send(200, payload="reply")
        reply = yield from flow.a.recv()
        return flow, request, reply

    flow, request, reply = runner(exchange())
    assert (request.payload, reply.payload) == ("request", "reply")
    assert request.delivered_at > request.sent_at
    assert reply.delivered_at > reply.sent_at
    for lane in (flow.channel.lane_ab, flow.channel.lane_ba):
        assert lane.stats.messages_delivered == 1
        assert lane.backing.stats.messages_delivered == 1
