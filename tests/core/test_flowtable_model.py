"""Reference test for the FlowTable state machine.

The model is the definition the table implements: a plain set of legal
``(old, new)`` state pairs, a dict of open flows in creation order, and
three counters.  Random open / activate / transition / pause / resume /
close programs must agree with it on every legality verdict
(``FlowStateError``), on ``len``, ``flows_for``, ``count`` and the
lifetime counters, and the per-endpoint index must hold exactly the
open flows.  Assigning ``flow.state`` directly must always raise.
"""

from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.flows import FlowState, FlowTable
from repro.errors import FlowStateError
from repro.sim import Environment

NAMES = ["web", "db", "cache"]

#: Every legal (old, new) pair, written out by hand.
LEGAL = {
    ("resolving", "active"), ("resolving", "broken"),
    ("resolving", "closed"),
    ("active", "paused"), ("active", "broken"), ("active", "rebinding"),
    ("active", "closed"),
    ("paused", "active"), ("paused", "broken"), ("paused", "rebinding"),
    ("paused", "closed"),
    ("broken", "rebinding"), ("broken", "closed"),
    ("rebinding", "active"), ("rebinding", "paused"),
    ("rebinding", "broken"), ("rebinding", "closed"),
}


def _channel():
    return SimpleNamespace(lane_ab=SimpleNamespace(), lane_ba=SimpleNamespace(),
                           close=lambda: None)


class FlowTableModel(RuleBasedStateMachine):
    flows = Bundle("flows")

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.table = FlowTable(self.env)
        #: The model: flow_id -> [src, dst, state] of open flows, in
        #: creation order, the ids of paused flows (closed ones too: the
        #: gate is the flow's, not the table's), and the lifetime
        #: counters.
        self.open: dict = {}
        self.paused: set = set()
        self.opened = 0
        self.closed = 0
        self.transitions = 0

    def _state_of(self, flow) -> str:
        entry = self.open.get(flow.flow_id)
        return entry[2] if entry is not None else "closed"

    def _expect(self, flow, new: str):
        """Apply one transition to the model; False if it is illegal."""
        if (self._state_of(flow), new) not in LEGAL:
            return False
        self.transitions += 1
        if new == "closed":
            self.closed += 1
            del self.open[flow.flow_id]
        else:
            self.open[flow.flow_id][2] = new
        return True

    @rule(target=flows, src=st.sampled_from(NAMES),
          dst=st.sampled_from(NAMES))
    def open_flow(self, src, dst):
        flow = self.table.open(src, dst)
        self.opened += 1
        self.transitions += 1
        self.open[flow.flow_id] = [src, dst, "resolving"]
        return flow

    @rule(flow=flows)
    def activate(self, flow):
        if self._expect(flow, "active"):
            self.table.activate(flow, _channel(), decision=None)
        else:
            with pytest.raises(FlowStateError):
                self.table.activate(flow, _channel(), decision=None)

    @rule(flow=flows, new=st.sampled_from(FlowState))
    def transition(self, flow, new):
        if self._expect(flow, new.value):
            self.table.transition(flow, new, reason="model")
        else:
            with pytest.raises(FlowStateError):
                self.table.transition(flow, new, reason="model")

    @rule(flow=flows)
    def pause(self, flow):
        if flow.flow_id not in self.paused:
            self.paused.add(flow.flow_id)
            if self._state_of(flow) == "active":
                self._expect(flow, "paused")
        flow.pause(self.env)

    @rule(flow=flows)
    def resume(self, flow):
        if flow.flow_id in self.paused:
            self.paused.discard(flow.flow_id)
            if self._state_of(flow) == "paused":
                self._expect(flow, "active")
        flow.resume()

    @rule(flow=flows)
    def close(self, flow):
        if flow.flow_id in self.open:
            # Closing releases the pause gate; closing again is a no-op.
            self._expect(flow, "closed")
            self.paused.discard(flow.flow_id)
        self.table.close(flow)
        assert flow.paused == (flow.flow_id in self.paused)

    @rule(flow=flows, new=st.sampled_from(FlowState))
    def assign_state(self, flow, new):
        before = flow.state
        with pytest.raises(AttributeError):
            flow.state = new
        assert flow.state is before

    @invariant()
    def table_matches_the_model(self):
        table = self.table
        assert len(table) == len(self.open)
        assert [flow.flow_id for flow in table] == list(self.open)
        for flow in table:
            src, dst, state = self.open[flow.flow_id]
            assert (flow.src_name, flow.dst_name) == (src, dst)
            assert flow.state.value == state
            assert flow.paused == (flow.flow_id in self.paused)
        for state in FlowState:
            assert table.count(state) == sum(
                1 for entry in self.open.values() if entry[2] == state.value)
        assert (table.opened_total, table.closed_total, table.transitions) \
            == (self.opened, self.closed, self.transitions)

    @invariant()
    def endpoint_index_holds_exactly_the_open_flows(self):
        for name in NAMES:
            expected = [fid for fid, entry in self.open.items()
                        if name in entry[:2]]
            assert [flow.flow_id for flow in self.table.flows_for(name)] \
                == expected
            assert self.table._by_endpoint.get(name, []) == expected


FlowTableModel.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestFlowTableModel = FlowTableModel.TestCase
