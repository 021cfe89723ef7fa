"""Reference test for the memory region's contents.

A :class:`MemoryRegion` keeps one entry per write and drops every entry
a later write overlaps, in parallel lists sorted by start.  The model
here is the definition it replaces: the list of every write ever made,
where a write is live while no later write overlaps it.  A write covers
``[offset, offset + length)``, a zero-length one the byte at its offset.
Random programs of writes, atomic sets, reads and atomic reads must
give the same results on both, leave the same live entries, and keep
the live ranges disjoint.  The writes are drawn around live entries
too: repeats at one offset, exact covers, partial overlaps on either
side, touching neighbours and zero-length writes.
"""

import itertools

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.verbs import MemoryRegion, ProtectionDomain
from repro.errors import MemoryRegionError

SIZE = 48

offsets = st.integers(min_value=0, max_value=SIZE)
lengths = st.integers(min_value=0, max_value=12)

#: Writes placed against a live entry ``[start, end)``: each maps the
#: entry and a drawn length to the write's (offset, length).
AROUND = {
    "repeat": lambda start, end, n: (start, n),
    "exact": lambda start, end, n: (start, end - start),
    "zero-at-start": lambda start, end, n: (start, 0),
    "zero-inside": lambda start, end, n: (start + n % (end - start), 0),
    "over-left-edge": lambda start, end, n: (start - 1, n + 2),
    "over-right-edge": lambda start, end, n: (end - 1, n + 1),
    "cover": lambda start, end, n: (start - 1, end - start + 2),
    "touch-left": lambda start, end, n: (start - n - 1, n + 1),
    "touch-right": lambda start, end, n: (end, n),
}


def span(offset, length):
    return offset, offset + (length or 1)


class MemoryRegionModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.region = MemoryRegion(ProtectionDomain(None), SIZE)
        #: The model: every write as (start, end, payload), oldest first.
        self.writes: list = []
        self.bytes_written = 0
        self.names = itertools.count()

    def live(self) -> list:
        return [
            (start, end, payload)
            for i, (start, end, payload) in enumerate(self.writes)
            if not any(
                later_start < end and start < later_end
                for later_start, later_end, _ in self.writes[i + 1:]
            )
        ]

    def model_entry(self, offset, default):
        for start, _end, payload in self.live():
            if start == offset:
                return payload
        return default

    def store(self, offset, length, payload):
        if not 0 <= offset <= offset + length <= SIZE:
            with pytest.raises(MemoryRegionError):
                self.region.write(offset, length, payload)
            return
        self.region.write(offset, length, payload)
        self.writes.append((*span(offset, length), payload))
        self.bytes_written += length

    @rule(offset=offsets, length=lengths)
    def write(self, offset, length):
        self.store(offset, length, f"w{next(self.names)}")

    @precondition(lambda self: self.writes)
    @rule(pick=st.integers(min_value=0), length=lengths,
          kind=st.sampled_from(sorted(AROUND)))
    def write_around_a_live_entry(self, pick, length, kind):
        live = self.live()
        start, end, _ = live[pick % len(live)]
        offset, length = AROUND[kind](start, end, length)
        self.store(offset, length, f"w{next(self.names)}")

    @rule(offset=st.integers(min_value=0, max_value=SIZE - 8),
          value=st.integers(min_value=-5, max_value=5))
    def atomic_set(self, offset, value):
        self.region.atomic_set(offset, value)
        self.writes.append((*span(offset, 8), value))
        self.bytes_written += 8

    @rule(offset=offsets, length=lengths)
    def read(self, offset, length):
        if offset + length > SIZE:
            return
        assert self.region.read(offset, length) \
            == self.model_entry(offset, None)

    @rule(offset=st.integers(min_value=0, max_value=SIZE - 8))
    def atomic_value(self, offset):
        expected = self.model_entry(offset, 0)
        if isinstance(expected, int):
            assert self.region.atomic_value(offset) == expected
        else:
            with pytest.raises(MemoryRegionError):
                self.region.atomic_value(offset)

    @invariant()
    def live_entries_match_the_model(self):
        region = self.region
        entries = list(zip(region._starts, region._ends, region._payloads))
        assert entries == sorted(self.live(), key=lambda entry: entry[0])
        assert all(end <= next_start for (_, end, _), (next_start, _, _)
                   in zip(entries, entries[1:]))
        assert region.bytes_written == self.bytes_written


MemoryRegionModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
TestMemoryRegionModel = MemoryRegionModel.TestCase
