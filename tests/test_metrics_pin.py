"""Measurement-harness results on three data planes, pinned by digest.

``run_stream`` and ``run_pingpong`` produce the paper's three numbers:
Gb/s, per-host utilisation (CPU cores, NIC engine, wire, memory bus)
and the latency distribution.  Each mode here (shared memory on one
host, RDMA between two, and the kernel-TCP fallback between two) runs a
short stream and then a ping-pong on the same channel, and a digest of
every reported number, as exact float hex, must match the one recorded
from the reference implementation.  A change in how busy time is
accumulated or in the order latency samples are summed moves a last
bit somewhere and fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.hardware import Fabric, Host
from repro.metrics import run_pingpong, run_stream
from repro.netstack import TcpConnection
from repro.sim import Environment
from repro.sim.rand import RandomStream
from repro.transports import RdmaChannel, ShmChannel

#: Mode -> digest of its stream and ping-pong numbers.
DIGESTS = {
    "shm": "8e952faa5f96c1a1",
    "rdma": "5d00f908ee90453a",
    "tcp": "ad0a112935e0dd2c",
}


def _build(mode: str):
    env = Environment()
    fabric = Fabric(env)
    a = Host(env, "a", fabric=fabric)
    if mode == "shm":
        return env, (a,), lambda: ShmChannel(a)
    b = Host(env, "b", fabric=fabric)
    factory = RdmaChannel if mode == "rdma" else TcpConnection
    return env, (a, b), lambda: factory(a, b)


def _background(env, channel) -> None:
    """Seeded open-loop traffic on a second channel between the same
    hosts, so the ping-pong rounds queue behind it and differ."""
    rng = RandomStream(7, "pin-background")

    def sender():
        while True:
            yield env.timeout(rng.expovariate(1 / 10e-6))
            yield from channel.a.send(rng.randint(64, 256 * 1024))

    def receiver():
        while True:
            yield from channel.b.recv()

    env.process(sender())
    env.process(receiver())


def _numbers(mode: str) -> list:
    env, hosts, connect = _build(mode)
    channel, second, third = connect(), connect(), connect()
    # Three pairs at once, so copies, cores and the memory bus contend.
    pairs = [(c.a, c.b) for c in (channel, second, third)]
    stream = run_stream(env, pairs, duration_s=2e-3,
                        message_bytes=64 * 1024, hosts=hosts)
    lines = [f"gbps {stream.gbps.hex()}",
             f"messages {stream.messages} {stream.payload_bytes}",
             f"pairs {stream.per_pair_bytes}",
             f"duration {stream.duration_s.hex()}",
             f"events {stream.engine_events}"]
    for field in ("cpu_percent", "nic_engine_util", "link_util",
                  "membus_util"):
        values = getattr(stream, field)
        lines.extend(f"{field} {name} {values[name].hex()}"
                     for name in sorted(values))
    _background(env, second)
    pingpong = run_pingpong(env, channel.a, channel.b, rounds=200,
                            message_bytes=2048, warmup_rounds=5)
    summary = pingpong.latencies.summary()
    lines.extend(f"latency {key} {summary[key].hex()}"
                 for key in sorted(summary))
    return lines


@pytest.mark.parametrize("mode", sorted(DIGESTS))
def test_harness_numbers_match_reference(mode):
    lines = _numbers(mode)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == DIGESTS[mode], "\n".join(lines)
