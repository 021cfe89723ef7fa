#!/usr/bin/env python3
"""Live migration with connection continuity (paper §7, "Discussions").

A KV server migrates from host0 to host1 while a client keeps issuing
GETs.  FreeFlow's orchestrator republishes the location, the library
re-resolves, and the connection is rebound — the client's socket never
breaks, but its GET latency changes because the mechanism changed
(shared memory before, RDMA after).

Run:  python examples/live_migration.py
"""

import math

from repro import ContainerSpec, quickstart_cluster
from repro.core import MigrationController
from repro.sim.monitor import StreamingSeries
from repro.workloads import KeyValueStoreApp

STATE_BYTES = 512e6      # container memory image
DIRTY_RATE = 150e6       # bytes/s dirtied while running


def main() -> None:
    env, cluster, network = quickstart_cluster(hosts=2)
    server = cluster.submit(ContainerSpec("kv", pinned_host="host0"))
    client_c = cluster.submit(ContainerSpec("client", pinned_host="host0"))
    network.attach(server)
    network.attach(client_c)

    app = KeyValueStoreApp(network, server, value_bytes=4096)
    controller = MigrationController(network)

    before = StreamingSeries(reservoir=math.inf)
    after = StreamingSeries(reservoir=math.inf)
    report_box = {}

    def scenario():
        client = yield from app.client(client_c)
        yield from client.put(1, "durable")
        print(f"client connected via {client.sock.mechanism.value.upper()} "
              f"(both containers on {server.location})")

        for _ in range(100):
            started = env.now
            yield from client.get(1)
            before.add(env.now - started)

        print(f"\nmigrating kv-server to host1 "
              f"({STATE_BYTES / 1e6:.0f} MB image, "
              f"{DIRTY_RATE / 1e6:.0f} MB/s dirty rate)...")
        report = yield from controller.live_migrate(
            "kv", "host1",
            state_bytes=STATE_BYTES, dirty_rate_bytes=DIRTY_RATE,
        )
        report_box["report"] = report

        value = yield from client.get(1)
        if value != "durable":
            raise RuntimeError(f"data must survive the move, read {value!r}")
        for _ in range(100):
            started = env.now
            yield from client.get(1)
            after.add(env.now - started)

    env.run(until=env.process(scenario()))

    report = report_box["report"]
    print(f"  total time   {report.total_seconds * 1e3:8.1f} ms")
    print(f"  downtime     {report.downtime_seconds * 1e3:8.2f} ms")
    print(f"  pre-copy     {report.precopy_rounds} round(s), "
          f"{report.bytes_copied / 1e6:.0f} MB moved")
    changes = ", ".join(
        f"{a.value}->{b.value}" for a, b in report.mechanism_changes
    )
    print(f"  connections  {report.rebound_connections} rebound "
          f"({changes})")
    print(f"\nGET latency before: {before.mean() * 1e6:6.2f} us "
          f"(shared memory)")
    print(f"GET latency after:  {after.mean() * 1e6:6.2f} us "
          f"(RDMA across hosts)")
    print("\nthe socket survived: same IP, same connection object, new "
          "data plane")


if __name__ == "__main__":
    main()
