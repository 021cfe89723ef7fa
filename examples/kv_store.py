#!/usr/bin/env python3
"""Key-value store over FreeFlow sockets (paper §1's motivating workload).

A KV server container serves GET/PUT over the standard socket API; the
socket layer translates every call onto verbs (paper §4.2) and the
orchestrator picks shared memory for the co-located client and RDMA for
the remote one.  The printed latencies show why placement + FreeFlow
matter for the FaRM/Cassandra class of systems the paper cites.

Run:  python examples/kv_store.py
"""

import math

from repro import ContainerSpec, quickstart_cluster
from repro.sim.monitor import StreamingSeries
from repro.workloads import KeyValueStoreApp


def main() -> None:
    env, cluster, network = quickstart_cluster(hosts=2)

    server = cluster.submit(ContainerSpec("kv-server", pinned_host="host0"))
    local = cluster.submit(ContainerSpec("local-client",
                                         pinned_host="host0"))
    remote = cluster.submit(ContainerSpec("remote-client",
                                          pinned_host="host1"))
    for container in (server, local, remote):
        network.attach(container)

    app = KeyValueStoreApp(network, server, value_bytes=4096, keys=256)
    print(f"kv-server listening at {server.ip}:{app.port} "
          f"(values {app.value_bytes} B, zipf keyspace {app.keys})")

    stats = {}

    def run_client(name, container, operations):
        client = yield from app.client(container)
        print(f"{name}: connected via "
              f"{client.sock.mechanism.value.upper()}")
        # Preload a few keys, then do zipf-popular reads.
        for key in range(10):
            yield from client.put(key, f"value-{key}")
        before = len(app.get_latencies)
        for _ in range(operations):
            yield from client.random_get()
        samples = app.get_latencies.samples[before:]
        series = StreamingSeries(reservoir=math.inf)
        series.extend(samples)
        stats[name] = series
        yield from client.close()

    def driver():
        yield from run_client("local ", local, 200)
        yield from run_client("remote", remote, 200)

    done = env.process(driver())
    env.run(until=done)

    print(f"\nserver handled {app.puts_served} PUTs, "
          f"{app.gets_served} GETs\n")
    print(f"{'client':8s} {'mean GET':>10s} {'p99 GET':>10s}")
    for name, series in stats.items():
        print(f"{name:8s} {series.mean() * 1e6:8.2f} us "
              f"{series.percentile(99) * 1e6:8.2f} us")
    ratio = stats["remote"].mean() / stats["local "].mean()
    print(f"\nremote/local latency ratio: {ratio:.1f}x — co-locating the "
          f"cache tier with its clients keeps GETs on shared memory")


if __name__ == "__main__":
    main()
