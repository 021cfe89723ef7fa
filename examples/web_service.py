#!/usr/bin/env python3
"""A containerized web service across FreeFlow (paper §2.1's example).

"A web service can include layers, such as load balancer, web server,
in-memory cache and backend database, and each layer can be a distributed
system with multiple containerized nodes."  This example deploys exactly
that — LB → 2 web servers → cache + database — lets the cluster scheduler
place the tiers, and pushes requests through the whole chain, reporting
end-to-end latency and which mechanism each tier-to-tier hop got.

Run:  python examples/web_service.py
"""

import math

from repro import ContainerSpec, quickstart_cluster
from repro.sim.monitor import StreamingSeries
from repro.sim.rand import RandomStream

REQUESTS = 300
CACHE_HIT_RATE = 0.8


def main() -> None:
    env, cluster, network = quickstart_cluster(hosts=2)

    # Let the spread scheduler place the tiers (no pinning): this is the
    # realistic case where some hops land together and some apart.
    tiers = {}
    for name in ("lb", "web1", "web2", "cache", "db"):
        container = cluster.submit(ContainerSpec(name, tenant="shop"))
        network.attach(container)
        tiers[name] = container
        print(f"scheduler placed {name:6s} on {container.location}")

    connections = {}

    def wire_up():
        for src, dst in (
            ("lb", "web1"), ("lb", "web2"),
            ("web1", "cache"), ("web2", "cache"),
            ("web1", "db"), ("web2", "db"),
        ):
            connections[(src, dst)] = yield from (
                network.connect_containers(src, dst)
            )

    env.run(until=env.process(wire_up()))
    print()
    for (src, dst), connection in connections.items():
        print(f"{src:5s} -> {dst:6s} via "
              f"{connection.mechanism.value.upper():4s} "
              f"({connection.decision.reason})")

    rng = RandomStream(7, "webservice")
    latencies = StreamingSeries(reservoir=math.inf)

    def backend(name):
        """cache/db servers: answer every request on every connection."""
        def serve(connection):
            while True:
                request = yield from connection.b.recv()
                size = 2048 if name == "cache" else 16384
                yield from connection.b.send(size, payload=request.payload)

        for (src, dst), connection in connections.items():
            if dst == name:
                env.process(serve(connection))

    def web(name):
        def serve(connection):
            while True:
                request = yield from connection.b.recv()
                # Hit the cache; on a miss, hit the database too.
                target = ("cache" if rng.uniform(0, 1) < CACHE_HIT_RATE
                          else "db")
                backend_conn = connections[(name, target)]
                yield from backend_conn.a.send(256, payload=request.payload)
                yield from backend_conn.a.recv()
                yield from connection.b.send(8192, payload=request.payload)

        env.process(serve(connections[("lb", name)]))

    backend("cache")
    backend("db")
    web("web1")
    web("web2")

    def load_balancer():
        for index in range(REQUESTS):
            worker = "web1" if index % 2 == 0 else "web2"
            connection = connections[("lb", worker)]
            started = env.now
            yield from connection.a.send(512, payload=index)
            yield from connection.a.recv()
            latencies.add(env.now - started)

    env.run(until=env.process(load_balancer()))

    print(f"\n{REQUESTS} requests "
          f"({CACHE_HIT_RATE:.0%} cache hit rate):")
    print(f"  mean  {latencies.mean() * 1e6:7.1f} us")
    print(f"  p50   {latencies.percentile(50) * 1e6:7.1f} us")
    print(f"  p99   {latencies.percentile(99) * 1e6:7.1f} us")


if __name__ == "__main__":
    main()
