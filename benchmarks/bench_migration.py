"""E15 — §7 "Live migration": cost of moving a serving container.

A KV server live-migrates while a client keeps issuing GETs.  The bench
sweeps the container state size and reports total migration time,
downtime, pre-copy rounds and the GET latency before/after (the
mechanism flips from shared memory to RDMA when the pair splits).
"""

import math

import pytest

from repro import ContainerSpec
from repro.core import MigrationController
from repro.sim.monitor import StreamingSeries
from repro.workloads import KeyValueStoreApp

from common import fmt_table, record, make_testbed

STATE_SIZES_MB = (128, 512, 2048)
DIRTY_RATE = 200e6


def _migrate_under_load(state_mb: float):
    env, cluster, network = make_testbed(hosts=2)
    server = cluster.submit(ContainerSpec("kv", pinned_host="host0"))
    client_c = cluster.submit(ContainerSpec("cl", pinned_host="host0"))
    network.attach(server)
    network.attach(client_c)
    app = KeyValueStoreApp(network, server, value_bytes=4096)
    controller = MigrationController(network)

    outcome = {}

    def scenario():
        client = yield from app.client(client_c)
        yield from client.put(1, "x")
        before = StreamingSeries(reservoir=math.inf)
        for _ in range(50):
            started = env.now
            yield from client.get(1)
            before.add(env.now - started)
        report = yield from controller.live_migrate(
            "kv", "host1",
            state_bytes=state_mb * 1e6, dirty_rate_bytes=DIRTY_RATE,
        )
        after = StreamingSeries(reservoir=math.inf)
        for _ in range(50):
            started = env.now
            yield from client.get(1)
            after.add(env.now - started)
        outcome["report"] = report
        outcome["before_us"] = before.mean() * 1e6
        outcome["after_us"] = after.mean() * 1e6

    env.run(until=env.process(scenario()))
    return outcome


def test_live_migration_costs(benchmark):
    rows = []
    outcomes = []

    def run():
        for state_mb in STATE_SIZES_MB:
            outcome = _migrate_under_load(state_mb)
            outcomes.append(outcome)
            report = outcome["report"]
            rows.append([
                f"{state_mb} MB",
                report.total_seconds * 1e3,
                report.downtime_seconds * 1e3,
                report.precopy_rounds,
                outcome["before_us"],
                outcome["after_us"],
            ])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    record(
        "E15", "§7 live migration — KV server under load",
        fmt_table(
            ["state", "total ms", "downtime ms", "rounds",
             "GET before us", "GET after us"],
            rows,
        ),
        "connections survive; downtime stays bounded while total time "
        "scales with state size; GETs get slower because the pair moved "
        "from shared memory to RDMA",
    )

    totals = [row[1] for row in rows]
    downtimes = [row[2] for row in rows]
    assert totals[0] < totals[1] < totals[2]
    for downtime, total in zip(downtimes, totals):
        assert downtime < total / 5
    for outcome in outcomes:
        changes = outcome["report"].mechanism_changes
        assert changes and changes[0][0].value == "shm"
        assert outcome["after_us"] > outcome["before_us"]
