"""Rack-sharded orchestration: topology, incremental load accounting,
rack-aware placement and lease-backed host liveness."""

import random

import pytest

from repro.cluster import (
    ClusterOrchestrator,
    ContainerSpec,
    RackAwareStrategy,
)
from repro.cluster.orchestrator import DEFAULT_RACK
from repro.errors import OrchestrationError, PlacementError, UnknownContainer
from repro.hardware import Host
from repro.sim import Environment


def build(env, hosts=6, racks=3, ttl=None):
    strategy = RackAwareStrategy()
    cluster = ClusterOrchestrator(env, strategy=strategy,
                                  host_lease_ttl_s=ttl)
    strategy.cluster = cluster
    for i in range(hosts):
        cluster.add_host(Host(env, f"h{i}"), rack=f"r{i % racks}")
    return cluster


class TestRackTopology:
    def test_membership(self, env):
        cluster = build(env)
        assert cluster.rack_names() == ("r0", "r1", "r2")
        assert cluster.rack_of("h4") == "r1"
        assert [h.name for h in cluster.rack_hosts("r0")] == ["h0", "h3"]
        with pytest.raises(OrchestrationError):
            cluster.rack_of("nope")

    def test_default_rack(self, env):
        cluster = ClusterOrchestrator(env)
        cluster.add_host(Host(env, "h1"))
        assert cluster.rack_of("h1") == DEFAULT_RACK

    def test_fail_host_leaves_rack_up_set(self, env):
        cluster = build(env)
        cluster.fail_host("h0")
        assert [h.name for h in cluster.rack_hosts("r0")] == ["h3"]
        cluster.recover_host("h0")
        assert [h.name for h in cluster.rack_hosts("r0")] == ["h3", "h0"]


class TestIncrementalLoad:
    def test_lifecycle_keeps_counts(self, env):
        cluster = build(env)
        cluster.submit(ContainerSpec("a", pinned_host="h0"))
        cluster.submit(ContainerSpec("b", pinned_host="h0"))
        cluster.submit(ContainerSpec("c", pinned_host="h1"))
        assert cluster.load_of("h0") == 2
        assert cluster.rack_load("r0") == 2
        assert cluster.containers_on("h0") == ("a", "b")
        cluster.stop("a")
        assert cluster.load_of("h0") == 1
        cluster.remove("a")  # stop then remove must not double-decrement
        assert cluster.load_of("h0") == 1
        cluster.remove("b")
        assert cluster.load_of("h0") == 0
        assert cluster.rack_load("r0") == 0
        assert cluster.rack_load("r1") == 1

    def test_relocate_moves_counts_between_racks(self, env):
        cluster = build(env)
        cluster.submit(ContainerSpec("a", pinned_host="h0"))
        cluster.relocate("a", "h1")
        assert cluster.load_of("h0") == 0
        assert cluster.load_of("h1") == 1
        assert cluster.rack_load("r0") == 0
        assert cluster.rack_load("r1") == 1
        assert cluster.containers_on("h1") == ("a",)

    def test_load_by_host_is_a_copy(self, env):
        cluster = build(env)
        cluster.submit(ContainerSpec("a", pinned_host="h0"))
        view = cluster._load_by_host()
        view["h0"] = 99
        assert cluster.load_of("h0") == 1

    def test_fail_host_drops_its_containers_from_books(self, env):
        cluster = build(env)
        cluster.submit(ContainerSpec("a", pinned_host="h0"))
        cluster.submit(ContainerSpec("b", pinned_host="h3"))
        lost = cluster.fail_host("h0")
        assert lost == ["a"]
        assert cluster.load_of("h0") == 0
        assert cluster.rack_load("r0") == 1  # b on h3 survives


class TestRackAwarePlacement:
    def test_spreads_across_racks_by_average_load(self, env):
        cluster = build(env)
        placed = [cluster.submit(ContainerSpec(f"c{i}")).host.name
                  for i in range(6)]
        # Six submits over three two-host racks land one per host.
        assert sorted(placed) == [f"h{i}" for i in range(6)]

    def test_rack_pin_label(self, env):
        cluster = build(env)
        c = cluster.submit(ContainerSpec("a", labels={"rack": "r2"}))
        assert cluster.rack_of(c.host.name) == "r2"

    def test_skips_racks_with_no_live_hosts(self, env):
        cluster = build(env, hosts=2, racks=2)
        cluster.fail_host("h0")
        for i in range(3):
            assert cluster.submit(ContainerSpec(f"c{i}")).host.name == "h1"

    def test_all_racks_down_raises(self, env):
        cluster = build(env, hosts=2, racks=2)
        cluster.fail_host("h0")
        cluster.fail_host("h1")
        with pytest.raises(PlacementError):
            cluster.submit(ContainerSpec("a"))

    def test_unbound_strategy_falls_back_to_spread(self, env):
        strategy = RackAwareStrategy()  # no cluster bound
        cluster = ClusterOrchestrator(env, strategy=strategy)
        cluster.add_host(Host(env, "h1"))
        assert cluster.submit(ContainerSpec("a")).host.name == "h1"

    def test_placement_after_pinned_submits_counts_their_load(self, env):
        """The placement index is built by the first rack-aware
        placement, from the loads pinned submits left."""
        cluster = build(env, hosts=4, racks=1)
        cluster.fail_host("h3")
        for name in ("a", "b"):
            cluster.submit(ContainerSpec(name, pinned_host="h0"))
        placed = [cluster.submit(ContainerSpec(f"c{i}")).host.name
                  for i in range(4)]
        assert placed == ["h1", "h2", "h1", "h2"]

    def test_rack_size_counts_up_hosts(self, env):
        cluster = build(env)
        assert cluster.rack_size("r0") == 2
        cluster.fail_host("h0")
        assert cluster.rack_size("r0") == len(cluster.rack_hosts("r0")) == 1
        assert cluster.rack_size("nope") == 0


class TestPlacementCost:
    def test_a_submit_examines_at_most_four_heap_entries(self, env):
        """2,048 submits on 64 racks of 8 hosts examine at most 4 heap
        entries each, the bound ``bench_datacenter.py --smoke`` gates
        on: two live heads, plus at most the two entries each submit
        kills.  A scan of every rack examines at least 64 + 8."""
        cluster = build(env, hosts=512, racks=64)
        submits = 2_048
        for i in range(submits):
            cluster.submit(ContainerSpec(f"c{i}"))
        assert 2 * submits <= cluster.placement_checks <= 4 * submits


class NaiveRackAware:
    """Reference placement: rank racks by scanning ``rack_hosts()``."""

    def __init__(self, cluster):
        self.cluster = cluster

    def place(self, spec, hosts, load):
        pinned = spec.labels.get("rack")
        racks = (pinned,) if pinned is not None else self.cluster.rack_names()
        ranked = [
            (self.cluster.rack_load(rack) / len(self.cluster.rack_hosts(rack)),
             rack)
            for rack in racks if self.cluster.rack_hosts(rack)
        ]
        if not ranked:
            raise PlacementError("no rack with live hosts")
        rack = min(ranked)[1]
        return min(self.cluster.rack_hosts(rack),
                   key=lambda h: (load.get(h.name, 0), h.name))


class TestRackAwareMatchesReference:
    """Random programs of submit (to a rack, to a pinned rack or to a
    pinned host), stop, remove-and-resubmit, relocate, host failure and
    recovery and mid-program host admission, on racks
    of uneven size, place every container on the host a naive scan over
    ``rack_hosts()`` picks; afterwards the placement heaps hold exactly
    the keys that scan computes, and at most twice as many entries."""

    #: Host i's rack: r0 has 1 host, r1 2, r2 3 and r3 5.
    RACK_OF = ("r0", "r1", "r2", "r3", "r1", "r2", "r3", "r2", "r3", "r3",
               "r3")

    def _fleet(self, strategy):
        env = Environment()
        cluster = ClusterOrchestrator(env, strategy=strategy)
        strategy.cluster = cluster
        for i, rack in enumerate(self.RACK_OF):
            cluster.add_host(Host(env, f"h{i}"), rack=rack)
        return cluster

    @staticmethod
    def _apply(cluster, op):
        kind, arg = op
        try:
            if kind == "submit":
                name, labels = arg
                return cluster.submit(ContainerSpec(name, labels=labels)).host.name
            if kind == "pin":
                name, host = arg
                return cluster.submit(
                    ContainerSpec(name, pinned_host=host)).host.name
            if kind == "stop":
                return cluster.stop(arg)
            if kind == "remove":
                return cluster.remove(arg)
            if kind == "relocate":
                return cluster.relocate(*arg).host.name
            if kind == "add":
                name, rack = arg
                return cluster.add_host(Host(cluster.env, name), rack=rack)
            if kind == "fail":
                return cluster.fail_host(arg)
            return cluster.recover_host(arg)
        except (PlacementError, UnknownContainer) as exc:
            return type(exc).__name__

    def _program(self, rng, steps=120):
        ops, names, down = [], [], set()
        rack_of = {f"h{i}": rack for i, rack in enumerate(self.RACK_OF)}
        hosts = list(rack_of)
        for step in range(steps):
            roll = rng.random()
            if step == steps // 2:
                # Take rack r1 down entirely and pin a submit to it, then
                # recover one of its hosts into the empty rack.
                for host in hosts:
                    if rack_of[host] == "r1" and host not in down:
                        down.add(host)
                        ops.append(("fail", host))
                ops.append(("submit", (f"c{step}", {"rack": "r1"})))
                down.discard("h4")
                ops.append(("recover", "h4"))
                names.append(f"c{step}r")
                ops.append(("submit", (f"c{step}r", {"rack": "r1"})))
            elif step == 0 or roll < 0.05:
                # Pinned to a host: load that no placement chose.  The
                # first three land before the placement index is built.
                host = hosts[rng.randrange(len(hosts))]
                for i in range(3 if step == 0 else 1):
                    names.append(f"c{step}.{i}")
                    ops.append(("pin", (names[-1], host)))
            elif roll < 0.45:
                labels = {}
                if rng.random() < 0.2:
                    labels = {"rack": f"r{rng.randrange(5)}"}
                names.append(f"c{step}")
                ops.append(("submit", (f"c{step}", labels)))
            elif roll < 0.55 and names:
                ops.append(("stop", names.pop(rng.randrange(len(names)))))
            elif roll < 0.62 and names:
                name = names[rng.randrange(len(names))]
                ops.append(("remove", name))
                ops.append(("submit", (name, {})))
            elif roll < 0.72 and names:
                # Any registered host, down ones included: load lands on
                # a rack without changing its up-set.
                ops.append(("relocate", (names[rng.randrange(len(names))],
                                         hosts[rng.randrange(len(hosts))])))
            elif roll < 0.76:
                hosts.append(f"h{len(hosts)}")
                rack_of[hosts[-1]] = f"r{rng.randrange(5)}"
                ops.append(("add", (hosts[-1], rack_of[hosts[-1]])))
            elif roll < 0.88:
                host = hosts[rng.randrange(len(hosts))]
                if host not in down:
                    down.add(host)
                    ops.append(("fail", host))
            elif down:
                host = sorted(down)[rng.randrange(len(down))]
                down.discard(host)
                ops.append(("recover", host))
        return ops

    @staticmethod
    def _check_index(cluster):
        """The live heap entries are the scan's keys, and every heap
        holds at most twice its live entries."""
        racks = {}
        for rack in cluster.rack_names():
            up = cluster.rack_hosts(rack)
            hosts = {h.name: (cluster.load_of(h.name), h.name) for h in up}
            assert cluster._host_entry[rack] == hosts, rack
            assert (len(cluster._host_heap[rack])
                    <= 2 * len(cluster._host_entry[rack])), rack
            if up:
                racks[rack] = (cluster.rack_load(rack) / len(up), rack)
        assert cluster._rack_entry == racks
        assert len(cluster._rack_heap) <= 2 * len(cluster._rack_entry)

    @pytest.mark.parametrize("seed", range(100))
    def test_same_host_sequence(self, seed):
        ops = self._program(random.Random(seed))
        fast = self._fleet(RackAwareStrategy())
        naive = self._fleet(NaiveRackAware(None))
        results = []
        for op in ops:
            results.append(self._apply(fast, op))
            assert results[-1] == self._apply(naive, op), op
        # The submit pinned to rack r1 while all of its hosts are down.
        pinned = ops.index(("submit", ("c60", {"rack": "r1"})))
        assert results[pinned] == "PlacementError"
        self._check_index(fast)


class TestLeaseBackedLiveness:
    TTL = 0.3

    def test_keepalives_keep_hosts_up(self, env):
        cluster = build(env, ttl=self.TTL)
        env.run(until=10 * self.TTL)
        assert all(cluster.is_host_up(f"h{i}") for i in range(6))
        assert cluster.kv.lease_count() == 6

    def test_silent_host_expires_and_cascades(self, env):
        cluster = build(env, ttl=self.TTL)
        cluster.submit(ContainerSpec("a", pinned_host="h0"))
        watch = cluster.watch_hosts()
        env.run(until=self.TTL)
        watch.pending()  # drain steady-state noise
        cluster.silence_keepalives("h0")
        env.run(until=4 * self.TTL)
        assert not cluster.is_host_up("h0")
        assert cluster.host_lease("h0") is None
        # The *store* deleted the host key; watchers saw an ordinary
        # DELETE — nobody called fail_host.
        assert [(e.kind, e.key) for e in watch.pending()] == [
            ("delete", "/cluster/hosts/h0"),
        ]
        assert "a" not in [c.spec.name for c in cluster.containers()]

    def test_fail_host_revokes_lease(self, env):
        cluster = build(env, ttl=self.TTL)
        lease = cluster.host_lease("h0")
        cluster.fail_host("h0")
        assert not lease.alive
        assert cluster.kv.get("/cluster/hosts/h0") is None

    def test_recover_host_regrants_and_resumes(self, env):
        cluster = build(env, ttl=self.TTL)
        cluster.silence_keepalives("h0")
        env.run(until=3 * self.TTL)
        assert not cluster.is_host_up("h0")
        cluster.recover_host("h0")
        env.run(until=10 * self.TTL)  # keepalives resumed: stays up
        assert cluster.is_host_up("h0")
        assert cluster.kv.get("/cluster/hosts/h0") is not None

    def test_host_record_carries_rack(self, env):
        cluster = build(env, ttl=self.TTL)
        assert cluster.kv.get("/cluster/hosts/h4")["rack"] == "r1"
