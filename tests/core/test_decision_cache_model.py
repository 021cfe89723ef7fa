"""Reference test for the library's decision cache.

``FreeFlowNetwork.invalidate(name)`` drops the cached decisions of
every pair ``name`` is an endpoint of through a per-endpoint index.  The
model here is the definition it replaces: a dict of pair -> expiry and
a scan over every cached pair.  Random resolve / invalidate / clock
programs must leave the same entries, the same expiries and the same
hit and miss counts in both, and the index must mirror the cache.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import ClusterOrchestrator, ContainerSpec
from repro.core import FreeFlowNetwork
from repro.hardware import Fabric, Host
from repro.sim import Environment

#: Three containers on h1 and two on h2, so pairs decide SHM and RDMA.
PLACEMENT = (("web", "h1"), ("cache", "h1"), ("log", "h1"),
             ("db", "h2"), ("api", "h2"))
NAMES = [name for name, _ in PLACEMENT]
TTL_S = 100e-6


class DecisionCacheModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        fabric = Fabric(self.env)
        cluster = ClusterOrchestrator(self.env)
        for host in ("h1", "h2"):
            cluster.add_host(Host(self.env, host, fabric=fabric))
        self.network = FreeFlowNetwork(cluster, cache_ttl_s=TTL_S)
        for name, host in PLACEMENT:
            self.network.attach(
                cluster.submit(ContainerSpec(name, pinned_host=host)))
        #: The model: pair -> expiry, plus the lookup counters.
        self.expiry: dict = {}
        self.hits = 0
        self.misses = 0

    @rule(src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES))
    def resolve(self, src, dst):
        key = (src, dst)
        hit = self.expiry.get(key, float("-inf")) > self.env.now
        self.env.run(until=self.env.process(
            self.network.resolve(src, dst)))
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.expiry[key] = self.env.now + TTL_S

    @rule(name=st.sampled_from(NAMES + ["ghost"]))
    def invalidate(self, name):
        self.network.invalidate(name)
        for key in [key for key in self.expiry if name in key]:
            del self.expiry[key]

    @rule(delay=st.floats(min_value=0.0, max_value=2.5 * TTL_S))
    def advance(self, delay):
        self.env.run(until=self.env.now + delay)

    @invariant()
    def cache_matches_the_scan_model(self):
        network = self.network
        assert {key: entry[1] for key, entry in network._cache.items()} \
            == self.expiry
        assert (network.cache_hits, network.cache_misses) \
            == (self.hits, self.misses)

    @invariant()
    def index_mirrors_the_cache(self):
        cache = self.network._cache
        index = self.network._cache_pairs
        assert set(index) == {name for key in cache for name in key}
        for name, pairs in index.items():
            assert set(pairs) == {key for key in cache if name in key}


DecisionCacheModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestDecisionCacheModel = DecisionCacheModel.TestCase
