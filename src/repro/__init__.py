"""repro — a full reproduction of *FreeFlow: High Performance Container
Networking* (HotNets 2016) on a simulated testbed.

The public API mirrors the paper's architecture:

* :mod:`repro.sim` — discrete-event engine everything runs on;
* :mod:`repro.hardware` — hosts, NICs, memory buses (the testbed);
* :mod:`repro.netstack` — kernel TCP, bridges, overlay routers (what
  FreeFlow replaces);
* :mod:`repro.transports` — shm / RDMA / DPDK / TCP mechanism channels;
* :mod:`repro.cluster` — the Mesos/Kubernetes-like cluster orchestrator;
* :mod:`repro.core` — FreeFlow itself: network orchestrator, agents,
  vNICs, verbs, socket/MPI translations, live migration;
* :mod:`repro.baselines` — host/bridge/overlay/raw-RDMA/shm-IPC/NetVM;
* :mod:`repro.workloads`, :mod:`repro.metrics` — experiment harness.

Quickstart::

    from repro import quickstart_cluster
    env, cluster, net = quickstart_cluster(hosts=2)
"""

import os

from .cluster import ClusterOrchestrator, ContainerSpec
from .core import FreeFlowNetwork
from .hardware import Fabric, Host, PAPER_TESTBED
from .sim import Environment

__version__ = "0.1.0"

__all__ = [
    "ClusterOrchestrator",
    "ContainerSpec",
    "Environment",
    "Fabric",
    "FreeFlowNetwork",
    "Host",
    "PAPER_TESTBED",
    "quickstart_cluster",
    "__version__",
]


def quickstart_cluster(hosts: int = 2, spec=None, fat_tree_k=None,
                       flowlet_gap_s=None, **network_kwargs):
    """One-call testbed: an environment, ``hosts`` hosts on a fabric, a
    cluster orchestrator and a FreeFlow network.

    With ``fat_tree_k`` set, the hosts attach to a k-ary fat-tree
    (:class:`~repro.hardware.FatTreeFabric`) with ECMP + flowlet
    multi-path routing instead of the single non-blocking switch;
    ``flowlet_gap_s`` tunes the flowlet idle threshold
    (``float('inf')`` pins paths: plain ECMP).

    Returns ``(env, cluster, network)``.
    """
    if hosts <= 0:
        raise ValueError(f"hosts must be positive, got {hosts}")
    env = Environment()
    if fat_tree_k is not None:
        from .hardware import FatTreeFabric

        fabric = FatTreeFabric(env, k=fat_tree_k,
                               flowlet_gap_s=flowlet_gap_s)
    else:
        fabric = Fabric(env)
    cluster = ClusterOrchestrator(env)
    for index in range(hosts):
        cluster.add_host(Host(env, f"host{index}", spec=spec, fabric=fabric))
    network = FreeFlowNetwork(cluster, **network_kwargs)
    return env, cluster, network


# -- opt-in runtime sanitizer ------------------------------------------------
# REPRO_SANITIZE=1 arms the dynamic invariant checks (past-scheduled
# events, clock monotonicity, streaming-ring conservation) for the whole
# process; see repro.analysis.sanitizer.
# Checked here, at import time, so `REPRO_SANITIZE=1 python -m pytest`
# and the demos need no code changes to run sanitized.
if os.environ.get("REPRO_SANITIZE"):
    from .analysis.sanitizer import install as _sanitizer_install

    _sanitizer_install()

# REPRO_WAITFOR=1 arms the runtime wait-for graph (park tracking, lock
# deadlock cycles raised at park time, tank ownership ledgers, idle
# ownership reports); see repro.analysis.waitfor.  Independent of
# REPRO_SANITIZE — either, both, or neither: each arms its own slot in
# the engine's observer tuple.
if os.environ.get("REPRO_WAITFOR"):
    from .analysis.waitfor import install as _waitfor_install

    _waitfor_install()
