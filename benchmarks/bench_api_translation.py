"""E16 — the network-abstraction tax: socket/MPI over verbs vs raw.

Paper §4.2 picks verbs as the single data-transfer abstraction and
translates the socket and MPI APIs onto it.  This bench quantifies the
translation cost: the same co-located and cross-host byte streams pushed
through (1) a raw FreeFlow channel, (2) verbs SEND/RECV on the vNIC,
(3) the socket layer, and an MPI point-to-point exchange — so the cost
of each added layer is visible and bounded.

It also carries the small-message RPC workload (``--rpc`` / E24): a
windowed echo-RPC loop at 64-512 B comparing the streaming socket path
(ring-buffered coalesced WRITEs, batched completions, credit flow
control) against the per-message legacy path, with byte-exact
conservation checks on every run and an optional sanitizer+tracer
verification pass.  Results merge into ``BENCH_sockets.json`` keyed
``seed`` (legacy) vs ``--label`` (streaming)::

    PYTHONPATH=src python benchmarks/bench_api_translation.py --rpc
    PYTHONPATH=src python benchmarks/bench_api_translation.py --rpc --smoke
"""

import argparse
import itertools
import json
import platform
import sys
from pathlib import Path

import pytest

from repro import ContainerSpec
from repro.core import Communicator, Opcode, SocketLayer, WorkRequest
from repro.sim import Store, Tank

from common import deploy_pair, fmt_table, freeflow_connect, record, stream, make_testbed

MESSAGE = 1 << 20
DURATION = 0.02

#: RPC request/response sizes (bytes) — the paper's "small message" band.
RPC_SIZES = (64, 128, 256, 512)
#: Simulated seconds of measured RPC traffic per data point.
RPC_DURATION = 0.005
#: Outstanding requests the client keeps in flight (the RPC pipeline
#: depth a multi-threaded/async client would sustain); this is what the
#: streaming path's coalescing feeds on.
RPC_WINDOW = 128

DEFAULT_RPC_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sockets.json"


def _raw_channel(intra: bool):
    env, cluster, network = make_testbed(hosts=2)
    deploy_pair(cluster, network, "host0", "host0" if intra else "host1")
    connection = freeflow_connect(env, network, "a", "b")
    hosts = list(cluster.hosts)
    return stream(env, connection, hosts, duration_s=DURATION,
                  message_bytes=MESSAGE).gbps


def _verbs(intra: bool):
    env, cluster, network = make_testbed(hosts=2)
    deploy_pair(cluster, network, "host0", "host0" if intra else "host1")
    va, vb = network.vnic("a"), network.vnic("b")
    pa, pb = va.alloc_pd(), vb.alloc_pd()
    qa = va.create_qp(pa, va.create_cq(), va.create_cq(),
                      max_send_wr=1024)
    qb = vb.create_qp(pb, vb.create_cq(), vb.create_cq())
    mr_b = vb.reg_mr(pb, MESSAGE)

    def connect():
        yield from network.connect(qa, qb)

    env.run(until=env.process(connect()))
    stop_at = env.now + DURATION
    delivered = {"bytes": 0}

    def sender():
        while env.now < stop_at:
            yield from qa.post_send(WorkRequest(
                opcode=Opcode.SEND, length=MESSAGE, signaled=False,
            ))

    def receiver():
        while True:
            qb.post_recv(WorkRequest(opcode=Opcode.RECV, length=MESSAGE,
                                     local_mr=mr_b))
            # One completion per message: the raw-verbs baseline is
            # deliberately unbatched.
            # simlint: disable=SIM008
            wc = yield from qb.recv_cq.wait()
            delivered["bytes"] += wc.byte_len

    env.process(sender())
    env.process(receiver())
    env.run(until=stop_at)
    return delivered["bytes"] * 8 / DURATION / 1e9


def _sockets(intra: bool):
    env, cluster, network = make_testbed(hosts=2)
    a, b = deploy_pair(cluster, network, "host0",
                       "host0" if intra else "host1")
    layer = SocketLayer(network)
    listener = layer.listen(b, 7000)
    stop_at_box = {}
    delivered = {"bytes": 0}

    def server():
        sock = yield from listener.accept()
        while True:
            n, __ = yield from sock.recv(MESSAGE)
            delivered["bytes"] += n

    def client():
        sock = layer.socket(a)
        yield from sock.connect(b.ip, 7000)
        stop_at_box["t"] = env.now + DURATION
        while env.now < stop_at_box["t"]:
            yield from sock.send(MESSAGE)

    env.process(server())
    done = env.process(client())
    env.run(until=done)
    return delivered["bytes"] * 8 / DURATION / 1e9


def _mpi(intra: bool):
    env, cluster, network = make_testbed(hosts=2)
    a, b = deploy_pair(cluster, network, "host0",
                       "host0" if intra else "host1")
    comm = Communicator(network, [a, b])
    delivered = {"bytes": 0}
    stop_box = {}

    def rank0():
        endpoint = comm.endpoint(0)
        stop_box["t"] = env.now + DURATION
        while env.now < stop_box["t"]:
            yield from endpoint.send(1, MESSAGE)

    def rank1():
        endpoint = comm.endpoint(1)
        while True:
            nbytes, __ = yield from endpoint.recv(0)
            if env.now <= stop_box.get("t", float("inf")):
                delivered["bytes"] += nbytes

    env.process(rank0())
    env.process(rank1())
    env.run(until=env.now + DURATION + 1e-6)
    return delivered["bytes"] * 8 / DURATION / 1e9


def test_api_translation_tax(benchmark):
    results = {}

    def run():
        for intra in (True, False):
            where = "intra" if intra else "inter"
            results[(where, "raw channel")] = _raw_channel(intra)
            results[(where, "verbs send/recv")] = _verbs(intra)
            results[(where, "sockets-over-verbs")] = _sockets(intra)
            results[(where, "mpi-over-verbs")] = _mpi(intra)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    layers = ["raw channel", "verbs send/recv", "sockets-over-verbs",
              "mpi-over-verbs"]
    record(
        "E16", "API translation tax — throughput by layer (Gb/s)",
        fmt_table(
            ["layer", "intra-host", "inter-host"],
            [[layer, results[("intra", layer)], results[("inter", layer)]]
             for layer in layers],
        ),
        "each layer adds bounded overhead; translated APIs keep most of "
        "the underlying mechanism's throughput (the paper's backward-"
        "compatibility requirement)",
    )

    for where in ("intra", "inter"):
        raw = results[(where, "raw channel")]
        for layer in layers[1:]:
            # Every translated API keeps at least 60 % of raw throughput.
            assert results[(where, layer)] > 0.6 * raw, (
                where, layer, results[(where, layer)], raw
            )


# -- E24: small-message RPC over the socket paths ---------------------------


def _require(condition: bool, *detail) -> None:
    """A verification check that, unlike ``assert``, survives ``python
    -O``: the CI sockets gate runs these checks as a plain program."""
    if not condition:
        raise RuntimeError(*detail)


def _rpc_sockets(streaming: bool, msg_bytes: int,
                 duration: float = RPC_DURATION,
                 window: int = RPC_WINDOW) -> dict:
    """Windowed echo-RPC between two cross-host containers.

    The client keeps up to ``window`` requests outstanding; the server
    echoes each request back on a separate sender process (so responses
    coalesce too).  Completed round trips are counted against the
    measurement window, then the run drains fully and byte-exact
    conservation is asserted in both directions.
    """
    env, cluster, network = make_testbed(hosts=2)
    a, b = deploy_pair(cluster, network, "host0", "host1")
    layer = SocketLayer(network, streaming=streaming)
    listener = layer.listen(b, 7100)

    stats = {"requests": 0, "responses": 0, "in_window": 0,
             "server_rx_bytes": 0, "client_rx_bytes": 0}
    state = {"sending_done": False}
    cutoff = {"t": None}
    tokens = Tank(env, capacity=window, initial=window)
    pending = Store(env)
    socks = {}

    def server():
        sock = yield from listener.accept()
        socks["server"] = sock

        def srv_rx():
            while True:
                n, __ = yield from sock.recv_exactly(msg_bytes)
                stats["server_rx_bytes"] += n
                yield pending.put(1)

        def srv_tx():
            while True:
                yield pending.get()
                yield from sock.send(msg_bytes)

        env.process(srv_rx())
        env.process(srv_tx())

    env.process(server())

    def client_rx(sock):
        while True:
            n, __ = yield from sock.recv_exactly(msg_bytes)
            stats["client_rx_bytes"] += n
            stats["responses"] += 1
            if env.now <= cutoff["t"]:
                stats["in_window"] += 1
            yield tokens.put(1)
            if (state["sending_done"]
                    and stats["responses"] >= stats["requests"]):
                return

    def client():
        sock = layer.socket(a)
        yield from sock.connect(b.ip, 7100)
        socks["client"] = sock
        rx_done = env.process(client_rx(sock))
        cutoff["t"] = env.now + duration
        while env.now < cutoff["t"]:
            yield tokens.get(1)
            yield from sock.send(msg_bytes)
            stats["requests"] += 1
        state["sending_done"] = True
        yield rx_done

    done = env.process(client())
    env.run(until=done)
    # Let trailing acks/credit updates land before the invariant checks.
    env.run(until=env.now + 5e-5)

    expect = stats["requests"] * msg_bytes
    _require(stats["server_rx_bytes"] == expect,
             "request bytes not conserved", stats, msg_bytes)
    _require(stats["client_rx_bytes"] == expect,
             "response bytes not conserved", stats, msg_bytes)
    for sock in socks.values():
        _require(not sock._rx_buffer, "bytes left unread after full drain")
        if streaming:
            _require(sock._rx_ring.used == 0, "ring bytes leaked")
            _require(sock._staged_bytes == 0, "staged bytes never flushed")
    return {
        "streaming": streaming,
        "message_bytes": msg_bytes,
        "window": window,
        "duration_s": duration,
        "completed": stats["in_window"],
        "total_round_trips": stats["responses"],
        "msgs_per_sec": stats["in_window"] / duration,
    }


def _verified_rpc(msg_bytes: int = 64, duration: float = 0.0008,
                  window: int = 64) -> dict:
    """One short streaming run under the runtime sanitizer + tracer.

    Proves the coalesced path keeps the engine invariants (no past
    events, conservation across transplants, guarded flow transitions)
    and that every sampled message's tracer segments still sum exactly
    to its end-to-end latency.
    """
    from repro.analysis import sanitizer
    from repro.telemetry import tracer

    already = sanitizer.installed()
    if not already:
        sanitizer.install()
    tracer.enable(sample_rate=0.05)
    try:
        result = _rpc_sockets(True, msg_bytes, duration=duration,
                              window=window)
        trace_log = tracer.disable()
        checked = 0
        for trace in trace_log.traces:
            if not trace.closed:
                continue
            total = trace.total_s
            parts = sum(trace.breakdown().values())
            _require(abs(parts - total) <= 1e-9 * max(1.0, abs(total)),
                     "tracer segments do not sum to end-to-end latency",
                     parts, total, trace)
            checked += 1
        stats = sanitizer.stats()
    finally:
        tracer.disable()
        if not already:
            sanitizer.uninstall()
    _require(checked > 0, "verification run sampled no traces")
    _require(stats["violations"] == 0, stats)
    result["traces_checked"] = checked
    result["sanitizer_checks"] = sum(
        count for key, count in stats.items()
        if key not in ("installed", "violations"))
    return result


def test_small_rpc_speedup(benchmark):
    """Streaming path sustains >= 3x the legacy msgs/sec at small sizes."""
    results = {}

    def run():
        for size in (64, 512):
            seed = _rpc_sockets(False, size, duration=0.002)
            current = _rpc_sockets(True, size, duration=0.002)
            results[size] = (seed["msgs_per_sec"], current["msgs_per_sec"])
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    record(
        "E24", "small-message RPC — msgs/sec by socket path",
        fmt_table(
            ["size (B)", "per-message (seed)", "streaming", "speedup"],
            [[size, seed, current, current / seed]
             for size, (seed, current) in sorted(results.items())],
        ),
        "ring-buffered coalesced WRITEs + batched completions + credit "
        "flow control vs one SEND and one CQ wait per message",
    )
    for size, (seed, current) in results.items():
        assert current >= 3.0 * seed, (size, seed, current)


# -- harness (BENCH_sockets.json) -------------------------------------------


def run_rpc_suite(smoke: bool) -> dict:
    sizes = (64, 512) if smoke else RPC_SIZES
    duration = 0.002 if smoke else RPC_DURATION
    seed_results = {}
    current_results = {}
    for size in sizes:
        seed_results[str(size)] = _rpc_sockets(False, size,
                                               duration=duration)
        current_results[str(size)] = _rpc_sockets(True, size,
                                                  duration=duration)
    verify = _verified_rpc()
    return {
        "sizes": [str(size) for size in sizes],
        "seed": seed_results,
        "current": current_results,
        "verify": verify,
    }


def merge_and_write(path: Path, label: str, seed: dict,
                    current: dict) -> None:
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    data["seed"] = seed
    data[label] = current
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="small-message RPC benchmark for the socket paths")
    parser.add_argument(
        "--rpc", action="store_true",
        help="run the echo-RPC workload (the only CLI mode; the "
             "throughput matrix runs under pytest-benchmark)")
    parser.add_argument(
        "--label", default="current",
        help="JSON key for the streaming-path results")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_RPC_OUTPUT,
        help="JSON file to merge results into")
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced workload + assert the speedup/rate floors")
    parser.add_argument(
        "--floor", type=float, default=2_000_000.0,
        help="minimum streaming msgs/sec at 64 B in --smoke mode")
    parser.add_argument(
        "--ratio-floor", type=float, default=3.0,
        help="minimum streaming/seed speedup in --smoke mode")
    parser.add_argument(
        "--no-write", action="store_true",
        help="print results without touching the JSON file")
    args = parser.parse_args(argv)
    if not args.rpc:
        parser.error("nothing to do: pass --rpc")

    results = run_rpc_suite(smoke=args.smoke)
    print(f"small-RPC benchmark ({'smoke' if args.smoke else 'full'} mode)")
    worst_ratio = None
    for size in results["sizes"]:
        seed = results["seed"][size]["msgs_per_sec"]
        current = results["current"][size]["msgs_per_sec"]
        ratio = current / seed
        worst_ratio = ratio if worst_ratio is None else min(worst_ratio,
                                                            ratio)
        print(f"  {size:>4} B  seed {seed:>10,.0f}/s  "
              f"streaming {current:>10,.0f}/s  {ratio:.2f}x")
    verify = results["verify"]
    print(f"  verify: {verify['traces_checked']} traces exact, "
          f"{verify['sanitizer_checks']:,} sanitizer checks, "
          f"0 violations")

    meta = {"python": platform.python_version(), "smoke": args.smoke,
            "window": RPC_WINDOW}
    if not args.no_write:
        merge_and_write(
            args.output, args.label,
            seed={**meta, "rpc": results["seed"]},
            current={**meta, "rpc": results["current"],
                     "verify": verify},
        )
        print(f"  -> merged under 'seed' and {args.label!r} "
              f"in {args.output}")

    if args.smoke:
        rate = results["current"]["64"]["msgs_per_sec"]
        if rate < args.floor:
            print(f"FAIL: streaming 64B rate {rate:,.0f}/s below floor "
                  f"{args.floor:,.0f}", file=sys.stderr)
            return 1
        if worst_ratio < args.ratio_floor:
            print(f"FAIL: worst speedup {worst_ratio:.2f}x below "
                  f"{args.ratio_floor:.1f}x", file=sys.stderr)
            return 1
        print(f"  smoke floors ok ({rate:,.0f}/s >= {args.floor:,.0f}; "
              f"{worst_ratio:.2f}x >= {args.ratio_floor:.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
