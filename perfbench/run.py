"""Layered benchmark for namechain: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload discovery|local|churn --seed N --seconds S --trace 0|1

A run builds its inputs from the seed (workloads.py), sets up, warms up,
then measures one closed loop for --seconds with tracing off.  With
--trace 1 it then sets up again with every layer traced in both
processes (tracing.py) and measures a second loop of the same length;
the last stdout line then holds the per-layer metrics (layers.py)
instead of the end-to-end ones.  The line before it is a JSON object
with the op-sequence digest, sample counts, first errors and checks.
The wire workloads run the three servers together in one child process
(serverproc.py), as `namechain deploy` does.

End-to-end metrics, on every workload.  The loop splits into 1 s windows
and times reference_loop() (workloads.py), fixed Python code outside
namechain, about every 10 ms between ops.  Time metrics are in "ref", the
median reference-loop time of the same window (about 16 us on a 2-vCPU
x86 VM), because that host's speed for Python code swings by up to 1.6x
within seconds: the op latencies in us swung with it by 0.2-0.3 of their
median between runs, while their ratio to the reference held within 0.05.
The wall-clock figures are reported by the traced run (wall.*, host.*).

    latency_p50_ref     per resolver (nun) op, issue to verified answer:
                        median over windows of each window's p50 / ref
    latency_p90_ref     the same for p90.  The tail is p90, not p99: on a
                        shared 2-core host, p99 followed bursts of
                        scheduling delay and moved by up to 50% between
                        runs (ops.latency_p99_us still reports it)
    manual_p50_ref      per hand-coded op: bench.manual_discover (discovery),
                        hand-written wire queries (churn), a walk of the
                        decoded event (local)
    throughput_per_kref verified ops (nun, manual, SETOCC) per 1000 refs:
                        median over windows
    verified_share      verified ops / attempted ops; 1 - failed share
    cpu_per_op_ref      client plus server process CPU per verified op, over
                        the harmonic mean of the windows' refs
    peak_rss_mb         client plus server process peak RSS
    setup_s             median of several set-ups, in wall-clock seconds.
                        Wire workloads: launch of the server process
                        (config load, registry builds) until every role has
                        answered once.  local: config load, registry build,
                        one instantiation per initial.

An op fails on a wrong answer, an unexpected exception or a time over
2 s.  `correct` also needs the checks: discovery sends exactly 2 wire
messages per scenario in both modes; after a wire loop, once client and
server drop their pooled connections, the server's thread count returns
to its value at start and its handler-thread peak stays within client
connections x roles reached; a traced run sees no retries, and per op
its span self times add up to the op's duration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import socket
import statistics
import sys
import threading
import time

import checkout

WIRE_SETUP_REPEATS = 9
LOCAL_SETUP_REPEATS = 41
# A local set-up takes under a millisecond; pausing between repeats
# samples it across a couple of seconds of machine load, not one instant.
LOCAL_SETUP_PAUSE_S = 0.05
WARMUP_S = 1.0

END_TO_END = {
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "manual_p50_ref": "ref",
    "throughput_per_kref": "1/kref",
    "verified_share": "ratio",
    "cpu_per_op_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def percentile_us(samples_ns: list[int], q: float) -> float:
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


def reference_us(phase) -> list[float]:
    """Each window's median reference_loop() time, in us (0 where none ran)."""
    return [percentile_us(phase.samples("ref", window=w), 0.5) for w in range(phase.windows)]


def windowed_percentile(phase, kind: str, q: float, per_ref: bool = True) -> float:
    """Median over the loop's time windows of each window's q-th percentile of
    `kind`: in that window's reference-loop times, or in us if not per_ref."""
    refs = reference_us(phase)
    per_window = []
    for w, ref in enumerate(refs):
        value = percentile_us(phase.samples(kind, window=w), q)
        if value and ref:
            per_window.append(value / ref if per_ref else value)
    return statistics.median(per_window) if per_window else 0.0


class ConnectionCounter:
    """Counts client connections this process opens."""

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()
        original = socket.create_connection

        def counted(*args, **kwargs):
            with self._lock:
                self.count += 1
            return original(*args, **kwargs)

        socket.create_connection = counted


def boundedness(server, stats: dict, client_connections: int) -> dict:
    """Drop both processes' pooled connections; check thread counts."""
    from namechain import wire

    wire.close_idle_connections()
    drained = server.command("DRAIN")
    roles = sum(1 for verbs in stats["requests"].values() if any(verbs.values()))
    bound = client_connections * roles
    return {
        "threads_leaked": drained["threads"] - drained["baseline"],
        "handler_threads_max": stats["handler_threads_max"],
        "handler_threads_bound": bound,
        "ok": drained["threads"] <= drained["baseline"] and stats["handler_threads_max"] <= bound,
    }


class Run:
    """Measurements one invocation gathers."""

    def __init__(self) -> None:
        self.checks: dict = {}
        self.setup_s = 0.0
        self.load_s = 0.0
        self.phase = None  # untraced loop
        self.server_cpu_s = 0.0
        self.client_rss_kb = 0  # peak, read when the untraced loop ends
        self.server_rss_kb = 0
        self.traced = None  # traced loop
        self.layers: dict[str, float] = {}


def run_wire(w, seconds: float, trace: bool) -> Run:
    import deployment
    import layers
    import tracing
    from namechain import wire

    r = Run()
    config_path = deployment.write_config(w.cfg, f"{w.name}.cfg")
    r.setup_s, r.load_s = deployment.time_setup(w.cfg, config_path, WIRE_SETUP_REPEATS)
    counter = ConnectionCounter()
    server = deployment.start(w.cfg, config_path)
    try:
        client = w.client(None)
        if hasattr(client, "traffic"):
            shapes = client.traffic(server)
            r.checks["traffic"] = shapes
            r.checks["traffic_ok"] = all(sum(v.values()) == 2 for v in shapes.values())
        client.run(WARMUP_S)
        before = server.command("STATS")
        r.phase = client.run(seconds)
        r.client_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        after = server.command("STATS")
        r.checks["bounded"] = boundedness(server, after, counter.count)
    finally:
        wire.close_idle_connections()
        server.stop()
    r.server_cpu_s = after["cpu_s"] - before["cpu_s"]
    r.server_rss_kb = after["maxrss_kb"]
    if not trace:
        return r

    tracer = tracing.Tracer()
    tracing.install(tracer)
    spans_path = os.path.join(checkout.RUN_DIR, f"{w.name}.spans")
    counter.count = 0
    server = deployment.start(w.cfg, config_path, spans_path)
    try:
        client = w.client(tracer)
        client.run(WARMUP_S)
        server.command("RESET")
        tracer.clear()
        before = server.command("STATS")
        r.traced = client.run(seconds)
        after = server.command("STATS")
        server.command("SPANS")
        bounded = boundedness(server, after, counter.count)
        r.checks["bounded_traced"] = bounded
    finally:
        wire.close_idle_connections()
        server.stop()
    delta = {
        role: {verb: n - before["requests"][role][verb] for verb, n in verbs.items()}
        for role, verbs in after["requests"].items()
    }
    server_spans = tracing.load(spans_path)
    os.remove(spans_path)
    os.remove(spans_path + ".names")
    r.layers = layers.compute(
        (tracer.names, tracer.spans),
        server_spans,
        delta,
        after["requests_total"] - before["requests_total"],
        r.traced.attempted,
    )
    r.checks["retries_ok"] = r.layers["wire.retries"] == 0
    r.checks["accounting_ok"] = layers.accounting_ok(tracer.names, tracer.spans)
    return r


def run_local(w, seconds: float, trace: bool) -> Run:
    import deployment
    import layers
    import tracing

    r = Run()
    config_path = deployment.write_config(w.cfg, "local.cfg")
    times, loads = [], []
    for _ in range(LOCAL_SETUP_REPEATS):
        t0 = time.perf_counter()
        load_s = w.build(config_path)
        times.append(time.perf_counter() - t0)
        loads.append(load_s)
        time.sleep(LOCAL_SETUP_PAUSE_S)
    r.setup_s, r.load_s = statistics.median(times), statistics.median(loads)
    client = w.client(None)
    client.run(WARMUP_S)
    r.phase = client.run(seconds)
    r.client_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not trace:
        return r

    tracer = tracing.Tracer()
    tracing.install(tracer)
    client = w.client(tracer)
    client.run(WARMUP_S)
    tracer.clear()
    r.traced = client.run(seconds)
    r.layers = layers.compute((tracer.names, tracer.spans), None, {}, 0, r.traced.attempted)
    r.checks["accounting_ok"] = layers.accounting_ok(tracer.names, tracer.spans)
    return r


def cpu_us_per_op(r: Run) -> float:
    return (r.phase.cpu_s + r.server_cpu_s) / max(1, r.phase.verified) * 1e6


def end_to_end(r: Run) -> dict[str, float]:
    p = r.phase
    window_s = p.window_ns / 1e9
    refs = reference_us(p)
    return {
        "latency_p50_ref": windowed_percentile(p, "nun", 0.50),
        "latency_p90_ref": windowed_percentile(p, "nun", 0.90),
        "manual_p50_ref": windowed_percentile(p, "manual", 0.50),
        "throughput_per_kref": statistics.median(
            n / window_s * ref / 1e3 for n, ref in zip(p.window_verified, refs) if ref
        ),
        "verified_share": p.verified / max(1, p.attempted),
        # A closed loop spends about equal time per window, and ops in a
        # window cost in proportion to its reference time: so the loop's
        # CPU per op scales with the harmonic mean of the windows' times.
        "cpu_per_op_ref": cpu_us_per_op(r) / statistics.harmonic_mean([ref for ref in refs if ref]),
        "peak_rss_mb": (r.client_rss_kb + r.server_rss_kb) / 1024,
        "setup_s": r.setup_s,
    }


def per_layer(r: Run) -> dict[str, float]:
    p, t = r.phase, r.traced
    m = dict(r.layers)
    for s in (1, 2, 3):
        nun, manual = p.samples("nun", key=s), p.samples("manual", key=s)
        m[f"resolver.overhead_ratio.s{s}"] = (
            percentile_us(nun, 0.5) / percentile_us(manual, 0.5) if nun and manual else 0.0
        )
    bounded = r.checks.get("bounded_traced", {})
    m["servers.handler_threads_max"] = bounded.get("handler_threads_max", 0)
    m["servers.threads_leaked"] = bounded.get("threads_leaked", 0)
    verified = max(1, p.verified)
    m["servers.cpu_us_per_op"] = r.server_cpu_s / verified * 1e6
    m["client.cpu_us_per_op"] = p.cpu_s / verified * 1e6
    m["config.load_s"] = r.load_s
    m["ops.failed_share"] = (p.failed + t.failed) / max(1, p.attempted + t.attempted)
    m["ops.latency_p99_us"] = windowed_percentile(p, "nun", 0.99, per_ref=False)
    m["wall.latency_p50_us"] = windowed_percentile(p, "nun", 0.50, per_ref=False)
    m["wall.manual_p50_us"] = windowed_percentile(p, "manual", 0.50, per_ref=False)
    m["wall.throughput_ops_s"] = statistics.median(n / (p.window_ns / 1e9) for n in p.window_verified)
    m["wall.cpu_us_per_op"] = cpu_us_per_op(r)
    m["host.reference_us"] = percentile_us(p.samples("ref"), 0.5)
    m["trace.overhead_p50_ref"] = windowed_percentile(t, "nun", 0.5) - windowed_percentile(p, "nun", 0.5)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("discovery", "local", "churn"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    checkout.use_source()
    import layers
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    measure = run_local if args.workload == "local" else run_wire
    r = measure(w, args.seconds, bool(args.trace))

    phases = [p for p in (r.phase, r.traced) if p is not None]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    check_flags = [v for k, v in r.checks.items() if k.endswith("_ok")]
    check_flags += [v["ok"] for k, v in r.checks.items() if k.startswith("bounded")]
    if args.trace:
        values, units = per_layer(r), {k: u for k, (u, _) in layers.PER_LAYER.items()}
    else:
        values, units = end_to_end(r), END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_digest": w.digest,
        "ops_timed": {kind: r.phase.seen(kind) for kind in ("nun", "manual")},
        "errors": [e for p in phases for e in p.errors][:5],
        "checks": r.checks,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and all(check_flags),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
