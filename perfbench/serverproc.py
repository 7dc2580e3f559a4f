"""Server process: the three roles in one process, as `namechain deploy` runs them.

    python3 perfbench/serverproc.py --config PATH [--spans PATH]

With --spans the process traces its layers (tracing.install plus a span
per RoleServer.process_line) and writes the spans to PATH on SPANS.
It prints one JSON line once every role listens, then answers one JSON
line per command read from stdin:

    STATS   request counts by role and verb, CPU seconds, peak RSS,
            thread count, and the most handler threads alive at once
    DRAIN   drop this process's own pooled client connections (the
            server-to-server hops), then wait up to 5 s for the thread
            count to fall back to its value at start
    RESET   forget recorded spans and the handler-thread peak
    SPANS   write recorded spans to the --spans path
    QUIT    stop the servers and exit (so does end of input)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time

import checkout
import tracing

ROLES = ("userdb", "location", "calendar")
VERBS = {
    "userdb": ("GETUSER",),
    "location": ("RESOLVE", "OCCUPANCY", "SETOCC"),
    "calendar": ("RESOLVE", "EVENTS"),
}


class HandlerGauge:
    """Counts handler threads (one per open connection) across all roles."""

    def __init__(self, server_cls) -> None:
        self.current = 0
        self.peak = 0
        self._lock = threading.Lock()
        original = server_cls.process_request_thread

        def counted(server, request, client_address):
            with self._lock:
                self.current += 1
                self.peak = max(self.peak, self.current)
            try:
                original(server, request, client_address)
            finally:
                with self._lock:
                    self.current -= 1

        server_cls.process_request_thread = counted

    def reset(self) -> None:
        with self._lock:
            self.peak = self.current


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    checkout.use_source()
    from namechain import servers, wire
    from namechain.config import load_config

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracing.install_servers(tracer)
    gauge = HandlerGauge(servers.RoleServer)

    t0 = time.perf_counter()
    cfg = load_config(args.config)
    load_s = time.perf_counter() - t0
    running = {}
    try:
        for role in ROLES:
            running[role] = servers.serve(role, cfg)
            servers.start_in_thread(running[role])
        baseline = threading.active_count()
        _reply({"load_s": load_s, "threads": baseline})
        for line in sys.stdin:
            command = line.strip()
            if command == "QUIT":
                break
            if command == "STATS":
                usage = resource.getrusage(resource.RUSAGE_SELF)
                _reply({
                    "requests": {
                        role: {verb: running[role].request_count(verb) for verb in VERBS[role]}
                        for role in ROLES
                    },
                    "requests_total": sum(s.request_count() for s in running.values()),
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "maxrss_kb": usage.ru_maxrss,
                    "threads": threading.active_count(),
                    "handler_threads_max": gauge.peak,
                })
            elif command == "DRAIN":
                wire.close_idle_connections()
                deadline = time.monotonic() + 5.0
                while threading.active_count() > baseline and time.monotonic() < deadline:
                    time.sleep(0.01)
                _reply({"threads": threading.active_count(), "baseline": baseline})
            elif command == "RESET":
                if tracer is not None:
                    tracer.clear()
                gauge.reset()
                _reply({})
            elif command == "SPANS":
                if tracer is not None:
                    tracer.save(args.spans)
                _reply({"spans": len(tracer.spans) // tracing.FIELDS if tracer else 0})
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        for server in running.values():
            server.shutdown()
            server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
