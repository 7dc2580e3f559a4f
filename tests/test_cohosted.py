"""Servers in one process answer each other's requests in the calling thread.

A request a server sends while answering, to a server of the same
process, is a call to that server's answer function: the same lines,
counters and ERR codes as over a connection, but no socket, no handler
thread and no timeout, and at most DEFAULT_MAX_DEPTH of them nested on
one thread.
"""

import dataclasses
import socket
import sys
import threading
import time

import pytest

from conftest import Deployment
from namechain import kit, servers, wire
from namechain.bench import resolve_scenario
from namechain.names import parse_name
from namechain.resolver import (
    DEFAULT_MAX_DEPTH,
    DepthExceededError,
    ResolveContext,
    TransportError,
    resolve,
)

# The server each scenario's first request goes to, and the one that
# server asks in turn.
HOPS = {1: ("calendar", "userdb"), 2: ("calendar", "location"), 3: ("location", "userdb")}


class ConnectionCounter:
    def __init__(self, monkeypatch):
        self.count = 0
        original = socket.create_connection

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counted)


def wait_for_threads(count: int) -> int:
    """Drop pooled connections, then wait up to 5 s for at most `count`
    threads to run; return how many do."""
    wire.close_idle_connections()
    deadline = time.monotonic() + 5.0
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


def calendar_context(dep):
    registry = kit.build_registry(dep.clock, dep.cfg.addresses["userdb"])
    initial = registry.instantiate(dep.cfg.initial_description("calendar"))
    return ResolveContext(registry, initial, dep.clock)


def locate_events_at(calendar: servers.CalendarServer, location) -> None:
    """Give every event `calendar` serves the location `location`."""
    calendar.events = [
        servers.StoredEvent(ev.event_id, dataclasses.replace(ev.fields, location=location))
        for ev in calendar.events
    ]


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_a_cohosted_hop_opens_no_connection_and_is_counted(deployment, monkeypatch, scenario):
    first, peer = (deployment.servers[role] for role in HOPS[scenario])
    wire.close_idle_connections()
    connections = ConnectionCounter(monkeypatch)
    resolve_scenario(deployment.cfg, scenario, clock=deployment.clock)
    assert connections.count == 1  # the client's, to the first server
    before = first.request_count(), peer.request_count()
    for _ in range(5):
        resolve_scenario(deployment.cfg, scenario, clock=deployment.clock)
    assert connections.count == 1
    assert (first.request_count(), peer.request_count()) == (before[0] + 5, before[1] + 5)


def test_a_closed_server_leaves_no_address_behind():
    dep = Deployment()
    addresses = set(dep.cfg.addresses.values())
    assert addresses <= set(wire._answers)
    dep.shutdown()
    assert not addresses & set(wire._answers)


def test_a_time_period_of_another_cohosted_calendar_is_asked_in_process(deployment, monkeypatch):
    # `other` runs no serving thread: a request sent to it over a socket
    # would go unanswered and time out.
    other = servers.serve("calendar", deployment.cfg, "127.0.0.1:0", deployment.clock)
    try:
        assert other.advertised != deployment.cfg.addresses["calendar"]
        (minted,) = other.answer(f"RESOLVE {kit.CALENDAR_RESOURCE_ID.hex()} (today)")
        other_today = wire.parse_ok_resolution(minted.split(" ")).description
        assert kit.parse_time_period_spec(other_today.spec)[0] == other.advertised
        locate_events_at(deployment.servers["calendar"], other_today)
        wire.close_idle_connections()
        connections = ConnectionCounter(monkeypatch)
        resolution = resolve(
            calendar_context(deployment), parse_name("(today meeting location meeting moderator email)")
        )
        assert resolution.description == kit.string_description(deployment.cfg.users["alice"].email)
        assert other.request_count("EVENTS") == 1
        assert connections.count == 1  # the client's, to the first calendar
    finally:
        other.server_close()


@pytest.mark.parametrize(
    "call, reply",
    [
        (lambda address: wire.query_events(address, 0, 1, "meeting"), ["OK 2", "-"]),
        (lambda address: wire.query_events(address, 0, 1, "meeting"), ["OK 0", "-"]),
        (lambda address: wire.query_events(address, 0, 1, "meeting"), ["OK two"]),
        (lambda address: wire.get_user(address, bytes(16)), ["OK a@b c", "OK a@b c"]),
        (lambda address: wire.get_user(address, bytes(16)), ["ERR NOTFOUND -", "-"]),
    ],
)
def test_an_in_process_reply_must_have_the_lines_it_says(monkeypatch, call, reply):
    address = "127.0.0.1:9"  # never connected to: the answer is hosted
    answers = []

    def answer(line):
        answers.append(line)
        return reply

    wire.host(address, answer)
    monkeypatch.setattr(wire.answering, "depth", 1)  # as if answering a request
    try:
        with pytest.raises(TransportError):
            call(address)
    finally:
        wire.unhost(answer)
    assert len(answers) == 1
    assert address not in wire._answers


def test_an_in_process_reply_with_its_lines_decodes(monkeypatch):
    address = "127.0.0.1:9"

    def answer(line):
        return ["OK 2", "-", "00ff"]

    wire.host(address, answer)
    monkeypatch.setattr(wire.answering, "depth", 1)
    try:
        assert wire.query_events(address, 0, 1, "meeting") == [b"", b"\x00\xff"]
    finally:
        wire.unhost(answer)


def test_nested_cohosted_hops_are_bounded():
    # Every event's location is the calendar itself, so each
    # "today meeting location" after the first is one more hop from the
    # calendar to itself.
    dep = Deployment()
    try:
        calendar = dep.servers["calendar"]
        here = kit.calendar_description(calendar.advertised)
        locate_events_at(calendar, here)
        ctx = calendar_context(dep)
        start = threading.active_count()

        def loops(n):
            return parse_name("(" + " ".join(["today meeting location"] * n) + ")")

        # n loops make n - 1 hops, each nested in the one before.
        for n in (20, DEFAULT_MAX_DEPTH + 1):
            assert resolve(ctx, loops(n)).description == here
        for n in (DEFAULT_MAX_DEPTH + 2, 40):
            before = calendar.request_count()
            with pytest.raises(DepthExceededError) as excinfo:
                resolve(ctx, loops(n))
            assert excinfo.value.max_depth == DEFAULT_MAX_DEPTH
            assert calendar.request_count() - before == DEFAULT_MAX_DEPTH + 1
        assert wait_for_threads(start) <= start
    finally:
        dep.shutdown()


def test_concurrent_clients_get_the_single_threaded_answers():
    dep = Deployment()
    try:
        start = threading.active_count()
        expected = {s: resolve_scenario(dep.cfg, s, clock=dep.clock).description for s in HOPS}
        before = dep.request_totals()
        done = {}
        wrong = []

        def client(index):
            ops = 0
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                scenario = 1 + (index + ops) % 3
                found = resolve_scenario(dep.cfg, scenario, clock=dep.clock).description
                if found != expected[scenario]:
                    wrong.append((scenario, found))
                ops += 1
            done[index] = ops

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        assert not wrong
        assert len(done) == 4 and all(done.values())
        # Each op asks its first server once and that server's peer once.
        served = dict.fromkeys(before, 0)
        for index, ops in done.items():
            for k in range(ops):
                for role in HOPS[1 + (index + k) % 3]:
                    served[role] += 1
        after = dep.request_totals()
        assert {role: after[role] - before[role] for role in before} == served
        assert wait_for_threads(start) <= start
    finally:
        dep.shutdown()
