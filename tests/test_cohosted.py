"""Servers in one process answer each other's requests in the calling thread.

A request a server sends while answering, to a server of the same
process, is a call to that server's answer function: the same lines,
counters and ERR codes as over a connection, but no socket, no handler
thread and no timeout of its own.  A RESOLVE answered so spends its
caller's step budget, so one budget bounds every hop of a request, and
its wire calls have its caller's timeout; the thread's scope holds no
budget once the request is answered.
"""

import dataclasses
import gc
import socket
import sys
import threading
import time

import pytest

from conftest import Deployment
from namechain import kit, servers, wire
from namechain.bench import SCENARIOS, resolve_scenario
from namechain.names import parse_name
from namechain.resolver import (
    DEFAULT_MAX_DEPTH,
    DepthExceededError,
    ResolveContext,
    TransportError,
    resolve,
    scope,
)
from test_oracle import as_a_cohosted_server
from test_wire import _ScriptedPeer

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


def loops(n):
    """`today meeting location`, n times over: with every event located at
    the calendar it is asked of, each loop after the first is one more hop
    from the calendar to itself, nested in the one before.  The loops
    spend 4n - 1 steps: three a loop, and one a hop."""
    return parse_name("(" + " ".join(["today meeting location"] * n) + ")")


# The most loops one budget of DEFAULT_MAX_DEPTH steps resolves.
MOST_LOOPS = (DEFAULT_MAX_DEPTH + 1) // 4


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


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_roles_named_by_a_host_name_answer_each_other_in_process(monkeypatch, scenario):
    dep = Deployment(host="localhost")
    try:
        addresses = set(dep.cfg.addresses.values())
        assert all(address.startswith("localhost:") for address in addresses)
        assert set(wire._answers) == addresses
        first, peer = (dep.servers[role] for role in HOPS[scenario])
        before = first.request_count(), peer.request_count()
        wire.close_idle_connections()
        connections = ConnectionCounter(monkeypatch)
        resolve_scenario(dep.cfg, scenario, clock=dep.clock)
        assert connections.count == 1  # the client's, to the first server
        assert (first.request_count(), peer.request_count()) == (before[0] + 1, before[1] + 1)
    finally:
        dep.shutdown()
    assert not wire._answers


@pytest.mark.parametrize(
    "build",
    [
        lambda: servers.LocationManager(("127.0.0.1", 0), {bytes(16): []}, "no port"),
        lambda: servers.CalendarServer(("127.0.0.1", 0), [], None, "no port"),
        lambda: servers.CalendarServer(("127.0.0.1", 0), [], "bad advertised", "127.0.0.1:1"),
    ],
    ids=["location-userdb", "calendar-userdb", "calendar-advertised"],
)
def test_a_refused_argument_leaves_nothing_bound_or_hosted(build):
    hosted = dict(wire._answers)
    with pytest.raises(ValueError):
        build()
    gc.collect()  # a socket left open warns here, and the warning fails the test
    assert wire._answers == hosted


def test_a_server_that_cannot_bind_raises_its_os_error():
    hosted = dict(wire._answers)
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with pytest.raises(OSError):
            servers.UserDatabase(taken.getsockname(), {})
    assert wire._answers == hosted


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
        assert other.address != deployment.cfg.addresses["calendar"]
        (minted,) = other.answer(f"RESOLVE {kit.CALENDAR_RESOURCE_ID.hex()} (today)")
        other_today = wire.parse_ok_resolution(minted.split(" ")).description
        assert kit.parse_time_period_spec(other_today.spec)[0] == other.address
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
    monkeypatch.setattr(scope, "answering", 1)  # as if answering a request
    try:
        with pytest.raises(TransportError):
            call(address)
    finally:
        wire.unhost(address, answer)
    assert len(answers) == 1
    assert address not in wire._answers


def test_an_in_process_reply_with_its_lines_decodes(monkeypatch):
    address = "127.0.0.1:9"

    def answer(line):
        return ["OK 2", "-", "00ff"]

    wire.host(address, answer)
    monkeypatch.setattr(scope, "answering", 1)
    try:
        assert wire.query_events(address, 0, 1, "meeting") == [b"", b"\x00\xff"]
    finally:
        wire.unhost(address, answer)


def test_nested_cohosted_hops_are_bounded():
    dep = Deployment()
    try:
        calendar = dep.servers["calendar"]
        here = kit.calendar_description(calendar.address)
        locate_events_at(calendar, here)
        ctx = calendar_context(dep)
        start = threading.active_count()
        for n in (1, MOST_LOOPS):
            assert resolve(ctx, loops(n)).description == here
        for n in (MOST_LOOPS + 1, 40):
            before = calendar.request_count()
            with pytest.raises(DepthExceededError) as excinfo:
                resolve(ctx, loops(n))
            assert excinfo.value.max_depth == DEFAULT_MAX_DEPTH
            assert calendar.request_count() - before == MOST_LOOPS + 1
        assert wait_for_threads(start) <= start
    finally:
        dep.shutdown()


def test_each_request_on_a_connection_gets_a_budget_of_its_own(monkeypatch):
    dep = Deployment()
    try:
        calendar = dep.servers["calendar"]
        here = kit.calendar_description(calendar.address)
        locate_events_at(calendar, here)
        ctx = calendar_context(dep)
        wire.close_idle_connections()
        connections = ConnectionCounter(monkeypatch)
        # Both go to the one handler thread of one pooled connection.
        with pytest.raises(DepthExceededError) as excinfo:
            resolve(ctx, loops(MOST_LOOPS + 1))
        assert excinfo.value.max_depth == DEFAULT_MAX_DEPTH
        assert resolve(ctx, loops(MOST_LOOPS)).description == here
        assert connections.count == 1
    finally:
        dep.shutdown()


def test_a_failed_resolution_leaves_the_scope_empty():
    dep = Deployment()
    garbage = "127.0.0.1:9"  # never connected to: the answer is hosted

    def answer(line):
        return ["OK two"]

    wire.host(garbage, answer)
    try:
        calendar = dep.servers["calendar"]
        ctx = calendar_context(dep)
        for location, error in [
            (kit.calendar_description(calendar.address), DepthExceededError),
            (kit.location_description(garbage, bytes(16)), TransportError),
        ]:
            locate_events_at(calendar, location)
            with as_a_cohosted_server():
                with pytest.raises(error):
                    resolve(ctx, loops(40))
                assert (scope.budget, scope.answering) == (None, 1)
            assert (scope.budget, scope.answering) == (None, 0)
    finally:
        wire.unhost(garbage, answer)
        dep.shutdown()


# The fewest steps each scenario resolves in when every hop is a call:
# one at the client, for its hop to the first server, and every step of
# every server the request reaches.
FEWEST_STEPS = {1: 5, 2: 6, 3: 4}


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_a_cohosted_hop_spends_the_callers_budget(deployment, scenario):
    spec = SCENARIOS[scenario]
    registry = kit.build_registry(deployment.clock, deployment.cfg.addresses["userdb"])
    initial = registry.instantiate(deployment.cfg.initial_description(spec.initial_alias))
    name = parse_name(spec.name_text)
    expected = resolve_scenario(deployment.cfg, scenario, clock=deployment.clock).description
    fewest = FEWEST_STEPS[scenario]
    with as_a_cohosted_server():
        ctx = ResolveContext(registry, initial, deployment.clock, max_depth=fewest)
        assert resolve(ctx, name).description == expected
        with pytest.raises(DepthExceededError) as excinfo:
            resolve(dataclasses.replace(ctx, max_depth=fewest - 1), name)
    assert excinfo.value.max_depth == fewest - 1


def test_a_cohosted_hop_makes_its_wire_calls_within_the_callers_timeout():
    # The location server asks a userdb that never answers, over a socket:
    # under its own context's timeout (the default) that would take 5 s.
    userdb = _ScriptedPeer(lambda n: "silent")
    user, room = b"\x01" * 16, b"\x02" * 16
    location = servers.LocationManager(("127.0.0.1", 0), {room: [user]}, userdb.address)
    try:
        registry = kit.build_registry()
        initial = registry.instantiate(kit.location_description(location.address, room))
        timeout = 0.3
        start = time.monotonic()
        with as_a_cohosted_server():
            with pytest.raises(TransportError, match="timed out"):
                resolve(ResolveContext(registry, initial, timeout=timeout), parse_name("(occupant email)"))
        assert time.monotonic() - start < 2 * timeout
        assert len(userdb.lines) == 1
        assert location.request_count("RESOLVE") == 1
    finally:
        location.server_close()
        userdb.close()


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
