"""End-to-end resolution through the loopback deployment.

Covers both ways a consumer can drive a scenario: handing the whole name
to a natively-resolving server (distributed), and running the recursion
itself with every type registered locally (all-in-process).
"""

import pytest

from namechain import kit, wire
from namechain.bench import SCENARIOS, manual_discover, resolve_scenario
from namechain.cache import NameCache, cached_resolve
from namechain.names import parse_name
from namechain.resolver import (
    NotBoundError,
    ResolveContext,
    UnknownTypeError,
    resolve,
)

SCENARIO_1 = "(today meeting moderator email)"
SCENARIO_2 = "(today meeting location occupant)"
SCENARIO_3 = "(occupant files naming.ppt)"


def _expected_final(dep, scenario):
    cfg = dep.cfg
    alice = cfg.users["alice"]
    if scenario == 1:
        return kit.string_description(alice.email)
    if scenario == 2:
        return kit.user_description(cfg.addresses["userdb"], alice.user_id)
    return kit.file_description(alice.fileprefix + "naming.ppt")


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_distributed_scenarios_resolve_to_the_expected_resource(deployment, scenario):
    resolution = resolve_scenario(deployment.cfg, scenario, clock=deployment.clock)
    assert resolution.description == _expected_final(deployment, scenario)
    assert resolution.validity.expires_at > deployment.clock()


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_manual_oracle_agrees_with_the_resolver(deployment, scenario):
    resolved = resolve_scenario(deployment.cfg, scenario, clock=deployment.clock)
    manual = manual_discover(deployment.cfg, scenario, clock=deployment.clock)
    assert resolved.description.to_bytes() == manual.to_bytes()


def test_scenario_wire_traffic_shapes(deployment):
    cfg = deployment.cfg
    servers = deployment.servers

    resolve_scenario(cfg, 1, clock=deployment.clock)
    assert servers["calendar"].request_count("RESOLVE") == 1
    assert servers["userdb"].request_count("GETUSER") == 1
    assert servers["location"].request_count() == 0

    resolve_scenario(cfg, 2, clock=deployment.clock)
    assert servers["calendar"].request_count("RESOLVE") == 2
    assert servers["location"].request_count("RESOLVE") == 1
    # the occupant's description is built by the location manager; nobody
    # needed the record itself
    assert servers["userdb"].request_count("GETUSER") == 1

    resolve_scenario(cfg, 3, clock=deployment.clock)
    assert servers["location"].request_count("RESOLVE") == 2
    assert servers["userdb"].request_count("GETUSER") == 2

    # record fetches only, never resolution, at the user database
    assert servers["userdb"].request_count("RESOLVE") == 0


def test_userdb_sees_only_getuser_across_all_scenarios(deployment):
    for scenario in (1, 2, 3):
        resolve_scenario(deployment.cfg, scenario, clock=deployment.clock)
        manual_discover(deployment.cfg, scenario, clock=deployment.clock)
    userdb = deployment.servers["userdb"]
    assert userdb.request_count("RESOLVE") == 0
    assert userdb.request_count("GETUSER") == userdb.request_count()


def _all_in_process_ctx(dep, registry=None):
    cfg = dep.cfg
    registry = registry or kit.build_registry(dep.clock, cfg.addresses["userdb"])
    # The calendar's own namespace, run by the consumer: a calendar
    # description would instead delegate the whole chain to the server.
    initial = kit.CalendarResolver(cfg.addresses["calendar"], dep.clock)
    return ResolveContext(registry=registry, initial=initial, clock=dep.clock)


def test_all_in_process_configuration_drives_the_recursion_itself(deployment):
    ctx = _all_in_process_ctx(deployment)
    resolution = resolve(ctx, parse_name(SCENARIO_1))
    assert resolution.description == _expected_final(deployment, 1)
    # the consumer did the walking: today resolved in process, an EVENTS
    # query for the period, a GETUSER for the moderator
    assert deployment.servers["calendar"].request_count("RESOLVE") == 0
    assert deployment.servers["calendar"].request_count("EVENTS") == 1
    assert deployment.servers["userdb"].request_count("GETUSER") == 1


def test_calendar_description_delegates_the_whole_chain(deployment):
    cfg = deployment.cfg
    registry = kit.build_registry(deployment.clock, cfg.addresses["userdb"])
    initial = registry.instantiate(kit.calendar_description(cfg.addresses["calendar"]))
    ctx = ResolveContext(registry=registry, initial=initial, clock=deployment.clock)
    resolution = resolve(ctx, parse_name(SCENARIO_1))
    assert resolution.description == _expected_final(deployment, 1)
    # one RESOLVE carries the whole name; the server walks the events itself
    assert deployment.servers["calendar"].request_count("RESOLVE") == 1
    assert deployment.servers["calendar"].request_count("EVENTS") == 0


@pytest.mark.parametrize(
    "missing,step",
    [
        (kit.TIME_PERIOD_TYPE, 1),
        (kit.EVENT_TYPE, 2),
        (kit.USER_TYPE, 3),
    ],
)
def test_all_in_process_needs_every_type_or_fails_at_that_step(deployment, missing, step):
    full = kit.build_registry(deployment.clock, deployment.cfg.addresses["userdb"])
    ctx = _all_in_process_ctx(deployment, registry=full.without(missing))
    with pytest.raises(UnknownTypeError) as excinfo:
        resolve(ctx, parse_name(SCENARIO_1))
    assert excinfo.value.type_id == missing
    assert excinfo.value.step == step


def test_scenarios_need_only_the_core_types(deployment):
    # the file-set fallback type is never exercised by the scenarios: the
    # sample types plus the remote proxy are sufficient
    trimmed = kit.build_registry(deployment.clock, deployment.cfg.addresses["userdb"]).without(
        kit.FILE_SET_TYPE
    )
    for scenario in (1, 2, 3):
        resolution = resolve_scenario(
            deployment.cfg, scenario, clock=deployment.clock, registry=trimmed
        )
        assert resolution.description == _expected_final(deployment, scenario)
    ctx = _all_in_process_ctx(deployment, registry=trimmed)
    assert resolve(ctx, parse_name(SCENARIO_1)).description == _expected_final(deployment, 1)


def test_knowledge_locality_consumer_needs_only_remote_and_user(deployment):
    cfg = deployment.cfg
    full = kit.build_registry(deployment.clock, cfg.addresses["userdb"])
    consumer = full.restrict(wire.REMOTE_TYPE, kit.USER_TYPE)

    initial_desc = cfg.initial_description("calendar")
    initial = consumer.instantiate(initial_desc)
    ctx = ResolveContext(registry=consumer, initial=initial, clock=deployment.clock)

    # resolution succeeds although the consumer knows nothing about
    # calendars, periods, events or locations
    r1 = resolve(ctx, parse_name(SCENARIO_1))
    assert r1.description == _expected_final(deployment, 1)

    # the user-typed answer of scenario 2 is interpretable...
    r2 = resolve(ctx, parse_name(SCENARIO_2))
    occupant = consumer.instantiate(r2.description)
    assert occupant is not None
    email_desc, _ = occupant.resolve_local(parse_name("(email)").locals[0])
    assert email_desc == kit.string_description(cfg.users["alice"].email)

    # ...until the user type is dropped: resolution still works, only the
    # final interpretation step fails
    opaque = consumer.without(kit.USER_TYPE)
    ctx2 = ResolveContext(registry=opaque, initial=opaque.instantiate(initial_desc), clock=deployment.clock)
    r2_again = resolve(ctx2, parse_name(SCENARIO_2))
    assert r2_again.description == r2.description
    assert opaque.instantiate(r2_again.description) is None


def test_occupancy_change_is_visible_to_fresh_resolutions(deployment):
    cfg = deployment.cfg
    room = cfg.locations["room101"]
    alice, bob = cfg.users["alice"], cfg.users["bob"]
    before = resolve_scenario(cfg, 3, clock=deployment.clock)
    assert before.description == kit.file_description(alice.fileprefix + "naming.ppt")

    wire.set_occupancy(cfg.addresses["location"], room.location_id, [bob.user_id])
    try:
        after = resolve_scenario(cfg, 3, clock=deployment.clock)
        assert after.description == kit.file_description(bob.fileprefix + "naming.ppt")
        manual = manual_discover(cfg, 3, clock=deployment.clock)
        assert manual.to_bytes() == after.description.to_bytes()
    finally:
        wire.set_occupancy(cfg.addresses["location"], room.location_id, [alice.user_id])


def test_cached_resolution_may_lag_until_expiry(fake_deployment):
    dep = fake_deployment
    cfg = dep.cfg
    room = cfg.locations["room101"]
    alice, bob = cfg.users["alice"], cfg.users["bob"]

    registry = kit.build_registry(dep.clock, cfg.addresses["userdb"])
    initial = registry.instantiate(cfg.initial_description("location"))
    ctx = ResolveContext(registry=registry, initial=initial, clock=dep.clock)
    cache = NameCache()
    name = parse_name(SCENARIO_3)

    first = cached_resolve(ctx, cache, name)
    assert first.description == kit.file_description(alice.fileprefix + "naming.ppt")

    wire.set_occupancy(cfg.addresses["location"], room.location_id, [bob.user_id])
    stale = cached_resolve(ctx, cache, name)
    assert stale.description == first.description  # served from cache

    dep.clock.advance(kit.OCCUPANT_TTL_MS + 1)
    fresh = cached_resolve(ctx, cache, name)
    assert fresh.description == kit.file_description(bob.fileprefix + "naming.ppt")


def test_second_meeting_never_shadows_the_first(deployment):
    # two events today carry the meeting tag; the earlier one must win
    resolution = resolve_scenario(deployment.cfg, 1, clock=deployment.clock)
    assert resolution.description == kit.string_description(deployment.cfg.users["alice"].email)


def test_scenario_names_parse_to_the_documented_texts():
    assert [SCENARIOS[i].name_text for i in (1, 2, 3)] == [SCENARIO_1, SCENARIO_2, SCENARIO_3]
    for text in (SCENARIO_1, SCENARIO_2, SCENARIO_3):
        parse_name(text)


def test_empty_location_leaves_occupant_unbound(deployment):
    cfg = deployment.cfg
    room102 = cfg.locations["room102"]
    with pytest.raises(NotBoundError):
        wire.resolve_remote(cfg.addresses["location"], room102.location_id, parse_name("(occupant)"))
