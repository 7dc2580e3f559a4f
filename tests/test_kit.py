import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from conftest import FakeClock

from namechain import kit, wire
from namechain.bench import SCENARIOS, manual_discover
from namechain.names import (
    LocalName,
    parse_name,
    parse_resource_literal,
    serialize_resource_literal,
)
from namechain.resolver import NotBoundError, ResolveContext, UnknownTypeError, Validity, resolve
from namechain.resources import MalformedSpecError, ResourceDescription
from namechain.servers import CalendarServer, StoredEvent

T0 = 1_754_640_000_000  # 2025-08-08 08:00:00 UTC
USER_A = bytes(range(16))
LOC_A = bytes(range(32, 48))


def _local(text: str) -> LocalName:
    return LocalName(text)


# --- period arithmetic against a datetime oracle

@pytest.mark.parametrize(
    "instant",
    [0, 1, T0, T0 + 123_456, 86_400_000 - 1, 86_400_000, 1_700_000_000_123],
)
def test_day_bounds_match_datetime(instant):
    start, end = kit.day_bounds(instant)
    dt = datetime.fromtimestamp(instant / 1000, tz=timezone.utc)
    midnight = dt.replace(hour=0, minute=0, second=0, microsecond=0)
    assert start == int(midnight.timestamp() * 1000)
    assert end == int((midnight + timedelta(days=1)).timestamp() * 1000)
    assert start <= instant < end


@pytest.mark.parametrize("instant", [0, T0, 1_700_000_000_123, 86_400_000 * 3])
def test_week_bounds_match_datetime(instant):
    start, end = kit.week_bounds(instant)
    dt = datetime.fromtimestamp(instant / 1000, tz=timezone.utc)
    monday = (dt - timedelta(days=dt.weekday())).replace(
        hour=0, minute=0, second=0, microsecond=0
    )
    assert start == int(monday.timestamp() * 1000)
    assert end == int((monday + timedelta(days=7)).timestamp() * 1000)
    assert start <= instant < end


def test_period_bounds_tomorrow_and_unknown():
    day_start, day_end = kit.day_bounds(T0)
    assert kit.period_bounds("tomorrow", T0) == (day_end, day_end + kit.DAY_MS)
    assert kit.period_bounds("nextyear", T0) is None


# --- static types

def test_string_and_file_have_empty_namespaces():
    registry = kit.build_registry()
    for description in (kit.string_description("alice@example.org"), kit.file_description("http://h/f")):
        resolver = registry.instantiate(description)
        with pytest.raises(NotBoundError):
            resolver.resolve_local(_local("anything"))


def test_file_collection_prepends_prefix(fake_clock):
    resolver = kit.FileCollectionResolver("http://h/u/", fake_clock)
    description, validity = resolver.resolve_local(_local("naming.ppt"))
    assert description == kit.file_description("http://h/u/naming.ppt")
    assert validity == Validity(fake_clock() + kit.STATIC_TTL_MS)
    # never NotBound, whatever the token
    for token in ("x", "a.b-c_d", "0"):
        assert resolver.resolve_local(_local(token))[0] == kit.file_description(f"http://h/u/{token}")


def test_file_set_resolves_listed_names_only(fake_clock):
    resolver = kit.FileSetResolver({"agenda": "http://h/a", "notes": "http://h/n"}, fake_clock)
    assert resolver.resolve_local(_local("agenda"))[0] == kit.file_description("http://h/a")
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("missing"))


# --- event static data

def _event_fields(**overrides):
    base = dict(
        tags=("meeting", "weekly"),
        moderator=USER_A,
        location=kit.location_description("127.0.0.1:7002", LOC_A),
        files=(("agenda.txt", "http://h/ev/agenda.txt"), ("notes.txt", "http://h/ev/notes.txt")),
        start=T0,
        end=T0 + 3_600_000,
    )
    base.update(overrides)
    return kit.EventFields(**base)


def test_event_spec_round_trip():
    fields = _event_fields()
    assert kit.parse_event_spec(kit.encode_event_spec(fields)) == fields


def test_event_spec_round_trip_without_optional_parts():
    fields = _event_fields(tags=(), files=())
    assert kit.parse_event_spec(kit.encode_event_spec(fields)) == fields


@pytest.mark.parametrize(
    "mutate",
    [
        lambda text: text.replace("moderator=", "boss="),
        lambda text: text + "moderator=" + "00" * 16 + "\n",
        lambda text: text.replace("start=", "start=oops-"),
        lambda text: text.replace(f"end={T0 + 3_600_000}", f"end={T0 - 1}"),
        lambda text: "\n".join(l for l in text.splitlines() if not l.startswith("location=")) + "\n",
        lambda text: text.replace("location=[", "location=("),
        lambda text: text.replace(USER_A.hex(), "zz" * 16),
    ],
)
def test_event_spec_rejects_malformed_text(mutate):
    text = kit.encode_event_spec(_event_fields()).decode()
    with pytest.raises(MalformedSpecError):
        kit.parse_event_spec(mutate(text).encode())


# Whitespace outside ASCII as well: next line, em space, ideographic space,
# and the file separator, which str.isspace() also counts.
URL_WHITESPACE = ["\u0085", "\u2003", "\u3000", "\x1c", " ", "\t"]


@pytest.mark.parametrize("space", URL_WHITESPACE)
def test_urls_with_any_whitespace_are_rejected(space):
    url = f"http://h/ev/a{space}b.txt"
    text = kit.encode_event_spec(_event_fields(files=())).decode() + f"file.a.txt={url}\n"
    with pytest.raises(MalformedSpecError):
        kit.parse_event_spec(text.encode())
    registry = kit.build_registry()
    with pytest.raises(MalformedSpecError):
        registry.instantiate(kit.file_description(url))
    with pytest.raises(MalformedSpecError):
        registry.instantiate(kit.file_collection_description(url))
    with pytest.raises(MalformedSpecError):
        kit.encode_file_set_spec((("a.txt", url),))


def test_event_bindings(fake_clock):
    fields = _event_fields()
    resolver = kit.EventResolver(fields, fake_clock, "127.0.0.1:7001")
    moderator, validity = resolver.resolve_local(_local("moderator"))
    assert moderator == kit.user_description("127.0.0.1:7001", USER_A)
    assert validity == Validity(fake_clock() + kit.STATIC_TTL_MS)
    assert resolver.resolve_local(_local("location"))[0] == fields.location
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("tags"))


def test_event_files_with_common_prefix_become_a_collection(fake_clock):
    resolver = kit.EventResolver(_event_fields(), fake_clock, None)
    description, _ = resolver.resolve_local(_local("files"))
    assert description == kit.file_collection_description("http://h/ev/")


def test_event_files_without_common_prefix_become_a_file_set(fake_clock):
    fields = _event_fields(files=(("agenda", "http://h/one"), ("notes", "http://elsewhere/n")))
    resolver = kit.EventResolver(fields, fake_clock, None)
    description, _ = resolver.resolve_local(_local("files"))
    assert description.type_id == kit.FILE_SET_TYPE
    assert kit.parse_file_set_spec(description.spec) == {
        "agenda": "http://h/one",
        "notes": "http://elsewhere/n",
    }


def test_event_moderator_needs_a_user_database(fake_clock):
    resolver = kit.EventResolver(_event_fields(), fake_clock, None)
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("moderator"))


def test_files_common_prefix_rules():
    assert kit.files_common_prefix((("a", "http://h/p/a"), ("b", "http://h/p/b"))) == "http://h/p/"
    assert kit.files_common_prefix((("a", "http://h/p/a"), ("b", "http://q/b"))) is None
    assert kit.files_common_prefix((("a", "http://h/renamed"),)) is None
    assert kit.files_common_prefix(()) is None


# --- time periods: first tagged event, against a linear scan oracle

def _mk_event(eid: int, start: int, tags=("meeting",)):
    fields = _event_fields(tags=tuple(tags), start=start, end=start + 1_800_000)
    return bytes([eid] * 16), fields, kit.encode_event_spec(fields)


def _store_query(events):
    def query(address, start, end, tag):
        rows = [
            (fields.start, eid, spec)
            for eid, fields, spec in events
            if tag in fields.tags and start <= fields.start < end
        ]
        rows.sort()
        return [spec for _, _, spec in rows]

    return query


def test_time_period_picks_the_earliest_tagged_event(fake_clock):
    nine = T0 + 3_600_000
    fourteen = T0 + 6 * 3_600_000
    events = [_mk_event(2, fourteen), _mk_event(1, nine)]
    resolver = kit.TimePeriodResolver(
        "127.0.0.1:7003", T0, T0 + kit.DAY_MS, fake_clock, _store_query(events)
    )
    description, validity = resolver.resolve_local(_local("meeting"))
    assert description.type_id == kit.EVENT_TYPE
    assert kit.parse_event_spec(description.spec).start == nine
    # the event is in the future: the mapping holds until it starts
    assert validity == Validity(nine)


def test_time_period_selection_matches_linear_scan_oracle(fake_clock):
    rng = random.Random(77)
    starts = [T0 + rng.randrange(0, kit.DAY_MS) for _ in range(40)]
    events = [_mk_event(i % 251, s) for i, s in enumerate(starts)]
    resolver = kit.TimePeriodResolver(
        "127.0.0.1:7003", T0, T0 + kit.DAY_MS, fake_clock, _store_query(events)
    )
    description, _ = resolver.resolve_local(_local("meeting"))
    # oracle: brute-force scan for min (start, id)
    best = min((fields.start, eid) for eid, fields, _ in events)
    got = kit.parse_event_spec(description.spec)
    assert (got.start, description.spec) == (best[0], dict(
        ((f.start, e), s) for e, f, s in events
    )[best])


def test_time_period_tag_lookup_has_a_validity_floor(fake_clock):
    past = fake_clock() - 3_600_000
    events = [_mk_event(1, past)]
    resolver = kit.TimePeriodResolver(
        "127.0.0.1:7003", kit.day_bounds(past)[0], T0 + kit.DAY_MS, fake_clock, _store_query(events)
    )
    _, validity = resolver.resolve_local(_local("meeting"))
    assert validity == Validity(fake_clock() + kit.PERIOD_TAG_MIN_TTL_MS)


def test_time_period_unmatched_tag_is_not_bound(fake_clock):
    resolver = kit.TimePeriodResolver(
        "127.0.0.1:7003", T0, T0 + kit.DAY_MS, fake_clock, _store_query([])
    )
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("meeting"))


def _time_period_context(fake_clock, specs, registry=None):
    """A time period whose query answers `specs` for any tag, as the initial resource."""
    if registry is None:
        registry = kit.build_registry(
            fake_clock,
            "127.0.0.1:7001",
            events_query=lambda address, start, end, tag: list(specs),
            user_fetch=lambda address, user_id: ("alice@example.org", "http://files/alice/"),
        )
    period = kit.time_period_description("127.0.0.1:7003", T0, T0 + kit.DAY_MS)
    return ResolveContext(registry=registry, initial=registry.instantiate(period), clock=fake_clock)


MALFORMED_EVENT_SPECS = [
    b"garbage",
    kit.encode_event_spec(_event_fields()).replace(b"start=", b"start=oops-"),
    kit.encode_event_spec(_event_fields()) + "file.x=http://h/a\u3000b\n".encode(),
]
EVENT_STEP_NAMES = ["(meeting)", "(meeting location)", "(meeting moderator email)"]


@pytest.mark.parametrize("spec", MALFORMED_EVENT_SPECS)
@pytest.mark.parametrize("text", EVENT_STEP_NAMES)
def test_malformed_event_spec_is_rejected_where_the_name_ends_and_beyond(fake_clock, spec, text):
    ctx = _time_period_context(fake_clock, [spec])
    with pytest.raises(MalformedSpecError):
        resolve(ctx, parse_name(text))


def _count_event_decodes(monkeypatch):
    decoded = []
    original = kit.parse_event_spec

    def counting(spec):
        decoded.append(spec)
        return original(spec)

    monkeypatch.setattr(kit, "parse_event_spec", counting)
    return decoded


def test_event_spec_is_decoded_once_per_resolution(fake_clock, monkeypatch):
    fields = _event_fields()
    decoded = _count_event_decodes(monkeypatch)
    ctx = _time_period_context(fake_clock, [kit.encode_event_spec(fields)])
    for text, expected in [
        ("(meeting location)", fields.location),
        ("(meeting moderator email)", kit.string_description("alice@example.org")),
        ("(meeting files agenda.txt)", kit.file_description("http://h/ev/agenda.txt")),
    ]:
        decoded.clear()
        assert resolve(ctx, parse_name(text)).description == expected
        assert len(decoded) == 1


def test_decoded_event_is_not_handed_to_a_registry_without_the_event_type(fake_clock):
    spec = kit.encode_event_spec(_event_fields())
    full = kit.build_registry(fake_clock, "127.0.0.1:7001", events_query=lambda *a: [spec])
    ctx = _time_period_context(fake_clock, [spec], registry=full.without(kit.EVENT_TYPE))
    assert resolve(ctx, parse_name("(meeting)")).description.spec == spec
    with pytest.raises(UnknownTypeError):
        resolve(ctx, parse_name("(meeting location)"))


# --- a calendar server resolves from the events it decoded when built

@pytest.mark.parametrize("scenario", [1, 2])
def test_calendar_server_resolves_its_own_events_without_decoding_them(
    fake_deployment, monkeypatch, scenario
):
    calendar = fake_deployment.servers["calendar"]
    decoded = _count_event_decodes(monkeypatch)
    request = f"RESOLVE {kit.CALENDAR_RESOURCE_ID.hex()} {SCENARIOS[scenario].name_text}"
    (line,) = calendar.process_line(request)
    assert decoded == []
    expected = manual_discover(fake_deployment.cfg, scenario, clock=fake_deployment.clock)
    assert wire.parse_ok_resolution(line.split(" ")).description == expected


def _remote_period_context(fake_deployment, monkeypatch, spec):
    """A period on another calendar, resolved by the deployment's calendar server."""
    calendar = fake_deployment.servers["calendar"]
    other = "127.0.0.1:7003"
    assert other != calendar.advertised
    asked = []

    def query_events(address, start, end, tag, timeout=wire.DEFAULT_TIMEOUT):
        asked.append(address)
        return [spec]

    monkeypatch.setattr(wire, "query_events", query_events)
    start, end = kit.day_bounds(fake_deployment.clock())
    period = calendar.registry.instantiate(kit.time_period_description(other, start, end))
    ctx = ResolveContext(registry=calendar.registry, initial=period, clock=fake_deployment.clock)
    return ctx, asked


@pytest.mark.parametrize("text", EVENT_STEP_NAMES)
def test_calendar_server_decodes_an_event_of_another_calendar_once(
    fake_deployment, monkeypatch, text
):
    cfg = fake_deployment.cfg
    # the standup with a tag of its own: not byte-equal to any event the
    # server holds
    fields = cfg.event_fields(cfg.events["standup"])
    spec = kit.encode_event_spec(replace(fields, tags=("meeting", "remote")))
    ctx, asked = _remote_period_context(fake_deployment, monkeypatch, spec)
    decoded = _count_event_decodes(monkeypatch)
    resolution = resolve(ctx, parse_name(text))
    assert decoded == [spec]
    assert asked == ["127.0.0.1:7003"]
    expected = {
        "(meeting)": ResourceDescription(kit.EVENT_TYPE, spec),
        "(meeting location)": fields.location,
        "(meeting moderator email)": kit.string_description(cfg.users["alice"].email),
    }[text]
    assert resolution.description == expected


@pytest.mark.parametrize("spec", MALFORMED_EVENT_SPECS, ids=["garbage", "bad-start", "bad-url"])
@pytest.mark.parametrize("text", EVENT_STEP_NAMES)
def test_calendar_server_rejects_a_malformed_event_of_another_calendar(
    fake_deployment, monkeypatch, spec, text
):
    ctx, _ = _remote_period_context(fake_deployment, monkeypatch, spec)
    with pytest.raises(MalformedSpecError) as excinfo:
        resolve(ctx, parse_name(text))
    assert excinfo.value.type_id == kit.EVENT_TYPE


def test_calendar_server_refuses_an_event_that_does_not_decode():
    fields = _event_fields(tags=("meeting", "we/ekly"))
    with pytest.raises(MalformedSpecError, match="tag must be a token"):
        CalendarServer(("127.0.0.1", 0), [StoredEvent(bytes(16), fields)], None, "127.0.0.1:7001")


def test_stored_event_holds_the_decoding_of_the_bytes_it_serves():
    # a tag with a line break in it encodes as two tag lines
    event = StoredEvent(bytes(16), _event_fields(tags=("meeting\ntag=weekly",)))
    assert event.spec == kit.encode_event_spec(_event_fields(tags=("meeting", "weekly")))
    assert event.fields == _event_fields(tags=("meeting", "weekly"))


# --- calendar native namespace

def test_calendar_today_computed_from_injected_clock(fake_clock):
    resolver = kit.CalendarResolver("127.0.0.1:7003", fake_clock)
    description, validity = resolver.resolve_local(_local("today"))
    address, start, end = kit.parse_time_period_spec(description.spec)
    oracle = datetime.fromtimestamp(fake_clock() / 1000, tz=timezone.utc)
    midnight = oracle.replace(hour=0, minute=0, second=0, microsecond=0)
    assert address == "127.0.0.1:7003"
    assert start == int(midnight.timestamp() * 1000)
    assert end == start + kit.DAY_MS
    assert validity == Validity(end)  # the name drifts when the day rolls over


def test_calendar_other_period_names(fake_clock):
    resolver = kit.CalendarResolver("127.0.0.1:7003", fake_clock)
    for name in ("tomorrow", "thisweek"):
        description, validity = resolver.resolve_local(_local(name))
        _, start, end = kit.parse_time_period_spec(description.spec)
        assert kit.period_bounds(name, fake_clock()) == (start, end)
        assert validity == Validity(end)
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("yesterday"))


# --- users: separate resolver code over a record fetch

def test_user_bindings(fake_clock):
    fetched = []

    def fetch(address, user_id):
        fetched.append((address, user_id))
        return "alice@example.org", "http://files/alice/"

    resolver = kit.UserResolver("127.0.0.1:7001", USER_A, fake_clock, fetch)
    description, validity = resolver.resolve_local(_local("email"))
    assert description == kit.string_description("alice@example.org")
    assert validity == Validity(fake_clock() + kit.USER_TTL_MS)
    assert resolver.resolve_local(_local("files"))[0] == kit.file_collection_description(
        "http://files/alice/"
    )
    assert fetched == [("127.0.0.1:7001", USER_A)] * 2
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("phone"))


# --- locations: native occupant binding

def test_location_occupant_binding(fake_clock):
    occupants = [USER_A]
    resolver = kit.LocationStateResolver(lambda: list(occupants), "127.0.0.1:7001", fake_clock)
    description, validity = resolver.resolve_local(_local("occupant"))
    assert description == kit.user_description("127.0.0.1:7001", USER_A)
    assert validity == Validity(fake_clock() + kit.OCCUPANT_TTL_MS)


def test_location_earliest_arrival_wins(fake_clock):
    second = bytes(range(16, 32))
    resolver = kit.LocationStateResolver(
        lambda: [USER_A, second], "127.0.0.1:7001", fake_clock
    )
    description, _ = resolver.resolve_local(_local("occupant"))
    assert description == kit.user_description("127.0.0.1:7001", USER_A)


def test_empty_location_is_not_bound(fake_clock):
    resolver = kit.LocationStateResolver(lambda: [], "127.0.0.1:7001", fake_clock)
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("occupant"))
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("somethingelse"))


# --- specification validation at instantiation time

def test_addr_id_spec_round_trip():
    spec = wire.encode_addr_id_spec("127.0.0.1:7001", USER_A)
    assert wire.parse_addr_id_spec(spec, kit.USER_TYPE) == ("127.0.0.1:7001", USER_A)


@pytest.mark.parametrize(
    "spec",
    [
        b"",
        b"127.0.0.1:7001",
        b"127.0.0.1:7001 " + b"ab" * 15,
        b"127.0.0.1:7001 " + b"AB" * 16,
        b"127.0.0.1 " + b"ab" * 16,
        b"127.0.0.1:0 " + b"ab" * 16,
        b"127.0.0.1:hi " + b"ab" * 16,
        b"\xff\xfe junk",
    ],
)
def test_addr_id_spec_rejects_malformed(spec):
    with pytest.raises(MalformedSpecError):
        wire.parse_addr_id_spec(spec, kit.LOCATION_TYPE)


def test_time_period_spec_validation():
    description = kit.time_period_description("127.0.0.1:7003", T0, T0 + 1)
    assert kit.parse_time_period_spec(description.spec) == ("127.0.0.1:7003", T0, T0 + 1)
    with pytest.raises(ValueError):
        kit.time_period_description("127.0.0.1:7003", T0, T0)
    with pytest.raises(MalformedSpecError):
        kit.parse_time_period_spec(f"127.0.0.1:7003 {T0} {T0}".encode())
    with pytest.raises(MalformedSpecError):
        kit.parse_time_period_spec(b"127.0.0.1:7003 12")


def test_calendar_spec_validation():
    assert kit.parse_calendar_spec(b"127.0.0.1:7003") == "127.0.0.1:7003"
    with pytest.raises(MalformedSpecError):
        kit.parse_calendar_spec(b"no-port-here")


def test_registry_covers_all_kit_types_plus_remote():
    registry = kit.build_registry(FakeClock(), "127.0.0.1:7001")
    expected = {
        kit.STRING_TYPE,
        kit.FILE_TYPE,
        kit.FILE_COLLECTION_TYPE,
        kit.FILE_SET_TYPE,
        kit.LOCATION_TYPE,
        kit.CALENDAR_TYPE,
        kit.TIME_PERIOD_TYPE,
        kit.EVENT_TYPE,
        kit.USER_TYPE,
        wire.REMOTE_TYPE,
    }
    assert registry.type_ids() == expected


def test_location_description_travels_in_event_spec():
    # the location literal inside an event is a full self-contained
    # description: address and identifier survive the text round trip
    location = kit.location_description("10.0.0.5:7002", LOC_A)
    literal = serialize_resource_literal(location)
    assert parse_resource_literal(literal) == location
