import random
import string
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FakeClock

from namechain import kit, wire
from namechain.bench import SCENARIOS, manual_discover
from namechain.config import demo_deployment, format_config, parse_config
from namechain.names import (
    LocalName,
    parse_name,
    parse_resource_literal,
    serialize_resource_literal,
)
from namechain.resolver import (
    MalformedSpecError,
    NotBoundError,
    ResolveContext,
    UnknownTypeError,
    Validity,
    resolve,
)
from namechain.resources import ResourceDescription
from namechain.servers import CalendarServer, StoredEvent, serve

T0 = 1_754_640_000_000  # 2025-08-08 08:00:00 UTC
USER_A = bytes(range(16))
LOC_A = bytes(range(32, 48))


def _local(text: str) -> LocalName:
    return LocalName(text)


def _handed_resolver(description, handed):
    """The resolver a registry builds from what a step handed on."""
    return kit.build_registry(FakeClock(), "127.0.0.1:7001").build(description.type_id, handed)


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


def test_event_spec_out_of_the_encoders_order_is_not_canonical():
    lines = kit.encode_event_spec(_event_fields()).decode().splitlines(keepends=True)
    lines[-2], lines[-1] = lines[-1], lines[-2]
    with pytest.raises(MalformedSpecError, match="not in canonical form"):
        kit.parse_event_spec("".join(lines).encode())


# --- the event codec decodes exactly what its encoder writes

_tokens = st.text(alphabet=string.ascii_letters + string.digits + "._-", min_size=1, max_size=8)
_urls = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12).filter(
    lambda url: not any(c.isspace() for c in url)
)


@st.composite
def _drawn_event_fields(draw):
    start = draw(st.integers(-(2**45), 2**45))
    return kit.EventFields(
        tags=tuple(draw(st.lists(_tokens, max_size=3))),
        moderator=draw(st.binary(min_size=16, max_size=16)),
        location=ResourceDescription(draw(st.binary(min_size=32, max_size=32)), draw(st.binary(max_size=24))),
        files=tuple(draw(st.lists(st.tuples(_tokens, _urls), max_size=3, unique_by=lambda f: f[0]))),
        start=start,
        end=start + draw(st.integers(1, 2**45)),
    )


def _line_kind(line):
    return line.partition("=")[0].partition(".")[0]


def _non_canonical(fields, data):
    """Mutations of a valid encoding that the decoder must refuse."""
    spec = kit.encode_event_spec(fields)
    lines = spec.decode().splitlines(keepends=True)
    # swapping two tag lines or two file lines is another valid event
    swappable = [i for i in range(len(lines) - 1) if _line_kind(lines[i]) != _line_kind(lines[i + 1])]
    i = data.draw(st.sampled_from(swappable))
    swapped = lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2 :]
    digits = str(abs(fields.start))
    padded = ("-0" if fields.start < 0 else "0") + digits
    literal = "location=" + serialize_resource_literal(fields.location)
    mutants = {
        "swapped lines": "".join(swapped).encode(),
        "zero-padded start": spec.replace(f"start={fields.start}\n".encode(), f"start={padded}\n".encode()),
        "final LF dropped": spec[:-1],
        "odd-length location spec": spec.replace(literal.encode(), (literal[:-1] + "0]").encode()),
    }
    if fields.files:
        file_line = next(line for line in lines if line.startswith("file."))
        mutants["repeated file line"] = spec.replace(file_line.encode(), 2 * file_line.encode())
    return mutants


@settings(max_examples=40)
@given(_drawn_event_fields(), st.data())
def test_event_codec_round_trips_and_refuses_every_other_spelling(fields, data):
    assert kit.parse_event_spec(kit.encode_event_spec(fields)) == fields
    for what, mutant in _non_canonical(fields, data).items():
        with pytest.raises(MalformedSpecError):
            kit.parse_event_spec(mutant)
            pytest.fail(f"{what} decoded: {mutant!r}")


# --- the event encoder refuses what its decoder refuses

TOKEN_CHARS = frozenset(string.ascii_letters + string.digits + "._-")
# Any text but lone surrogates, which no UTF-8 spec can hold: LF, other
# whitespace, '=', '/' and non-ASCII letters included.
# A lone surrogate is drawn only as a sample, so that URLs rarely hold one.
_any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["meeting\ntag=weekly", "we/ekly", "a b", "a\n", "\u3000", "", "http://h/\ud800"]
)
# More digits than str() and int() convert by default (4300).
_too_long = st.sampled_from([10**4300, -(10**4300)])


@st.composite
def _any_event_fields(draw):
    """Event fields, each part either valid or drawn from far wider sets."""
    fields = draw(_drawn_event_fields())
    faults = draw(st.sets(st.sampled_from(["tag", "moderator", "location", "file", "url", "repeat", "instants"])))
    tags, files = list(fields.tags), list(fields.files)
    if "tag" in faults:
        tags.insert(draw(st.integers(0, len(tags))), draw(_any_text))
    if "file" in faults:
        files.insert(draw(st.integers(0, len(files))), (draw(_any_text), "http://h/f"))
    if "url" in faults and files:
        i = draw(st.integers(0, len(files) - 1))
        files[i] = (files[i][0], draw(_any_text))
    if "repeat" in faults and files:
        files.append((draw(st.sampled_from(files))[0], "http://h/again"))
    changes = {"tags": tuple(tags), "files": tuple(files)}
    if "moderator" in faults:
        changes["moderator"] = draw(st.binary(min_size=15, max_size=15) | st.binary(min_size=17, max_size=17))
    if "location" in faults:
        changes["location"] = draw(st.sampled_from([None, "[00 00]", ResourceDescription(bytes(32)).to_bytes()]))
    if "instants" in faults:
        instant = st.integers(-3, 3) | st.booleans() | _too_long
        changes["start"], changes["end"] = draw(instant), draw(instant)
    return replace(fields, **changes)


def _writable(text_or_int):
    try:
        str(text_or_int).encode("utf-8")
    except ValueError:  # a lone surrogate; too many digits
        return False
    return True


def _valid(fields):
    """What parse_event_spec can give back, by the rules the README states."""
    names = [name for name, _ in fields.files]
    return (
        all(tag and set(tag) <= TOKEN_CHARS for tag in fields.tags)
        and isinstance(fields.moderator, bytes)
        and len(fields.moderator) == 16
        and isinstance(fields.location, ResourceDescription)
        and all(name and set(name) <= TOKEN_CHARS for name in names)
        and len(set(names)) == len(names)
        and all(url and not any(c.isspace() for c in url) for _, url in fields.files)
        and all(_writable(url) for _, url in fields.files)
        and type(fields.start) is int
        and type(fields.end) is int
        and fields.start < fields.end
        and _writable(fields.start)
        and _writable(fields.end)
    )


@settings(max_examples=150)
@given(_any_event_fields())
def test_event_encoder_refuses_or_round_trips(fields):
    try:
        spec = kit.encode_event_spec(fields)
    except MalformedSpecError as exc:
        assert exc.type_id == kit.EVENT_TYPE
        assert not _valid(fields), exc.reason
    else:
        assert _valid(fields)
        assert kit.parse_event_spec(spec) == fields


def _unchecked_event_spec(fields):
    """The lines encode_event_spec writes, written without its checks."""
    lines = [f"tag={t}\n" for t in fields.tags] + [f"moderator={fields.moderator.hex()}\n"]
    lines.append(f"location={serialize_resource_literal(fields.location)}\n")
    lines += [f"file.{name}={url}\n" for name, url in fields.files]
    return "".join(lines + [f"start={fields.start}\n", f"end={fields.end}\n"]).encode("utf-8", "surrogatepass")


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"tags": ("meeting", "we/ekly")}, "tag must be a token, got 'we/ekly'"),
        ({"moderator": bytes(15)}, "moderator must be 32 lowercase hex digits"),
        ({"moderator": bytes(17)}, "moderator must be 32 lowercase hex digits"),
        ({"files": (("a/genda", "http://h/a"),)}, "file name must be a token, got 'a/genda'"),
        ({"files": (("agenda", "http://h/a b"),)}, "URL must be non-empty and whitespace-free"),
        ({"files": (("agenda", ""),)}, "URL must be non-empty and whitespace-free"),
        ({"files": (("a", "http://h/1"), ("a", "http://h/2"))}, "duplicate file name"),
        ({"files": (("agenda", "http://h/\ud800"),)}, "specification is not UTF-8"),
        ({"start": True, "end": 2}, "start and end must be integers"),
        ({"start": T0, "end": T0}, "start must precede end"),
    ],
)
def test_event_encoder_refuses_with_the_decoders_reason(overrides, reason):
    fields = _event_fields(**overrides)
    with pytest.raises(MalformedSpecError) as encoded:
        kit.event_description(fields)
    with pytest.raises(MalformedSpecError) as decoded:
        kit.parse_event_spec(_unchecked_event_spec(fields))
    assert encoded.value.reason.startswith(reason)
    assert encoded.value.reason == decoded.value.reason


def test_event_encoder_refuses_an_instant_too_long_to_write():
    # str() and int() convert at most 4300 digits by default.
    with pytest.raises(MalformedSpecError) as encoded:
        kit.encode_event_spec(_event_fields(start=-(10**4300)))
    spec = kit.encode_event_spec(_event_fields()).replace(f"start={T0}".encode(), b"start=-1" + b"0" * 4300)
    with pytest.raises(MalformedSpecError) as decoded:
        kit.parse_event_spec(spec)
    assert encoded.value.reason == decoded.value.reason == "start and end must be integers"


def test_event_encoder_refuses_a_location_that_is_not_a_description():
    with pytest.raises(MalformedSpecError, match="location must be a resource description"):
        kit.encode_event_spec(_event_fields(location="[00 00]"))


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
    # The encoders above refuse the URL themselves; the factories refuse
    # it too, in a description built without them.
    for type_id in (kit.FILE_TYPE, kit.FILE_COLLECTION_TYPE):
        with pytest.raises(MalformedSpecError):
            registry.instantiate(ResourceDescription(type_id, url.encode()))


@pytest.mark.parametrize(
    "encode,owner",
    [
        (kit.string_description, kit.STRING_TYPE),
        (kit.file_description, kit.FILE_TYPE),
        (kit.file_collection_description, kit.FILE_COLLECTION_TYPE),
        (lambda text: kit.encode_file_set_spec((("a", text),)), kit.FILE_SET_TYPE),
    ],
    ids=["string", "file", "file-collection", "file-set"],
)
def test_text_encoders_refuse_a_lone_surrogate_as_their_decoders_refuse_it(encode, owner):
    with pytest.raises(MalformedSpecError) as excinfo:
        encode("http://h/\ud800")
    assert (excinfo.value.type_id, excinfo.value.reason) == (owner, "specification is not UTF-8")


@pytest.mark.parametrize("encode", [kit.file_description, kit.file_collection_description])
@pytest.mark.parametrize("url", ["", "http://h/ a", "http://h/\ta"])
def test_file_encoders_refuse_what_their_factories_refuse(encode, url):
    registry = kit.build_registry()
    with pytest.raises(MalformedSpecError) as encoded:
        encode(url)
    type_id = kit.FILE_TYPE if encode is kit.file_description else kit.FILE_COLLECTION_TYPE
    with pytest.raises(MalformedSpecError) as decoded:
        registry.instantiate(ResourceDescription(type_id, url.encode()))
    assert encoded.value.reason == decoded.value.reason


# Line breaks str.splitlines() honours besides LF; no encoder writes one.
OTHER_LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
def test_only_lf_ends_a_spec_line(brk):
    event = kit.encode_event_spec(_event_fields()).decode()
    files = kit.encode_file_set_spec((("a", "http://h/a"), ("b", "http://h/b"))).decode()
    with pytest.raises(MalformedSpecError):
        kit.parse_event_spec(event.replace("\n", brk, 1).encode())
    with pytest.raises(MalformedSpecError):
        kit.parse_file_set_spec(files.replace("\n", brk, 1).encode())


@pytest.mark.parametrize(
    "decode, spec",
    [
        (kit.parse_event_spec, kit.encode_event_spec(_event_fields())[:-1]),
        (kit.parse_file_set_spec, b"a=http://h/a"),
    ],
)
def test_a_spec_line_without_its_lf_is_malformed(decode, spec):
    with pytest.raises(MalformedSpecError, match="malformed line"):
        decode(spec)


@pytest.mark.parametrize(
    "line",
    ["(a)=http://h/a", "a b=http://h/a", "=http://h/a", "a=http://x y", "a=http://h/a\u3000b", "a=", "a"],
)
def test_file_set_decoder_refuses_what_its_encoder_refuses(line):
    name, _, url = line.partition("=")
    with pytest.raises(MalformedSpecError):
        kit.encode_file_set_spec(((name, url),))
    with pytest.raises(MalformedSpecError):
        kit.parse_file_set_spec(f"{line}\n".encode())


@pytest.mark.parametrize(
    "spec",
    [b"b=http://h/b\na=http://h/a\n", b"a=http://h/a\na=http://h/b\n", b"a=http://h/a\na=http://h/a\n"],
    ids=["reordered", "duplicated-name", "duplicated-line"],
)
def test_file_set_decoder_takes_names_only_in_ascending_order(spec):
    with pytest.raises(MalformedSpecError, match="does not sort after"):
        kit.parse_file_set_spec(spec)


def test_file_set_spec_round_trip():
    files = (("agenda.txt", "http://h/a?x=1"), ("notes", "http://h/n"))
    assert kit.parse_file_set_spec(kit.encode_file_set_spec(files)) == dict(files)
    assert kit.parse_file_set_spec(kit.encode_file_set_spec(())) == {}


# --- every other spec codec decodes exactly what its encoder writes

_hosts = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=10).filter(
    lambda host: not any(c.isspace() for c in host)
)
_ports = st.integers(1, 65535)
# Besides those, hosts and ports no address holds.
_any_hosts = _hosts | st.sampled_from(["", " ", "a b", "a\tb", "\u3000", "a\n"])
_any_ports = _ports | st.sampled_from([0, -1, 65536])


def _holds_address(host, port):
    return bool(host) and not any(c.isspace() for c in host) and 0 < port < 65536


def _refuses(decode, spec):
    with pytest.raises(MalformedSpecError):
        decode(spec)
        pytest.fail(f"decoded {spec!r}")


def _padded(n):
    return f"-0{-n}" if n < 0 else f"0{n}"


@settings(max_examples=100)
@given(_any_hosts, _any_ports)
def test_calendar_codec_round_trips_and_refuses_every_other_spelling(host, port):
    address = f"{host}:{port}"
    if not _holds_address(host, port):
        with pytest.raises(ValueError):
            kit.calendar_description(address)
        return
    assert kit.parse_calendar_spec(kit.calendar_description(address).spec) == address
    for mutant in (
        f"{host}:{_padded(port)}",
        f" {address}",
        f"{address} ",
        f"{host}: {port}",
        f"{host[:1]} {host[1:]}:{port}",
    ):
        _refuses(kit.parse_calendar_spec, mutant.encode())


# Besides ints, instants no period holds: bool is an int subclass that
# str() writes as a word, and floats are written with a point.
_any_instants = st.integers(-(2**45), 2**45) | st.booleans() | st.floats(-(2**45), 2**45)


@settings(max_examples=100)
@given(_any_hosts, _any_ports, _any_instants, st.integers(1, 2**45) | st.floats(1, 2**45))
def test_time_period_codec_round_trips_and_refuses_every_other_spelling(host, port, start, length):
    address, end = f"{host}:{port}", start + length
    if not _holds_address(host, port) or type(start) is not int or type(end) is not int:
        with pytest.raises(ValueError):
            kit.time_period_description(address, start, end)
        return
    spec = kit.time_period_description(address, start, end).spec
    assert kit.parse_time_period_spec(spec) == (address, start, end)
    for mutant in (
        f"{host}:{_padded(port)} {start} {end}",
        f"{address} {_padded(start)} {end}",
        f"{address} {start} {_padded(end)}",
        f"{address}  {start} {end}",
        f"{address} {start}  {end}",
        f" {address} {start} {end}",
        f"{address} {start} {end} ",
    ):
        _refuses(kit.parse_time_period_spec, mutant.encode())


@settings(max_examples=100)
@given(_any_hosts, _any_ports, st.binary(min_size=16, max_size=16), st.sampled_from([kit.USER_TYPE, kit.LOCATION_TYPE]))
def test_addr_id_codec_round_trips_and_refuses_every_other_spelling(host, port, entity_id, owner):
    address, id_hex = f"{host}:{port}", entity_id.hex()
    if not _holds_address(host, port):
        with pytest.raises(ValueError):
            wire.encode_addr_id_spec(address, entity_id)
        return
    assert wire.parse_addr_id_spec(wire.encode_addr_id_spec(address, entity_id), owner) == (address, entity_id)
    mutants = [
        f"{host}:{_padded(port)} {id_hex}",
        f"{address} 0{id_hex}",
        f"{address}  {id_hex}",
        f" {address} {id_hex}",
        f"{address} {id_hex} ",
        f"{address} {id_hex[:16]} {id_hex[16:]}",
    ]
    if id_hex.upper() != id_hex:
        mutants.append(f"{address} {id_hex.upper()}")
    for mutant in mutants:
        _refuses(lambda spec: wire.parse_addr_id_spec(spec, owner), mutant.encode())


@settings(max_examples=50)
@given(st.lists(st.tuples(_tokens, _urls), max_size=4, unique_by=lambda f: f[0]))
def test_file_set_codec_round_trips_and_refuses_every_other_spelling(files):
    spec = kit.encode_file_set_spec(tuple(files))
    assert kit.parse_file_set_spec(spec) == dict(files)
    # Names are case-sensitive tokens, so upper case spells another set.
    text = spec.decode()
    mutants = ["\n" + text, text + "\n"]
    for name, url in files:
        line = f"{name}={url}\n"
        mutants += [text.replace(line, f" {line}"), text.replace(line, f"{name} ={url}\n")]
        mutants += [text.replace(line, f"{name}= {url}\n"), text.replace(line, f"{name}={url} \n")]
    for mutant in mutants:
        _refuses(kit.parse_file_set_spec, mutant.encode())


def test_event_bindings(fake_clock):
    fields = _event_fields()
    resolver = kit.EventResolver(fields, fake_clock, "127.0.0.1:7001")
    moderator, validity, handed = resolver.resolve_local(_local("moderator"))
    assert moderator == kit.user_description("127.0.0.1:7001", USER_A)
    assert validity == Validity(fake_clock() + kit.STATIC_TTL_MS)
    assert isinstance(_handed_resolver(moderator, handed), kit.UserResolver)
    assert resolver.resolve_local(_local("location"))[0] == fields.location
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("tags"))


def test_event_files_with_common_prefix_become_a_collection(fake_clock):
    resolver = kit.EventResolver(_event_fields(), fake_clock, None)
    description, _, handed = resolver.resolve_local(_local("files"))
    assert description == kit.file_collection_description("http://h/ev/")
    assert isinstance(_handed_resolver(description, handed), kit.FileCollectionResolver)


def test_event_files_without_common_prefix_become_a_file_set(fake_clock):
    fields = _event_fields(files=(("agenda", "http://h/one"), ("notes", "http://elsewhere/n")))
    resolver = kit.EventResolver(fields, fake_clock, None)
    description, _, handed = resolver.resolve_local(_local("files"))
    assert description.type_id == kit.FILE_SET_TYPE
    assert kit.parse_file_set_spec(description.spec) == {
        "agenda": "http://h/one",
        "notes": "http://elsewhere/n",
    }
    assert isinstance(_handed_resolver(description, handed), kit.FileSetResolver)


def test_event_moderator_needs_a_user_database(fake_clock):
    resolver = kit.EventResolver(_event_fields(), fake_clock, None)
    with pytest.raises(NotBoundError):
        resolver.resolve_local(_local("moderator"))


def test_files_common_prefix_rules():
    assert kit.files_common_prefix((("a", "http://h/p/a"), ("b", "http://h/p/b"))) == "http://h/p/"
    assert kit.files_common_prefix((("a", "http://h/p/a"), ("b", "http://q/b"))) is None
    assert kit.files_common_prefix((("a", "http://h/renamed"),)) is None
    assert kit.files_common_prefix(()) is None
    # URLs equal to their names share only the empty prefix, which no
    # file collection has.
    assert kit.files_common_prefix((("a", "a"), ("b", "b"))) is None


def test_event_files_named_by_their_own_urls_become_a_file_set(fake_clock):
    registry = kit.build_registry(fake_clock)
    event = kit.event_description(_event_fields(files=(("a", "a"), ("b", "b"))))
    ctx = ResolveContext(registry, registry.instantiate(event), fake_clock)
    files = resolve(ctx, parse_name("(files)")).description
    assert files.type_id == kit.FILE_SET_TYPE
    assert kit.parse_file_set_spec(files.spec) == {"a": "a", "b": "b"}
    assert resolve(ctx, parse_name("(files a)")).description == kit.file_description("a")


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
        return [(spec, None) for _, _, spec in rows]

    return query


def test_time_period_picks_the_earliest_tagged_event(fake_clock):
    nine = T0 + 3_600_000
    fourteen = T0 + 6 * 3_600_000
    events = [_mk_event(2, fourteen), _mk_event(1, nine)]
    resolver = kit.TimePeriodResolver(
        "127.0.0.1:7003", T0, T0 + kit.DAY_MS, fake_clock, _store_query(events)
    )
    description, validity, handed = resolver.resolve_local(_local("meeting"))
    assert description.type_id == kit.EVENT_TYPE
    assert kit.parse_event_spec(description.spec).start == nine
    # the event is in the future: the mapping holds until it starts
    assert validity == Validity(nine)
    assert isinstance(_handed_resolver(description, handed), kit.EventResolver)


def test_time_period_selection_matches_linear_scan_oracle(fake_clock):
    rng = random.Random(77)
    starts = [T0 + rng.randrange(0, kit.DAY_MS) for _ in range(40)]
    events = [_mk_event(i % 251, s) for i, s in enumerate(starts)]
    resolver = kit.TimePeriodResolver(
        "127.0.0.1:7003", T0, T0 + kit.DAY_MS, fake_clock, _store_query(events)
    )
    description, _, handed = resolver.resolve_local(_local("meeting"))
    # oracle: brute-force scan for min (start, id)
    best = min((fields.start, eid) for eid, fields, _ in events)
    got = kit.parse_event_spec(description.spec)
    assert (got.start, description.spec) == (best[0], dict(
        ((f.start, e), s) for e, f, s in events
    )[best])
    assert isinstance(_handed_resolver(description, handed), kit.EventResolver)


def test_time_period_tag_lookup_has_a_validity_floor(fake_clock):
    past = fake_clock() - 3_600_000
    events = [_mk_event(1, past)]
    resolver = kit.TimePeriodResolver(
        "127.0.0.1:7003", kit.day_bounds(past)[0], T0 + kit.DAY_MS, fake_clock, _store_query(events)
    )
    description, validity, handed = resolver.resolve_local(_local("meeting"))
    assert validity == Validity(fake_clock() + kit.PERIOD_TAG_MIN_TTL_MS)
    assert isinstance(_handed_resolver(description, handed), kit.EventResolver)


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
            events_query=lambda address, start, end, tag: [(spec, None) for spec in specs],
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
    full = kit.build_registry(fake_clock, "127.0.0.1:7001", events_query=lambda *a: [(spec, None)])
    ctx = _time_period_context(fake_clock, [spec], registry=full.without(kit.EVENT_TYPE))
    assert resolve(ctx, parse_name("(meeting)")).description.spec == spec
    with pytest.raises(UnknownTypeError):
        resolve(ctx, parse_name("(meeting location)"))


# --- a step hands on what it built its description from

USERDB = "127.0.0.1:7001"
CALENDAR = "127.0.0.1:7003"
FILE_NAMES = ("agenda.txt", "notes.txt", "slides")


@st.composite
def _handoff_worlds(draw):
    """An event, the file prefix of every user, a location's occupants, a
    period name and whether the events query answers decoded fields, drawn
    so that every hand-off of the kit can happen."""
    names = draw(st.lists(st.sampled_from(FILE_NAMES), unique=True, max_size=3))
    if draw(st.booleans()):  # a common prefix: a file collection
        prefix = draw(st.sampled_from(("http://h/ev/", "http://h/")))
        files = tuple((name, prefix + name) for name in names)
    else:  # none: a file set
        files = tuple((name, f"http://h{i}.example/f{i}") for i, name in enumerate(names))
    moderator = draw(st.binary(min_size=16, max_size=16))
    start = T0 + draw(st.integers(-kit.DAY_MS, kit.DAY_MS))
    fields = kit.EventFields(
        tuple(draw(st.lists(st.sampled_from(("meeting", "review")), unique=True, max_size=2))),
        moderator,
        kit.location_description("127.0.0.1:7002", LOC_A),
        files,
        start,
        start + draw(st.integers(1, kit.DAY_MS)),
    )
    prefix = draw(st.sampled_from(("http://f/a/", "http://f/")))
    occupants = draw(st.lists(st.sampled_from((USER_A, moderator)), unique=True, min_size=1))
    return fields, prefix, occupants, draw(st.sampled_from(kit.PERIOD_NAMES)), draw(st.booleans())


def _outcome(resolver, local):
    """What resolve_local gives for `local`: the result, or the class and
    local name of the error."""
    try:
        description, validity, *handed = resolver.resolve_local(_local(local))
    except Exception as exc:
        return type(exc), getattr(exc, "local", None)
    return description.to_bytes(), validity, handed


@settings(max_examples=100, deadline=None)
@given(world=_handoff_worlds())
def test_a_handed_on_resolver_answers_as_the_decoded_one(world):
    fields, prefix, occupants, period_name, decoded_by_the_query = world
    clock = FakeClock()
    spec = kit.encode_event_spec(fields)

    def events_query(address, start, end, tag):
        assert address == CALENDAR
        if tag in fields.tags and start <= fields.start < end:
            return [(spec, None if decoded_by_the_query else fields)]
        return []

    def user_fetch(address, user_id):
        assert address == USERDB
        return f"{user_id.hex()}@example.org", prefix

    registry = kit.build_registry(clock, USERDB, events_query=events_query, user_fetch=user_fetch)
    event = registry.instantiate(kit.event_description(fields))
    steps = [
        (kit.CalendarResolver(CALENDAR, clock), period_name),
        (registry.instantiate(kit.time_period_description(CALENDAR, *kit.week_bounds(clock()))), "meeting"),
        (event, "moderator"),
        (event, "files"),
        (kit.LocationStateResolver(lambda: occupants, USERDB, clock), "occupant"),
        (registry.instantiate(kit.user_description(USERDB, fields.moderator)), "files"),
    ]
    probes = (
        "email", "files", *FILE_NAMES, "unlisted", "meeting", "moderator", "location", "occupant", "bogus"
    )
    handed_on = 0
    for step, local in steps:
        try:
            description, _, handed = step.resolve_local(_local(local))
        except NotBoundError:  # no event in the period carries the tag
            assert local == "meeting"
            continue
        handed_on += 1
        built, decoded = registry.build(description.type_id, handed), registry.instantiate(description)
        assert type(built) is type(decoded)
        for probe in probes:
            assert _outcome(built, probe) == _outcome(decoded, probe), (local, probe)
    assert handed_on >= len(steps) - 1


def _common_prefix_event():
    return kit.event_description(_event_fields())


def _file_set_event():
    return kit.event_description(
        _event_fields(files=(("agenda.txt", "http://h/one"), ("notes.txt", "http://elsewhere/n")))
    )


# (type left out of the registry, the initial resource, a name whose step
# 1 resolves from a description of that type)
HANDED_TYPES = [
    (kit.TIME_PERIOD_TYPE, lambda registry: kit.CalendarResolver(CALENDAR, FakeClock()), "(today meeting)"),
    (
        kit.EVENT_TYPE,
        lambda registry: registry.instantiate(kit.time_period_description(CALENDAR, T0, T0 + kit.DAY_MS)),
        "(meeting location)",
    ),
    (kit.USER_TYPE, lambda registry: registry.instantiate(_common_prefix_event()), "(moderator email)"),
    (
        kit.USER_TYPE,
        lambda registry: kit.LocationStateResolver(lambda: [USER_A], USERDB, FakeClock()),
        "(occupant email)",
    ),
    (
        kit.FILE_COLLECTION_TYPE,
        lambda registry: registry.instantiate(_common_prefix_event()),
        "(files agenda.txt)",
    ),
    (
        kit.FILE_COLLECTION_TYPE,
        lambda registry: registry.instantiate(kit.user_description(USERDB, USER_A)),
        "(files naming.ppt)",
    ),
    (kit.FILE_SET_TYPE, lambda registry: registry.instantiate(_file_set_event()), "(files agenda.txt)"),
]


@pytest.mark.parametrize(
    "left_out,initial,text",
    HANDED_TYPES,
    ids=[
        "time-period", "event", "user-moderator", "user-occupant",
        "collection-event", "collection-user", "file-set",
    ],
)
def test_a_registry_without_the_handed_type_refuses_it_at_its_step(fake_clock, left_out, initial, text):
    spec = kit.encode_event_spec(_event_fields(start=T0 + 1))
    full = kit.build_registry(
        fake_clock,
        USERDB,
        events_query=lambda *a: [(spec, None)],
        user_fetch=lambda address, user_id: ("alice@example.org", "http://files/alice/"),
    )
    resolve(ResolveContext(full, initial(full), fake_clock), parse_name(text))
    restricted = full.without(left_out)
    with pytest.raises(UnknownTypeError) as excinfo:
        resolve(ResolveContext(restricted, initial(restricted), fake_clock), parse_name(text))
    assert excinfo.value.type_id == left_out
    assert excinfo.value.step == 1


def test_a_stored_location_literal_is_decoded_by_its_type(fake_clock):
    # A calendar spec with no address: the calendar's factory refuses it
    # at step 1, although the event step built the rest of its output.
    location = ResourceDescription(kit.CALENDAR_TYPE, b"no address")
    event = kit.event_description(kit.EventFields((), bytes(16), location, (), 0, 1))
    registry = kit.build_registry(fake_clock, USERDB)
    ctx = ResolveContext(registry, registry.instantiate(event), fake_clock)
    with pytest.raises(MalformedSpecError) as excinfo:
        resolve(ctx, parse_name("(location today)"))
    assert excinfo.value.type_id == kit.CALENDAR_TYPE
    assert excinfo.value.step == 1


def _count_decodes(monkeypatch):
    """The labels of the time-period, user and file-set specs decoded, in order."""
    decoded = []
    time_period, file_set = kit.parse_time_period_spec, kit.parse_file_set_spec
    addr_id = wire.parse_addr_id_spec

    def parse_time_period_spec(spec):
        decoded.append("time-period")
        return time_period(spec)

    def parse_addr_id_spec(spec, owner_type):
        if owner_type == kit.USER_TYPE:
            decoded.append("user")
        return addr_id(spec, owner_type)

    def parse_file_set_spec(spec):
        decoded.append("file-set")
        return file_set(spec)

    monkeypatch.setattr(kit, "parse_time_period_spec", parse_time_period_spec)
    monkeypatch.setattr(wire, "parse_addr_id_spec", parse_addr_id_spec)
    monkeypatch.setattr(kit, "parse_file_set_spec", parse_file_set_spec)
    return decoded


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_a_server_decodes_no_spec_its_own_steps_wrote(fake_deployment, monkeypatch, scenario):
    spec = SCENARIOS[scenario]
    initial = fake_deployment.cfg.initial_description(spec.initial_alias)
    _, resource_id = wire.parse_addr_id_spec(initial.spec, initial.type_id)
    decoded = _count_decodes(monkeypatch)
    server = fake_deployment.servers[spec.initial_alias]
    (line,) = server.process_line(f"RESOLVE {resource_id.hex()} {spec.name_text}")
    assert decoded == []
    expected = manual_discover(fake_deployment.cfg, scenario, clock=fake_deployment.clock)
    assert wire.parse_ok_resolution(line.split(" ")).description == expected


def test_a_chain_from_an_event_decodes_only_the_event(fake_clock, monkeypatch):
    registry = kit.build_registry(
        fake_clock, USERDB, user_fetch=lambda address, user_id: ("alice@example.org", "http://files/alice/")
    )
    events = _count_event_decodes(monkeypatch)
    decoded = _count_decodes(monkeypatch)
    event = kit.event_description(_event_fields())
    ctx = ResolveContext(registry, registry.instantiate(event), fake_clock)
    assert resolve(ctx, parse_name("(moderator files x)")).description == kit.file_description(
        "http://files/alice/x"
    )
    assert events == [event.spec]
    assert decoded == []


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
    assert other != calendar.address
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


def test_calendar_server_answers_in_start_then_id_order_whatever_its_input_order(fake_clock):
    day_start, day_end = kit.day_bounds(fake_clock())
    late = _mk_event(1, day_start + 7_200_000)
    # a start shared by two events: the smaller id wins, although its
    # spec sorts after the other's
    tie_small_id = _mk_event(5, day_start + 3_600_000, tags=("meeting", "zz"))
    tie_large_id = _mk_event(9, day_start + 3_600_000, tags=("meeting", "aa"))
    given = [late, tie_large_id, tie_small_id]
    stored = [StoredEvent(event_id, fields) for event_id, fields, _ in given]
    server = CalendarServer(("127.0.0.1", 0), stored, None, "127.0.0.1:7001", clock=fake_clock)
    try:
        ok, *lines = server.process_line(f"EVENTS {day_start} {day_end} meeting")
        assert ok == "OK 3"
        assert [wire.unhex_field(line) for line in lines] == [
            spec for _, _, spec in (tie_small_id, tie_large_id, late)
        ]
        (line,) = server.process_line(f"RESOLVE {kit.CALENDAR_RESOURCE_ID.hex()} (today meeting)")
        resolution = wire.parse_ok_resolution(line.split(" "))
        assert resolution.description == ResourceDescription(kit.EVENT_TYPE, tie_small_id[2])
    finally:
        server.server_close()


def test_calendar_server_refuses_an_event_that_does_not_decode():
    fields = _event_fields(tags=("meeting", "we/ekly"))
    with pytest.raises(MalformedSpecError, match="tag must be a token"):
        CalendarServer(("127.0.0.1", 0), [StoredEvent(bytes(16), fields)], None, "127.0.0.1:7001")


def test_stored_event_refuses_a_tag_that_would_encode_as_two():
    # written out, the tag would be the two tag lines of meeting and weekly
    with pytest.raises(MalformedSpecError, match="tag must be a token"):
        StoredEvent(bytes(16), _event_fields(tags=("meeting\ntag=weekly",)))


def test_start_up_decodes_no_event(monkeypatch):
    decoded = []
    monkeypatch.setattr(kit, "parse_event_spec", decoded.append)
    addresses = {"userdb": "127.0.0.1:7001", "location": "127.0.0.1:7002", "calendar": "127.0.0.1:7003"}
    cfg = parse_config(format_config(demo_deployment(addresses, T0)))
    server = serve("calendar", cfg, "127.0.0.1:0")
    server.server_close()
    assert len(server.events) == 3
    assert [ev.fields for ev in server.events] == [cfg.event_fields(e) for e in cfg.events.values()]
    assert decoded == []


@pytest.mark.parametrize(
    "build",
    [
        lambda address: kit.CalendarResolver(address, FakeClock()),
        lambda address: kit.LocationStateResolver(list, address, FakeClock()),
        lambda address: kit.build_registry(userdb_address=address),
    ],
    ids=["calendar", "location-state", "registry"],
)
def test_resolvers_check_the_address_they_describe_with_once_when_built(build):
    # Their steps then describe through the unchecked encoders.
    with pytest.raises(ValueError, match="whitespace-free"):
        build("a b:1")


# --- calendar native namespace

def test_calendar_today_computed_from_injected_clock(fake_clock):
    resolver = kit.CalendarResolver("127.0.0.1:7003", fake_clock)
    description, validity, handed = resolver.resolve_local(_local("today"))
    address, start, end = kit.parse_time_period_spec(description.spec)
    oracle = datetime.fromtimestamp(fake_clock() / 1000, tz=timezone.utc)
    midnight = oracle.replace(hour=0, minute=0, second=0, microsecond=0)
    assert address == "127.0.0.1:7003"
    assert start == int(midnight.timestamp() * 1000)
    assert end == start + kit.DAY_MS
    assert validity == Validity(end)  # the name drifts when the day rolls over
    assert isinstance(_handed_resolver(description, handed), kit.TimePeriodResolver)


def test_calendar_other_period_names(fake_clock):
    resolver = kit.CalendarResolver("127.0.0.1:7003", fake_clock)
    for name in ("tomorrow", "thisweek"):
        description, validity, handed = resolver.resolve_local(_local(name))
        _, start, end = kit.parse_time_period_spec(description.spec)
        assert kit.period_bounds(name, fake_clock()) == (start, end)
        assert validity == Validity(end)
        assert isinstance(_handed_resolver(description, handed), kit.TimePeriodResolver)
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
    description, validity, handed = resolver.resolve_local(_local("occupant"))
    assert description == kit.user_description("127.0.0.1:7001", USER_A)
    assert validity == Validity(fake_clock() + kit.OCCUPANT_TTL_MS)
    assert isinstance(_handed_resolver(description, handed), kit.UserResolver)


def test_location_earliest_arrival_wins(fake_clock):
    second = bytes(range(16, 32))
    resolver = kit.LocationStateResolver(
        lambda: [USER_A, second], "127.0.0.1:7001", fake_clock
    )
    description, _, handed = resolver.resolve_local(_local("occupant"))
    assert description == kit.user_description("127.0.0.1:7001", USER_A)
    assert isinstance(_handed_resolver(description, handed), kit.UserResolver)


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
