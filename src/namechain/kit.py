"""Sample resource types and the standard type registry.

Heterogeneity is the point: some of these resources are static pieces of
data interpreted in place, others are proxies for network services, and
the type registry is what lets one element handle the mix uniformly.

Type            Specification bytes (all UTF-8 text)
--------------  ------------------------------------------------------
string          the string itself; empty namespace
file            a URL; empty namespace
file collection a URL prefix; maps any token p to the file <prefix>p
file set        "name=url" lines; maps listed names to files
location        "host:port <32 hex>" (location manager, location id);
                maps "occupant" to the user currently there
calendar        "host:port" (calendar server); maps period names such
                as "today" to time periods
time period     "host:port <start-ms> <end-ms>"; maps a tag to the
                first event in the period carrying it
event           static text, one field per line: tag= (repeatable),
                moderator=<32 hex>, location=<resource literal>,
                file.<name>=<url> (repeatable), start=<ms>, end=<ms>;
                maps "moderator", "location" and "files"
user            "host:port <32 hex>" (user database, user id); maps
                "email" and "files" by interpreting the fetched record

Each decoder accepts exactly the bytes its encoder writes, so one
resource has one specification: file-set names in ascending order, event
fields in the order above, integers as str() writes them (no padding
zero, no "-0").  Every encoder refuses what its decoder refuses, text
that is not UTF-8 included, so decoding what it writes gives back what
it was given; the text encoders raise MalformedSpecError with their
decoders' reasons.  Pretty-printers decode through the same decoders.
An event spec decodes in one match of a pattern of the encoder's
output; only a spec the pattern refuses is walked line by line, and
that walk only names the reason.

Location and calendar resolution happens on the hosting server: their
client resolver is the remote proxy, which forwards the rest of the name
over the wire in one request.  A calendar server encodes its events once,
at start-up, and its events query answers each spec with the fields it
was encoded from, so resolving through its own calendar decodes no event
spec.  The user database has no resolution support of its own, so the
user type's resolver fetches the record and maps local names client-side.

A step hands on what it built its description from (see resolver): the
calendar its period, a time period its event's fields, an event its
moderator and its files, a location its occupant, a user its file
prefix.  The registry's constructor for the type turns that value into
the next resolver, as its factory does after decoding, so a chain spends
no decode on a spec its own step wrote.  A description read from
elsewhere (an event's stored location, an initial resource) is decoded
by its type's factory; an event spec that came over the wire is decoded
by the time-period step, which needs its start, and handed on decoded.

Validity policy: static data lives 24 hours, calendar period names until
the period ends, time-period tag lookups until the event starts (at
least 10 minutes), location occupancy 30 seconds, user record mappings
1 hour.  Shorter lifetimes track faster-changing bindings.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Optional

from . import wire
from .names import (
    LocalName,
    NameSyntaxError,
    _LITERAL_RE,
    _TOKEN_RE,
    _build,
    parse_resource_literal,
    serialize_resource_literal,
)
from .resolver import (
    Clock,
    MalformedSpecError,
    NotBoundError,
    StepResult,
    Validity,
    system_clock,
    validity_from_duration,
)
from .resources import ResourceDescription, TypeRegistry, derive_type_id

STRING_TYPE = derive_type_id("namechain.type.string.v1")
FILE_TYPE = derive_type_id("namechain.type.file.v1")
FILE_COLLECTION_TYPE = derive_type_id("namechain.type.file-collection.v1")
FILE_SET_TYPE = derive_type_id("namechain.type.file-set.v1")
LOCATION_TYPE = derive_type_id("namechain.type.location.v1")
CALENDAR_TYPE = derive_type_id("namechain.type.calendar.v1")
TIME_PERIOD_TYPE = derive_type_id("namechain.type.time-period.v1")
EVENT_TYPE = derive_type_id("namechain.type.event.v1")
USER_TYPE = derive_type_id("namechain.type.user.v1")

# The one calendar a calendar server hosts answers RESOLVE under this
# well-known resource id.
CALENDAR_RESOURCE_ID = bytes(wire.ENTITY_ID_LENGTH)

DAY_MS = 86_400_000
STATIC_TTL_MS = DAY_MS
OCCUPANT_TTL_MS = 30_000
USER_TTL_MS = 3_600_000
PERIOD_TAG_MIN_TTL_MS = 600_000

PERIOD_NAMES = ("today", "tomorrow", "thisweek")

# What encode_event_spec writes, line for line; \S+ is a URL as
# _require_url accepts it.  The groups: tag lines, moderator, location
# type id and spec, file lines, start, end.
_EVENT_SPEC_RE = re.compile(
    f"((?:tag={_TOKEN_RE.pattern}\n)*)"
    "moderator=([0-9a-f]{32})\n"
    f"location={_LITERAL_RE.pattern}\n"
    f"((?:file\\.{_TOKEN_RE.pattern}=\\S+\n)*)"
    f"start=({wire._SIGNED_INT_RE.pattern})\n"
    f"end=({wire._SIGNED_INT_RE.pattern})\n"
)


def day_bounds(now: int) -> tuple[int, int]:
    """UTC day [start, end) containing `now`."""
    day = now // DAY_MS
    return day * DAY_MS, (day + 1) * DAY_MS


def week_bounds(now: int) -> tuple[int, int]:
    """UTC week [start, end) containing `now`, starting Monday."""
    day = now // DAY_MS
    monday = day - (day + 3) % 7  # epoch day 0 was a Thursday
    return monday * DAY_MS, (monday + 7) * DAY_MS


def period_bounds(period_name: str, now: int) -> Optional[tuple[int, int]]:
    if period_name == "today":
        return day_bounds(now)
    if period_name == "tomorrow":
        start, end = day_bounds(now)
        return end, end + DAY_MS
    if period_name == "thisweek":
        return week_bounds(now)
    return None


# --- description constructors

def _describe(type_id: bytes, spec: bytes) -> ResourceDescription:
    # Every type id here has its length and every spec is bytes, all that
    # ResourceDescription checks, so build it without checking again.
    return _build(ResourceDescription, {"type_id": type_id, "spec": spec})


def string_description(text: str) -> ResourceDescription:
    return _describe(STRING_TYPE, _encode_utf8(text, STRING_TYPE))


def file_description(url: str) -> ResourceDescription:
    return _describe(FILE_TYPE, _encode_url(url, FILE_TYPE))


def file_collection_description(url_prefix: str) -> ResourceDescription:
    return _describe(FILE_COLLECTION_TYPE, _encode_url(url_prefix, FILE_COLLECTION_TYPE))


def file_set_description(files: tuple[tuple[str, str], ...]) -> ResourceDescription:
    return _describe(FILE_SET_TYPE, encode_file_set_spec(files))


def location_description(manager_address: str, location_id: bytes) -> ResourceDescription:
    return _describe(LOCATION_TYPE, wire.encode_addr_id_spec(manager_address, location_id))


def calendar_description(server_address: str) -> ResourceDescription:
    wire.parse_address(server_address)
    return _describe(CALENDAR_TYPE, server_address.encode("utf-8"))


def time_period_description(server_address: str, start: int, end: int) -> ResourceDescription:
    wire.parse_address(server_address)
    if type(start) is not int or type(end) is not int:
        raise ValueError("time period start and end must be integers")
    return _time_period_description(server_address, start, end)


def user_description(userdb_address: str, user_id: bytes) -> ResourceDescription:
    return _describe(USER_TYPE, wire.encode_addr_id_spec(userdb_address, user_id))


# The address checks above cost about a microsecond.  A resolver checks
# its address once, when it is built, and its steps describe through these.

def _time_period_description(server_address: str, start: int, end: int) -> ResourceDescription:
    if start >= end:
        raise ValueError("time period start must precede end")
    return _describe(TIME_PERIOD_TYPE, f"{server_address} {start} {end}".encode("utf-8"))


def _user_description(userdb_address: str, user_id: bytes) -> ResourceDescription:
    return _describe(USER_TYPE, wire._encode_addr_id_spec(userdb_address, user_id))


def event_description(fields: "EventFields") -> ResourceDescription:
    return _describe(EVENT_TYPE, encode_event_spec(fields))


# --- specification codecs

def _encode_utf8(text: str, owner_type: bytes) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise MalformedSpecError(owner_type, "specification is not UTF-8") from None


def _decode_utf8(spec: bytes, owner_type: bytes) -> str:
    try:
        return spec.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedSpecError(owner_type, "specification is not UTF-8") from None


def _encode_url(url: str, owner_type: bytes) -> bytes:
    _require_url(url, owner_type)
    return _encode_utf8(url, owner_type)


def _decode_url(spec: bytes, owner_type: bytes) -> str:
    url = _decode_utf8(spec, owner_type)
    _require_url(url, owner_type)
    return url


def parse_calendar_spec(spec: bytes) -> str:
    address = _decode_utf8(spec, CALENDAR_TYPE)
    try:
        wire.parse_address(address)
    except ValueError as exc:
        raise MalformedSpecError(CALENDAR_TYPE, str(exc)) from None
    return address


def parse_time_period_spec(spec: bytes) -> tuple[str, int, int]:
    text = _decode_utf8(spec, TIME_PERIOD_TYPE)
    parts = text.split(" ")
    if len(parts) != 3:
        raise MalformedSpecError(TIME_PERIOD_TYPE, "expected 'host:port <start-ms> <end-ms>'")
    try:
        wire.parse_address(parts[0])
        start = wire.parse_int(parts[1], signed=True)
        end = wire.parse_int(parts[2], signed=True)
    except ValueError as exc:
        raise MalformedSpecError(TIME_PERIOD_TYPE, str(exc)) from None
    if start >= end:
        raise MalformedSpecError(TIME_PERIOD_TYPE, "start must precede end")
    return parts[0], start, end


def encode_file_set_spec(files: tuple[tuple[str, str], ...]) -> bytes:
    lines = []
    for name, url in sorted(files):
        _require_token(name, FILE_SET_TYPE, "file name")
        _require_url(url, FILE_SET_TYPE)
        lines.append(f"{name}={url}\n")
    return _encode_utf8("".join(lines), FILE_SET_TYPE)


def parse_file_set_spec(spec: bytes) -> dict[str, str]:
    files: dict[str, str] = {}
    last = ""  # every name sorts after it
    for line in _spec_lines(spec, FILE_SET_TYPE):
        name, sep, url = line.partition("=")
        if not sep:
            raise MalformedSpecError(FILE_SET_TYPE, f"malformed line {line!r}")
        _require_token(name, FILE_SET_TYPE, "file name")
        _require_url(url, FILE_SET_TYPE)
        # As the encoder writes them: strictly ascending, so none repeats.
        if name <= last:
            raise MalformedSpecError(FILE_SET_TYPE, f"file name {name!r} does not sort after {last!r}")
        files[name] = url
        last = name
    return files


def _spec_lines(spec: bytes, owner_type: bytes) -> list[str]:
    # Encoders end every line with LF, and only LF ends a line.
    lines = _decode_utf8(spec, owner_type).split("\n")
    unterminated = lines.pop()
    if unterminated:
        raise MalformedSpecError(owner_type, f"malformed line {unterminated!r}")
    return lines


def _require_token(value: str, owner_type: bytes, what: str) -> None:
    # Same token alphabet as the name syntax.
    if not _TOKEN_RE.fullmatch(value):
        raise MalformedSpecError(owner_type, f"{what} must be a token, got {value!r}")


def _require_url(value: str, owner_type: bytes) -> None:
    if not value or wire._WHITESPACE_RE.search(value):
        raise MalformedSpecError(owner_type, f"URL must be non-empty and whitespace-free, got {value!r}")


@dataclass(frozen=True)
class EventFields:
    """Decoded static event data."""

    tags: tuple[str, ...]
    moderator: bytes
    location: ResourceDescription
    files: tuple[tuple[str, str], ...]
    start: int
    end: int


def encode_event_spec(fields: EventFields) -> bytes:
    """The spec of `fields`, refusing what parse_event_spec refuses, with
    its reasons, so parse_event_spec(encode_event_spec(f)) == f for every
    f accepted here.
    """
    lines = []
    for tag in fields.tags:
        _require_token(tag, EVENT_TYPE, "tag")
        lines.append(f"tag={tag}\n")
    if not isinstance(fields.moderator, bytes) or len(fields.moderator) != wire.ENTITY_ID_LENGTH:
        raise MalformedSpecError(EVENT_TYPE, "moderator must be 32 lowercase hex digits")
    lines.append(f"moderator={fields.moderator.hex()}\n")
    if not isinstance(fields.location, ResourceDescription):
        raise MalformedSpecError(EVENT_TYPE, "location must be a resource description")
    lines.append(f"location={serialize_resource_literal(fields.location)}\n")
    for name, url in fields.files:
        _require_token(name, EVENT_TYPE, "file name")
        _require_url(url, EVENT_TYPE)
        lines.append(f"file.{name}={url}\n")
    if len({name for name, _ in fields.files}) < len(fields.files):
        raise MalformedSpecError(EVENT_TYPE, "duplicate file name")
    if type(fields.start) is not int or type(fields.end) is not int:
        raise MalformedSpecError(EVENT_TYPE, "start and end must be integers")
    if fields.start >= fields.end:
        raise MalformedSpecError(EVENT_TYPE, "start must precede end")
    try:
        lines.append(f"start={fields.start}\nend={fields.end}\n")
    except ValueError:  # more digits than str() converts
        raise MalformedSpecError(EVENT_TYPE, "start and end must be integers") from None
    return _encode_utf8("".join(lines), EVENT_TYPE)


def parse_event_spec(spec: bytes) -> EventFields:
    """Decode exactly the bytes encode_event_spec writes, in one match."""
    text = _decode_utf8(spec, EVENT_TYPE)
    m = _EVENT_SPEC_RE.fullmatch(text)
    if m is None or len(m[4]) % 2:
        raise MalformedSpecError(EVENT_TYPE, _event_spec_fault(text))
    tag_lines, moderator, type_hex, spec_hex, file_lines, start, end = m.groups()
    files = ()
    if file_lines:
        # A list comprehension, not a generator expression: over 60 000
        # decodes the generator form raised peak RSS by about 0.5 MB.
        files = tuple([line.partition("=")[::2] for line in file_lines[5:-1].split("\nfile.")])
        if len({name for name, _ in files}) < len(files):
            raise MalformedSpecError(EVENT_TYPE, "duplicate file name")
    try:
        start, end = int(start), int(end)
    except ValueError:  # more digits than int() converts
        raise MalformedSpecError(EVENT_TYPE, "start and end must be integers") from None
    if start >= end:
        raise MalformedSpecError(EVENT_TYPE, "start must precede end")
    return _build(EventFields, {
        "tags": tuple(tag_lines[4:-1].split("\ntag=")) if tag_lines else (),
        "moderator": bytes.fromhex(moderator),
        "location": _describe(bytes.fromhex(type_hex), bytes.fromhex(spec_hex)),
        "files": files,
        "start": start,
        "end": end,
    })


def _event_spec_fault(text: str) -> str:
    """Why _EVENT_SPEC_RE refused `text`: its first bad line, else a field
    missing or repeated, else the order of its lines.

    It returns a reason and never a decoding, so the pattern stays the
    only thing that accepts a spec.
    """
    lines = text.split("\n")
    unterminated = lines.pop()
    if unterminated:
        return f"malformed line {unterminated!r}"
    keys = []
    for line in lines:
        key, sep, value = line.partition("=")
        if not sep or not key:
            return f"malformed line {line!r}"
        try:
            if key == "tag":
                _require_token(value, EVENT_TYPE, "tag")
            elif key.startswith("file."):
                _require_token(key[5:], EVENT_TYPE, "file name")
                _require_url(value, EVENT_TYPE)
            elif key == "moderator":
                wire.parse_entity_id(value, "moderator")
            elif key == "location":
                parse_resource_literal(value)
            elif key in ("start", "end"):
                wire.parse_int(value, signed=True)
            else:
                return f"unknown field {key!r}"
        except MalformedSpecError as exc:
            return exc.reason
        except NameSyntaxError as exc:
            return f"bad location literal: {exc}"
        except ValueError as exc:
            return str(exc) if key == "moderator" else "start and end must be integers"
        keys.append(key)
    for required in ("moderator", "location", "start", "end"):
        if keys.count(required) != 1:
            return f"field {required!r} must appear once"
    return "not in canonical form"


def files_common_prefix(files: tuple[tuple[str, str], ...]) -> Optional[str]:
    """Non-empty prefix P with url == P + name for every entry, if one exists."""
    if not files:
        return None
    prefix: Optional[str] = None
    for name, url in files:
        if not url.endswith(name):
            return None
        candidate = url[: len(url) - len(name)]
        if prefix is None:
            prefix = candidate
        elif prefix != candidate:
            return None
    return prefix or None


# --- resolver implementations

EventsQuery = Callable[[str, int, int, str], list[tuple[bytes, Optional[EventFields]]]]
UserFetch = Callable[[str, bytes], tuple[str, str]]


def fetch_events(
    address: str, start: int, end: int, tag: str
) -> list[tuple[bytes, Optional[EventFields]]]:
    """The events query over the wire (EVENTS): its specs arrive undecoded,
    within the timeout of the resolution that asks."""
    return [(spec, None) for spec in wire.query_events(address, start, end, tag)]


class EmptyNamespaceResolver:
    """For resources that name nothing (strings, single files)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def resolve_local(self, local: LocalName) -> tuple[ResourceDescription, Validity]:
        raise NotBoundError(local.primary, f"a {self.kind} names no other resources")


class FileCollectionResolver:
    """Maps any token to a file by prepending the collection's URL prefix."""

    def __init__(self, url_prefix: str, clock: Clock) -> None:
        self.url_prefix = url_prefix
        self.clock = clock

    def resolve_local(self, local: LocalName) -> tuple[ResourceDescription, Validity]:
        description = file_description(self.url_prefix + local.primary)
        return description, validity_from_duration(self.clock(), STATIC_TTL_MS)


class FileSetResolver:
    """Maps explicitly listed file names to their URLs."""

    def __init__(self, files: dict[str, str], clock: Clock) -> None:
        self.files = files
        self.clock = clock

    def resolve_local(self, local: LocalName) -> tuple[ResourceDescription, Validity]:
        url = self.files.get(local.primary)
        if url is None:
            raise NotBoundError(local.primary, "not in this file set")
        return file_description(url), validity_from_duration(self.clock(), STATIC_TTL_MS)


class EventResolver:
    """Resolves names from an event by interpreting its static data.

    One is built on every event step, so it leaves userdb_address to
    build_registry, whose resolvers build it, to check once.
    """

    def __init__(self, fields: EventFields, clock: Clock, userdb_address: Optional[str]) -> None:
        self.fields = fields
        self.clock = clock
        self.userdb_address = userdb_address

    def resolve_local(self, local: LocalName) -> StepResult:
        validity = validity_from_duration(self.clock(), STATIC_TTL_MS)
        if local.primary == "moderator":
            if self.userdb_address is None:
                raise NotBoundError(local.primary, "no user database configured")
            user = (self.userdb_address, self.fields.moderator)
            return _user_description(*user), validity, user
        if local.primary == "location":
            # A stored literal: its type's factory decodes it.
            return self.fields.location, validity
        if local.primary == "files":
            files = self.fields.files
            prefix = files_common_prefix(files)
            if prefix is not None:
                return file_collection_description(prefix), validity, prefix
            return file_set_description(files), validity, dict(files)
        raise NotBoundError(local.primary, "events bind moderator, location and files")


class UserResolver:
    """Separate resolution code for users: fetch the record, map names.

    The user database itself has no resolution support; this resolver
    queries it for the record and interprets the fields.
    """

    def __init__(
        self, userdb_address: str, user_id: bytes, clock: Clock, fetch: UserFetch
    ) -> None:
        self.userdb_address = userdb_address
        self.user_id = user_id
        self.clock = clock
        self.fetch = fetch

    def resolve_local(self, local: LocalName) -> StepResult:
        if local.primary not in ("email", "files"):
            raise NotBoundError(local.primary, "users bind email and files")
        email, fileprefix = self.fetch(self.userdb_address, self.user_id)
        validity = validity_from_duration(self.clock(), USER_TTL_MS)
        if local.primary == "email":
            return string_description(email), validity
        return file_collection_description(fileprefix), validity, fileprefix


class TimePeriodResolver:
    """Maps a tag to the first event in the period carrying that tag.

    Events are ordered by start instant, ties broken by event id; the
    query source already returns them in that order.  An event the source
    answers undecoded (another calendar's, over the wire) is decoded here,
    which checks it even when the name ends at it; the step hands the
    fields on either way.
    """

    def __init__(
        self, server_address: str, start: int, end: int, clock: Clock, query: EventsQuery
    ) -> None:
        self.server_address = server_address
        self.start = start
        self.end = end
        self.clock = clock
        self.query = query

    def resolve_local(self, local: LocalName) -> StepResult:
        found = self.query(self.server_address, self.start, self.end, local.primary)
        if not found:
            raise NotBoundError(local.primary, "no event in the period carries this tag")
        spec, event = found[0]
        event = event or parse_event_spec(spec)
        # The mapping can only change once the event begins; never issue
        # for less than the floor.
        now = self.clock()
        expires_at = max(event.start, now + PERIOD_TAG_MIN_TTL_MS)
        return _describe(EVENT_TYPE, spec), Validity(expires_at), event


class CalendarResolver:
    """Native calendar namespace: period names to time periods."""

    def __init__(self, server_address: str, clock: Clock) -> None:
        wire.parse_address(server_address)
        self.server_address = server_address
        self.clock = clock

    def resolve_local(self, local: LocalName) -> StepResult:
        bounds = period_bounds(local.primary, self.clock())
        if bounds is None:
            raise NotBoundError(local.primary, f"calendars bind {', '.join(PERIOD_NAMES)}")
        start, end = bounds
        # The mapping from the period name drifts when the period ends.
        period = (self.server_address, start, end)
        return _time_period_description(*period), Validity(end), period


class LocationStateResolver:
    """Native occupant binding, backed by live occupancy state.

    Multiple occupants resolve to the earliest arrival; an empty
    location leaves the name unbound.
    """

    def __init__(
        self,
        occupants: Callable[[], list[bytes]],
        userdb_address: str,
        clock: Clock,
    ) -> None:
        wire.parse_address(userdb_address)
        self.occupants = occupants
        self.userdb_address = userdb_address
        self.clock = clock

    def resolve_local(self, local: LocalName) -> StepResult:
        if local.primary != "occupant":
            raise NotBoundError(local.primary, "locations bind occupant")
        present = self.occupants()
        if not present:
            raise NotBoundError(local.primary, "location is empty")
        user = (self.userdb_address, present[0])
        return _user_description(*user), validity_from_duration(self.clock(), OCCUPANT_TTL_MS), user


# --- pretty-printers for the command line

def _pretty_string(spec: bytes) -> str:
    return f'string "{_decode_utf8(spec, STRING_TYPE)}"'


def _pretty_file(spec: bytes) -> str:
    return f"file {_decode_url(spec, FILE_TYPE)}"


def _pretty_collection(spec: bytes) -> str:
    return f"file collection with prefix {_decode_url(spec, FILE_COLLECTION_TYPE)}"


def _pretty_file_set(spec: bytes) -> str:
    files = parse_file_set_spec(spec)
    return f"file set of {len(files)}: {', '.join(sorted(files))}"


def _pretty_addr_id(owner_type: bytes, wording: str, spec: bytes) -> str:
    # For the "host:port <id>" types; wording holds {id} and {address}.
    address, entity_id = wire.parse_addr_id_spec(spec, owner_type)
    return wording.format(id=entity_id.hex(), address=address)


_pretty_user = functools.partial(_pretty_addr_id, USER_TYPE, "user {id} in database at {address}")


def _pretty_calendar(spec: bytes) -> str:
    return f"calendar at {parse_calendar_spec(spec)}"


def _pretty_time_period(spec: bytes) -> str:
    address, start, end = parse_time_period_spec(spec)
    return f"time period [{start}, {end}) on calendar at {address}"


def _pretty_event(spec: bytes) -> str:
    fields = parse_event_spec(spec)
    tags = ",".join(fields.tags) or "untagged"
    return f"event tagged {tags}, start={fields.start}, end={fields.end}"


def build_registry(
    clock: Clock = system_clock,
    userdb_address: Optional[str] = None,
    *,
    events_query: EventsQuery = fetch_events,
    user_fetch: Optional[UserFetch] = None,
) -> TypeRegistry:
    """Registry with every sample type plus the remote proxy type.

    userdb_address is deployment knowledge the event type needs: event
    data carries only the moderator's identifier, not where user records
    live.  events_query and user_fetch default to wire queries and exist
    so servers can short-circuit lookups into their own state (and tests
    can avoid sockets); a calendar server's query answers its events with
    the fields it encoded at start-up.  Each type a step hands on to
    registers, beside its factory, the constructor the factory calls after
    decoding (TypeRegistry.build), so a handed-on resolver gets this
    registry's clock, userdb_address, events_query and user_fetch.  The
    registry sets no timeout: each wire request its resolvers make has
    that of the resolution it is a step of (ResolveContext.timeout), so
    one registry serves requests with different limits.
    """
    if userdb_address is not None:
        wire.parse_address(userdb_address)
    if user_fetch is None:  # looked up as this runs: a wrapper put on it after import is used
        user_fetch = wire.get_user

    registry = TypeRegistry()

    # The constructors of the types whose steps hand on what a spec
    # decodes to; each factory below decodes, then calls its type's.
    def time_period_resolver(period: tuple[str, int, int]) -> TimePeriodResolver:
        return TimePeriodResolver(*period, clock, events_query)

    def event_resolver(fields: EventFields) -> EventResolver:
        return EventResolver(fields, clock, userdb_address)

    def user_resolver(user: tuple[str, bytes]) -> UserResolver:
        return UserResolver(*user, clock, user_fetch)

    def collection_resolver(url_prefix: str) -> FileCollectionResolver:
        return FileCollectionResolver(url_prefix, clock)

    def file_set_resolver(files: dict[str, str]) -> FileSetResolver:
        return FileSetResolver(files, clock)

    def string_factory(spec: bytes) -> EmptyNamespaceResolver:
        _decode_utf8(spec, STRING_TYPE)
        return EmptyNamespaceResolver("string")

    def file_factory(spec: bytes) -> EmptyNamespaceResolver:
        _decode_url(spec, FILE_TYPE)
        return EmptyNamespaceResolver("file")

    def collection_factory(spec: bytes) -> FileCollectionResolver:
        return collection_resolver(_decode_url(spec, FILE_COLLECTION_TYPE))

    def file_set_factory(spec: bytes) -> FileSetResolver:
        return file_set_resolver(parse_file_set_spec(spec))

    def proxy_factory(owner_type: bytes) -> Callable[[bytes], wire.RemoteResolver]:
        # "host:port <id>" names a resource its element resolves natively.
        def factory(spec: bytes) -> wire.RemoteResolver:
            address, resource_id = wire.parse_addr_id_spec(spec, owner_type)
            return wire.RemoteResolver(address, resource_id)

        return factory

    def calendar_factory(spec: bytes) -> wire.RemoteResolver:
        return wire.RemoteResolver(parse_calendar_spec(spec), CALENDAR_RESOURCE_ID)

    def time_period_factory(spec: bytes) -> TimePeriodResolver:
        return time_period_resolver(parse_time_period_spec(spec))

    def event_factory(spec: bytes) -> EventResolver:
        return event_resolver(parse_event_spec(spec))

    def user_factory(spec: bytes) -> UserResolver:
        return user_resolver(wire.parse_addr_id_spec(spec, USER_TYPE))

    registry.register(STRING_TYPE, string_factory, usable=True, label="string", pretty=_pretty_string)
    registry.register(FILE_TYPE, file_factory, usable=True, label="file", pretty=_pretty_file)
    registry.register(CALENDAR_TYPE, calendar_factory, label="calendar", pretty=_pretty_calendar)
    for owner_type, label, factory, build, pretty in (
        (FILE_COLLECTION_TYPE, "file-collection", collection_factory, collection_resolver, _pretty_collection),
        (FILE_SET_TYPE, "file-set", file_set_factory, file_set_resolver, _pretty_file_set),
        (TIME_PERIOD_TYPE, "time-period", time_period_factory, time_period_resolver, _pretty_time_period),
        (EVENT_TYPE, "event", event_factory, event_resolver, _pretty_event),
        (USER_TYPE, "user", user_factory, user_resolver, _pretty_user),
    ):
        registry.register(owner_type, factory, label=label, pretty=pretty, build=build)
    for owner_type, label, wording in (
        (LOCATION_TYPE, "location", "location {id} managed at {address}"),
        (wire.REMOTE_TYPE, "remote", "remote resource {id} at {address}"),
    ):
        pretty = functools.partial(_pretty_addr_id, owner_type, wording)
        registry.register(owner_type, proxy_factory(owner_type), label=label, pretty=pretty)
    return registry
