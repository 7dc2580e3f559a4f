"""Deployment configuration: users, locations, events, initial resources.

The file format is line-oriented UTF-8: ``[section]`` headers, ``key =
value`` assignments, ``#`` comments and blank lines.  Section kinds:

    [addresses]          userdb / location / calendar = host:port
    [user <alias>]       id = <32 hex>, email = <token>, files = <url prefix>
    [location <alias>]   id = <32 hex>, occupants = <user aliases, arrival order>
    [event <alias>]      id = <32 hex>, tags = <tokens>, moderator = <user alias>,
                         location = <location alias>, file.<name> = <url>,
                         start = <ms>, end = <ms>
    [calendar <alias>]   (no keys; the calendar server hosts all events)
    [initial <alias>]    resource = [<type-id hex> <spec hex>]

Aliases exist only in configuration; on the wire and in descriptions
everything is identified by the 16-byte ids.  Every cross-reference must
be defined, and malformed input is rejected with the offending line
number.

``_KEYS`` is the one table of the keys each aliased section kind takes:
the section-header check reads its kinds, and every aliased section is
checked from it the same way (unknown keys, then the alias, then each
key missing or repeated, in table order) before a short block per kind
checks the values.  ``format_config`` refuses (ConfigError) a
configuration that ``parse_config`` would not give back from its text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import kit, wire
from .names import NameSyntaxError, parse_resource_literal, serialize_resource_literal
from .resolver import MalformedSpecError
from .resources import ResourceDescription


class ConfigError(Exception):
    """Configuration is malformed or inconsistent."""

    def __init__(self, line: Optional[int], reason: str) -> None:
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class UserRecord:
    alias: str
    user_id: bytes
    email: str
    fileprefix: str


@dataclass(frozen=True)
class LocationRecord:
    alias: str
    location_id: bytes
    occupants: tuple[str, ...]  # user aliases, arrival order


@dataclass(frozen=True)
class EventRecord:
    alias: str
    event_id: bytes
    tags: tuple[str, ...]
    moderator: str  # user alias
    location: str  # location alias
    files: tuple[tuple[str, str], ...]
    start: int
    end: int


@dataclass
class DeploymentConfig:
    addresses: dict[str, str] = field(default_factory=dict)
    users: dict[str, UserRecord] = field(default_factory=dict)
    locations: dict[str, LocationRecord] = field(default_factory=dict)
    events: dict[str, EventRecord] = field(default_factory=dict)
    calendars: tuple[str, ...] = ()
    initials: dict[str, ResourceDescription] = field(default_factory=dict)

    def event_fields(self, record: EventRecord) -> kit.EventFields:
        """Static event data with aliases replaced by identifiers."""
        moderator = self.users[record.moderator].user_id
        location = self.locations[record.location]
        location_desc = kit.location_description(self.addresses["location"], location.location_id)
        return kit.EventFields(
            record.tags, moderator, location_desc, record.files, record.start, record.end
        )

    def initial_description(self, alias_or_literal: str) -> ResourceDescription:
        """Look up a configured initial resource, or parse a literal."""
        if alias_or_literal.startswith("["):
            return parse_resource_literal(alias_or_literal)
        try:
            return self.initials[alias_or_literal]
        except KeyError:
            known = ", ".join(sorted(self.initials)) or "none"
            raise ValueError(
                f"unknown initial resource {alias_or_literal!r} (configured: {known})"
            ) from None


_ROLES = ("userdb", "location", "calendar")

# Each aliased section kind: the keys it takes, in the order they are
# checked, each mapped to whether it is required; and the prefix of the
# keys it takes any number of (an event's file.<name>), if any.
_KEYS: dict[str, tuple[dict[str, bool], str]] = {
    "user": ({"id": True, "email": True, "files": True}, ""),
    "location": ({"id": True, "occupants": False}, ""),
    "event": (
        {"id": True, "tags": False, "moderator": True, "location": True, "start": True, "end": True},
        "file.",
    ),
    "calendar": ({}, ""),
    "initial": ({"resource": True}, ""),
}


def _parse_id(value: str, line: int, what: str) -> bytes:
    try:
        return wire.parse_entity_id(value, what)
    except ValueError as exc:
        raise ConfigError(line, str(exc)) from None


class _Section(NamedTuple):
    kind: str
    arg: str
    line: int
    items: list[tuple[str, str, int]]  # key, value, line


def parse_config(text: str) -> DeploymentConfig:
    sections: list[_Section] = []
    current: Optional[_Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(lineno, "unterminated section header")
            header = line[1:-1].strip()
            parts = header.split(None, 1)
            if not parts:
                raise ConfigError(lineno, "empty section header")
            kind = parts[0]
            arg = parts[1].strip() if len(parts) > 1 else ""
            if kind == "addresses":
                if arg:
                    raise ConfigError(lineno, "[addresses] takes no argument")
            elif kind not in _KEYS:
                raise ConfigError(lineno, f"unknown section kind {kind!r}")
            elif not arg:
                raise ConfigError(lineno, f"[{kind}] needs an alias")
            current = _Section(kind, arg, lineno, [])
            sections.append(current)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(lineno, "expected 'key = value'")
        if current is None:
            raise ConfigError(lineno, "assignment before any section header")
        current.items.append((key.strip(), value.strip(), lineno))

    cfg = DeploymentConfig()
    calendars: list[str] = []
    aliases: set[tuple[str, str]] = set()
    for kind, alias, section_line, items in sections:
        if kind == "addresses":
            for key, value, line in items:
                if key not in _ROLES:
                    raise ConfigError(line, f"unknown role {key!r} (expected one of {_ROLES})")
                if key in cfg.addresses:
                    raise ConfigError(line, f"duplicate address for role {key!r}")
                try:
                    wire.parse_address(value)
                except ValueError as exc:
                    raise ConfigError(line, str(exc)) from None
                cfg.addresses[key] = value
            continue
        # Unknown keys, the alias, each key in table order, repeated
        # prefixed keys; then the block for the kind checks the values.
        keys, prefix = _KEYS[kind]
        found: dict[str, tuple[str, int]] = {}
        repeated: dict[str, int] = {}
        for key, value, line in items:
            if key not in keys and not (prefix and key.startswith(prefix)):
                reason = f"unknown key {key!r} in [{kind}] section"
                raise ConfigError(line, reason if keys else "[calendar] sections take no keys")
            if key in found:
                repeated.setdefault(key, line)
            else:
                found[key] = (value, line)
        if (kind, alias) in aliases:
            raise ConfigError(section_line, f"duplicate {kind} alias {alias!r}")
        aliases.add((kind, alias))
        for key, required in keys.items():
            if key in repeated:
                raise ConfigError(repeated[key], f"duplicate key {key!r}")
            if key not in found:
                if required:
                    raise ConfigError(section_line, f"[{kind} {alias}] is missing {key!r}")
                found[key] = ("", section_line)
        for key, line in repeated.items():  # only prefixed keys are left
            raise ConfigError(line, f"duplicate file name {key[len(prefix):]!r}")
        if kind == "user":
            email, email_line = found["email"]
            files, files_line = found["files"]
            if not email or any(c.isspace() for c in email):
                raise ConfigError(email_line, "email must be non-empty and whitespace-free")
            if not files or any(c.isspace() for c in files):
                raise ConfigError(files_line, "files must be a whitespace-free URL prefix")
            cfg.users[alias] = UserRecord(alias, _parse_id(*found["id"], "user id"), email, files)
        elif kind == "location":
            cfg.locations[alias] = LocationRecord(
                alias, _parse_id(*found["id"], "location id"), tuple(found["occupants"][0].split())
            )
        elif kind == "event":
            (start_text, start_line), (end_text, end_line) = found["start"], found["end"]
            try:
                start = wire.parse_int(start_text, signed=True)
                end = wire.parse_int(end_text, signed=True)
            except ValueError:
                raise ConfigError(start_line, "start and end must be integer milliseconds") from None
            if start >= end:
                raise ConfigError(end_line, "event start must precede end")
            cfg.events[alias] = EventRecord(
                alias,
                _parse_id(*found["id"], "event id"),
                tuple(found["tags"][0].split()),
                found["moderator"][0],
                found["location"][0],
                tuple((key[len(prefix):], v) for key, (v, _) in found.items() if key not in keys),
                start,
                end,
            )
        elif kind == "calendar":
            calendars.append(alias)
        elif kind == "initial":
            literal, line = found["resource"]
            try:
                cfg.initials[alias] = parse_resource_literal(literal)
            except NameSyntaxError as exc:
                raise ConfigError(line, f"bad resource literal: {exc}") from None
    cfg.calendars = tuple(calendars)
    _validate(cfg, sections)
    return cfg


def _validate(cfg: DeploymentConfig, sections: list[_Section]) -> None:
    section_line = {("%s %s" % (s.kind, s.arg)).strip(): s.line for s in sections}
    for role in _ROLES:
        if role not in cfg.addresses:
            raise ConfigError(None, f"missing address for role {role!r}")
    for kind, records in (
        ("user", cfg.users.values()),
        ("location", cfg.locations.values()),
        ("event", cfg.events.values()),
    ):
        seen: dict[bytes, str] = {}
        for record in records:
            entity_id = getattr(record, f"{kind}_id")
            if entity_id in seen:
                raise ConfigError(
                    section_line.get(f"{kind} {record.alias}"),
                    f"{kind} {record.alias!r} reuses the id of {seen[entity_id]!r}",
                )
            seen[entity_id] = record.alias
    for location in cfg.locations.values():
        for occupant in location.occupants:
            if occupant not in cfg.users:
                raise ConfigError(
                    section_line.get(f"location {location.alias}"),
                    f"location {location.alias!r} lists undefined user {occupant!r}",
                )
    for event in cfg.events.values():
        line = section_line.get(f"event {event.alias}")
        if event.moderator not in cfg.users:
            raise ConfigError(line, f"event {event.alias!r} names undefined user {event.moderator!r}")
        if event.location not in cfg.locations:
            raise ConfigError(
                line, f"event {event.alias!r} names undefined location {event.location!r}"
            )
        # Encode what the calendar will serve: the encoder refuses a bad
        # tag or file entry now rather than at resolution time.
        try:
            kit.encode_event_spec(cfg.event_fields(event))
        except MalformedSpecError as exc:
            raise ConfigError(line, f"event {event.alias!r}: {exc.reason}") from None


def load_config(path: str) -> DeploymentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def format_config(cfg: DeploymentConfig) -> str:
    """The text of `cfg`, refusing (ConfigError) a configuration that
    parse_config would not give back from it."""
    out = ["[addresses]"]
    for role in _ROLES:
        if role in cfg.addresses:
            out.append(f"{role} = {cfg.addresses[role]}")
    for user in cfg.users.values():
        out += [
            "",
            f"[user {user.alias}]",
            f"id = {user.user_id.hex()}",
            f"email = {user.email}",
            f"files = {user.fileprefix}",
        ]
    for location in cfg.locations.values():
        out += [
            "",
            f"[location {location.alias}]",
            f"id = {location.location_id.hex()}",
            f"occupants = {' '.join(location.occupants)}",
        ]
    for event in cfg.events.values():
        out += [
            "",
            f"[event {event.alias}]",
            f"id = {event.event_id.hex()}",
            f"tags = {' '.join(event.tags)}",
            f"moderator = {event.moderator}",
            f"location = {event.location}",
        ]
        out += [f"file.{name} = {url}" for name, url in event.files]
        out += [f"start = {event.start}", f"end = {event.end}"]
    for calendar in cfg.calendars:
        out += ["", f"[calendar {calendar}]"]
    for alias, description in cfg.initials.items():
        out += ["", f"[initial {alias}]", f"resource = {serialize_resource_literal(description)}"]
    text = "\n".join(out) + "\n"
    try:
        same = parse_config(text) == cfg
    except ConfigError as exc:
        raise ConfigError(None, f"the text written would not load back: {exc}") from None
    if not same:
        raise ConfigError(None, "the text written would load back as a different configuration")
    return text


def demo_deployment(addresses: dict[str, str], now: int) -> DeploymentConfig:
    """The evaluation deployment: two users, two rooms, meetings today.

    Events exist for both today and tomorrow so a run that straddles
    midnight still finds a meeting in whatever "today" has become.
    """
    day_start, day_end = kit.day_bounds(now)
    alice = UserRecord("alice", bytes(range(0, 16)), "alice@example.org", "http://files.example.net/alice/")
    bob = UserRecord("bob", bytes(range(16, 32)), "bob@example.org", "http://files.example.net/bob/")
    room101 = LocationRecord("room101", bytes(range(32, 48)), ("alice",))
    room102 = LocationRecord("room102", bytes(range(48, 64)), ())
    standup_files = (
        ("agenda.txt", "http://files.example.net/standup/agenda.txt"),
        ("notes.txt", "http://files.example.net/standup/notes.txt"),
    )
    events = {
        "standup": EventRecord(
            "standup", bytes(range(64, 80)), ("meeting", "weekly"), "alice", "room101",
            standup_files, day_start, day_start + 3_600_000,
        ),
        "review": EventRecord(
            "review", bytes(range(80, 96)), ("meeting",), "bob", "room102",
            (), day_start + 7_200_000, day_start + 10_800_000,
        ),
        "standup-next": EventRecord(
            "standup-next", bytes(range(96, 112)), ("meeting", "weekly"), "alice", "room101",
            standup_files, day_end, day_end + 3_600_000,
        ),
    }
    cfg = DeploymentConfig(
        addresses=dict(addresses),
        users={"alice": alice, "bob": bob},
        locations={"room101": room101, "room102": room102},
        events=events,
        calendars=("main",),
    )
    cfg.initials = {
        "calendar": wire.remote_description(addresses["calendar"], kit.CALENDAR_RESOURCE_ID),
        "location": wire.remote_description(addresses["location"], room101.location_id),
    }
    return cfg
