"""The networked elements: user database, location manager, calendar server.

All three speak the same line protocol but expose different verbs:

    user database     GETUSER only.  It has no resolution support; the
                      user type's client-side resolver interprets the
                      record it returns.
    location manager  RESOLVE, OCCUPANCY, SETOCC.  Resolves names for
                      the locations it manages natively.
    calendar server   RESOLVE, EVENTS.  Hosts one calendar (resource id
                      all zeros) and resolves names from it natively,
                      recursing across servers when a chain demands it.

Each server runs one thread per connection and handles the requests on
a connection sequentially; shared state (occupancy, per-verb counters)
sits behind locks so concurrent connections interleave safely.
"""

from __future__ import annotations

import logging
import socketserver
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import kit, wire
from .config import DeploymentConfig
from .names import NameSyntaxError, parse_name
from .resolver import (
    Clock,
    DepthExceededError,
    NotBoundError,
    ResolveContext,
    Resolver,
    TransportError,
    UnknownTypeError,
    resolve,
    system_clock,
)
from .resources import MalformedSpecError

log = logging.getLogger(__name__)

_POLL_INTERVAL_S = 0.05  # how often a server thread checks for shutdown


@dataclass
class StoredEvent:
    event_id: bytes
    fields: kit.EventFields
    spec: bytes = field(init=False)

    def __post_init__(self) -> None:
        self.spec = kit.encode_event_spec(self.fields)


class _LineHandler(socketserver.StreamRequestHandler):
    timeout = 60  # idle persistent connections are shed

    def handle(self) -> None:
        server: RoleServer = self.server  # type: ignore[assignment]
        while True:
            try:
                raw = self.rfile.readline(wire.MAX_LINE_BYTES + 1)
            except (OSError, ValueError):
                return
            if not raw:
                return
            if not raw.endswith(b"\n"):
                if len(raw) > wire.MAX_LINE_BYTES:
                    self._reply([wire.error_line("BADREQ", "request line too long")])
                return
            try:
                line = raw[:-1].decode("utf-8")
            except UnicodeDecodeError:
                self._reply([wire.error_line("BADREQ", "request is not UTF-8")])
                return
            try:
                responses = server.process_line(line)
            except Exception:  # defensive: never kill the connection loop
                log.exception("unhandled error processing %r", line)
                responses = [wire.error_line("INTERNAL", "unhandled error")]
            if not self._reply(responses):
                return

    def _reply(self, lines: list[str]) -> bool:
        try:
            payload = "".join(line + "\n" for line in lines).encode("utf-8")
            self.wfile.write(payload)
            self.wfile.flush()
            return True
        except OSError:
            return False


class RoleServer(socketserver.ThreadingTCPServer):
    """Shared plumbing: line dispatch, per-verb counters, injected clock."""

    allow_reuse_address = True
    daemon_threads = True
    role = "?"

    def __init__(self, listen: tuple[str, int], clock: Clock = system_clock) -> None:
        super().__init__(listen, _LineHandler)
        self.clock = clock
        self.stats: Counter[str] = Counter()
        self._stats_lock = threading.Lock()
        self._state_lock = threading.RLock()
        self._handlers = self._verbs()

    @property
    def address(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return wire.format_address(host, port)

    def request_count(self, verb: Optional[str] = None) -> int:
        with self._stats_lock:
            if verb is None:
                return sum(self.stats.values())
            return self.stats[verb]

    def _verbs(self) -> dict[str, Callable[[str], list[str]]]:
        raise NotImplementedError

    def process_line(self, line: str) -> list[str]:
        verb, _, rest = line.partition(" ")
        handler = self._handlers.get(verb)
        # Unsupported verbs share one counter, so hostile input cannot
        # grow the table.
        with self._stats_lock:
            self.stats[verb if handler is not None else "?"] += 1
        if handler is None:
            return [wire.error_line("BADREQ", f"unsupported verb {verb or '?'}")]
        try:
            return handler(rest)
        except NameSyntaxError as exc:
            return [wire.error_line("BADREQ", f"bad name: {exc}")]
        except NotBoundError as exc:
            return [wire.error_line("NOTBOUND", exc.local)]
        except UnknownTypeError as exc:
            return [wire.error_line("UNKNOWNTYPE", exc.type_id.hex())]
        except DepthExceededError as exc:
            return [wire.error_line("DEPTH", str(exc.max_depth or ""))]
        except TransportError as exc:
            return [wire.error_line("INTERNAL", f"upstream failure: {exc.detail}")]
        except MalformedSpecError as exc:
            return [wire.error_line("INTERNAL", f"malformed specification: {exc.reason}")]
        except ValueError as exc:
            return [wire.error_line("BADREQ", str(exc))]

    # RESOLVE, shared by the roles that resolve natively

    def _handle_resolve(self, rest: str) -> list[str]:
        id_hex, sep, name_text = rest.partition(" ")
        if not sep:
            return [wire.error_line("BADREQ", "expected RESOLVE <resource-id> <name>")]
        initial = self._initial_for(wire.parse_entity_id(id_hex, "resource id"))
        if initial is None:
            return [wire.error_line("NOTFOUND", id_hex)]
        ctx = ResolveContext(registry=self.registry, initial=initial, clock=self.clock)
        return [wire.format_ok_resolution(resolve(ctx, parse_name(name_text)))]

    def _initial_for(self, resource_id: bytes) -> Optional[Resolver]:
        """Resolver for a resource hosted here, or None if there is none."""
        return None


class UserDatabase(RoleServer):
    """Indexes user records by identifier; no naming support at all."""

    role = "userdb"

    def __init__(
        self,
        listen: tuple[str, int],
        users: dict[bytes, tuple[str, str]],
        clock: Clock = system_clock,
    ) -> None:
        super().__init__(listen, clock)
        self.users = dict(users)

    def _verbs(self):
        return {"GETUSER": self._handle_getuser}

    def _handle_getuser(self, rest: str) -> list[str]:
        user_id = wire.parse_entity_id(rest.strip(), "user id")
        with self._state_lock:
            record = self.users.get(user_id)
        if record is None:
            return [wire.error_line("NOTFOUND")]
        email, fileprefix = record
        return [f"OK {email} {fileprefix}"]


class LocationManager(RoleServer):
    """Tracks who is where and resolves names for its locations natively."""

    role = "location"

    def __init__(
        self,
        listen: tuple[str, int],
        occupancy: dict[bytes, list[bytes]],
        userdb_address: str,
        clock: Clock = system_clock,
        timeout: float = wire.DEFAULT_TIMEOUT,
    ) -> None:
        super().__init__(listen, clock)
        self.occupancy = {loc: list(users) for loc, users in occupancy.items()}
        self.userdb_address = userdb_address
        self.registry = kit.build_registry(clock, userdb_address, timeout=timeout)

    def _verbs(self):
        return {
            "RESOLVE": self._handle_resolve,
            "OCCUPANCY": self._handle_occupancy,
            "SETOCC": self._handle_setocc,
        }

    def _occupants_of(self, location_id: bytes) -> Callable[[], list[bytes]]:
        def snapshot() -> list[bytes]:
            with self._state_lock:
                return list(self.occupancy[location_id])

        return snapshot

    def _initial_for(self, resource_id: bytes) -> Optional[Resolver]:
        with self._state_lock:
            if resource_id not in self.occupancy:
                return None
        return kit.LocationStateResolver(
            self._occupants_of(resource_id), self.userdb_address, self.clock
        )

    def _handle_occupancy(self, rest: str) -> list[str]:
        location_id = wire.parse_entity_id(rest.strip(), "location id")
        with self._state_lock:
            users = self.occupancy.get(location_id)
        if users is None:
            return [wire.error_line("NOTFOUND", rest.strip())]
        return [" ".join(["OK", str(len(users))] + [u.hex() for u in users])]

    def _handle_setocc(self, rest: str) -> list[str]:
        parts = rest.split(" ") if rest else []
        if len(parts) < 2:
            return [wire.error_line("BADREQ", "expected SETOCC <location-id> <n> <user-id>*")]
        location_id = wire.parse_entity_id(parts[0], "location id")
        try:
            count = int(parts[1])
        except ValueError:
            return [wire.error_line("BADREQ", "occupant count must be an integer")]
        ids = [wire.parse_entity_id(p, "user id") for p in parts[2:]]
        if len(ids) != count:
            return [wire.error_line("BADREQ", "occupant count does not match id list")]
        with self._state_lock:
            if location_id not in self.occupancy:
                return [wire.error_line("NOTFOUND", parts[0])]
            self.occupancy[location_id] = ids
        return ["OK"]


class CalendarServer(RoleServer):
    """Hosts one calendar and its events; resolves names for it natively."""

    role = "calendar"

    def __init__(
        self,
        listen: tuple[str, int],
        events: list[StoredEvent],
        advertised: Optional[str],
        userdb_address: str,
        clock: Clock = system_clock,
        timeout: float = wire.DEFAULT_TIMEOUT,
    ) -> None:
        super().__init__(listen, clock)
        self.events = list(events)
        self.advertised = advertised or self.address
        self.userdb_address = userdb_address
        # Time periods minted by this calendar point back at it; resolve
        # them against local state instead of a loopback wire call.
        self.registry = kit.build_registry(
            clock, userdb_address, timeout=timeout, events_query=self._events_query
        )

    def _verbs(self):
        return {"RESOLVE": self._handle_resolve, "EVENTS": self._handle_events}

    def query_local(self, start: int, end: int, tag: str) -> list[bytes]:
        with self._state_lock:
            rows = [
                (ev.fields.start, ev.event_id, ev.spec)
                for ev in self.events
                if tag in ev.fields.tags and start <= ev.fields.start < end
            ]
        rows.sort()
        return [spec for _, _, spec in rows]

    def _events_query(self, address: str, start: int, end: int, tag: str) -> list[bytes]:
        if address == self.advertised:
            return self.query_local(start, end, tag)
        return wire.query_events(address, start, end, tag)

    def _initial_for(self, resource_id: bytes) -> Optional[Resolver]:
        if resource_id != kit.CALENDAR_RESOURCE_ID:
            return None
        return kit.CalendarResolver(self.advertised, self.clock)

    def _handle_events(self, rest: str) -> list[str]:
        parts = rest.split(" ")
        if len(parts) != 3:
            return [wire.error_line("BADREQ", "expected EVENTS <start-ms> <end-ms> <tag>")]
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            return [wire.error_line("BADREQ", "start and end must be integer milliseconds")]
        tag = parts[2]
        specs = self.query_local(start, end, tag)
        return [f"OK {len(specs)}"] + [wire.hex_field(spec) for spec in specs]


def serve(
    role: str,
    cfg: DeploymentConfig,
    listen: Optional[str] = None,
    clock: Clock = system_clock,
    timeout: float = wire.DEFAULT_TIMEOUT,
) -> RoleServer:
    """Construct (bind, do not run) the server for a role from config."""
    address_text = listen or cfg.addresses[role]
    listen_addr = wire.parse_address(address_text)
    if role == "userdb":
        users = {u.user_id: (u.email, u.fileprefix) for u in cfg.users.values()}
        return UserDatabase(listen_addr, users, clock=clock)
    if role == "location":
        occupancy = {
            loc.location_id: [cfg.users[a].user_id for a in loc.occupants]
            for loc in cfg.locations.values()
        }
        return LocationManager(
            listen_addr, occupancy, cfg.addresses["userdb"], clock=clock, timeout=timeout
        )
    if role == "calendar":
        events = [StoredEvent(e.event_id, cfg.event_fields(e)) for e in cfg.events.values()]
        return CalendarServer(
            listen_addr,
            events,
            advertised=cfg.addresses["calendar"],
            userdb_address=cfg.addresses["userdb"],
            clock=clock,
            timeout=timeout,
        )
    raise ValueError(f"unknown role {role!r} (expected userdb, location or calendar)")


def start_in_thread(server: RoleServer) -> threading.Thread:
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=_POLL_INTERVAL_S),
        name=f"{server.role}-server",
        daemon=True,
    )
    thread.start()
    return thread
