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
                      Each event is encoded once, when it is stored,
                      and ordered once, at start-up; an event its
                      encoder refuses is refused then.

Each server runs one thread per connection and handles the requests on
a connection sequentially; shared state (occupancy, per-verb counters)
sits behind locks so concurrent connections interleave safely.  A
handler reads and answers through ``wire.LineConnection``: one recv()
per read and one send per answer on a blocking socket, which the kernel
sheds after 60 s without a request (``_LineHandler.timeout``).  A line
over ``wire.MAX_LINE_BYTES`` or not UTF-8 gets BADREQ, then the
connection closes.

A server that resolves builds the context of each resource it hosts
once, when it is built; a RESOLVE only looks it up.  Those initial
resolvers hold no per-request state and read occupancy when they run.
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
from .names import parse_name
from .resolver import Clock, ResolveContext, resolve, system_clock

log = logging.getLogger(__name__)

_POLL_INTERVAL_S = 0.05  # how often a server thread checks for shutdown


@dataclass
class StoredEvent:
    """An event as its calendar serves it: its fields and their spec bytes.

    spec is encoded once, here, and decodes to fields; fields the encoder
    refuses raise MalformedSpecError.
    """

    event_id: bytes
    fields: kit.EventFields
    spec: bytes = field(init=False)

    def __post_init__(self) -> None:
        self.spec = kit.encode_event_spec(self.fields)


class _LineHandler(socketserver.BaseRequestHandler):
    timeout = 60  # idle persistent connections are shed

    def handle(self) -> None:
        server: RoleServer = self.server  # type: ignore[assignment]
        conn = wire.LineConnection(self.request, self.timeout)
        while True:
            try:
                line = conn.read_line()
            except wire.BadLine as exc:
                self._reply(conn, [wire.error_line("BADREQ", f"request {exc}")])
                return
            except OSError:  # EOF, reset, or idle past the timeout
                return
            try:
                responses = server.process_line(line)
            except Exception:  # defensive: never kill the connection loop
                log.exception("unhandled error processing %r", line)
                responses = [wire.error_line("INTERNAL", "unhandled error")]
            if not self._reply(conn, responses):
                return

    @staticmethod
    def _reply(conn: wire.LineConnection, lines: list[str]) -> bool:
        try:
            conn.send_lines(lines)
            return True
        except OSError:
            return False


class RoleServer(socketserver.ThreadingTCPServer):
    """Shared plumbing: line dispatch, per-verb counters."""

    allow_reuse_address = True
    daemon_threads = True
    role = "?"
    # Roles that speak RESOLVE: the resources they resolve from, keyed by
    # the id as a RESOLVE line writes it (32 lowercase hex digits).
    hosted: dict[str, ResolveContext]

    def __init__(self, listen: tuple[str, int]) -> None:
        super().__init__(listen, _LineHandler)
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
        except wire.REPORTED_ERRORS as exc:
            return [wire.error_reply(exc)]

    # RESOLVE, shared by the roles that resolve natively

    def _handle_resolve(self, rest: str) -> list[str]:
        id_hex, sep, name_text = rest.partition(" ")
        if not sep:
            return [wire.error_line("BADREQ", "expected RESOLVE <resource-id> <name>")]
        ctx = self.hosted.get(id_hex)
        if ctx is None:
            wire.parse_entity_id(id_hex, "resource id")  # BADREQ if malformed
            return [wire.error_line("NOTFOUND", id_hex)]
        return [wire.format_ok_resolution(resolve(ctx, parse_name(name_text)))]


class UserDatabase(RoleServer):
    """Indexes user records by identifier; no naming support at all."""

    role = "userdb"

    def __init__(self, listen: tuple[str, int], users: dict[bytes, tuple[str, str]]) -> None:
        super().__init__(listen)
        self.users = dict(users)

    def _verbs(self):
        return {"GETUSER": self._handle_getuser}

    def _handle_getuser(self, rest: str) -> list[str]:
        user_id = wire.parse_entity_id(rest, "user id")
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
    ) -> None:
        super().__init__(listen)
        self.occupancy = {loc: list(users) for loc, users in occupancy.items()}
        self.registry = kit.build_registry(clock, userdb_address)
        self.hosted = {
            location_id.hex(): ResolveContext(
                self.registry,
                kit.LocationStateResolver(self._occupants_of(location_id), userdb_address, clock),
                clock,
            )
            for location_id in self.occupancy
        }

    def _verbs(self):
        return {
            "RESOLVE": self._handle_resolve,
            "OCCUPANCY": self._handle_occupancy,
            "SETOCC": self._handle_setocc,
        }

    def _occupants_of(self, location_id: bytes) -> Callable[[], list[bytes]]:
        def snapshot() -> list[bytes]:
            # SETOCC replaces a location's list and never changes one in
            # place, so the list itself is a snapshot.
            with self._state_lock:
                return self.occupancy[location_id]

        return snapshot

    def _handle_occupancy(self, rest: str) -> list[str]:
        location_id = wire.parse_entity_id(rest, "location id")
        with self._state_lock:
            users = self.occupancy.get(location_id)
        if users is None:
            return [wire.error_line("NOTFOUND", rest)]
        return ["OK " + wire.format_id_list(users)]

    def _handle_setocc(self, rest: str) -> list[str]:
        location_hex, *id_list = rest.split(" ")
        location_id = wire.parse_entity_id(location_hex, "location id")
        ids = wire.parse_id_list(id_list)
        with self._state_lock:
            if location_id not in self.occupancy:
                return [wire.error_line("NOTFOUND", location_hex)]
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
    ) -> None:
        super().__init__(listen)
        # Ordered once, as every query answers them; no verb writes events.
        self.events = sorted(events, key=lambda ev: (ev.fields.start, ev.event_id, ev.spec))
        self.advertised = advertised or self.address
        # Time periods minted by this calendar point back at it; resolve
        # them against local state instead of a loopback wire call, from
        # the fields the events were stored with.
        self.registry = kit.build_registry(clock, userdb_address, events_query=self._events_query)
        self.hosted = {
            kit.CALENDAR_RESOURCE_ID.hex(): ResolveContext(
                self.registry, kit.CalendarResolver(self.advertised, clock), clock
            )
        }

    def _verbs(self):
        return {"RESOLVE": self._handle_resolve, "EVENTS": self._handle_events}

    def query_local(self, start: int, end: int, tag: str) -> list[StoredEvent]:
        return [ev for ev in self.events if tag in ev.fields.tags and start <= ev.fields.start < end]

    def _events_query(
        self, address: str, start: int, end: int, tag: str
    ) -> list[tuple[bytes, Optional[kit.EventFields]]]:
        if address == self.advertised:
            return [(ev.spec, ev.fields) for ev in self.query_local(start, end, tag)]
        return kit.fetch_events(address, start, end, tag)

    def _handle_events(self, rest: str) -> list[str]:
        parts = rest.split(" ")
        if len(parts) != 3:
            return [wire.error_line("BADREQ", "expected EVENTS <start-ms> <end-ms> <tag>")]
        try:
            start = wire.parse_int(parts[0], signed=True)
            end = wire.parse_int(parts[1], signed=True)
        except ValueError:
            return [wire.error_line("BADREQ", "start and end must be integer milliseconds")]
        events = self.query_local(start, end, parts[2])
        return [f"OK {len(events)}"] + [wire.hex_field(ev.spec) for ev in events]


def serve(
    role: str,
    cfg: DeploymentConfig,
    listen: Optional[str] = None,
    clock: Clock = system_clock,
) -> RoleServer:
    """Construct (bind, do not run) the server for a role from config."""
    listen_addr = wire.parse_listen_address(listen or cfg.addresses[role])
    if role == "userdb":
        users = {u.user_id: (u.email, u.fileprefix) for u in cfg.users.values()}
        return UserDatabase(listen_addr, users)
    if role == "location":
        occupancy = {
            loc.location_id: [cfg.users[a].user_id for a in loc.occupants]
            for loc in cfg.locations.values()
        }
        return LocationManager(listen_addr, occupancy, cfg.addresses["userdb"], clock=clock)
    if role == "calendar":
        events = [StoredEvent(e.event_id, cfg.event_fields(e)) for e in cfg.events.values()]
        return CalendarServer(
            listen_addr,
            events,
            # bound to port 0, it advertises the port it got
            advertised=cfg.addresses["calendar"] if listen_addr[1] else None,
            userdb_address=cfg.addresses["userdb"],
            clock=clock,
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
