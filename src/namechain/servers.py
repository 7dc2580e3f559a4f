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

Every request and reply line has its codec in ``wire``: a handler
decodes its request there, deals in values, and encodes its reply
there.  A handler that finds nothing raises ``wire.NotFound``, and
every failure a handler raises is answered in ``process_line``'s one
``except``, through ``wire.error_reply``.

Each server runs one thread per connection and handles the requests on
a connection sequentially; shared state (occupancy, per-verb counters)
sits behind locks so concurrent connections interleave safely.  A
handler reads and answers through ``wire.LineConnection``: one recv()
per read and one send per answer on a blocking socket, which the kernel
sheds after 60 s without a request (``_LineHandler.timeout``).  A line
over ``wire.MAX_LINE_BYTES`` or not UTF-8 gets BADREQ, then the
connection closes.  A reply line over it is never sent: ``process_line``
answers ``ERR INTERNAL reply too long`` instead, and the connection
stays open.

``RoleServer.answer`` gives the lines one request line gets, to a
connection's handler and, from when the server is bound until it is
closed, to the other servers of this process: a request a server sends
while answering, to one of them, is a call to its ``answer`` in the same
thread, whose reply is read as a connection's is (see ``wire``).  A
RESOLVE answered so spends its caller's step budget, and makes its wire
calls under its caller's timeout (``resolver.scope``); one that came
over a connection opens a fresh budget, with the default timeout.
A server is hosted once, under ``RoleServer.address``: the address its
peers reach it at, which is a calendar's advertised address when it has
one, else the host it listens at as written (``localhost`` stays
``localhost``) with the port it got.  A role checks and builds whatever
it can refuse before it binds, so a refused argument leaves nothing
bound or hosted.

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
from .resolver import Clock, ResolveContext, resolve, scope, system_clock

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
            if not self._reply(conn, server.answer(line)):
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
    # Roles that speak RESOLVE: the resources they resolve from, by id.
    hosted: dict[bytes, ResolveContext]

    def __init__(self, listen: tuple[str, int], advertised: Optional[str] = None) -> None:
        super().__init__(listen, _LineHandler)
        # The one address peers reach this server at: the advertised one,
        # else the host it listens at, as written, with the port it got.
        self.address = advertised or wire.format_address(listen[0], self.server_address[1])
        self.stats: Counter[str] = Counter()
        self._stats_lock = threading.Lock()
        self._handlers = self._verbs()
        wire.host(self.address, self.answer)

    def server_close(self) -> None:
        # The base __init__ calls this too when binding fails, before
        # there is an address.
        if hasattr(self, "address"):
            wire.unhost(self.address, self.answer)
        super().server_close()

    def request_count(self, verb: Optional[str] = None) -> int:
        with self._stats_lock:
            if verb is None:
                return sum(self.stats.values())
            return self.stats[verb]

    def _verbs(self) -> dict[str, Callable[[str], list[str]]]:
        raise NotImplementedError

    def answer(self, line: str) -> list[str]:
        """The lines `line` gets, whether it came over a connection or from
        a server of this process in the midst of its own answer."""
        scope.answering += 1
        try:
            return self.process_line(line)
        except Exception:  # defensive: answered, never raised into the caller
            log.exception("unhandled error processing %r", line)
            return [wire.error_line("INTERNAL", "unhandled error")]
        finally:
            scope.answering -= 1

    def process_line(self, line: str) -> list[str]:
        verb, _, rest = line.partition(" ")
        handler = self._handlers.get(verb)
        # Unsupported verbs share one counter, so hostile input cannot
        # grow the table.
        with self._stats_lock:
            self.stats[verb if handler is not None else "?"] += 1
        try:
            if handler is None:
                raise ValueError(f"unsupported verb {verb or '?'}")
            return wire.bounded_lines(handler(rest))
        except wire.REPORTED_ERRORS as exc:
            return [wire.error_reply(exc)]

    # RESOLVE, shared by the roles that resolve natively

    def _handle_resolve(self, rest: str) -> list[str]:
        resource_id, name = wire.parse_resolve_request(rest)
        ctx = self.hosted.get(resource_id)
        if ctx is None:
            raise wire.NotFound(resource_id.hex())
        return [wire.format_ok_resolution(resolve(ctx, name))]


class UserDatabase(RoleServer):
    """Indexes user records by identifier; no naming support at all.

    Each record's reply line is encoded once, here; a record its encoder
    refuses raises ValueError.
    """

    role = "userdb"

    def __init__(self, listen: tuple[str, int], users: dict[bytes, tuple[str, str]]) -> None:
        self.records = {user_id: wire.format_user_record(*record) for user_id, record in users.items()}
        super().__init__(listen)

    def _verbs(self):
        return {"GETUSER": self._handle_getuser}

    def _handle_getuser(self, rest: str) -> list[str]:
        record = self.records.get(wire.parse_entity_id(rest, "user id"))
        if record is None:
            raise wire.NotFound()
        return [record]


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
        self.occupancy = {loc: list(users) for loc, users in occupancy.items()}
        self._state_lock = threading.Lock()
        self.registry = kit.build_registry(clock, userdb_address)
        self.hosted = {
            location_id: ResolveContext(
                self.registry,
                kit.LocationStateResolver(self._occupants_of(location_id), userdb_address, clock),
                clock,
            )
            for location_id in self.occupancy
        }
        super().__init__(listen)

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
            raise wire.NotFound(location_id.hex())
        return [wire.ok_line(wire.format_id_list(users))]

    def _handle_setocc(self, rest: str) -> list[str]:
        location_id, ids = wire.parse_setocc_request(rest)
        with self._state_lock:
            if location_id not in self.occupancy:
                raise wire.NotFound(location_id.hex())
            self.occupancy[location_id] = ids
        return [wire.ok_line()]


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
        if advertised is not None:
            wire.parse_address(advertised)
        # Ordered once, as every query answers them; no verb writes events.
        self.events = sorted(events, key=lambda ev: (ev.fields.start, ev.event_id, ev.spec))
        # Time periods minted by this calendar point back at it; resolve
        # them against local state instead of a loopback wire call, from
        # the fields the events were stored with.
        self.registry = kit.build_registry(clock, userdb_address, events_query=self._events_query)
        super().__init__(listen, advertised)
        self.hosted = {
            kit.CALENDAR_RESOURCE_ID: ResolveContext(
                self.registry, kit.CalendarResolver(self.address, clock), clock
            )
        }

    def _verbs(self):
        return {"RESOLVE": self._handle_resolve, "EVENTS": self._handle_events}

    def query_local(self, start: int, end: int, tag: str) -> list[StoredEvent]:
        return [ev for ev in self.events if tag in ev.fields.tags and start <= ev.fields.start < end]

    def _events_query(
        self, address: str, start: int, end: int, tag: str
    ) -> list[tuple[bytes, Optional[kit.EventFields]]]:
        if address == self.address:
            return [(ev.spec, ev.fields) for ev in self.query_local(start, end, tag)]
        return kit.fetch_events(address, start, end, tag)

    def _handle_events(self, rest: str) -> list[str]:
        events = self.query_local(*wire.parse_events_request(rest))
        return wire.format_events_reply([ev.spec for ev in events])


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
