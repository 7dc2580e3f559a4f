"""The whole deployment in one process, checked against an oracle.

The oracle is the same deployment resolved with no sockets and no
servers: the kit's registry over the deployment's state, with the
location, calendar and remote types answered by in-process resolvers.
A name resolved from the calendar or from a room, through the live
servers and through the oracle, gives the same description and validity,
or the same class of error.  Half the names carry a name-valued
attribute, which the server literalizes against its own resource.

The live servers run no serving thread: the first request is sent as a
server of this process sends one, so it and every hop after it is a
call to a server's answer function.
"""

import contextlib
from typing import NamedTuple, Optional

from hypothesis import given, settings, strategies as st

from conftest import FakeClock
from namechain import kit, servers, wire
from namechain.names import parse_name
from namechain.resolver import NotBoundError, ResolutionError, ResolveContext, resolve, scope

HOUR_MS = 3_600_000
TAGS = ("meeting", "review")
FILE_NAMES = ("agenda.txt", "notes.txt")
FILE_SETS = (
    (),
    (("agenda.txt", "http://files.example.net/e/agenda.txt"),),  # a collection
    (("agenda.txt", "http://a.example.net/agenda.txt"), ("notes.txt", "http://b.example.net/n.txt")),
)
# Event starts, in hours from the start of the fake clock's day (a
# Friday): earlier this week, today, tomorrow, and after this week.  Hour
# 0 is listed twice, so that more events start at the same instant.
START_HOURS = (-30, 0, 0, 1, 9, 30, 80)
# The calendar advertises a fixed address, so that its events can name it
# before it binds; no request reaches it over a socket.
CALENDAR_ADDRESS = "localhost:7003"

# The tokens that may follow each token in a name that resolves, if any;
# any token of VOCABULARY may come instead, "nosuch" among them, which no
# resource binds.
FIRST = kit.PERIOD_NAMES + ("occupant",)
FOLLOW = {
    **dict.fromkeys(kit.PERIOD_NAMES, TAGS),
    **dict.fromkeys(TAGS, ("moderator", "location", "files")),
    "moderator": ("email", "files"),
    "occupant": ("email", "files"),
    "location": FIRST,
    "files": FILE_NAMES,
}
VOCABULARY = FIRST + TAGS + ("moderator", "location", "files", "email") + FILE_NAMES + ("nosuch",)


class Event(NamedTuple):
    event_id: bytes
    tags: tuple[str, ...]
    moderator: bytes
    room: Optional[bytes]  # None: the event is located at the calendar itself
    files: tuple[tuple[str, str], ...]
    hour: int  # its start, in hours from the start of the clock's day

    def fields(self, location_address: str, now: int) -> kit.EventFields:
        location = (
            kit.calendar_description(CALENDAR_ADDRESS)
            if self.room is None
            else kit.location_description(location_address, self.room)
        )
        start = kit.day_bounds(now)[0] + self.hour * HOUR_MS
        return kit.EventFields(self.tags, self.moderator, location, self.files, start, start + HOUR_MS)


class World(NamedTuple):
    users: dict[bytes, tuple[str, str]]  # user id -> (email, file prefix)
    rooms: dict[bytes, list[bytes]]  # location id -> occupants, arrival order
    events: list[Event]


@st.composite
def worlds(draw) -> World:
    user_ids = [bytes([0x10 + i]) * 16 for i in range(draw(st.integers(1, 3)))]
    users = {
        user_id: (f"user{i}@example.org", f"http://files.example.net/user{i}/")
        for i, user_id in enumerate(user_ids)
    }
    room_ids = [bytes([0x20 + i]) * 16 for i in range(draw(st.integers(1, 3)))]
    rooms = {
        room_id: draw(st.lists(st.sampled_from(user_ids), unique=True, max_size=len(user_ids)))
        for room_id in room_ids
    }
    count = draw(st.sampled_from(range(5)))
    # Ids in a drawn order, so that neither the list order nor the id
    # order is the order a calendar answers in.
    event_ids = [bytes([0x40 + i]) * 16 for i in draw(st.permutations(range(count)))]
    events = [
        Event(
            event_id,
            tuple(draw(st.lists(st.sampled_from(TAGS), unique=True, min_size=1, max_size=2))),
            draw(st.sampled_from(user_ids)),
            draw(st.sampled_from(room_ids + [None])),
            draw(st.sampled_from(FILE_SETS)),
            draw(st.sampled_from(START_HOURS)),
        )
        for event_id in event_ids
    ]
    return World(users, rooms, events)


@st.composite
def plain_names(draw) -> str:
    tokens = []
    follow = FIRST
    while follow and len(tokens) < 5:
        # One token in five is drawn from the whole vocabulary.
        token = draw(st.sampled_from(follow if draw(st.sampled_from(range(5))) else VOCABULARY))
        tokens.append(token)
        follow = FOLLOW.get(token, ())
        if not draw(st.sampled_from(range(5))):  # ends before a token's end
            break
    return "(" + " ".join(tokens) + ")"


@st.composite
def names_to_resolve(draw):
    """A plain name; one in two gets one name-valued attribute,
    [a=(<plain name>)], on one of its local names.

    Every type ignores attributes, but their names are resolved all the
    same, against the initial resource of the element that literalizes
    them: the server, since the client's initial resource resolves
    whole names.
    """
    tokens = draw(plain_names())[1:-1].split(" ")
    if draw(st.booleans()):
        i = draw(st.sampled_from(range(len(tokens))))
        tokens[i] += f"[a={draw(plain_names())}]"
    return parse_name("(" + " ".join(tokens) + ")")


def oracle_registry(
    world: World, events: dict[bytes, kit.EventFields], userdb: str, location: str, clock
):
    """The deployment's registry, with no socket and no server behind it.

    `events` holds the fields of each event, by id.
    """

    def events_query(address, start, end, tag):
        assert address == CALENDAR_ADDRESS
        found = [
            (event_id, fields)
            for event_id, fields in events.items()
            if tag in fields.tags and start <= fields.start < end
        ]
        found.sort(key=lambda item: (item[1].start, item[0]))
        return [(kit.encode_event_spec(fields), fields) for _, fields in found]

    def user_fetch(address, user_id):
        assert address == userdb
        if user_id not in world.users:
            raise NotBoundError(user_id.hex(), "no such user")
        return world.users[user_id]

    def element(address, resource_id):
        if (address, resource_id) == (CALENDAR_ADDRESS, kit.CALENDAR_RESOURCE_ID):
            return kit.CalendarResolver(address, clock)
        if address == location and resource_id in world.rooms:
            return kit.LocationStateResolver(lambda: world.rooms[resource_id], userdb, clock)
        raise NotBoundError(resource_id.hex(), "no such resource")

    registry = kit.build_registry(clock, userdb, events_query=events_query, user_fetch=user_fetch)
    registry = registry.without(kit.LOCATION_TYPE, kit.CALENDAR_TYPE, wire.REMOTE_TYPE)
    registry.register(
        kit.CALENDAR_TYPE, kit.parse_calendar_spec, lambda address: element(address, kit.CALENDAR_RESOURCE_ID)
    )
    for type_id in (kit.LOCATION_TYPE, wire.REMOTE_TYPE):
        registry.register(
            type_id, lambda spec, t=type_id: wire.parse_addr_id_spec(spec, t), lambda target: element(*target)
        )
    return registry


def outcome(registry, initial, name, clock):
    """The resolution of `name` from `initial`, or the class of its error."""
    try:
        return resolve(ResolveContext(registry, registry.instantiate(initial), clock), name)
    except ResolutionError as exc:
        return type(exc)


@contextlib.contextmanager
def as_a_cohosted_server():
    """Send requests from this thread as a server of this process does."""
    scope.answering += 1
    try:
        yield
    finally:
        scope.answering -= 1


@settings(max_examples=150, deadline=None)
@given(world=worlds(), names=st.lists(names_to_resolve(), min_size=1, max_size=8))
def test_live_servers_resolve_as_the_oracle_does(world, names):
    clock = FakeClock()
    with contextlib.ExitStack() as stack:
        userdb = servers.UserDatabase(("localhost", 0), world.users)
        stack.callback(userdb.server_close)
        location = servers.LocationManager(("localhost", 0), world.rooms, userdb.address, clock)
        stack.callback(location.server_close)
        events = {event.event_id: event.fields(location.address, clock()) for event in world.events}
        stored = [servers.StoredEvent(event_id, fields) for event_id, fields in events.items()]
        calendar = servers.CalendarServer(
            ("localhost", 0), stored, CALENDAR_ADDRESS, userdb.address, clock
        )
        stack.callback(calendar.server_close)

        live = kit.build_registry(clock, userdb.address)
        oracle = oracle_registry(world, events, userdb.address, location.address, clock)
        initials = (
            wire.remote_description(CALENDAR_ADDRESS, kit.CALENDAR_RESOURCE_ID),
            wire.remote_description(location.address, next(iter(world.rooms))),
        )
        for name in names:
            for initial in initials:
                with as_a_cohosted_server():
                    got = outcome(live, initial, name, clock)
                assert got == outcome(oracle, initial, name, clock), (name, initial)
