import contextlib
import re
import socket
import threading
import time
from collections import deque

import pytest
from hypothesis import given, strategies as st

from conftest import nested_name

from namechain import bench, kit, resolver, servers, wire
from namechain.cache import NameCache, cached_resolve
from namechain.cli import main
from namechain.config import ConfigError, DeploymentConfig, demo_deployment, parse_config
from namechain.names import NameSyntaxError, parse_name, serialize_resource_literal
from namechain.resolver import (
    DepthExceededError,
    NotBoundError,
    Resolution,
    ResolveContext,
    MalformedSpecError,
    TransportError,
    UnknownTypeError,
    Validity,
    resolve,
    system_clock,
)
from namechain.resources import ResourceDescription
from namechain.servers import LocationManager, UserDatabase, start_in_thread


# --- framing and field encodings (no sockets)

# Every code point str.isspace() flags lies in the Basic Multilingual
# Plane; the spread samples the rest of the range, surrogates included.
_SPACES = [c for c in map(chr, range(0x10000)) if c.isspace()]
_SPREAD = [chr(c) for c in range(0, 0x110000, 997)] + ["\u200b", "\ufeff", "\ud800", "\x00"]


def test_whitespace_free_is_the_regex_whitespace_rule():
    assert len(_SPACES) >= 25
    texts = [""]
    for c in _SPACES + _SPREAD:
        texts += [c, f"a{c}b", f"{c}ab", f"ab{c}", c + c]
    for text in texts:
        assert wire.whitespace_free(text) == (text != "" and re.search(r"\s", text) is None), repr(text)


def test_hex_field_uses_dash_for_empty():
    assert wire.hex_field(b"") == "-"
    assert wire.hex_field(b"\x00\xff") == "00ff"
    assert wire.unhex_field("-") == b""
    assert wire.unhex_field("00ff") == b"\x00\xff"


@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=0, max_size=64),
    st.integers(0, 2**53),
)
def test_resolution_wire_encoding_round_trip(type_id, spec, expires_at):
    resolution = Resolution(ResourceDescription(type_id, spec), Validity(expires_at))
    line = wire.format_ok_resolution(resolution)
    assert wire.parse_ok_resolution(line.split(" ")) == resolution
    assert "\n" not in line


def test_error_line_flattens_detail():
    assert wire.error_line("NOTFOUND") == "ERR NOTFOUND -"
    assert wire.error_line("BADREQ", "two\nlines  here") == "ERR BADREQ two lines here"
    assert wire.error_line("BADREQ", "x" * wire.MAX_LINE_BYTES) == "ERR BADREQ " + "x" * 1024


@pytest.mark.parametrize(
    "code,expected",
    [
        ("NOTBOUND", NotBoundError),
        ("NOTFOUND", NotBoundError),
        ("UNKNOWNTYPE", UnknownTypeError),
        ("DEPTH", DepthExceededError),
        ("BADREQ", TransportError),
        ("INTERNAL", TransportError),
        ("WHOKNOWS", TransportError),
    ],
)
def test_error_codes_map_onto_resolution_errors(code, expected):
    with pytest.raises(expected):
        wire.raise_wire_error(code, "detail")


# One failure of each class a server reports, the code its ERR line
# carries, and the class and key field the client raises for that line.
REPORTED_FAILURES = [
    (NameSyntaxError(3, "unexpected ')'"), "BADREQ", TransportError, None),
    (NotBoundError("occupant", "location is empty"), "NOTBOUND", NotBoundError, ("local", "occupant")),
    (UnknownTypeError(b"\x07" * 32), "UNKNOWNTYPE", UnknownTypeError, ("type_id", b"\x07" * 32)),
    (DepthExceededError(32), "DEPTH", DepthExceededError, ("max_depth", 32)),
    (DepthExceededError(), "DEPTH", DepthExceededError, ("max_depth", None)),
    (wire.NotFound("ee" * 16), "NOTFOUND", NotBoundError, ("local", "ee" * 16)),
    (TransportError("connection refused"), "INTERNAL", TransportError, None),
    (MalformedSpecError(kit.EVENT_TYPE, "bad start"), "INTERNAL", TransportError, None),
    (wire.LineTooLong("line too long"), "INTERNAL", TransportError, None),
    (ValueError("location id must be 32 lowercase hex digits"), "BADREQ", TransportError, None),
]


def _raising(exc):
    def handler(rest):
        raise exc

    return handler


@pytest.mark.parametrize("exc,code,expected,key", REPORTED_FAILURES)
def test_every_reported_failure_comes_back_as_the_class_the_client_documents(exc, code, expected, key):
    assert isinstance(exc, wire.REPORTED_ERRORS)
    server = servers.UserDatabase(("127.0.0.1", 0), {})
    try:
        server._handlers["GETUSER"] = _raising(exc)
        (line,) = server.process_line("GETUSER x")
    finally:
        server.server_close()
    assert line == wire.error_reply(exc)
    assert line.split(" ")[:2] == ["ERR", code]
    with pytest.raises(expected) as excinfo:
        wire._expect_ok(line.split(" "), "GETUSER")
    if key is not None:
        assert getattr(excinfo.value, key[0]) == key[1]
    if isinstance(exc, DepthExceededError):  # "... step count of 32", not "... count (32)"
        assert str(excinfo.value).startswith(str(exc))


# Details error_reply never writes: the type id is not 64 lowercase hex
# digits, the budget not an integer as str() writes it.
@pytest.mark.parametrize("detail", ["ab " * 32, "AB" * 32, "ab" * 31, "ab" * 33, "-", "why"])
def test_an_unknowntype_detail_not_in_canonical_hex_gives_the_zero_type_id(detail):
    with pytest.raises(UnknownTypeError) as excinfo:
        wire.raise_wire_error("UNKNOWNTYPE", detail)
    assert excinfo.value.type_id == bytes(32)


@pytest.mark.parametrize("detail", ["032", "+32", "3_2", "٣٢", "-1", "-", "why"])
def test_a_depth_detail_not_in_canonical_digits_gives_no_max_depth(detail):
    with pytest.raises(DepthExceededError) as excinfo:
        wire.raise_wire_error("DEPTH", detail)
    assert excinfo.value.max_depth is None
    assert excinfo.value.detail == ("reported by remote element" if detail == "-" else detail)


def test_every_reported_class_has_a_failure_above_and_others_propagate():
    assert {type(exc) for exc, *_ in REPORTED_FAILURES} == set(wire.REPORTED_ERRORS)
    server = servers.UserDatabase(("127.0.0.1", 0), {})
    try:
        server._handlers["GETUSER"] = _raising(RuntimeError("bug"))
        with pytest.raises(RuntimeError):
            server.process_line("GETUSER x")
    finally:
        server.server_close()


# 32 characters, but bytes.fromhex skips whitespace and decodes 15 bytes.
PADDED_IDS = ["001122 33445566 778899aabbccddee", "001122\t33445566\t778899aabbccddee"]


def test_parse_entity_id_accepts_exactly_32_lowercase_hex_digits():
    assert wire.parse_entity_id("00112233445566778899aabbccddeeff") == bytes.fromhex(
        "00112233445566778899aabbccddeeff"
    )
    for bad in PADDED_IDS + [
        "00112233445566778899AABBCCDDEEFF",  # upper case
        "00112233445566778899aabbccddee",  # 30 digits
        "00112233445566778899aabbccddeeff00",  # 34 digits
        " 00112233445566778899aabbccddeeff",
        "00112233445566778899aabbccddeeff\n",
        "0x112233445566778899aabbccddeeff",
        "\u0660" * 32,  # Arabic-Indic zeros are digits, not hex digits
        "",
    ]:
        with pytest.raises(ValueError, match="^user id must be 32 lowercase hex digits$"):
            wire.parse_entity_id(bad, "user id")


def _decode_addr_id_spec(text):
    with pytest.raises(MalformedSpecError, match="entity identifier must be 32 lowercase hex"):
        wire.parse_addr_id_spec(f"127.0.0.1:1 {text}".encode(), kit.USER_TYPE)


def _decode_event_moderator(text):
    fields = kit.EventFields(("t",), bytes(16), kit.string_description("x"), (), 1, 2)
    spec = kit.encode_event_spec(fields).replace(b"00" * 16, text.encode())
    with pytest.raises(MalformedSpecError, match="moderator must be 32 lowercase hex"):
        kit.parse_event_spec(spec)


def _decode_config_id(text):
    addresses = "userdb = 127.0.0.1:1\nlocation = 127.0.0.1:2\ncalendar = 127.0.0.1:3\n"
    with pytest.raises(ConfigError, match="user id must be 32 lowercase hex") as excinfo:
        parse_config(f"[addresses]\n{addresses}[user u]\nid = {text}\nemail = u@x\nfiles = h/\n")
    assert excinfo.value.line == 6


def _decode_getuser_line(text):
    server = UserDatabase(("127.0.0.1", 0), {bytes(16): ("u@x", "h/")})
    try:
        assert server.process_line(f"GETUSER {text}") == [
            "ERR BADREQ user id must be 32 lowercase hex digits"
        ]
    finally:
        server.server_close()


@pytest.mark.parametrize("padded", PADDED_IDS, ids=["spaces", "tabs"])
@pytest.mark.parametrize(
    "decode",
    [_decode_addr_id_spec, _decode_event_moderator, _decode_config_id, _decode_getuser_line],
    ids=["addr-id-spec", "event-moderator", "config-id", "getuser-line"],
)
def test_every_id_decoder_rejects_inner_whitespace(decode, padded):
    decode(padded)


def test_parse_address():
    assert wire.parse_address("127.0.0.1:7001") == ("127.0.0.1", 7001)
    for bad in ("localhost", ":7001", "h:0", "h:99999", "h:port"):
        with pytest.raises(ValueError):
            wire.parse_address(bad)


# --- raw protocol behavior against live servers

def _raw_request(address: str, payload: bytes) -> bytes:
    host, port = wire.parse_address(address)
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def test_getuser_returns_the_record(deployment):
    alice = deployment.cfg.users["alice"]
    email, prefix = wire.get_user(deployment.cfg.addresses["userdb"], alice.user_id)
    assert (email, prefix) == (alice.email, alice.fileprefix)


def test_getuser_unknown_id_is_notfound_on_the_wire(deployment):
    response = _raw_request(
        deployment.cfg.addresses["userdb"], b"GETUSER " + b"ee" * 16 + b"\n"
    )
    assert response == b"ERR NOTFOUND -\n"
    with pytest.raises(NotBoundError):
        wire.get_user(deployment.cfg.addresses["userdb"], b"\xee" * 16)


def test_userdb_does_not_speak_resolve(deployment):
    response = _raw_request(
        deployment.cfg.addresses["userdb"], b"RESOLVE " + b"00" * 16 + b" (x)\n"
    )
    assert response.startswith(b"ERR BADREQ")


def test_unknown_verb_is_badreq(deployment):
    response = _raw_request(deployment.cfg.addresses["calendar"], b"NONSENSE\n")
    assert response.startswith(b"ERR BADREQ")


def test_unsupported_verbs_share_one_counter(deployment):
    server = deployment.servers["calendar"]
    for i in range(1000):
        assert server.process_line(f"BOGUS{i} x")[0].startswith("ERR BADREQ")
    assert len(server.stats) <= 2
    assert server.request_count() == 1000


def test_bad_entity_id_is_badreq(deployment):
    response = _raw_request(deployment.cfg.addresses["location"], b"OCCUPANCY xyz\n")
    assert response.startswith(b"ERR BADREQ")


def test_oversized_request_line_is_rejected(deployment):
    response = _raw_request(
        deployment.cfg.addresses["userdb"], b"GETUSER " + b"a" * wire.MAX_LINE_BYTES + b"\n"
    )
    assert response.startswith(b"ERR BADREQ")


def test_occupancy_and_setocc_round_trip(deployment):
    cfg = deployment.cfg
    address = cfg.addresses["location"]
    room = cfg.locations["room101"]
    alice = cfg.users["alice"].user_id
    bob = cfg.users["bob"].user_id

    assert wire.occupancy(address, room.location_id) == [alice]
    wire.set_occupancy(address, room.location_id, [bob, alice])
    assert wire.occupancy(address, room.location_id) == [bob, alice]
    wire.set_occupancy(address, room.location_id, [alice])

    with pytest.raises(NotBoundError):
        wire.occupancy(address, b"\xee" * 16)
    with pytest.raises(NotBoundError):
        wire.set_occupancy(address, b"\xee" * 16, [])


def test_events_query_returns_ordered_specs(deployment):
    cfg = deployment.cfg
    day_start, day_end = kit.day_bounds(deployment.clock())
    specs = wire.query_events(cfg.addresses["calendar"], day_start, day_end, "meeting")
    assert len(specs) == 2
    starts = [kit.parse_event_spec(s).start for s in specs]
    assert starts == sorted(starts)
    assert wire.query_events(cfg.addresses["calendar"], day_start, day_end, "party") == []


def test_resolve_occupant_against_location_manager(deployment):
    cfg = deployment.cfg
    room = cfg.locations["room101"]
    resolution = wire.resolve_remote(
        cfg.addresses["location"], room.location_id, parse_name("(occupant)")
    )
    expected = kit.user_description(cfg.addresses["userdb"], cfg.users["alice"].user_id)
    assert resolution.description == expected


def test_resolve_unknown_resource_id_is_notfound(deployment):
    with pytest.raises(NotBoundError):
        wire.resolve_remote(
            deployment.cfg.addresses["location"], b"\xee" * 16, parse_name("(occupant)")
        )


def test_resolve_bad_name_is_badreq(deployment):
    room = deployment.cfg.locations["room101"]
    response = _raw_request(
        deployment.cfg.addresses["location"],
        b"RESOLVE " + room.location_id.hex().encode() + b" (unbalanced\n",
    )
    assert response.startswith(b"ERR BADREQ")


def _hosted_id(deployment, role):
    if role == "location":
        return deployment.cfg.locations["room101"].location_id.hex()
    return kit.CALENDAR_RESOURCE_ID.hex()


@pytest.mark.parametrize("role,name", [("location", "(occupant)"), ("calendar", "(today)")])
@pytest.mark.parametrize(
    "request_of,expected",
    [
        (lambda rid, name: f"RESOLVE {rid} {name}", "OK "),
        (lambda rid, name: f"RESOLVE {rid}", "ERR BADREQ expected RESOLVE"),
        (lambda rid, name: f"RESOLVE {'ee' * 16} {name}", f"ERR NOTFOUND {'ee' * 16}"),
        (lambda rid, name: f"RESOLVE A{rid[1:]} {name}", "ERR BADREQ resource id must be"),
        (lambda rid, name: f"RESOLVE {rid[:-1]}g {name}", "ERR BADREQ resource id must be"),
        (lambda rid, name: f"RESOLVE {rid} {name[:-1]}", "ERR BADREQ bad name"),
    ],
    ids=["ok", "missing-name", "unknown-id", "upper-case-id", "non-hex-id", "bad-name"],
)
def test_resolve_request_on_each_resolving_role(deployment, role, name, request_of, expected):
    server = deployment.servers[role]
    responses = server.process_line(request_of(_hosted_id(deployment, role), name))
    assert len(responses) == 1
    assert responses[0].startswith(expected)


@pytest.mark.parametrize(
    "describe,pretty",
    [(kit.location_description, "location "), (wire.remote_description, "remote resource ")],
    ids=["location", "remote"],
)
def test_addr_id_types_build_remote_proxies(describe, pretty):
    registry = kit.build_registry()
    resource_id = bytes(range(16))
    description = describe("127.0.0.1:7001", resource_id)
    proxy = registry.instantiate(description)
    assert isinstance(proxy, wire.RemoteResolver)
    assert (proxy.address, proxy.resource_id) == ("127.0.0.1:7001", resource_id)
    assert registry.pretty(description).startswith(pretty + resource_id.hex())
    padded = ResourceDescription(description.type_id, f"127.0.0.1:7001 {PADDED_IDS[0]}".encode())
    with pytest.raises(MalformedSpecError) as excinfo:
        registry.instantiate(padded)
    assert excinfo.value.type_id == description.type_id


def test_remote_resolver_delegates_whole_names(fake_deployment):
    cfg = fake_deployment.cfg
    proxy = wire.RemoteResolver(cfg.addresses["calendar"], kit.CALENDAR_RESOURCE_ID)
    resolution = proxy.resolve_name(parse_name("(today meeting moderator email)"))
    assert resolution.description == kit.string_description(cfg.users["alice"].email)


def test_transport_error_when_nobody_listens():
    with pytest.raises(TransportError):
        wire.get_user("127.0.0.1:1", b"\x00" * 16, timeout=0.5)


def test_responses_are_deterministic_under_a_frozen_clock(fake_deployment):
    cfg = fake_deployment.cfg
    room = cfg.locations["room101"]
    request = b"RESOLVE " + room.location_id.hex().encode() + b" (occupant)\n"
    first = _raw_request(cfg.addresses["location"], request)
    second = _raw_request(cfg.addresses["location"], request)
    assert first == second
    assert first.startswith(b"OK ")


def test_persistent_connections_serve_sequential_requests(deployment):
    cfg = deployment.cfg
    alice = cfg.users["alice"]
    host, port = wire.parse_address(cfg.addresses["userdb"])
    with socket.create_connection((host, port), timeout=5) as sock:
        f = sock.makefile("rwb")
        for _ in range(3):
            f.write(b"GETUSER " + alice.user_id.hex().encode() + b"\n")
            f.flush()
            line = f.readline()
            assert line == f"OK {alice.email} {alice.fileprefix}\n".encode()


def test_serve_listen_override_binds_elsewhere(deployment):
    from namechain.servers import serve, start_in_thread

    server = serve("userdb", deployment.cfg, listen="127.0.0.1:0")
    start_in_thread(server)
    try:
        alice = deployment.cfg.users["alice"]
        assert server.address != deployment.cfg.addresses["userdb"]
        assert wire.get_user(server.address, alice.user_id) == (alice.email, alice.fileprefix)
    finally:
        wire.close_idle_connections()
        server.shutdown()
        server.server_close()


def test_only_a_listen_address_takes_port_0(deployment):
    from namechain.servers import serve

    with pytest.raises(ValueError):
        serve("userdb", deployment.cfg, listen=":0")
    calendar = serve("calendar", deployment.cfg, listen="127.0.0.1:0", clock=deployment.clock)
    try:
        assert calendar.server_address[1] != 0
        # it is reached at the port it got, not the configured one, and
        # the time periods it mints say so
        assert calendar.address == f"127.0.0.1:{calendar.server_address[1]}"
        assert calendar.address != deployment.cfg.addresses["calendar"]
        (minted,) = calendar.answer(f"RESOLVE {kit.CALENDAR_RESOURCE_ID.hex()} (today)")
        today = wire.parse_ok_resolution(minted.split(" ")).description
        assert kit.parse_time_period_spec(today.spec)[0] == calendar.address
    finally:
        calendar.server_close()


def test_concurrent_resolutions_are_consistent(deployment):
    cfg = deployment.cfg
    room = cfg.locations["room101"]
    expected = kit.user_description(cfg.addresses["userdb"], cfg.users["alice"].user_id)
    failures = []

    def worker():
        try:
            for _ in range(10):
                resolution = wire.resolve_remote(
                    cfg.addresses["location"], room.location_id, parse_name("(occupant)")
                )
                assert resolution.description == expected
        except Exception as exc:  # pragma: no cover
            failures.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


# --- retry of pooled connections, against a scripted peer

class _ScriptedPeer:
    """Loopback peer that answers each request line as `answer(n)` says.

    `answer` gets the 1-based number of the request line over all
    connections and returns "reply" (send `reply`, a GETUSER answer by
    default, and keep the connection), "close" (send it, then close the
    connection) or "silent" (never answer).  `reply` may also be a
    function of that number.  With `segment` set, the reply goes out in
    segments of that many bytes, one at a time.
    """

    def __init__(self, answer, reply=b"OK a@example.org file://h/a\n", segment=None):
        self.answer = answer
        self.reply = reply
        self.segment = segment
        self.lines: list[bytes] = []
        self.connections = 0
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = wire.format_address(*self._listener.getsockname()[:2])
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
            thread = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, sock):
        with sock, sock.makefile("rb") as rfile:
            try:
                for line in rfile:
                    with self._lock:
                        self.lines.append(line)
                        action = self.answer(len(self.lines))
                        reply = self.reply(len(self.lines)) if callable(self.reply) else self.reply
                    if action == "silent":
                        continue
                    if self.segment is None:
                        sock.sendall(reply)
                    else:
                        _send_in_segments(sock, reply, self.segment)
                    if action == "close":
                        return
            except ConnectionError:  # a client that refused a reply hung up on it
                return

    def close(self):
        wire.close_idle_connections()
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


def test_pooled_connection_closed_by_its_peer_is_retried_once():
    peer = _ScriptedPeer(lambda n: "close" if n == 1 else "reply")
    try:
        user = b"\x01" * 16
        assert wire.get_user(peer.address, user, timeout=2) == ("a@example.org", "file://h/a")
        # the pooled connection is dead now; the second call finds out
        # before any response byte and sends the request again, fresh
        assert wire.get_user(peer.address, user, timeout=2) == ("a@example.org", "file://h/a")
        assert peer.connections == 2
        assert len(peer.lines) == 2
    finally:
        peer.close()


@pytest.mark.parametrize("reply", [b"OK a@b \n", b"OK  file://h/a\n", b"OK  \n"])
def test_getuser_reply_with_an_empty_field_is_a_transport_error(reply):
    with pytest.raises(TransportError, match="malformed GETUSER response"):
        _reply_from_peer(reply, lambda address: wire.get_user(address, bytes(16), timeout=5))

    def files_of_that_user(address):
        registry = kit.build_registry(userdb_address=address)
        initial = registry.instantiate(kit.user_description(address, bytes(16)))
        resolve(ResolveContext(registry=registry, initial=initial), parse_name("(files x)"))

    # not a file collection with an empty prefix that its factory refuses
    with pytest.raises(TransportError, match="malformed GETUSER response") as excinfo:
        _reply_from_peer(reply, files_of_that_user)
    assert excinfo.value.step == 0


def test_pooled_connection_to_a_silent_peer_is_not_retried():
    peer = _ScriptedPeer(lambda n: "reply" if n == 1 else "silent")
    timeout = 0.5
    try:
        user = b"\x01" * 16
        wire.get_user(peer.address, user, timeout=timeout)
        start = time.monotonic()
        with pytest.raises(TransportError):
            wire.get_user(peer.address, user, timeout=timeout)
        assert time.monotonic() - start < 2 * timeout
        time.sleep(0.1)  # a retried request would have been sent by now
        assert len(peer.lines) == 2
        assert peer.connections == 1
    finally:
        peer.close()


@pytest.mark.parametrize(
    "describe,name",
    [
        (lambda address: wire.remote_description(address, b"\x01" * 16), "(x)"),
        (lambda address: kit.user_description(address, b"\x01" * 16), "(email)"),
        (lambda address: kit.time_period_description(address, 0, 1), "(meeting)"),
    ],
    ids=["RESOLVE", "GETUSER", "EVENTS"],
)
def test_context_timeout_bounds_every_hop(describe, name):
    peer = _ScriptedPeer(lambda n: "silent")
    timeout = 0.3
    try:
        registry = kit.build_registry()
        initial = registry.instantiate(describe(peer.address))
        ctx = ResolveContext(registry=registry, initial=initial, timeout=timeout)
        start = time.monotonic()
        with pytest.raises(TransportError):
            resolve(ctx, parse_name(name))
        assert time.monotonic() - start < 2 * timeout
        assert len(peer.lines) == 1
    finally:
        peer.close()


def _through_cached_resolve(address, timeout, capsys):
    registry = kit.build_registry()
    initial = registry.instantiate(wire.remote_description(address, b"\x01" * 16))
    ctx = ResolveContext(registry=registry, initial=initial, timeout=timeout)
    with pytest.raises(TransportError, match="timed out"):
        cached_resolve(ctx, NameCache(), parse_name("(x)"))


def _through_resolve_scenario(address, timeout, capsys):
    addresses = {"userdb": "127.0.0.1:1", "location": "127.0.0.1:1", "calendar": address}
    cfg = demo_deployment(addresses, system_clock())
    with pytest.raises(TransportError, match="timed out"):
        bench.resolve_scenario(cfg, 1, timeout=timeout)


def _through_the_resolve_command(address, timeout, capsys):
    literal = serialize_resource_literal(wire.remote_description(address, b"\x01" * 16))
    assert main(["resolve", "--timeout", str(timeout), "--initial", literal, "(x)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: transport failure (request to ")
    assert "timed out" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "call",
    [_through_cached_resolve, _through_resolve_scenario, _through_the_resolve_command],
    ids=["cached_resolve", "resolve_scenario", "namechain-resolve"],
)
def test_each_entry_point_hands_its_timeout_to_the_resolution(call, capsys):
    peer = _ScriptedPeer(lambda n: "silent")
    timeout = 0.3
    try:
        start = time.monotonic()
        call(peer.address, timeout, capsys)
        assert time.monotonic() - start < 2 * timeout
        assert len(peer.lines) == 1
    finally:
        peer.close()


@pytest.mark.parametrize("reply", [b"OK 1 00\n", b"OK 1 " + b"AB" * 16 + b"\n"])
def test_occupancy_reply_with_a_bad_user_id_is_a_transport_error(reply):
    peer = _ScriptedPeer(lambda n: "reply", reply=reply)
    try:
        with pytest.raises(TransportError) as excinfo:
            wire.occupancy(peer.address, b"\x02" * 16, timeout=2)
        assert "user identifier" in str(excinfo.value)
    finally:
        peer.close()


@pytest.mark.parametrize("depth", [300, 1000])
def test_deeply_nested_name_is_badreq(deployment, depth):
    calendar = deployment.servers["calendar"]
    line = f"RESOLVE {kit.CALENDAR_RESOURCE_ID.hex()} {nested_name(depth)}"
    (response,) = calendar.process_line(line)
    assert response.startswith("ERR BADREQ bad name: names nest at most 32 deep")


# --- line framing on both ends

def _send_in_segments(sock, payload, size):
    """Send `payload` as separate TCP segments of `size` bytes."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for i in range(0, len(payload), size):
        sock.sendall(payload[i : i + size])
        time.sleep(0.001)


def _request_in_segments(address, payload, size):
    host, port = wire.parse_address(address)
    with socket.create_connection((host, port), timeout=5) as sock:
        _send_in_segments(sock, payload, size)
        sock.shutdown(socket.SHUT_WR)
        return b"".join(iter(lambda: sock.recv(65536), b""))


def _getuser_line(deployment):
    alice = deployment.cfg.users["alice"]
    return f"GETUSER {alice.user_id.hex()}\n".encode(), f"OK {alice.email} {alice.fileprefix}\n".encode()


def test_request_in_one_byte_segments_is_served(deployment):
    request, answer = _getuser_line(deployment)
    assert _request_in_segments(deployment.cfg.addresses["userdb"], request, 1) == answer


def test_two_requests_in_one_segment_get_two_answers(deployment):
    request, answer = _getuser_line(deployment)
    assert _raw_request(deployment.cfg.addresses["userdb"], request * 2) == answer * 2


@pytest.mark.parametrize(
    "extra,expected",
    [(0, b"ERR BADREQ user id must be"), (1, b"ERR BADREQ request line too long")],
    ids=["max", "max+1"],
)
def test_request_line_bound_is_max_line_bytes(deployment, extra, expected):
    content = b"GETUSER " + b"a" * (wire.MAX_LINE_BYTES - 8 + extra)
    response = _raw_request(deployment.cfg.addresses["userdb"], content + b"\n")
    assert response.startswith(expected)
    assert response.count(b"\n") == 1


def test_overlong_request_is_refused_before_its_line_ends(deployment):
    host, port = wire.parse_address(deployment.cfg.addresses["userdb"])
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(b"GETUSER " + b"a" * (wire.MAX_LINE_BYTES - 7))  # no LF, not closed
        assert sock.makefile("rb").readline() == b"ERR BADREQ request line too long\n"


@pytest.mark.parametrize(
    "payload,expected",
    [
        (b"GETUSER " + b"00" * 16, b""),  # EOF mid-line: no answer, closed
        (b"GETUSER \xff\n", b"ERR BADREQ request is not UTF-8\n"),
        (b"GETUSER \xff\nGETUSER " + b"00" * 16 + b"\n", b"ERR BADREQ request is not UTF-8\n"),
    ],
    ids=["eof-mid-line", "not-utf8", "not-utf8-then-close"],
)
def test_malformed_request_framing(deployment, payload, expected):
    assert _raw_request(deployment.cfg.addresses["userdb"], payload) == expected


def test_reply_in_one_byte_segments_is_read():
    peer = _ScriptedPeer(lambda n: "reply", segment=1)
    try:
        assert wire.get_user(peer.address, b"\x01" * 16, timeout=5) == ("a@example.org", "file://h/a")
    finally:
        peer.close()


def test_multi_line_reply_in_one_segment_is_split():
    peer = _ScriptedPeer(lambda n: "reply", reply=b"OK 3\n00\n-\n0102\n")
    try:
        for _ in range(2):  # the second request reuses the connection
            assert wire.query_events(peer.address, 0, 1, "t", timeout=5) == [b"\x00", b"", b"\x01\x02"]
        assert peer.connections == 1
    finally:
        peer.close()


@pytest.mark.parametrize("extra", [0, 1], ids=["max", "max+1"])
def test_response_line_bound_is_max_line_bytes(extra):
    prefix = b"OK a@x file://h/"
    reply = prefix + b"p" * (wire.MAX_LINE_BYTES - len(prefix) + extra) + b"\n"
    peer = _ScriptedPeer(lambda n: "reply", reply=reply)
    try:
        if extra:
            with pytest.raises(TransportError, match="response line too long"):
                wire.get_user(peer.address, b"\x01" * 16, timeout=5)
        else:
            _, fileprefix = wire.get_user(peer.address, b"\x01" * 16, timeout=5)
            assert len(fileprefix) == wire.MAX_LINE_BYTES - len(b"OK a@x ")
    finally:
        peer.close()


@pytest.mark.parametrize("extra", [0, 1], ids=["max", "max+1"])
def test_request_line_bound_on_the_client(extra):
    peer = _ScriptedPeer(lambda n: "reply")
    request = "X" * (wire.MAX_LINE_BYTES + extra)
    try:
        if extra:
            with pytest.raises(TransportError, match="request line too long"):
                wire._roundtrip(peer.address, request, 5)
            assert peer.connections == 0
        else:
            wire._roundtrip(peer.address, request, 5)
            assert peer.lines == [request.encode() + b"\n"]
    finally:
        peer.close()


def _count(fields):
    return int(fields[1])


def test_events_reply_whose_count_cannot_fit_is_refused_before_a_line_is_read():
    # 1 000 000 lines of 2 bytes each: 2 MB, which a client used to read whole.
    peer = _ScriptedPeer(lambda n: "reply", reply=b"OK 1000000\n" + b"-\n" * 1_000_000)
    try:
        start = time.monotonic()
        with pytest.raises(TransportError, match="too large"):
            wire.query_events(peer.address, 0, 1, "x", timeout=5)
        assert time.monotonic() - start < 1
    finally:
        peer.close()


def _reply_of_size(size):
    """An "OK 16" reply of 16 more lines, `size` bytes in all."""
    lines = [b"OK 16"] + [b"p" * wire.MAX_LINE_BYTES] * 15
    lines.append(b"p" * (size - sum(len(line) + 1 for line in lines) - 1))
    return b"".join(line + b"\n" for line in lines)


@pytest.mark.parametrize("extra", [0, 1], ids=["max", "max+1"])
def test_reply_bound_is_max_reply_bytes_on_the_client(extra):
    reply = _reply_of_size(wire.MAX_REPLY_BYTES + extra)
    peer = _ScriptedPeer(lambda n: "close", reply=reply)
    try:
        if extra:
            with pytest.raises(TransportError, match="too large"):
                wire._roundtrip(peer.address, "EVENTS 0 1 x", 5, extra_count=_count)
        else:
            _, extras = wire._roundtrip(peer.address, "EVENTS 0 1 x", 5, extra_count=_count)
            assert len(extras) == 16 and len(extras[0]) == wire.MAX_LINE_BYTES
    finally:
        peer.close()


@contextlib.contextmanager
def _cohosted(reply):
    """An address whose requests `_roundtrip` answers with `reply` split
    at LF, as a server of this process answers one it is sent while this
    thread answers a request of its own."""
    address = "cohosted.invalid:1"  # never connected to

    def answer(request):
        return reply.decode().split("\n")[:-1]

    wire.host(address, answer)
    resolver.scope.answering += 1
    try:
        yield address
    finally:
        resolver.scope.answering -= 1
        wire.unhost(address, answer)


@pytest.mark.parametrize("extra", [0, 1], ids=["max", "max+1"])
def test_cohosted_reply_gets_the_reply_bound(extra):
    reply = _reply_of_size(wire.MAX_REPLY_BYTES + extra)
    with _cohosted(reply) as address:
        if extra:
            with pytest.raises(TransportError, match="too large"):
                wire._roundtrip(address, "EVENTS 0 1 x", None, extra_count=_count)
        else:
            _, extras = wire._roundtrip(address, "EVENTS 0 1 x", None, extra_count=_count)
            assert extras == reply.decode().split("\n")[1:-1]
    with _cohosted(b"OK 1000000\n-\n") as address:  # a count that cannot fit
        with pytest.raises(TransportError, match="too large"):
            wire._roundtrip(address, "EVENTS 0 1 x", None, extra_count=_count)


def test_a_reply_with_lines_after_its_end_is_refused_and_its_connection_dropped():
    # The second line of the first reply must not answer the second request.
    replies = {
        1: b"OK alice@example.org file://h/a\nOK mallory@example.org file://h/m\n",
        2: b"OK bob@example.org file://h/b\n",
    }
    peer = _ScriptedPeer(lambda n: "reply", reply=replies.__getitem__)
    try:
        with pytest.raises(TransportError, match="after its end"):
            wire.get_user(peer.address, b"\x01" * 16, timeout=5)
        assert wire.get_user(peer.address, b"\x02" * 16, timeout=5) == ("bob@example.org", "file://h/b")
        assert peer.connections == 2
    finally:
        peer.close()


def test_an_err_reply_keeps_its_connection():
    # INTERNAL is raised as a TransportError, as a refused reply is, but
    # only once the sound connection is back in the pool.
    replies = {1: b"ERR INTERNAL upstream failure\n", 2: b"OK bob@example.org file://h/b\n"}
    peer = _ScriptedPeer(lambda n: "reply", reply=replies.__getitem__)
    try:
        with pytest.raises(TransportError, match="remote error INTERNAL"):
            wire.get_user(peer.address, b"\x01" * 16, timeout=5)
        assert wire.get_user(peer.address, b"\x02" * 16, timeout=5) == ("bob@example.org", "file://h/b")
        assert peer.connections == 1
    finally:
        peer.close()


_CALLS = {
    "GETUSER": lambda address: wire.get_user(address, b"\x01" * 16, timeout=5),
    "EVENTS": lambda address: wire.query_events(address, 0, 1, "x", timeout=5),
}
# Scripted replies, each with the call that reads it.
_PARITY_REPLIES = [
    ("GETUSER", b"OK a@example.org file://h/a\n"),
    ("EVENTS", b"OK 3\n00\n-\n0102\n"),
    *[("GETUSER", f"ERR {code} detail\n".encode()) for code in sorted({code for _, code, _ in wire._ERR_REPLIES})],
    ("GETUSER", b"HELLO a@example.org file://h/a\n"),
    ("EVENTS", b"OK 1000000\n-\n"),
    ("GETUSER", b"OK a@example.org file://h/a\nOK m@example.org file://h/m\n"),
    ("GETUSER", b"ERR NOTBOUND x\nOK m@example.org file://h/m\n"),
    ("EVENTS", b"OK 1\n00\n-\n"),
]


def _outcome(call, address):
    try:
        return "value", _CALLS[call](address)
    except Exception as exc:
        return "raised", type(exc)


@pytest.mark.parametrize("call,reply", _PARITY_REPLIES)
def test_a_reply_gets_the_same_result_over_a_socket_and_cohosted(call, reply):
    peer = _ScriptedPeer(lambda n: "reply", reply=reply)
    try:
        over_a_socket = _outcome(call, peer.address)
    finally:
        peer.close()
    with _cohosted(reply) as address:
        assert _outcome(call, address) == over_a_socket


@pytest.mark.parametrize("extra", [0, 1], ids=["max", "max+1"])
def test_bounded_lines_bounds_a_whole_reply_in_bytes(extra):
    lines = _reply_of_size(wire.MAX_REPLY_BYTES + extra).decode().split("\n")[:-1]
    # two bytes a code point: under the bound in code points, over it in bytes
    wide = ["OK 16"] + ["\u00e9" * (wire.MAX_LINE_BYTES // 2)] * 16
    with pytest.raises(wire.LineTooLong, match="reply too long"):
        wire.bounded_lines(wide)
    if extra:
        with pytest.raises(wire.LineTooLong, match="reply too long"):
            wire.bounded_lines(lines)
    else:
        assert wire.bounded_lines(lines) is lines


@pytest.mark.parametrize("events,answer", [(15, "OK 15"), (17, "ERR INTERNAL reply too long")])
def test_calendar_never_writes_an_events_reply_over_the_reply_bound(events, answer):
    # Each spec holds a 31 000-character URL, and its hex doubles it.
    def stored(i):
        files = (("f", "http://h/" + "p" * 31_000),)
        location = kit.string_description("room")
        fields = kit.EventFields(("big",), bytes(16), location, files, 10 + i, 1000)
        return servers.StoredEvent(i.to_bytes(16, "big"), fields)

    stored_events = [stored(i) for i in range(events)]
    calendar = servers.CalendarServer(("127.0.0.1", 0), stored_events, None, "127.0.0.1:1")
    try:
        assert calendar.process_line("EVENTS 0 100 big")[0] == answer
    finally:
        calendar.server_close()


def _files_request(deployment, file_name):
    room = deployment.cfg.locations["room101"].location_id.hex()
    return f"RESOLVE {room} (occupant files {file_name})"


def test_reply_over_the_line_bound_is_refused_through_resolve(deployment):
    # The file spec holds the 40 KB name, and its hex doubles it: 80 KB.
    registry = kit.build_registry()
    ctx = ResolveContext(registry=registry, initial=registry.instantiate(deployment.cfg.initials["location"]))
    with pytest.raises(TransportError, match="reply too long"):
        resolve(ctx, parse_name(f"(occupant files {'a' * 40_000})"))


def test_connection_is_answered_after_a_reply_over_the_line_bound(deployment):
    room = deployment.cfg.locations["room101"]
    alice = deployment.cfg.users["alice"].user_id
    host, port = wire.parse_address(deployment.cfg.addresses["location"])
    with socket.create_connection((host, port), timeout=5) as sock, sock.makefile("rb") as replies:
        sock.sendall(_files_request(deployment, "a" * 40_000).encode() + b"\n")
        assert replies.readline() == b"ERR INTERNAL reply too long\n"
        sock.sendall(f"OCCUPANCY {room.location_id.hex()}\n".encode())
        assert replies.readline() == f"OK 1 {alice.hex()}\n".encode()


def test_reply_bound_is_max_line_bytes(fake_deployment):
    location = fake_deployment.servers["location"]
    (reply,) = location.process_line(_files_request(fake_deployment, "a"))
    # Each byte more of the name adds two hex digits to the reply.
    longest = 1 + (wire.MAX_LINE_BYTES - len(reply)) // 2
    (reply,) = location.process_line(_files_request(fake_deployment, "a" * longest))
    assert reply.startswith("OK ") and len(reply) > wire.MAX_LINE_BYTES - 2
    assert location.process_line(_files_request(fake_deployment, "a" * (longest + 1))) == [
        "ERR INTERNAL reply too long"
    ]


def test_overlong_verb_gets_a_badreq_line_under_the_bound(deployment):
    response = _raw_request(deployment.cfg.addresses["calendar"], b"X" * wire.MAX_LINE_BYTES + b"\n")
    assert response.startswith(b"ERR BADREQ unsupported verb XXX")
    assert response.count(b"\n") == 1 and len(response) <= 2048


@pytest.mark.parametrize(
    "reply,message",
    [
        (b"OK a@example.org file://h/a", "closed mid-line"),
        (b"OK \xff file://h/a\n", "response is not UTF-8"),
    ],
    ids=["eof-mid-line", "not-utf8"],
)
def test_malformed_response_framing(reply, message):
    peer = _ScriptedPeer(lambda n: "close", reply=reply)
    try:
        with pytest.raises(TransportError, match=message):
            wire.get_user(peer.address, b"\x01" * 16, timeout=5)
        assert len(peer.lines) == 1  # a fresh connection is never retried
    finally:
        peer.close()


# --- kernel-enforced timeouts

def _timeval(sock, option):
    return wire._TIMEVAL.unpack(sock.getsockopt(socket.SOL_SOCKET, option, wire._TIMEVAL.size))


def test_set_io_timeout_reads_back_from_the_kernel():
    # 1.5 s is a whole number of ticks at every usual kernel HZ.
    with socket.socket() as sock:
        wire.set_io_timeout(sock, 1.5)
        assert _timeval(sock, socket.SO_RCVTIMEO) == (1, 500_000)
        assert _timeval(sock, socket.SO_SNDTIMEO) == (1, 500_000)


def test_pooled_connections_are_blocking_with_the_callers_timeout(deployment):
    address = deployment.cfg.addresses["userdb"]
    wire.close_idle_connections()
    wire.get_user(address, deployment.cfg.users["alice"].user_id, timeout=1.5)
    (conn,) = wire._pool._idle[address]
    assert conn.sock.gettimeout() is None
    assert _timeval(conn.sock, socket.SO_RCVTIMEO) == (1, 500_000)


def test_a_wire_call_outside_any_resolution_waits_the_default_timeout(deployment):
    assert wire.DEFAULT_TIMEOUT == resolver.DEFAULT_TIMEOUT == 5.0
    address, alice = deployment.cfg.addresses["userdb"], deployment.cfg.users["alice"].user_id
    registry = kit.build_registry(userdb_address=address)
    initial = registry.instantiate(kit.user_description(address, alice))
    wire.close_idle_connections()
    resolve(ResolveContext(registry, initial, timeout=1.5), parse_name("(email)"))
    (conn,) = wire._pool._idle[address]
    assert _timeval(conn.sock, socket.SO_RCVTIMEO) == (1, 500_000)
    # The resolution is over: the same pooled connection, asked again
    # with no timeout, waits the default.
    wire.get_user(address, alice)
    assert wire._pool._idle[address] == deque([conn])
    assert conn.sock.gettimeout() is None
    assert _timeval(conn.sock, socket.SO_RCVTIMEO) == (5, 0)


@pytest.mark.parametrize("first,second", [(5.0, 0.3), (0.2, 0.6)], ids=["shorter", "longer"])
def test_pooled_connection_reused_under_another_timeout_honours_it(first, second):
    peer = _ScriptedPeer(lambda n: "reply" if n == 1 else "silent")
    try:
        user = b"\x01" * 16
        wire.get_user(peer.address, user, timeout=first)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            wire.get_user(peer.address, user, timeout=second)
        elapsed = time.monotonic() - start
        assert 0.8 * second < elapsed < 2 * second
        assert peer.connections == 1
        assert len(peer.lines) == 2
    finally:
        peer.close()


def test_idle_server_connection_is_shed_and_its_thread_exits(monkeypatch):
    monkeypatch.setattr(servers._LineHandler, "timeout", 0.2)
    handler_threads = []
    handle = servers._LineHandler.handle

    def recorded(self):
        handler_threads.append(threading.current_thread())
        handle(self)

    monkeypatch.setattr(servers._LineHandler, "handle", recorded)
    server = UserDatabase(("127.0.0.1", 0), {})
    start_in_thread(server)
    try:
        host, port = wire.parse_address(server.address)
        with socket.create_connection((host, port), timeout=5) as sock:
            start = time.monotonic()
            assert sock.recv(1) == b""  # the server closed it
            assert time.monotonic() - start < 2.0
        (thread,) = handler_threads
        thread.join(timeout=2)
        assert not thread.is_alive()
    finally:
        server.shutdown()
        server.server_close()


# --- padded ids and strict integers

USER_ID = "00112233445566778899aabbccddeeff"


def _userdb():
    return UserDatabase(("127.0.0.1", 0), {bytes.fromhex(USER_ID): ("u@x", "h/")})


def _location_manager():
    return LocationManager(("127.0.0.1", 0), {bytes.fromhex(USER_ID): []}, "127.0.0.1:1")


@pytest.mark.parametrize("padded", [f"  {USER_ID}  ", f"\t{USER_ID}\t", f"{USER_ID} "],
                         ids=["spaces", "tabs", "trailing"])
@pytest.mark.parametrize(
    "make_server,verb,what,ok",
    [(_userdb, "GETUSER", "user id", "OK u@x h/"), (_location_manager, "OCCUPANCY", "location id", "OK 0")],
    ids=["getuser", "occupancy"],
)
def test_padded_id_is_badreq(make_server, verb, what, ok, padded):
    server = make_server()
    try:
        assert server.process_line(f"{verb} {padded}") == [
            f"ERR BADREQ {what} must be 32 lowercase hex digits"
        ]
        assert server.process_line(f"{verb} {USER_ID}") == [ok]
    finally:
        server.server_close()


def test_parse_int_accepts_ascii_digits_and_a_sign_on_instants():
    assert wire.parse_int("0") == 0
    with pytest.raises(ValueError, match="expected a decimal integer"):
        wire.parse_int("007")
    assert wire.parse_int("-12", signed=True) == -12
    assert wire.parse_int("12", signed=True) == 12


NOT_INTEGERS = ["", "+1", "1_000", " 1", "1 ", "\t1", "1\n", "١", "--1", "-", "0x1", "00", "007", "-0", "-07"]


@pytest.mark.parametrize("text", NOT_INTEGERS + ["-1"])
def test_parse_int_rejects_everything_else(text):
    with pytest.raises(ValueError, match="expected a decimal integer"):
        wire.parse_int(text)
    if text != "-1":
        with pytest.raises(ValueError, match="expected a decimal integer"):
            wire.parse_int(text, signed=True)


def _event_spec_with_start(text):
    fields = kit.EventFields(("t",), bytes(16), kit.string_description("x"), (), 1, 2)
    return kit.encode_event_spec(fields).replace(b"start=1", b"start=" + text.encode())


def _config_with_event_start(text):
    return (
        "[addresses]\nuserdb = 127.0.0.1:1\nlocation = 127.0.0.1:2\ncalendar = 127.0.0.1:3\n"
        f"[user u]\nid = {'00' * 16}\nemail = u@x\nfiles = http://h/\n"
        f"[location l]\nid = {'11' * 16}\noccupants =\n"
        f"[event e]\nid = {'22' * 16}\ntags = t\nmoderator = u\nlocation = l\n"
        f"start = {text}\nend = 9999\n"
    )


def _config_with_userdb_port(text):
    return f"[addresses]\nuserdb = 127.0.0.1:{text}\nlocation = 127.0.0.1:2\ncalendar = 127.0.0.1:3\n"


def _location_server_answer(line):
    server = _location_manager()
    try:
        (response,) = server.process_line(line)
        return response
    finally:
        server.server_close()


def _calendar_server_answer(line):
    server = servers.CalendarServer(("127.0.0.1", 0), [], None, "127.0.0.1:1")
    try:
        (response,) = server.process_line(line)
        return response
    finally:
        server.server_close()


def _reply_from_peer(reply, call):
    peer = _ScriptedPeer(lambda n: "reply", reply=reply)
    try:
        call(peer.address)
    finally:
        peer.close()


# Padding zeros and "-0" give a second spelling of a value str() writes
# one way: a period on 127.0.0.1:080 would miss its own calendar.
@pytest.mark.parametrize("text", ["+2", "1_000", "٨٠", "007", "-0", "080"])
@pytest.mark.parametrize(
    "decode",
    [
        lambda t: pytest.raises(ValueError, wire.parse_address, f"127.0.0.1:{t}"),
        lambda t: pytest.raises(ConfigError, parse_config, _config_with_userdb_port(t)),
        lambda t: pytest.raises(MalformedSpecError, kit.parse_time_period_spec, f"h:1 {t} 3000".encode()),
        lambda t: pytest.raises(
            MalformedSpecError, kit.parse_time_period_spec, f"127.0.0.1:{t} 0 20".encode()
        ),
        lambda t: pytest.raises(MalformedSpecError, kit.parse_event_spec, _event_spec_with_start(t)),
        lambda t: pytest.raises(ConfigError, parse_config, _config_with_event_start(t)),
        lambda t: pytest.raises(
            TransportError, wire.parse_ok_resolution, ["OK", t, "00" * 32, "-"]
        ),
        lambda t: _location_server_answer(f"SETOCC {USER_ID} {t}").startswith("ERR BADREQ")
        or pytest.fail("SETOCC accepted"),
        lambda t: _calendar_server_answer(f"EVENTS {t} 5 x").startswith("ERR BADREQ")
        or pytest.fail("EVENTS accepted"),
        lambda t: pytest.raises(
            TransportError,
            _reply_from_peer,
            f"OK {t}\n".encode(),
            lambda address: wire.occupancy(address, bytes(16), timeout=5),
        ),
        lambda t: pytest.raises(
            TransportError,
            _reply_from_peer,
            f"OK {t}\n".encode(),
            lambda address: wire.query_events(address, 0, 1, "x", timeout=5),
        ),
    ],
    ids=[
        "address-port",
        "config-port",
        "time-period-spec",
        "time-period-port",
        "event-spec",
        "config-event",
        "resolve-reply",
        "setocc-count",
        "events-start",
        "occupancy-reply-count",
        "events-reply-count",
    ],
)
def test_every_integer_decoder_takes_ascii_digits_only(decode, text):
    decode(text)


def test_padding_that_int_ignores_is_rejected():
    # Config values lose surrounding whitespace to the line syntax; wire
    # fields and specs keep it, so it reaches the decoder.
    for bad in ("127.0.0.1:\t80", "127.0.0.1: 80", "127.0.0.1:80\n"):
        with pytest.raises(ValueError):
            wire.parse_address(bad)
    with pytest.raises(MalformedSpecError):
        kit.parse_time_period_spec(b"h:1 1_000 +2000")
    with pytest.raises(TransportError):
        wire.parse_ok_resolution(["OK", "\t5", "00" * 32, "-"])
    assert _location_server_answer(f"SETOCC {USER_ID} \t0").startswith("ERR BADREQ")


# --- id lists: one codec for OCCUPANCY answers and SETOCC requests

@given(st.lists(st.binary(min_size=16, max_size=16), max_size=5))
def test_id_list_codec_round_trips(ids):
    assert wire.parse_id_list(wire.format_id_list(ids).split(" ")) == ids


@pytest.mark.parametrize(
    "text",
    ["", "x", "1", "0 " + USER_ID, "2 " + USER_ID, "01 " + USER_ID, "1  " + USER_ID,
     "1 " + USER_ID.upper(), f"1 {USER_ID} "],
)
def test_id_list_is_refused_alike_by_server_and_client(text):
    with pytest.raises(ValueError):
        wire.parse_id_list(text.split(" "))
    assert _location_server_answer(f"SETOCC {USER_ID} {text}").startswith("ERR BADREQ")
    with pytest.raises(TransportError, match="^transport failure \\(malformed OCCUPANCY response"):
        _reply_from_peer(f"OK {text}\n".encode(), lambda a: wire.occupancy(a, bytes(16), timeout=5))


# --- binary fields: only what hex_field writes

@pytest.mark.parametrize("text", ["AB", "aB", "74 61", " 74", "74 ", "", "0", "abc", "0g", "--"])
def test_unhex_field_takes_only_what_hex_field_writes(text):
    with pytest.raises(ValueError):
        wire.unhex_field(text)


@pytest.mark.parametrize(
    "reply",
    [
        f"OK 5 {'00' * 32} AB\n",
        f"OK 5 {'00' * 32} \n",
        f"OK 5 {'AB' * 32} -\n",
        f"OK 5 {'00' * 31}0A -\n",
    ],
    ids=["upper-case-spec", "empty-spec", "upper-case-type-id", "upper-case-type-id-digit"],
)
def test_resolve_reply_takes_only_canonical_hex(reply):
    with pytest.raises(TransportError, match="malformed RESOLVE response"):
        _reply_from_peer(
            reply.encode(), lambda address: wire.resolve_remote(address, bytes(16), parse_name("(x)"), timeout=5)
        )


@pytest.mark.parametrize("payload", ["AB", "74 61", "", " 7461"], ids=["upper-case", "spaced", "empty", "padded"])
def test_events_payload_takes_only_canonical_hex(payload):
    with pytest.raises(TransportError, match="malformed EVENTS payload"):
        _reply_from_peer(
            f"OK 1\n{payload}\n".encode(), lambda address: wire.query_events(address, 0, 1, "x", timeout=5)
        )


# --- addresses: no whitespace in the host

@pytest.mark.parametrize("space", [" ", "\t", "\u3000"], ids=["space", "tab", "ideographic-space"])
@pytest.mark.parametrize(
    "decode",
    [
        lambda host: pytest.raises(ValueError, wire.parse_address, f"{host}:1"),
        lambda host: pytest.raises(ValueError, servers.serve, "userdb", DeploymentConfig(), f"{host}:0"),
        lambda host: pytest.raises(
            MalformedSpecError, wire.parse_addr_id_spec, f"{host}:1 {USER_ID}".encode(), kit.USER_TYPE
        ),
        lambda host: pytest.raises(MalformedSpecError, kit.parse_calendar_spec, f"{host}:1".encode()),
        lambda host: pytest.raises(MalformedSpecError, kit.parse_time_period_spec, f"{host}:1 0 1".encode()),
    ],
    ids=["address", "listen-address", "addr-id-spec", "calendar-spec", "time-period-spec"],
)
def test_an_address_host_holds_no_whitespace(decode, space):
    decode(f"my{space}host")


# --- event tags: tokens only, on both ends

@pytest.mark.parametrize("tag", ["", "a=b", "a b", "a\tb", "tagé", "meeting\nEVENTS 0 1 meeting"])
def test_a_tag_that_is_not_a_token_is_refused_before_anything_is_sent(tag):
    # nobody listens on port 1: a call that sent anything would fail to connect
    with pytest.raises(ValueError, match="event tag must be a token"):
        wire.query_events("127.0.0.1:1", 0, 1, tag, timeout=1)


def test_a_smuggled_events_request_leaves_the_pool_answering_in_step(deployment):
    address = deployment.cfg.addresses["calendar"]
    calendar = deployment.servers["calendar"]
    day_start, day_end = kit.day_bounds(deployment.clock())
    assert len(wire.query_events(address, day_start, day_end, "meeting")) == 2
    smuggled = f"meeting\nEVENTS {day_start} {day_end} meeting"
    with pytest.raises(ValueError):
        wire.query_events(address, day_start, day_end, smuggled)
    assert wire.query_events(address, day_start, day_end, "nosuchtag") == []
    assert calendar.request_count("EVENTS") == 2


@pytest.mark.parametrize("line", ["EVENTS 0 1 a=b", "EVENTS 0 1 ", "EVENTS 0 1 a\tb"])
def test_an_events_request_whose_tag_is_not_a_token_is_badreq(line):
    assert _calendar_server_answer(line) == "ERR BADREQ event tag must be a token"


# --- user records: each reply line encoded once, refused when built

@pytest.mark.parametrize(
    "record",
    [("x@y\nOK z@w", "http://h/a/"), ("", "http://h/a/"), ("a@b", ""), ("a b@c", "h/"), ("a@b", "h/\t")],
    ids=["smuggled-line", "empty-email", "empty-prefix", "spaced-email", "tabbed-prefix"],
)
def test_a_user_record_its_reply_cannot_carry_is_refused_when_the_database_is_built(record):
    with pytest.raises(ValueError, match="user record fields must be non-empty and whitespace-free"):
        UserDatabase(("127.0.0.1", 0), {b"\x01" * 16: record, b"\x02" * 16: ("b@x", "http://h/b/")})


@pytest.mark.parametrize("reply", [b"OK 0 0\n", b"OK\n"])
def test_events_reply_count_line_with_other_fields_is_a_transport_error(reply):
    with pytest.raises(TransportError, match="malformed EVENTS response"):
        _reply_from_peer(reply, lambda address: wire.query_events(address, 0, 1, "x", timeout=5))
