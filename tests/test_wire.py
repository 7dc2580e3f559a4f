import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from namechain import kit, wire
from namechain.names import parse_name
from namechain.resolver import (
    DepthExceededError,
    NotBoundError,
    Resolution,
    TransportError,
    UnknownTypeError,
    Validity,
)
from namechain.resources import ResourceDescription


# --- framing and field encodings (no sockets)

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


def test_remote_resolver_delegates_whole_names(fake_deployment):
    cfg = fake_deployment.cfg
    proxy = wire.RemoteResolver(cfg.addresses["calendar"], kit.CALENDAR_RESOURCE_ID)
    resolution = proxy.resolve_name(parse_name("(today meeting moderator email)"))
    assert resolution.description == kit.string_description(cfg.users["alice"].email)

    description, validity = proxy.resolve_local(parse_name("(today)").locals[0])
    assert description.type_id == kit.TIME_PERIOD_TYPE
    assert validity.expires_at == kit.day_bounds(fake_deployment.clock())[1]


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
    from conftest import free_port
    from namechain.servers import serve, start_in_thread

    override = f"127.0.0.1:{free_port()}"
    server = serve("userdb", deployment.cfg, listen=override)
    start_in_thread(server)
    try:
        alice = deployment.cfg.users["alice"]
        assert server.address == override
        assert wire.get_user(override, alice.user_id) == (alice.email, alice.fileprefix)
    finally:
        wire.close_idle_connections()
        server.shutdown()
        server.server_close()


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
    """Loopback peer that answers each GETUSER line as `answer(n)` says.

    `answer` gets the 1-based number of the request line over all
    connections and returns "reply" (answer it and keep the connection),
    "close" (answer it, then close the connection) or "silent" (never
    answer).
    """

    def __init__(self, answer):
        self.answer = answer
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
            for line in rfile:
                with self._lock:
                    self.lines.append(line)
                    action = self.answer(len(self.lines))
                if action == "silent":
                    continue
                sock.sendall(b"OK a@example.org file://h/a\n")
                if action == "close":
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
