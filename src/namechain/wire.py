"""Line-oriented wire protocol for remote resolution and record fetch.

Every request and every response is a single UTF-8 line of at most
64 KiB, terminated by one LF, with fields separated by single spaces and
binary payloads hex-encoded.  An empty binary field is written as ``-``.

Verbs:

    RESOLVE <resource-id-hex> <name-text>
        -> OK <expires-at-ms> <type-id-hex> <spec-hex>
        The name text is the canonical syntax and is the final field, so
        the spaces inside it are unambiguous.
    GETUSER <user-id-hex>
        -> OK <email> <fileprefix-url>            (user database only)
    OCCUPANCY <location-id-hex>
        -> OK <n> <user-id-hex>*                  (arrival order)
    SETOCC <location-id-hex> <n> <user-id-hex>*
        -> OK                                     (admin verb)
    EVENTS <start-ms> <end-ms> <tag>
        -> OK <n>  followed by n lines, each one hex-encoded event
           specification, ordered by start instant then event id

Every id field (resource, user, location) is exactly 32 lowercase hex
digits, 16 bytes; anything else, padding or inner whitespace included,
is a bad request.  ``parse_entity_id`` is the one decoder for them.

Any failure is ``ERR <code> <detail>`` with code one of NOTBOUND,
UNKNOWNTYPE, DEPTH, NOTFOUND, BADREQ, INTERNAL; the client maps each
code back onto the corresponding resolution error.

Connections are reused when possible (a small per-address pool) but the
protocol itself is stateless: one request, one response, in order.
"""

from __future__ import annotations

import re
import socket
import threading
from collections import deque
from typing import Callable, Optional

from .names import Name, serialize_name
from .resolver import (
    DepthExceededError,
    NotBoundError,
    Resolution,
    TransportError,
    UnknownTypeError,
    Validity,
)
from .resources import MalformedSpecError, ResourceDescription, TYPE_ID_LENGTH, derive_type_id

MAX_LINE_BYTES = 65536
DEFAULT_TIMEOUT = 5.0
ENTITY_ID_LENGTH = 16
_MAX_IDLE_PER_ADDRESS = 4  # pooled idle connections kept per peer

REMOTE_TYPE = derive_type_id("namechain.type.remote.v1")

_ENTITY_ID_RE = re.compile(r"[0-9a-f]{32}")


def hex_field(data: bytes) -> str:
    return data.hex() if data else "-"


def unhex_field(text: str) -> bytes:
    if text == "-":
        return b""
    return bytes.fromhex(text)


def parse_address(address: str) -> tuple[str, int]:
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {address!r}")
    port = int(port_text)
    if not 0 < port < 65536:
        raise ValueError(f"port out of range in address {address!r}")
    return host, port


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"


def parse_entity_id(text: str, what: str = "entity identifier") -> bytes:
    """Decode an entity id: exactly 32 lowercase hex digits, nothing else."""
    if not _ENTITY_ID_RE.fullmatch(text):
        raise ValueError(f"{what} must be 32 lowercase hex digits")
    return bytes.fromhex(text)


# --- addr + entity id specification shape, shared by the remote, location
# --- and user types: UTF-8 "host:port <32 lowercase hex digits>"

def encode_addr_id_spec(address: str, entity_id: bytes) -> bytes:
    if len(entity_id) != ENTITY_ID_LENGTH:
        raise ValueError(f"entity identifier must be {ENTITY_ID_LENGTH} bytes")
    return f"{address} {entity_id.hex()}".encode("utf-8")


def parse_addr_id_spec(spec: bytes, owner_type: bytes) -> tuple[str, bytes]:
    try:
        text = spec.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedSpecError(owner_type, "specification is not UTF-8") from None
    address, sep, id_hex = text.partition(" ")
    if not sep:
        raise MalformedSpecError(owner_type, "expected 'host:port <id-hex>'")
    try:
        parse_address(address)
        return address, parse_entity_id(id_hex)
    except ValueError as exc:
        raise MalformedSpecError(owner_type, str(exc)) from None


# --- resolution <-> OK line

def format_ok_resolution(resolution: Resolution) -> str:
    d = resolution.description
    return f"OK {resolution.validity.expires_at} {d.type_id.hex()} {hex_field(d.spec)}"


def parse_ok_resolution(fields: list[str]) -> Resolution:
    if len(fields) != 4:
        raise TransportError(f"malformed RESOLVE response ({len(fields)} fields)")
    try:
        expires_at = int(fields[1])
        type_id = bytes.fromhex(fields[2])
        spec = unhex_field(fields[3])
    except ValueError as exc:
        raise TransportError(f"malformed RESOLVE response: {exc}") from None
    if len(type_id) != TYPE_ID_LENGTH:
        raise TransportError("malformed RESOLVE response: bad type identifier length")
    return Resolution(ResourceDescription(type_id, spec), Validity(expires_at))


def error_line(code: str, detail: str = "") -> str:
    detail = " ".join(detail.split()) or "-"
    return f"ERR {code} {detail}"


def raise_wire_error(code: str, detail: str) -> None:
    if detail == "-":
        detail = ""
    if code == "NOTBOUND":
        raise NotBoundError(detail or "?", "reported by remote element")
    if code == "UNKNOWNTYPE":
        try:
            type_id = bytes.fromhex(detail)
        except ValueError:
            type_id = b"\x00" * TYPE_ID_LENGTH
        if len(type_id) != TYPE_ID_LENGTH:
            type_id = b"\x00" * TYPE_ID_LENGTH
        raise UnknownTypeError(type_id)
    if code == "DEPTH":
        raise DepthExceededError(detail=detail or "reported by remote element")
    if code == "NOTFOUND":
        raise NotBoundError(detail or "?", "no such record or resource")
    raise TransportError(f"remote error {code}: {detail or '-'}")


# --- pooled client connections

class _PeerClosed(ConnectionError):
    """The peer closed the connection before the line began."""


class _Conn:
    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def send_line(self, line: str) -> None:
        payload = line.encode("utf-8") + b"\n"
        if len(payload) > MAX_LINE_BYTES:
            raise TransportError("request line too long")
        self.sock.sendall(payload)

    def recv_line(self) -> str:
        raw = self.rfile.readline(MAX_LINE_BYTES + 1)
        if not raw:
            raise _PeerClosed("connection closed by peer")
        if not raw.endswith(b"\n"):
            if len(raw) > MAX_LINE_BYTES:
                raise TransportError("response line too long")
            raise ConnectionError("connection closed mid-line")
        try:
            return raw[:-1].decode("utf-8")
        except UnicodeDecodeError:
            raise TransportError("response is not UTF-8") from None

    def close(self) -> None:
        try:
            self.rfile.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _ConnectionPool:
    def __init__(self) -> None:
        self._idle: dict[str, deque[_Conn]] = {}
        self._lock = threading.Lock()

    def acquire(self, address: str, timeout: float) -> tuple[_Conn, bool]:
        with self._lock:
            queue = self._idle.get(address)
            if queue:
                conn = queue.popleft()
                conn.sock.settimeout(timeout)
                return conn, True
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {address}: {exc}") from None
        return _Conn(sock), False

    def release(self, address: str, conn: _Conn) -> None:
        with self._lock:
            queue = self._idle.setdefault(address, deque())
            if len(queue) < _MAX_IDLE_PER_ADDRESS:
                queue.append(conn)
                return
        conn.close()

    def close_all(self) -> None:
        with self._lock:
            queues = list(self._idle.values())
            self._idle.clear()
        for queue in queues:
            for conn in queue:
                conn.close()


_pool = _ConnectionPool()


def close_idle_connections() -> None:
    """Drop pooled client connections (e.g. after tearing down servers)."""
    _pool.close_all()


def _roundtrip(
    address: str,
    request: str,
    timeout: float,
    extra_count: Optional[Callable[[list[str]], int]] = None,
) -> tuple[list[str], list[str]]:
    """Send one request line; return (first response fields, extra lines)."""
    for attempt in (0, 1):
        conn, reused = _pool.acquire(address, timeout)
        fields: Optional[list[str]] = None
        try:
            conn.send_line(request)
            fields = conn.recv_line().split(" ")
            extras: list[str] = []
            if fields[0] == "OK" and extra_count is not None:
                for _ in range(extra_count(fields)):
                    extras.append(conn.recv_line())
            _pool.release(address, conn)
            return fields, extras
        except OSError as exc:
            conn.close()
            # A pooled connection the peer closed while it sat idle fails
            # with a reset, a broken pipe or EOF before any response byte.
            # Only that is retried, once, on a fresh connection; after a
            # timeout or a cut-off response the peer may still be acting
            # on the request, so it is not sent again.
            if (
                reused
                and attempt == 0
                and fields is None
                and isinstance(exc, (BrokenPipeError, ConnectionResetError, _PeerClosed))
            ):
                continue
            raise TransportError(f"request to {address} failed: {exc}") from None
        except TransportError:
            conn.close()
            raise
    raise TransportError(f"request to {address} failed")  # pragma: no cover


def _expect_ok(fields: list[str], verb: str) -> list[str]:
    if not fields:
        raise TransportError(f"empty response to {verb}")
    if fields[0] == "OK":
        return fields
    if fields[0] == "ERR" and len(fields) >= 2:
        raise_wire_error(fields[1], " ".join(fields[2:]))
    raise TransportError(f"unrecognized response to {verb}: {' '.join(fields)!r}")


def resolve_remote(
    address: str, resource_id: bytes, name: Name, timeout: float = DEFAULT_TIMEOUT
) -> Resolution:
    """Ask the element at `address` to resolve `name` from a hosted resource."""
    fields, _ = _roundtrip(address, f"RESOLVE {resource_id.hex()} {serialize_name(name)}", timeout)
    return parse_ok_resolution(_expect_ok(fields, "RESOLVE"))


def get_user(address: str, user_id: bytes, timeout: float = DEFAULT_TIMEOUT) -> tuple[str, str]:
    """Fetch a user record: (email, file collection URL prefix)."""
    fields, _ = _roundtrip(address, f"GETUSER {user_id.hex()}", timeout)
    fields = _expect_ok(fields, "GETUSER")
    if len(fields) != 3:
        raise TransportError("malformed GETUSER response")
    return fields[1], fields[2]


def occupancy(address: str, location_id: bytes, timeout: float = DEFAULT_TIMEOUT) -> list[bytes]:
    """List of user ids currently in the location, in arrival order."""
    fields, _ = _roundtrip(address, f"OCCUPANCY {location_id.hex()}", timeout)
    fields = _expect_ok(fields, "OCCUPANCY")
    try:
        count = int(fields[1])
        ids = [bytes.fromhex(f) for f in fields[2:]]
    except (IndexError, ValueError) as exc:
        raise TransportError(f"malformed OCCUPANCY response: {exc}") from None
    if len(ids) != count:
        raise TransportError("OCCUPANCY count does not match id list")
    return ids


def set_occupancy(
    address: str, location_id: bytes, user_ids: list[bytes], timeout: float = DEFAULT_TIMEOUT
) -> None:
    parts = [f"SETOCC {location_id.hex()} {len(user_ids)}"] + [u.hex() for u in user_ids]
    fields, _ = _roundtrip(address, " ".join(parts), timeout)
    _expect_ok(fields, "SETOCC")


def query_events(
    address: str, start: int, end: int, tag: str, timeout: float = DEFAULT_TIMEOUT
) -> list[bytes]:
    """Event specifications within [start, end) carrying `tag`, in order."""
    def count(fields: list[str]) -> int:
        try:
            return int(fields[1])
        except (IndexError, ValueError):
            raise TransportError("malformed EVENTS response") from None

    fields, extras = _roundtrip(address, f"EVENTS {start} {end} {tag}", timeout, extra_count=count)
    _expect_ok(fields, "EVENTS")
    try:
        return [unhex_field(line) for line in extras]
    except ValueError as exc:
        raise TransportError(f"malformed EVENTS payload: {exc}") from None


class RemoteResolver:
    """Proxy for a resource hosted by an element with native resolution.

    The remote type (specification ``host:port <resource-id-hex>``) and
    the kit's location and calendar types all resolve through it.  Whole
    names are forwarded in one RESOLVE; the remote element runs the
    resolution procedure itself and already returns the intersected
    validity.
    """

    def __init__(self, address: str, resource_id: bytes, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.address = address
        self.resource_id = resource_id
        self.timeout = timeout

    def resolve_name(self, name: Name) -> Resolution:
        return resolve_remote(self.address, self.resource_id, name, self.timeout)

    def resolve_local(self, local) -> tuple[ResourceDescription, Validity]:
        resolution = self.resolve_name(Name((local,)))
        return resolution.description, resolution.validity


def remote_description(address: str, resource_id: bytes) -> ResourceDescription:
    return ResourceDescription(REMOTE_TYPE, encode_addr_id_spec(address, resource_id))
