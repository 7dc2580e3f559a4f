"""Line-oriented wire protocol for remote resolution and record fetch.

Every request and every response is a single UTF-8 line of at most
64 KiB (``MAX_LINE_BYTES``, which ``bounded_lines`` checks on every line
either end writes), terminated by one LF, with fields separated by
single spaces and binary payloads hex-encoded in lowercase pairs.  An
empty binary field is written as ``-``; ``unhex_field`` takes nothing
else (no upper case, no spaces, no empty field).  An address is
``host:port`` with no whitespace in the host.  Whitespace is what
str.isspace() flags, for every field, address, URL and config value
that must be free of it (``whitespace_free``, the one rule).

A client reads every reply alike, from a connection or from a co-hosted
server's answer (``_read_reply``): its first line, after an OK to EVENTS
the lines its count announces, and then nothing more.  That one reply of
several lines is at most 1 MiB, its lines and LFs together
(``MAX_REPLY_BYTES``, 16 lines at the line bound), and no server writes
a larger one (``bounded_lines``).  A client refuses one as "too large":
a count that could not fit at 2 bytes a line before it reads a line,
else as soon as the lines read pass the bound.  A reply with anything
after it is refused, and its connection closed, never pooled.  Only then
does an ERR reply raise its client-side error, on a connection kept.

Verbs:

    RESOLVE <resource-id-hex> <name-text>
        -> OK <expires-at-ms> <type-id-hex> <spec-hex>
        The name text is the canonical syntax and is the final field, so
        the spaces inside it are unambiguous.
    GETUSER <user-id-hex>
        -> OK <email> <fileprefix-url>            (user database only)
        Both fields are non-empty and whitespace-free.
    OCCUPANCY <location-id-hex>
        -> OK <n> <user-id-hex>*                  (arrival order)
    SETOCC <location-id-hex> <n> <user-id-hex>*
        -> OK                                     (admin verb)
    EVENTS <start-ms> <end-ms> <tag>
        -> OK <n>  followed by n lines, each one hex-encoded event
           specification, ordered by start instant then event id
        The tag is a token, as in names and event specs.

Every line has one encoder and one decoder, both here: the client calls
below write each request and read its reply, and a server's handlers
decode requests and encode replies through the functions beside them.
Each encoder refuses what its decoder refuses, so no value can put a
second line on a connection.  There is no version word: the three roles
ship and deploy together.

Every id field (resource, user, location) is exactly 32 lowercase hex
digits, 16 bytes; anything else, padding or inner whitespace included,
is a bad request.  ``parse_entity_id`` is the one decoder for them.

Any failure is ``ERR <code> <detail>``.  ``error_reply`` writes the
line for what a verb handler raised and ``raise_wire_error`` raises its
client-side error; the codes, with what the detail carries:

    NOTBOUND <local>      NotBoundError, with that local name
    UNKNOWNTYPE <type-id> UnknownTypeError, with that type id
    DEPTH <max-depth>     DepthExceededError, with that step budget
    NOTFOUND <id>         NotBoundError: a handler raised NotFound, as
                          there is no such record or resource
    BADREQ <reason>       TransportError: a malformed request or name
    INTERNAL <reason>     TransportError: an upstream failure, a bad
                          stored specification, or "reply too long": a
                          reply line over MAX_LINE_BYTES or a reply over
                          MAX_REPLY_BYTES (LineTooLong)

A detail is cut to its first 1024 characters, so an ERR line that echoes
a request stays far under the bound.

Integer fields are ASCII decimal digits without a leading zero, with one
leading ``-`` only on instants (``parse_int``); ``+``, ``-0``, separators
and padding are bad requests.

Connections are reused when possible (a small per-address pool) but the
protocol itself is stateless: one request, one response, in order.

Both ends use blocking sockets whose every send and receive the kernel
bounds (``SO_SNDTIMEO``/``SO_RCVTIMEO``, set by ``set_io_timeout``), so
reading or writing a line costs one system call, not a readiness poll
first.  A client connects within its timeout (``socket.create_connection``)
and then waits at most that long on each send and receive; a server sheds
a connection idle for 60 s.  A call the bound cuts short fails with
EAGAIN, reported as "timed out".  ``LineConnection`` is the one line
reader and writer of both ends.

A client call's timeout is its caller's ``timeout`` argument.  When that
is None, it is the timeout of the resolution running on the thread
(``ResolveContext.timeout``, which ``resolver.scope`` holds), else
``DEFAULT_TIMEOUT``.  So every hop a resolution makes has its timeout,
and no registry or proxy holds one.

Servers in one process answer each other without a socket: each hosts
its answer function here (``host``) under the one address its peers
reach it at, as they write it, so a host name works as an IP does.  A
request sent while answering (``resolver.scope.answering`` > 0) to a
hosted address is a call to that answer, in the calling thread.  Its
lines, the server's counters and its ERR codes are those a connection
carries, and it has no timeout of its own.  A co-hosted RESOLVE spends
its caller's step budget, so the caller's limit bounds how deep such
calls nest, and its wire calls have its caller's timeout.  A request
sent over a socket starts a fresh budget at the server, under the
default timeout.
"""

from __future__ import annotations

import re
import socket
import struct
import threading
from collections import deque
from typing import Any, Callable, Optional

from .names import _TOKEN_RE, Name, NameSyntaxError, parse_name, serialize_name
from .resolver import (
    DEFAULT_TIMEOUT,
    DepthExceededError,
    MalformedSpecError,
    NotBoundError,
    Resolution,
    TransportError,
    UnknownTypeError,
    Validity,
    _new_tuple,
    scope,
)
from .resources import ResourceDescription, TYPE_ID_LENGTH, _new_description, derive_type_id

MAX_LINE_BYTES = 65536
# A whole reply's bytes, every line and its LF together (see above).  A
# benchmark fixture's event spec is about 420 bytes, a line of about 840,
# so a reply holds over a thousand such events.
MAX_REPLY_BYTES = 16 * MAX_LINE_BYTES
_FITS_ANY_CHARS = MAX_LINE_BYTES // 4  # UTF-8 takes at most 4 bytes a code point
_MAX_DETAIL_CHARS = 1024  # an ERR line's detail, so no ERR line nears MAX_LINE_BYTES
ENTITY_ID_LENGTH = 16
_MAX_IDLE_PER_ADDRESS = 4  # pooled idle connections kept per peer
_RECV_BYTES = 65536  # the most one receive asks the kernel for

REMOTE_TYPE = derive_type_id("namechain.type.remote.v1")

_ENTITY_ID_RE = re.compile(r"[0-9a-f]{32}")
# Integers as str() writes them; "-0" and padding zeros are not.
_UNSIGNED_INT_RE = re.compile(r"0|[1-9][0-9]*")
_SIGNED_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


def hex_field(data: bytes) -> str:
    return data.hex() if data else "-"


def unhex_field(text: str) -> bytes:
    """Decode a field as hex_field writes it: lowercase hex pairs, or '-'.
    bytes.fromhex alone also takes upper case and spaces between pairs."""
    if text == "-":
        return b""
    data = bytes.fromhex(text)
    if not data or data.hex() != text:
        raise ValueError("binary field must be lowercase hex digit pairs or '-'")
    return data


def whitespace_free(text: str) -> bool:
    """Whether `text` is non-empty and holds no code point that
    str.isspace() flags: the one whitespace rule of fields, addresses,
    URLs and config values.

    str.split() splits at exactly those code points, the ones a regular
    expression's \\s matches, so a text it leaves whole is such a field.
    """
    return text.split() == [text]


def parse_int(text: str, signed: bool = False) -> int:
    """Decode a decimal integer in the form str() writes: ASCII digits with
    no leading zero, one leading '-' if `signed`.

    int() also takes '+', '_' separators, surrounding whitespace, padding
    zeros and non-ASCII digits; no wire, spec or config field allows them.
    """
    if (_SIGNED_INT_RE if signed else _UNSIGNED_INT_RE).fullmatch(text):
        return int(text)
    raise ValueError(f"expected a decimal integer, got {text!r}")


def parse_address(address: str) -> tuple[str, int]:
    """Decode host:port to connect to; the host holds no whitespace."""
    host, port = parse_listen_address(address)
    if not port:
        raise ValueError(f"port out of range in address {address!r}")
    return host, port


def parse_listen_address(address: str) -> tuple[str, int]:
    """Decode host:port to listen on: unlike an address to connect to,
    its port may be 0, and the kernel picks a free port."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {address!r}")
    if not whitespace_free(host):
        raise ValueError(f"address host must be whitespace-free, got {address!r}")
    port = parse_int(port_text)
    if port > 65535:
        raise ValueError(f"port out of range in address {address!r}")
    return host, port


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"


def format_entity_id(entity_id: bytes) -> str:
    if len(entity_id) != ENTITY_ID_LENGTH:
        raise ValueError(f"entity identifier must be {ENTITY_ID_LENGTH} bytes")
    return entity_id.hex()


def parse_entity_id(text: str, what: str = "entity identifier") -> bytes:
    """Decode an entity id: exactly 32 lowercase hex digits, nothing else."""
    if not _ENTITY_ID_RE.fullmatch(text):
        raise ValueError(f"{what} must be 32 lowercase hex digits")
    return bytes.fromhex(text)


# --- addr + entity id specification shape, shared by the remote, location
# --- and user types: UTF-8 "host:port <32 lowercase hex digits>"

def encode_addr_id_spec(address: str, entity_id: bytes) -> bytes:
    """The spec of `entity_id` at `address`, refusing an address that
    parse_address refuses, as parse_addr_id_spec does."""
    parse_address(address)
    return _encode_addr_id_spec(address, entity_id)


def _encode_addr_id_spec(address: str, entity_id: bytes) -> bytes:
    # For callers that checked `address` once, when they were built.
    return f"{address} {format_entity_id(entity_id)}".encode("utf-8")


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


# --- requests after their verb, as the client calls below write them

def parse_resolve_request(rest: str) -> tuple[bytes, Name]:
    id_hex, sep, name_text = rest.partition(" ")
    if not sep:
        raise ValueError("expected RESOLVE <resource-id> <name>")
    return parse_entity_id(id_hex, "resource id"), parse_name(name_text)


def parse_setocc_request(rest: str) -> tuple[bytes, list[bytes]]:
    location_hex, *id_list = rest.split(" ")
    return parse_entity_id(location_hex, "location id"), parse_id_list(id_list)


def _event_tag(tag: str) -> str:
    if not _TOKEN_RE.fullmatch(tag):
        raise ValueError("event tag must be a token")
    return tag


def parse_events_request(rest: str) -> tuple[int, int, str]:
    fields = rest.split(" ")
    if len(fields) != 3:
        raise ValueError("expected EVENTS <start-ms> <end-ms> <tag>")
    try:
        start, end = parse_int(fields[0], signed=True), parse_int(fields[1], signed=True)
    except ValueError:
        raise ValueError("start and end must be integer milliseconds") from None
    return start, end, _event_tag(fields[2])


# --- replies other than RESOLVE's: the first line is "OK" and its fields

def ok_line(*fields: str) -> str:
    return " ".join(("OK",) + fields)


def format_user_record(email: str, fileprefix: str) -> str:
    """The GETUSER reply, refusing what get_user refuses: an empty field,
    or one holding whitespace."""
    if not (whitespace_free(email) and whitespace_free(fileprefix)):
        raise ValueError("user record fields must be non-empty and whitespace-free")
    return ok_line(email, fileprefix)


def format_events_reply(specs: list[bytes]) -> list[str]:
    return [f"OK {len(specs)}"] + [hex_field(spec) for spec in specs]


# --- resolution <-> OK line

def format_ok_resolution(resolution: Resolution) -> str:
    d = resolution.description
    return f"OK {resolution.validity.expires_at} {d.type_id.hex()} {hex_field(d.spec)}"


def parse_ok_resolution(fields: list[str]) -> Resolution:
    if len(fields) != 4:
        raise TransportError(f"malformed RESOLVE response ({len(fields)} fields)")
    try:
        expires_at = parse_int(fields[1], signed=True)
        type_id = unhex_field(fields[2])
        spec = unhex_field(fields[3])
    except ValueError as exc:
        raise TransportError(f"malformed RESOLVE response: {exc}") from None
    if len(type_id) != TYPE_ID_LENGTH:
        raise TransportError("malformed RESOLVE response: bad type identifier length")
    # type_id has its length and spec is bytes, all that ResourceDescription
    # checks, so build it without checking again.
    description = _new_description(type_id, spec)
    return _new_tuple(Resolution, (description, _new_tuple(Validity, (expires_at,))))


# --- failures <-> ERR line

class NotFound(LookupError):
    """A server holds nothing under the id a request names."""


class LineTooLong(Exception):
    """A line to be written is over MAX_LINE_BYTES, or a reply over MAX_REPLY_BYTES."""


def _utf8_size(line: str) -> int:
    return len(line) if line.isascii() else len(line.encode("utf-8"))


def bounded_lines(lines: list[str]) -> list[str]:
    """`lines`, if none is over MAX_LINE_BYTES when encoded and all of
    them with their LFs are not over MAX_REPLY_BYTES: the bound on every
    line either end writes, and on every reply a server writes.  Raises
    LineTooLong otherwise."""
    chars = 0
    for line in lines:
        if len(line) > _FITS_ANY_CHARS and len(line.encode("utf-8")) > MAX_LINE_BYTES:
            raise LineTooLong("line too long")
        chars += len(line) + 1
    if chars > MAX_REPLY_BYTES // 4 and sum(_utf8_size(line) + 1 for line in lines) > MAX_REPLY_BYTES:
        raise LineTooLong("reply too long")
    return lines


def error_line(code: str, detail: str = "") -> str:
    detail = " ".join(detail[:_MAX_DETAIL_CHARS].split()) or "-"
    return f"ERR {code} {detail}"


# What a verb handler may raise, in the order error_reply tries them (a
# NameSyntaxError is also a ValueError), with its code and detail.
_ERR_REPLIES: tuple[tuple[type[Exception], str, Callable[[Any], str]], ...] = (
    (NameSyntaxError, "BADREQ", lambda exc: f"bad name: {exc}"),
    (NotBoundError, "NOTBOUND", lambda exc: exc.local),
    (UnknownTypeError, "UNKNOWNTYPE", lambda exc: exc.type_id.hex()),
    (DepthExceededError, "DEPTH", lambda exc: str(exc.max_depth or "")),
    (NotFound, "NOTFOUND", str),
    (TransportError, "INTERNAL", lambda exc: f"upstream failure: {exc.detail}"),
    (MalformedSpecError, "INTERNAL", lambda exc: f"malformed specification: {exc.reason}"),
    (LineTooLong, "INTERNAL", lambda exc: "reply too long"),
    (ValueError, "BADREQ", str),
)
REPORTED_ERRORS = tuple(cls for cls, _, _ in _ERR_REPLIES)


def error_reply(exc: Exception) -> str:
    """The ERR line answering `exc`, an instance of REPORTED_ERRORS."""
    for cls, code, detail in _ERR_REPLIES:
        if isinstance(exc, cls):
            return error_line(code, detail(exc))
    raise TypeError(f"no ERR code reports {type(exc).__name__}")


def raise_wire_error(code: str, detail: str) -> None:
    if detail == "-":
        detail = ""
    if code == "NOTBOUND":
        raise NotBoundError(detail or "?", "reported by remote element")
    if code == "UNKNOWNTYPE":
        try:
            type_id = unhex_field(detail)
        except ValueError:
            type_id = b""
        if len(type_id) != TYPE_ID_LENGTH:
            type_id = b"\x00" * TYPE_ID_LENGTH
        raise UnknownTypeError(type_id)
    if code == "DEPTH":
        try:
            max_depth = parse_int(detail)
        except ValueError:
            raise DepthExceededError(detail=detail or "reported by remote element") from None
        raise DepthExceededError(max_depth)
    if code == "NOTFOUND":
        raise NotBoundError(detail or "?", "no such record or resource")
    raise TransportError(f"remote error {code}: {detail or '-'}")


# --- id lists: "<n> <id-hex>*", the ids of users in arrival order

def format_id_list(ids: list[bytes]) -> str:
    return " ".join([str(len(ids))] + [format_entity_id(i) for i in ids])


def parse_id_list(fields: list[str]) -> list[bytes]:
    """Decode an id list split at its spaces: a count, then that many ids."""
    count = parse_int(fields[0] if fields else "")
    ids = [parse_entity_id(f, "user identifier") for f in fields[1:]]
    if len(ids) != count:
        raise ValueError("id count does not match id list")
    return ids


# --- line connections, both ends

# struct timeval as SO_RCVTIMEO and SO_SNDTIMEO take it: tv_sec and
# tv_usec, two native C longs, as Linux defines time_t and suseconds_t.
# Packed here and nowhere else.
_TIMEVAL = struct.Struct("@ll")


def set_io_timeout(sock: socket.socket, timeout: float) -> None:
    """Bound each send and receive on a blocking socket to `timeout` seconds.

    The kernel enforces the bound: a call that runs out fails with
    EAGAIN (BlockingIOError).  A zero timeout becomes 1 us, since a zero
    timeval would mean no bound at all.
    """
    micros = max(1, round(timeout * 1_000_000))
    timeval = _TIMEVAL.pack(micros // 1_000_000, micros % 1_000_000)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


class _PeerClosed(ConnectionError):
    """The peer closed the connection before the line began."""


class BadLine(ValueError):
    """A received line is over MAX_LINE_BYTES or is not UTF-8."""


class LineConnection:
    """A blocking socket carrying LF-terminated lines, and its read buffer.

    Each receive is one recv() into the buffer; bytes after the line
    returned stay there for the next one, so lines that arrive together
    are each scanned and copied once.
    """

    __slots__ = ("sock", "timeout", "_buf", "_start")

    def __init__(self, sock: socket.socket, timeout: float) -> None:
        sock.setblocking(True)
        self.sock = sock
        self.set_timeout(timeout)
        self._buf = bytearray()
        self._start = 0  # where the unread bytes begin in _buf

    def set_timeout(self, timeout: float) -> None:
        set_io_timeout(self.sock, timeout)
        self.timeout = timeout

    def read_line(self) -> str:
        """The next line without its LF.

        Raises BadLine for content over MAX_LINE_BYTES (as soon as that
        many bytes are in without an LF) or not UTF-8, _PeerClosed on EOF
        before any byte, ConnectionError on EOF mid-line and
        BlockingIOError when the receive bound runs out.
        """
        buf = self._buf
        start = scan = self._start
        while (end := buf.find(b"\n", scan)) < 0:
            if len(buf) - start > MAX_LINE_BYTES:
                raise BadLine("line too long")
            if start:
                del buf[:start]  # drop the lines already returned
                self._start = start = 0
            scan = len(buf)
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                if buf:
                    raise ConnectionError("connection closed mid-line")
                raise _PeerClosed("connection closed by peer")
            buf += chunk
        self._start = end + 1
        if end - start > MAX_LINE_BYTES:
            raise BadLine("line too long")
        try:
            return buf[start:end].decode("utf-8")
        except UnicodeDecodeError:
            raise BadLine("is not UTF-8") from None

    def unread(self) -> bool:
        """Whether bytes past the last line returned are in the buffer."""
        return self._start < len(self._buf)

    def send_lines(self, lines: list[str]) -> None:
        self.sock.sendall(("\n".join(lines) + "\n").encode("utf-8"))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# --- pooled client connections

class _ConnectionPool:
    def __init__(self) -> None:
        self._idle: dict[str, deque[LineConnection]] = {}
        self._lock = threading.Lock()

    def acquire(self, address: str, timeout: float) -> tuple[LineConnection, bool]:
        with self._lock:
            queue = self._idle.get(address)
            conn = queue.popleft() if queue else None
        if conn is not None:
            if conn.timeout != timeout:
                conn.set_timeout(timeout)
            return conn, True
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {address}: {exc}") from None
        return LineConnection(sock, timeout), False

    def release(self, address: str, conn: LineConnection) -> None:
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


# --- servers in this process

# RoleServer.answer: the lines one request line gets.
Answer = Callable[[str], list[str]]
# The answer function of each server in this process, by the address it
# is reached at, from when it is bound until it is closed.
_answers: dict[str, Answer] = {}
_answers_lock = threading.Lock()


def host(address: str, answer: Answer) -> None:
    """Answer requests a server in this process sends to `address` by
    calling `answer`."""
    with _answers_lock:
        _answers[address] = answer


def unhost(address: str, answer: Answer) -> None:
    """Forget `address`, if `answer` is what it is hosted to."""
    with _answers_lock:
        if _answers.get(address) == answer:
            del _answers[address]


def _read_reply(
    first: str,
    read_line: Callable[[], str],
    unread: Callable[[], bool],
    extra_count: Optional[Callable[[list[str]], int]],
) -> tuple[list[str], list[str]]:
    """(`first`'s fields, the lines after it): those `extra_count`
    announces after an OK, each from `read_line`.  Refuses a reply over
    MAX_REPLY_BYTES, counting each line still to come at its least, '-'
    and its LF, and a reply that `unread` says goes on (see above)."""
    fields = first.split(" ")
    extras: list[str] = []
    if fields[0] == "OK" and extra_count is not None:
        count = extra_count(fields)
        size = _utf8_size(first) + 1 + 2 * count
        while size <= MAX_REPLY_BYTES and len(extras) < count:
            line = read_line()
            size += _utf8_size(line) - 1
            extras.append(line)
        if size > MAX_REPLY_BYTES:
            raise TransportError(f"response too large (over {MAX_REPLY_BYTES} bytes)")
    if unread():
        raise TransportError("response has lines after its end")
    return fields, extras


def _roundtrip(
    address: str,
    request: str,
    timeout: Optional[float],
    extra_count: Optional[Callable[[list[str]], int]] = None,
) -> tuple[list[str], list[str]]:
    """Send one request line; return (first response fields, extra lines)
    of an OK reply, or raise the client-side error of any other.

    A timeout of None is that of the resolution running on this thread,
    else DEFAULT_TIMEOUT.  A request a server sends while answering, to a
    server in this process, is a call to that server's answer function
    instead, whose lines are read as a connection's are (_read_reply).
    """
    try:
        bounded_lines([request])
    except LineTooLong as exc:
        raise TransportError(f"request {exc}") from None
    if scope.answering and (answer := _answers.get(address)) is not None:
        lines = iter(answer(request))
        try:
            fields, extras = _read_reply(
                next(lines), lines.__next__, lambda: next(lines, None) is not None, extra_count
            )
        except StopIteration:
            raise TransportError("response ended before its last line") from None
        return _expect_ok(fields, request), extras
    if timeout is None:
        timeout = DEFAULT_TIMEOUT if scope.budget is None else scope.budget.ctx.timeout
    payload = (request + "\n").encode("utf-8")
    for attempt in (0, 1):
        conn, reused = _pool.acquire(address, timeout)
        first: Optional[str] = None
        try:
            conn.sock.sendall(payload)
            first = conn.read_line()
            fields, extras = _read_reply(first, conn.read_line, conn.unread, extra_count)
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
                and first is None
                and isinstance(exc, (BrokenPipeError, ConnectionResetError, _PeerClosed))
            ):
                continue
            detail = "timed out" if isinstance(exc, BlockingIOError) else exc
            raise TransportError(f"request to {address} failed: {detail}") from None
        except BadLine as exc:
            conn.close()
            raise TransportError(f"response {exc}") from None
        except TransportError:
            conn.close()
            raise
        # A whole reply with nothing after it: the connection is sound,
        # whatever the reply says.
        _pool.release(address, conn)
        return _expect_ok(fields, request), extras
    raise TransportError(f"request to {address} failed")  # pragma: no cover


def _expect_ok(fields: list[str], request: str) -> list[str]:
    if fields[0] == "OK":
        return fields
    if fields[0] == "ERR" and len(fields) >= 2:
        raise_wire_error(fields[1], " ".join(fields[2:]))
    verb = request.partition(" ")[0]
    raise TransportError(f"unrecognized response to {verb}: {' '.join(fields)!r}")


def resolve_remote(
    address: str, resource_id: bytes, name: Name, timeout: Optional[float] = None
) -> Resolution:
    """Ask the element at `address` to resolve `name` from a hosted resource."""
    request = f"RESOLVE {format_entity_id(resource_id)} {serialize_name(name)}"
    fields, _ = _roundtrip(address, request, timeout)
    return parse_ok_resolution(fields)


def get_user(address: str, user_id: bytes, timeout: Optional[float] = None) -> tuple[str, str]:
    """Fetch a user record: (email, file collection URL prefix)."""
    fields, _ = _roundtrip(address, f"GETUSER {format_entity_id(user_id)}", timeout)
    if len(fields) != 3 or not (whitespace_free(fields[1]) and whitespace_free(fields[2])):
        raise TransportError("malformed GETUSER response")
    return fields[1], fields[2]


def occupancy(address: str, location_id: bytes, timeout: Optional[float] = None) -> list[bytes]:
    """List of user ids currently in the location, in arrival order."""
    fields, _ = _roundtrip(address, f"OCCUPANCY {format_entity_id(location_id)}", timeout)
    try:
        return parse_id_list(fields[1:])
    except ValueError as exc:
        raise TransportError(f"malformed OCCUPANCY response: {exc}") from None


def set_occupancy(
    address: str, location_id: bytes, user_ids: list[bytes], timeout: Optional[float] = None
) -> None:
    request = f"SETOCC {format_entity_id(location_id)} {format_id_list(user_ids)}"
    fields, _ = _roundtrip(address, request, timeout)
    if fields != ["OK"]:
        raise TransportError("malformed SETOCC response")


def query_events(
    address: str, start: int, end: int, tag: str, timeout: Optional[float] = None
) -> list[bytes]:
    """Event specifications within [start, end) carrying `tag`, in order.

    A tag that is not a token raises ValueError before anything is sent."""
    def count(fields: list[str]) -> int:
        try:
            (count_text,) = fields[1:]
            return parse_int(count_text)
        except ValueError:
            raise TransportError("malformed EVENTS response") from None

    request = f"EVENTS {start} {end} {_event_tag(tag)}"
    _, extras = _roundtrip(address, request, timeout, extra_count=count)
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
    validity.  Its wire call has the timeout of the resolution it is a
    step of.
    """

    def __init__(self, address: str, resource_id: bytes) -> None:
        self.address = address
        self.resource_id = resource_id

    def resolve_name(self, name: Name) -> Resolution:
        return resolve_remote(self.address, self.resource_id, name)


def remote_description(address: str, resource_id: bytes) -> ResourceDescription:
    return ResourceDescription(REMOTE_TYPE, encode_addr_id_spec(address, resource_id))
