"""Every wire line has one codec, in `wire`, and each half undoes the other.

For each line type, a value drawn from a domain wider than the valid one
goes through the client call or the server's encoder; either the encoder
refuses it, or the other end decodes exactly that value.  The encoder
refuses a value exactly when the decoder does not give that value back
from its plain spelling (the line the encoder would write if it checked
nothing), so no value can reach the wire that the far end reads as
something else.

Client calls run against canned reply lines in place of a socket: the
stand-in for `wire._roundtrip` records the request line and answers with
the reply split at LF, as `LineConnection` would frame it.
"""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from test_names import _names_strategy

from namechain import wire
from namechain.names import parse_name, serialize_name
from namechain.resolver import Resolution, TransportError, Validity
from namechain.resources import ResourceDescription

ADDRESS = "127.0.0.1:1"  # never connected to: _roundtrip is replaced

# Mostly 16 bytes, the length every id field carries; sometimes not.
ENTITY_IDS = st.one_of(st.binary(min_size=16, max_size=16), st.binary(max_size=20))
INSTANTS = st.integers(-(2**62), 2**62)
# Text with no surrogate (a line is decoded UTF-8) and every kind of space.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(" \t\n -"), max_size=8)


def _exchange(call, reply):
    """Run `call(address)` against `reply`; return (request lines sent, result)."""
    sent = []
    lines = reply.split("\n")

    def roundtrip(address, request, timeout, extra_count=None):
        sent.append(request)
        fields = lines[0].split(" ")
        extras = []
        if fields[0] == "OK" and extra_count is not None:
            extras = lines[1 : 1 + extra_count(fields)]
        return fields, extras

    with mock.patch.object(wire, "_roundtrip", roundtrip):
        return sent, call(ADDRESS)


def _decodes_to(decode, text, expected):
    """Whether `decode` gives back `expected` from the first line of `text`."""
    try:
        return decode(text.split("\n")[0]) == expected
    except (ValueError, TransportError):
        return False


def _encodes(encode):
    """encode()'s result, or None if it refuses (ValueError)."""
    try:
        return encode()
    except ValueError:
        return None


def _request_rest(sent, verb):
    (request,) = sent
    request_verb, _, rest = request.partition(" ")
    assert request_verb == verb
    return rest


_OK_RESOLUTION = wire.format_ok_resolution(Resolution(ResourceDescription(bytes(32), b""), Validity(0)))


@given(ENTITY_IDS, _names_strategy())
def test_resolve_request_codec(resource_id, name):
    sent = _encodes(lambda: _exchange(lambda a: wire.resolve_remote(a, resource_id, name), _OK_RESOLUTION)[0])
    plain = f"{resource_id.hex()} {serialize_name(name)}"
    assert (sent is not None) == _decodes_to(wire.parse_resolve_request, plain, (resource_id, name))
    if sent is not None:
        assert wire.parse_resolve_request(_request_rest(sent, "RESOLVE")) == (resource_id, name)


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=64), INSTANTS)
def test_resolve_reply_codec(type_id, spec, expires_at):
    resolution = Resolution(ResourceDescription(type_id, spec), Validity(expires_at))
    line = wire.format_ok_resolution(resolution)
    _, result = _exchange(lambda a: wire.resolve_remote(a, bytes(16), parse_name("(x)")), line)
    assert result == resolution


@given(ENTITY_IDS, TEXT, TEXT)
def test_getuser_codec(user_id, email, fileprefix):
    sent = _encodes(lambda: _exchange(lambda a: wire.get_user(a, user_id), "OK a h/")[0])
    assert (sent is not None) == _decodes_to(wire.parse_entity_id, user_id.hex(), user_id)
    if sent is not None:
        assert wire.parse_entity_id(_request_rest(sent, "GETUSER")) == user_id

    def get_user_from(reply):
        return _exchange(lambda a: wire.get_user(a, bytes(16)), reply)[1]

    record = _encodes(lambda: wire.format_user_record(email, fileprefix))
    assert (record is not None) == _decodes_to(get_user_from, f"OK {email} {fileprefix}", (email, fileprefix))
    if record is not None:
        assert get_user_from(record) == (email, fileprefix)


@given(st.lists(ENTITY_IDS, max_size=4))
def test_occupancy_reply_and_its_id_list_codec(ids):
    def occupancy_from(reply):
        return _exchange(lambda a: wire.occupancy(a, bytes(16)), reply)[1]

    reply = _encodes(lambda: wire.ok_line(wire.format_id_list(ids)))
    plain = " ".join(["OK", str(len(ids))] + [i.hex() for i in ids])
    assert (reply is not None) == _decodes_to(occupancy_from, plain, ids)
    if reply is not None:
        assert occupancy_from(reply) == ids


@given(ENTITY_IDS, st.lists(ENTITY_IDS, max_size=4))
def test_setocc_request_codec(location_id, ids):
    sent = _encodes(lambda: _exchange(lambda a: wire.set_occupancy(a, location_id, ids), wire.ok_line())[0])
    plain = " ".join([location_id.hex(), str(len(ids))] + [i.hex() for i in ids])
    assert (sent is not None) == _decodes_to(wire.parse_setocc_request, plain, (location_id, ids))
    if sent is not None:
        assert wire.parse_setocc_request(_request_rest(sent, "SETOCC")) == (location_id, ids)


@given(INSTANTS, INSTANTS, st.one_of(TEXT, st.sampled_from(["meeting", "a.b-c_0"])))
def test_events_request_codec(start, end, tag):
    sent = _encodes(lambda: _exchange(lambda a: wire.query_events(a, start, end, tag), "OK 0")[0])
    plain = f"{start} {end} {tag}"
    assert (sent is not None) == _decodes_to(wire.parse_events_request, plain, (start, end, tag))
    if sent is not None:
        assert wire.parse_events_request(_request_rest(sent, "EVENTS")) == (start, end, tag)


@given(st.lists(st.binary(max_size=24), max_size=5))
def test_events_reply_codec(specs):
    reply = "\n".join(wire.format_events_reply(specs))
    _, result = _exchange(lambda a: wire.query_events(a, 0, 1, "x"), reply)
    assert result == specs


def test_setocc_reply_codec():
    def set_occupancy_from(reply):
        return _exchange(lambda a: wire.set_occupancy(a, bytes(16), []), reply)[1]

    assert set_occupancy_from(wire.ok_line()) is None
    for reply in ("OK ", "OK done"):
        with pytest.raises(TransportError, match="malformed SETOCC response"):
            set_occupancy_from(reply)
