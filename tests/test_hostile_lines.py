"""Hostile request lines get a typed answer from every role.

Seed lines, one valid request of each verb, are mutated (characters
deleted, inserted or replaced; ids padded, or swapped for another role's
or an unknown one; names nested up to and past
MAX_NESTING; lines grown to MAX_LINE_BYTES) and handed to every role's
process_line, as its connection handler would.  Each answer is one
``OK ...`` line (an EVENTS answer: its count line and that many lines)
or one ``ERR <code> <detail>`` line with a documented code; a handler
that raised anything else would have been answered ``ERR INTERNAL
unhandled error`` instead.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import Deployment, FakeClock

from namechain import kit, wire
from namechain.names import MAX_NESTING

ERR_CODES = ("NOTBOUND", "UNKNOWNTYPE", "DEPTH", "NOTFOUND", "BADREQ", "INTERNAL")
ROLES = ("userdb", "location", "calendar")
ID_RE = re.compile(r"[0-9a-f]{32}")
# What a mutation inserts: name and field syntax, spaces, digits, hex, and
# any other code point a UTF-8 line can hold (never LF, which ends it).
CHARS = st.sampled_from("()[]=, \t0-a.fF") | st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")


@pytest.fixture(scope="module")
def hostile_deployment():
    """A deployment of its own: SETOCC lines rewrite its occupancy."""
    dep = Deployment(clock=FakeClock())
    yield dep
    dep.shutdown()


def _seed_lines(dep):
    """One valid request of each verb, with the role that serves it."""
    cfg = dep.cfg
    alice = cfg.users["alice"].user_id.hex()
    room = cfg.locations["room101"].location_id.hex()
    calendar = kit.CALENDAR_RESOURCE_ID.hex()
    day_start, day_end = kit.day_bounds(dep.clock())
    return [
        ("userdb", f"GETUSER {alice}"),
        ("location", f"OCCUPANCY {room}"),
        ("location", f"SETOCC {room} 1 {alice}"),
        ("calendar", f"EVENTS {day_start} {day_end} meeting"),
        ("location", f"RESOLVE {room} (occupant files naming.ppt)"),
        ("calendar", f"RESOLVE {calendar} (today meeting moderator email)"),
        ("calendar", f"RESOLVE {calendar} (today meeting location occupant[n=(today meeting moderator)])"),
    ]


@st.composite
def _mutated(draw, line, known_ids):
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "replace", "pad", "swap", "nest", "long"]))
        i = draw(st.integers(0, len(line)))
        if kind == "delete":
            line = line[:i] + line[i + 1 :]
        elif kind == "insert":
            line = line[:i] + draw(CHARS) + line[i:]
        elif kind == "replace":
            line = line[:i] + draw(CHARS) + line[i + 1 :]
        elif kind in ("pad", "swap"):
            ids = list(ID_RE.finditer(line))
            if ids:
                m = draw(st.sampled_from(ids))
                if kind == "pad":
                    pad = draw(st.sampled_from([" ", "  ", "\t", "0", "00"]))
                    entity_id = pad * draw(st.booleans()) + m.group() + pad * draw(st.booleans())
                else:
                    entity_id = draw(st.sampled_from(known_ids) | st.binary(min_size=16, max_size=16).map(bytes.hex))
                line = line[: m.start()] + entity_id + line[m.end() :]
        elif kind == "nest":  # the name, inside an attribute of an attribute of ...
            verb, _, rest = line.partition(" ")
            entity_id, _, name = rest.partition(" ")
            wrapper = draw(st.sampled_from(["a", "today", "occupant"]))
            depth = draw(st.integers(1, MAX_NESTING + 1))
            nested = f"({wrapper}[n=" * (depth - 1) + (name or "(a)") + "])" * (depth - 1)
            line = f"{verb} {entity_id} {nested}"
        else:  # grow the line to within a few bytes of MAX_LINE_BYTES
            filler = draw(st.sampled_from(["a", " a", "0", "(", "é"]))
            room = wire.MAX_LINE_BYTES - draw(st.integers(0, 3)) - len(line.encode())
            line = line[:i] + filler * max(0, room // len(filler.encode())) + line[i:]
    return line


@st.composite
def _hostile_requests(draw, seeds):
    role, line = draw(st.sampled_from(seeds))
    known_ids = sorted({entity_id for _, seed in seeds for entity_id in ID_RE.findall(seed)})
    # mostly the role that serves the verb, and sometimes any role
    return draw(st.sampled_from((role,) * 5 + ROLES)), draw(_mutated(line, known_ids))


def _check_answer(line, answer):
    assert answer and all("\n" not in part for part in answer), answer
    assert all(len(part.encode("utf-8")) <= wire.MAX_LINE_BYTES for part in answer), answer[0][:80]
    first = answer[0]
    if first.startswith("ERR "):
        code = first.split(" ")[1]
        assert code in ERR_CODES and len(answer) == 1, answer
    elif line.startswith("EVENTS "):
        assert re.fullmatch(r"OK (0|[1-9][0-9]*)", first), answer
        assert len(answer) == 1 + int(first.split(" ")[1])
    else:
        assert first == "OK" or first.startswith("OK "), answer
        assert len(answer) == 1, answer


def test_every_mutated_line_gets_one_typed_answer_on_every_role(hostile_deployment):
    dep = hostile_deployment

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_hostile_requests(_seed_lines(dep)))
    def check(request):
        role, line = request
        _check_answer(line, dep.servers[role].process_line(line))

    check()


def test_each_seed_line_is_answered_ok_by_its_role(hostile_deployment):
    for role, line in _seed_lines(hostile_deployment):
        answer = hostile_deployment.servers[role].process_line(line)
        assert answer[0].startswith("OK"), (role, line, answer)
        _check_answer(line, answer)
