from dataclasses import replace
from pathlib import Path

import pytest

from namechain import kit, wire
from namechain.config import (
    ConfigError,
    demo_deployment,
    format_config,
    load_config,
    parse_config,
)
from namechain.names import serialize_resource_literal

ADDRESSES = {
    "userdb": "127.0.0.1:46001",
    "location": "127.0.0.1:46002",
    "calendar": "127.0.0.1:46003",
}
NOW = 1_754_640_000_000


def test_demo_deployment_round_trips_through_text():
    cfg = demo_deployment(ADDRESSES, NOW)
    text = format_config(cfg)
    assert parse_config(text) == cfg


def test_demo_deployment_is_internally_consistent():
    cfg = demo_deployment(ADDRESSES, NOW)
    day_start, day_end = kit.day_bounds(NOW)
    standup = cfg.events["standup"]
    assert day_start <= standup.start < day_end
    fields = cfg.event_fields(standup)
    assert fields.moderator == cfg.users["alice"].user_id
    address, location_id = wire.parse_addr_id_spec(fields.location.spec, kit.LOCATION_TYPE)
    assert address == ADDRESSES["location"]
    assert location_id == cfg.locations["room101"].location_id


def test_load_config_from_file(tmp_path):
    cfg = demo_deployment(ADDRESSES, NOW)
    path = tmp_path / "deploy.cfg"
    path.write_text(format_config(cfg), encoding="utf-8")
    assert load_config(str(path)) == cfg


def test_initial_description_alias_literal_and_unknown():
    cfg = demo_deployment(ADDRESSES, NOW)
    by_alias = cfg.initial_description("calendar")
    assert by_alias.type_id == wire.REMOTE_TYPE
    literal = serialize_resource_literal(by_alias)
    assert cfg.initial_description(literal) == by_alias
    with pytest.raises(ValueError):
        cfg.initial_description("nosuchalias")


MINIMAL = """\
[addresses]
userdb = 127.0.0.1:46001
location = 127.0.0.1:46002
calendar = 127.0.0.1:46003
"""


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.addresses == ADDRESSES
    assert not cfg.users and not cfg.events


def _expect_error(text, line, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == line, str(excinfo.value)
    assert fragment in str(excinfo.value)


def test_unterminated_section_header():
    _expect_error("[addresses\n", 1, "unterminated")


def test_unknown_section_kind():
    _expect_error(MINIMAL + "[garbage x]\n", 5, "unknown section kind")


def test_assignment_before_any_section():
    _expect_error("x = y\n", 1, "before any section")


def test_missing_equals_sign():
    _expect_error(MINIMAL + "[user u]\nid\n", 6, "key = value")


def test_bad_address_is_line_numbered():
    _expect_error(
        "[addresses]\nuserdb = nonsense\n"
        "location = 127.0.0.1:2\ncalendar = 127.0.0.1:3\n",
        2,
        "host:port",
    )


def test_unknown_role_rejected():
    _expect_error(MINIMAL + "[addresses]\nwildcard = 127.0.0.1:4\n", 6, "unknown role")


def test_missing_role_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[addresses]\nuserdb = 127.0.0.1:46001\n")
    assert "missing address" in str(excinfo.value)


def test_user_requires_all_fields():
    _expect_error(MINIMAL + "[user u]\nid = " + "00" * 16 + "\nemail = u@x\n", 5, "missing 'files'")


def test_user_id_must_be_hex():
    _expect_error(
        MINIMAL + "[user u]\nid = zz\nemail = u@x\nfiles = http://h/\n", 6, "hex"
    )


def test_duplicate_key_rejected():
    _expect_error(
        MINIMAL + "[user u]\nid = " + "00" * 16 + "\nid = " + "11" * 16 + "\n",
        7,
        "duplicate key",
    )


def test_undefined_occupant_rejected():
    text = MINIMAL + "[location l]\nid = " + "00" * 16 + "\noccupants = ghost\n"
    _expect_error(text, 5, "undefined user 'ghost'")


def test_event_with_undefined_moderator_rejected():
    text = (
        MINIMAL
        + "[user u]\nid = "
        + "00" * 16
        + "\nemail = u@x\nfiles = http://h/\n"
        + "[location l]\nid = "
        + "11" * 16
        + "\noccupants =\n"
        + "[event e]\nid = "
        + "22" * 16
        + "\ntags = t\nmoderator = ghost\nlocation = l\nstart = 1\nend = 2\n"
    )
    _expect_error(text, 12, "undefined user 'ghost'")


def test_event_start_must_precede_end():
    text = (
        MINIMAL
        + "[user u]\nid = "
        + "00" * 16
        + "\nemail = u@x\nfiles = http://h/\n"
        + "[location l]\nid = "
        + "11" * 16
        + "\noccupants =\n"
        + "[event e]\nid = "
        + "22" * 16
        + "\ntags = t\nmoderator = u\nlocation = l\nstart = 5\nend = 5\n"
    )
    _expect_error(text, 18, "precede")


def test_bad_initial_literal_rejected():
    _expect_error(MINIMAL + "[initial x]\nresource = [zz zz]\n", 6, "bad resource literal")


def test_initial_literal_round_trip():
    description = kit.string_description("hello")
    text = MINIMAL + f"[initial s]\nresource = {serialize_resource_literal(description)}\n"
    cfg = parse_config(text)
    assert cfg.initials["s"] == description


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\n" + MINIMAL + "\n# trailing\n"
    assert parse_config(text).addresses == ADDRESSES


# Each breaks a line for str.splitlines(); in a config only LF does.
OTHER_LINE_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_lines_break_at_lf_only(char):
    text = f"[addresses]\n# note{char}see wiki\n" + MINIMAL.partition("\n")[2]
    assert parse_config(text).addresses == ADDRESSES
    # A CR ending a line (CRLF) is stripped with the other trailing space.
    assert parse_config(MINIMAL.replace("\n", char + "\n")).addresses == ADDRESSES
    _expect_error(f"# a{char}b\n" + MINIMAL + "[garbage x]\n", 6, "unknown section kind")


def test_calendar_sections_take_no_keys():
    _expect_error(MINIMAL + "[calendar main]\nx = y\n", 6, "no keys")


def test_duplicate_entity_ids_rejected():
    text = (
        MINIMAL
        + "[user u]\nid = "
        + "00" * 16
        + "\nemail = u@x\nfiles = http://h/\n"
        + "[user v]\nid = "
        + "00" * 16
        + "\nemail = v@x\nfiles = http://h/\n"
    )
    _expect_error(text, 9, "reuses the id")


def test_duplicate_aliases_rejected():
    text = (
        MINIMAL
        + "[user u]\nid = "
        + "00" * 16
        + "\nemail = u@x\nfiles = http://h/\n"
        + "[user u]\nid = "
        + "11" * 16
        + "\nemail = v@x\nfiles = http://h/\n"
    )
    _expect_error(text, 9, "duplicate user alias")


@pytest.mark.parametrize(
    "event_lines,fragment",
    [
        ("tags = meeting we/ekly\n", "tag must be a token, got 'we/ekly'"),
        ("file.a/genda = http://h/agenda\n", "file name must be a token, got 'a/genda'"),
        ("file.agenda = http://h/a b\n", "URL must be non-empty and whitespace-free"),
    ],
    ids=["tag", "file-name", "file-url"],
)
def test_event_entries_the_calendar_could_not_serve_are_rejected(event_lines, fragment):
    text = (
        MINIMAL
        + "[user u]\nid = "
        + "00" * 16
        + "\nemail = u@x\nfiles = http://h/\n"
        + "[location l]\nid = "
        + "11" * 16
        + "\noccupants =\n"
        + "[event e]\nid = "
        + "22" * 16
        + "\nmoderator = u\nlocation = l\nstart = 1\nend = 2\n"
        + event_lines
    )
    _expect_error(text, 12, f"event 'e': {fragment}")


def test_readme_sample_configuration_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Deployment configuration", 1)[1].split("```\n", 2)[1]
    cfg = parse_config(block)
    assert cfg.locations["room101"].occupants == ("alice",)
    assert cfg.events["standup"].moderator == "alice"
    assert cfg.events["standup"].location == "room101"
    assert cfg.initials["calendar"] == wire.remote_description(
        cfg.addresses["calendar"], kit.CALENDAR_RESOURCE_ID
    )


def test_config_addresses_refuse_port_0():
    _expect_error(
        "[addresses]\nuserdb = 127.0.0.1:0\n"
        "location = 127.0.0.1:2\ncalendar = 127.0.0.1:3\n",
        2,
        "port out of range",
    )


def test_config_address_host_holds_no_whitespace():
    _expect_error(MINIMAL.replace("userdb = 127.0.0.1", "userdb = my host"), 2, "whitespace-free")


_DEMO = demo_deployment(ADDRESSES, NOW)
_ALICE, _ROOM102, _REVIEW = _DEMO.users["alice"], _DEMO.locations["room102"], _DEMO.events["review"]
_MALLORY = "alice]\n[user mallory"


@pytest.mark.parametrize(
    "changes",
    [
        {"users": {**_DEMO.users, "alice": replace(_ALICE, email="alice@example.org ")}},
        {"events": {**_DEMO.events, "review": replace(_REVIEW, tags=("a b",))}},
        {"users": {**_DEMO.users, _MALLORY: replace(_ALICE, alias=_MALLORY)}},
        {"addresses": {**ADDRESSES, "userdb": "127.0.0.1:46001\nbogus"}},
        {"locations": {**_DEMO.locations, "room102": replace(_ROOM102, occupants=("alice bob",))}},
        {"events": {**_DEMO.events, "review": replace(_REVIEW, files=(("a.txt", "http://h/a\nb"),))}},
    ],
    ids=["email-trailing-space", "tag-with-space", "alias-with-header", "address-with-lf",
         "occupant-with-space", "file-url-with-lf"],
)
def test_format_config_refuses_what_parse_config_would_not_give_back(changes):
    with pytest.raises(ConfigError) as excinfo:
        format_config(replace(_DEMO, **changes))
    assert excinfo.value.line is None
    assert "would not load back: line " in str(excinfo.value) or (
        "would load back as a different configuration" in str(excinfo.value)
    )


_ID0, _ID1 = "00" * 16, "11" * 16
_EVENT = f"[event e]\nid = {_ID1}\nmoderator = u\nlocation = l\nstart = 1\nend = 2\n"


# Each aliased section is checked the same way: unknown keys, then the
# alias, then each key of its kind missing or repeated, in the order the
# kind lists them, then repeated file.<name> keys.
@pytest.mark.parametrize(
    "sections,line,message",
    [
        (f"[location l]\nid = {_ID0}\n[location l]\nid = {_ID1}\nx = 1\n", 9, "unknown key 'x' in [location]"),
        (f"[location l]\nid = {_ID0}\n[location l]\n", 7, "duplicate location alias 'l'"),
        ("[user u]\nemail = a@b\nemail = c@d\nfiles = h/\n", 5, "[user u] is missing 'id'"),
        (f"[user u]\nid = {_ID0}\nid = {_ID1}\nfiles = h/\n", 7, "duplicate key 'id'"),
        (_EVENT.replace("end = 2\n", "file.a = h/1\nfile.a = h/2\n"), 5, "[event e] is missing 'end'"),
        (_EVENT + "file.a = h/1\nfile.b = h/2\nfile.b = h/3\nfile.a = h/4\n", 13, "duplicate file name 'b'"),
        ("[calendar c]\n[calendar c]\nx = 1\n", 7, "[calendar] sections take no keys"),
        ("[initial i]\nresource = [zz]\nresource = [yy]\n", 7, "duplicate key 'resource'"),
    ],
    ids=["unknown-key-before-alias", "alias-before-keys", "keys-in-table-order", "repeated-key",
         "table-keys-before-file-names", "file-names-in-line-order", "calendar", "initial"],
)
def test_section_checks_run_in_one_order_for_every_kind(sections, line, message):
    _expect_error(MINIMAL + sections, line, message)


def test_event_file_keys_keep_their_order():
    text = MINIMAL + f"[user u]\nid = {_ID0}\nemail = u@x\nfiles = h/\n[location l]\nid = {'22' * 16}\n"
    text += _EVENT + "file.z = h/z\nfile.a = h/a\n"
    assert parse_config(text).events["e"].files == (("z", "h/z"), ("a", "h/a"))
