"""Hostile config text gets a config that round-trips, or a ConfigError.

The demo deployment's text is mutated (characters deleted, inserted or
replaced; lines duplicated, dropped or swapped; runs of lines copied
elsewhere; section headers and keys, ``file.<name>`` keys among them,
inserted) and handed to parse_config.  It returns a config that
format_config writes back, or raises a ConfigError whose line is None or
a line of the text; it raises nothing else.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from namechain.config import ConfigError, demo_deployment, format_config, parse_config

ADDRESSES = {
    "userdb": "127.0.0.1:46001",
    "location": "127.0.0.1:46002",
    "calendar": "127.0.0.1:46003",
}
SEED_LINES = format_config(demo_deployment(ADDRESSES, 1_754_640_000_000)).splitlines()
KINDS = ("user", "location", "event", "calendar", "initial", "addresses", "bogus", "")
ALIASES = ("alice", "bob", "room101", "standup", "main", "calendar", "new", "", "a b")
KEYS = (
    "id", "email", "files", "occupants", "tags", "moderator", "location", "start", "end",
    "resource", "userdb", "file.a", "file.agenda.txt", "file.", "file.a b", "file", "x", "",
)
VALUES = ("", "x", "http://h/x", "00" * 16, "alice", "room101", "5", "meeting")
MUTATIONS = ("delete", "insert", "replace", "duplicate", "drop", "swap", "block", "header", "key")
# Config syntax, digits, hex, and any other code point (LF too: it splits a line).
CHARS = st.sampled_from("[]=# \t-.:0123456789abcdef\n") | st.characters(blacklist_categories=("Cs",))


@st.composite
def _mutated(draw):
    lines = list(SEED_LINES)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(MUTATIONS))
        i = draw(st.integers(0, len(lines)))
        if kind in ("delete", "insert", "replace") and i < len(lines):
            line = lines[i]
            j = draw(st.integers(0, len(line)))
            char = "" if kind == "delete" else draw(CHARS)
            lines[i] = line[:j] + char + line[j + (kind != "insert") :]
        elif kind == "duplicate" and i < len(lines):
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "drop" and i < len(lines):
            del lines[i]
        elif kind == "swap" and lines:
            j = draw(st.integers(0, len(lines) - 1))
            i = min(i, len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "block":  # whole sections, or parts of them, twice
            block = lines[i : i + draw(st.integers(1, 8))]
            j = draw(st.integers(0, len(lines)))
            lines[j:j] = block
        elif kind == "header":
            lines.insert(i, f"[{draw(st.sampled_from(KINDS))} {draw(st.sampled_from(ALIASES))}]")
        elif kind == "key":
            lines.insert(i, f"{draw(st.sampled_from(KEYS))} = {draw(st.sampled_from(VALUES))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated())
def test_mutated_config_round_trips_or_is_a_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.line is None or 1 <= exc.line <= len(text.splitlines()), exc
        return
    # format_config itself refuses a config that parse_config would not
    # give back; check the round trip here as well.
    assert parse_config(format_config(cfg)) == cfg


def test_seed_text_parses():
    assert format_config(parse_config("\n".join(SEED_LINES) + "\n")) == "\n".join(SEED_LINES) + "\n"
