import copy
import pickle
import re
import string
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from conftest import nested_name

from namechain import kit, names, resources
from namechain.names import (
    MAX_NESTING,
    EmptyNameError,
    LocalName,
    Name,
    NameSyntaxError,
    NameValue,
    ResourceValue,
    StringValue,
    parse_name,
    parse_resource_literal,
    serialize_name,
    serialize_resource_literal,
)
from namechain.resources import ResourceDescription

EXAMPLE_NAMES = [
    "(printer)",
    "(printer administrator)",
    "(documents research naming)",
    "(author[n=3])",
    "(alice location display[user=(supervisor)])",
]

SCENARIO_NAMES = [
    "(today meeting moderator email)",
    "(today meeting location occupant)",
    "(occupant files naming.ppt)",
]


def test_two_link_chain_structure():
    assert parse_name("(printer administrator)") == Name(
        (LocalName("printer"), LocalName("administrator"))
    )


def test_string_attribute_structure():
    assert parse_name("(author[n=3])") == Name(
        (LocalName("author", (("n", StringValue("3")),)),)
    )


def test_nested_name_attribute_structure():
    expected = Name(
        (
            LocalName("alice"),
            LocalName("location"),
            LocalName("display", (("user", NameValue(Name((LocalName("supervisor"),)))),)),
        )
    )
    assert parse_name("(alice location display[user=(supervisor)])") == expected


@pytest.mark.parametrize("text", EXAMPLE_NAMES + SCENARIO_NAMES)
def test_documented_names_round_trip(text):
    assert serialize_name(parse_name(text)) == text


def test_empty_name_rejected():
    with pytest.raises(EmptyNameError):
        parse_name("()")


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(NameSyntaxError):
        parse_name("(display[user=(supervisor)], extra")


def test_serialize_single_local():
    assert serialize_name(Name((LocalName("printer"),))) == "(printer)"


def test_serialize_nested_name_value():
    name = Name(
        (LocalName("display", (("user", NameValue(Name((LocalName("supervisor"),)))),)),)
    )
    assert serialize_name(name) == "(display[user=(supervisor)])"


def test_serialize_resource_value_uses_hex_literal():
    description = ResourceDescription(b"\xab" * 32, b"x")
    name = Name((LocalName("display", (("user", ResourceValue(description)),)),))
    text = serialize_name(name)
    assert text == f"(display[user=[{'ab' * 32} 78]])"
    assert parse_name(text) == name


def test_multiple_spaces_accepted_single_space_emitted():
    name = parse_name("(printer    administrator)")
    assert serialize_name(name) == "(printer administrator)"


def test_attribute_order_preserved():
    name = parse_name("(a[z=1,y=2,x=3])")
    assert [label for label, _ in name.locals[0].attributes] == ["z", "y", "x"]
    assert serialize_name(name) == "(a[z=1,y=2,x=3])"


def test_duplicate_attribute_label_rejected():
    with pytest.raises(NameSyntaxError):
        parse_name("(a[x=1,x=2])")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "printer",
        "(printer",
        "printer)",
        "( )",
        "(a )",
        "( a)",
        "(a,b)",
        "(a[])",
        "(a[x])",
        "(a[x=])",
        "(a[=1])",
        "(a[x=1)",
        "(a[x=1]extra])",
        "(a[x=1,,y=2])",
        "(a b) ",
        "(a b)x",
        "(a b))",
        "(a!)",
        "(a[x=[abc def]])",
        "(a[x=[" + "00" * 32 + " 7]])",
        "(a[x=[" + "AB" * 32 + " 78]])",
        "(a[x=[" + "00" * 32 + "  78]])",
        "(a[x=[" + "00" * 32 + "78]])",
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(NameSyntaxError):
        parse_name(text)


def test_syntax_error_carries_position():
    with pytest.raises(NameSyntaxError) as excinfo:
        parse_name("(a b!)")
    assert excinfo.value.position == 4


def test_names_nested_32_deep_parse_and_round_trip():
    name = parse_name(nested_name(MAX_NESTING))
    assert serialize_name(name) == nested_name(MAX_NESTING)
    assert parse_name(serialize_name(name)) == name


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 300, 1000])
def test_parser_rejects_names_nested_past_the_limit(depth):
    with pytest.raises(NameSyntaxError) as excinfo:
        parse_name(nested_name(depth))
    # the error points at the first '(' past the limit
    assert excinfo.value.position == 5 * MAX_NESTING
    assert excinfo.value.reason == "names nest at most 32 deep"


def test_name_value_rejects_names_nested_past_the_limit():
    name = Name((LocalName("a"),))
    for _ in range(MAX_NESTING - 1):
        name = Name((LocalName("a", (("x", NameValue(name)),)),))
    assert name == parse_name(nested_name(MAX_NESTING))
    with pytest.raises(ValueError, match="nest at most 32 deep"):
        NameValue(name)


def test_parse_resource_literal_zero_case():
    description = parse_resource_literal("[" + "00" * 32 + " " + "]")
    assert description == ResourceDescription(b"\x00" * 32, b"")


def test_parse_resource_literal_rejects_short_identifier():
    with pytest.raises(NameSyntaxError):
        parse_resource_literal("[abc def]")


def test_parse_resource_literal_rejects_trailing_input():
    with pytest.raises(NameSyntaxError):
        parse_resource_literal("[" + "00" * 32 + " ff]z")


def test_local_name_invariants_enforced_at_construction():
    with pytest.raises(ValueError):
        LocalName("")
    with pytest.raises(ValueError):
        LocalName("a b")
    with pytest.raises(ValueError):
        LocalName("a", (("x", StringValue("1")), ("x", StringValue("2"))))
    with pytest.raises(ValueError):
        Name(())


@pytest.mark.parametrize(
    "build",
    [
        lambda: LocalName("a", (("b c", StringValue("1")),)),
        lambda: LocalName("a", (("", StringValue("1")),)),
        lambda: LocalName("a", (("x", StringValue("1")), ("y", NameValue(Name((LocalName("b"),)))),
                                ("x", StringValue("3")))),
        lambda: LocalName("a", (("x", "1"),)),
        lambda: LocalName("a(b)"),
        lambda: LocalName(3),
        lambda: StringValue("1 2"),
        lambda: Name((LocalName("a"), "b")),
        lambda: Name([]),
    ],
)
def test_public_constructors_still_validate(build):
    with pytest.raises(ValueError):
        build()


# --- generated round-trips

tokens = st.text(alphabet=string.ascii_letters + string.digits + "._-", min_size=1, max_size=10)
descriptions = st.builds(
    ResourceDescription,
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=0, max_size=64),
)


def _names_strategy():
    def names_over(values):
        local_names = st.builds(
            lambda primary, attrs: LocalName(primary, tuple(attrs.items())),
            tokens,
            st.dictionaries(tokens, values, max_size=3),
        )
        return st.builds(
            lambda locals_: Name(tuple(locals_)),
            st.lists(local_names, min_size=1, max_size=4),
        )

    literals = st.one_of(st.builds(StringValue, tokens), st.builds(ResourceValue, descriptions))
    # max_leaves bounds the nesting, which keeps generation fast
    return st.recursive(
        names_over(literals),
        lambda inner: names_over(st.one_of(literals, st.builds(NameValue, inner))),
        max_leaves=12,
    )


@given(_names_strategy())
def test_round_trip_is_identity(name):
    assert parse_name(serialize_name(name)) == name


# A separator between local names, at any depth: a space that does not
# follow a resource literal's 64-digit type identifier.
_SEPARATOR_RE = re.compile(r"(?<![0-9a-f]{64}) ")


@given(_names_strategy(), st.lists(st.integers(min_value=1, max_value=3)))
def test_recorded_text_is_what_the_serializer_computes(name, widths):
    """parse_name's recorded text never changes what serialize_name returns.

    A Name rebuilt through the public constructor carries no record, so
    serialize_name works its text out from the parts.
    """
    widths = iter(widths)
    text = _SEPARATOR_RE.sub(lambda _: " " * next(widths, 1), serialize_name(name))
    parsed = parse_name(text)
    assert serialize_name(parsed) == serialize_name(Name(parsed.locals)) == re.sub(" +", " ", text)


def test_the_recorded_text_takes_no_part_in_equality_hashing_or_repr():
    name = parse_name("(printer administrator queue)")
    assert vars(name)[names._TEXT] == "(printer administrator queue)"
    constructed = Name((LocalName("printer"), LocalName("administrator"), LocalName("queue")))
    assert names._TEXT not in vars(constructed)
    assert name == constructed and hash(name) == hash(constructed)
    assert repr(name) == repr(constructed)
    spaced = parse_name("(printer  administrator queue)")
    assert names._TEXT not in vars(spaced)
    assert vars(spaced)["locals"] == constructed.locals  # built when parsed


def _pickled(name):
    return pickle.loads(pickle.dumps(name))


@pytest.mark.parametrize("duplicate", [lambda name: name, copy.copy, copy.deepcopy, _pickled])
def test_a_parsed_canonical_name_builds_its_local_names_when_first_read(duplicate):
    text = "(printer administrator queue)"
    constructed = Name((LocalName("printer"), LocalName("administrator"), LocalName("queue")))
    name = duplicate(parse_name(text))
    assert "locals" not in vars(name)
    assert serialize_name(name) == text
    assert name.locals == constructed.locals
    assert vars(name)["locals"] is name.locals
    assert name == constructed and hash(name) == hash(constructed)
    assert repr(name) == repr(constructed)
    # a copy of a name whose local names were read holds them too
    assert vars(duplicate(name))["locals"] == constructed.locals
    assert not hasattr(name, "nope")


def test_threads_reading_the_local_names_at_once_get_equal_tuples():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # long enough that a thread switch can fall inside the build
        tokens = [f"t{i}" for i in range(200)]
        for _ in range(20):
            name = parse_name("(" + " ".join(tokens) + ")")
            barrier = threading.Barrier(4)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append(name.locals)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 4
            # every reader gets the one tuple the name keeps
            assert all(locals_ is vars(name)["locals"] for locals_ in seen)
            assert seen[0] == tuple(LocalName(token) for token in tokens)
    finally:
        sys.setswitchinterval(interval)


_LITERAL = "[" + "ab" * 32 + " 00ff]"
_INNER = Name(
    (LocalName("y"), LocalName("z", (("q", ResourceValue(parse_resource_literal(_LITERAL))),)))
)
CONSTRUCTED_NAMES = [
    ("(a  b   c)", Name((LocalName("a"), LocalName("b"), LocalName("c")))),
    ("(author[n=3])", Name((LocalName("author", (("n", StringValue("3")),)),))),
    (
        f"(x[p=(y z[q={_LITERAL}]),r=s] w)",
        Name(
            (
                LocalName("x", (("p", NameValue(_INNER)), ("r", StringValue("s")))),
                LocalName("w"),
            )
        ),
    ),
]


@pytest.mark.parametrize("text,constructed", CONSTRUCTED_NAMES)
def test_parsed_names_equal_and_hash_like_constructed_ones(text, constructed):
    parsed = parse_name(text)
    assert parsed == constructed and constructed == parsed
    assert hash(parsed) == hash(constructed)
    assert {parsed, constructed} == {constructed}
    assert repr(parsed) == repr(constructed)


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=0, max_size=64))
def test_resource_literal_round_trip(type_id, spec):
    description = ResourceDescription(type_id, spec)
    assert parse_resource_literal(serialize_resource_literal(description)) == description


# --- hostile input: every one-character edit of a valid name

LOCAL_SHAPED_NAMES = [
    "(moderator files x.txt[n=(moderator)])",
    "(moderator[n=(location[n=(moderator email)]),s=jqy3] email)",
    f"(files a.txt[n=(files[n=(moderator)]),r=[{'67' * 32} 6874]])",
]


def _one_edit_variants(text, alphabet="()[]=, a0"):
    variants = {text[:i] for i in range(len(text))}
    for i in range(len(text)):
        variants.add(text[:i] + text[i + 1 :])
        variants.update(text[:i] + c + text[i + 1 :] for c in alphabet)
    return sorted(variants)


@pytest.mark.parametrize("seed", [text for text, _ in CONSTRUCTED_NAMES] + LOCAL_SHAPED_NAMES)
def test_every_prefix_and_one_character_edit_parses_canonically_or_raises_a_syntax_error(seed):
    for text in _one_edit_variants(seed):
        try:
            name = parse_name(text)
        except NameSyntaxError:
            continue
        assert serialize_name(name) == re.sub(" +", " ", text)
        assert serialize_name(Name(name.locals)) == serialize_name(name)


_DESCRIPTION = ResourceDescription(b"\x01" * 32, b"spec")
_EVENT = kit.EventFields(
    ("meeting", "weekly"), b"\x02" * 16, _DESCRIPTION, (("a.txt", "http://h/a.txt"),), 10, 20
)


@pytest.mark.parametrize(
    "private,public",
    [
        (lambda: resources._new_description(b"\x01" * 32, b"spec"), lambda: _DESCRIPTION),
        (
            lambda: names._new_local("a", (("u", StringValue("x")), ("r", ResourceValue(_DESCRIPTION)))),
            lambda: LocalName("a", (("u", StringValue("x")), ("r", ResourceValue(_DESCRIPTION)))),
        ),
        (
            lambda: names._new_name((LocalName("a"), LocalName("b"))),
            lambda: Name((LocalName("a"), LocalName("b"))),
        ),
        (lambda: names._new_resource_value(_DESCRIPTION), lambda: ResourceValue(_DESCRIPTION)),
        (lambda: kit.parse_event_spec(kit.encode_event_spec(_EVENT)), lambda: _EVENT),
    ],
    ids=["ResourceDescription", "LocalName", "Name", "ResourceValue", "EventFields"],
)
def test_a_private_constructor_builds_what_the_public_one_does(private, public):
    built, expected = private(), public()
    assert type(built) is type(expected)
    assert built == expected and expected == built
    assert hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    assert vars(built) == vars(expected)
