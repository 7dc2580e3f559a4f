"""Canonical text syntax for names.

A name is a chain of one or more local names written inside parentheses:

    (printer)
    (printer administrator)
    (author[n=3])
    (alice location display[user=(supervisor)])

Each local name is a primary token optionally followed by a bracketed,
comma-separated attribute list.  An attribute value is a token, a nested
name, or a resource literal.  A resource literal packs a full resource
description into a name as ``[<64 hex digits> <hex digits>]`` (type
identifier, one space, specification); it exists so machine-produced
descriptions can travel inside names and is not meant to be written by
hand.

Tokens match ``[A-Za-z0-9._-]+``.  On input, local names may be
separated by one or more spaces; serialization always emits exactly one.
Parsing is strict everywhere else: the whole input must be consumed,
attribute labels must be unique within a local name, hex fields are
lowercase, and anything not derivable from the grammar raises
NameSyntaxError, with a reason and the position it applies to, rather
than yielding a partial name.

Parsing is one pass.  A name without attributes is one regular
expression match.  Any other name goes to a recursive descent over
(text, position) that builds each node once, from parts it has already
checked, and shares the resource literal rule with
parse_resource_literal.

A name without attributes parsed from canonical text is that text until
its local names are read: parse_name checks the text and keeps only it,
and the first read of `locals` builds them from it (Name.__getattr__).
The grammar admits no other spelling of such a name than one with extra
spaces, so text holding no two adjacent spaces is canonical.  A cache
key and a RESOLVE line for that name thus cost a lookup and build no
local name; any other name is built when parsed and rendered from its
parts each time it is serialized.  Such a name has no attribute by
construction, so resolution returns it as it is from literalizing
(resolver._literalize) and reads its local names only to walk them.

Each value type is built in one of two ways.  Its public constructor
checks every field, for any caller.  Its one private constructor checks
none and fills the instance's dict in place, item by item:
_new_local, _new_name and _new_resource_value here,
resources._new_description, and, where a loop builds one value per pass
and a call would cost more than the build, the same build inline (the
parser, _plain_locals, kit.parse_event_spec).  Every caller of a private
constructor passes parts that its own checks accepted: the parser what
it matched, the resolution engine what it parsed or resolved, a step the
values it encoded or decoded, a decoder what its pattern matched.  The
instance is the one the public constructor would build from those parts,
so equality, hashing and repr are the same.

Names nest at most MAX_NESTING deep, a name with no name-valued
attribute being 1 deep.  Each level spends at least one resolution
step, so the limit is the resolver's default step budget: it rejects no
name that budget could resolve, and every walk over a name stays
shallow.  The parser raises NameSyntaxError past it, NameValue raises
ValueError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .resources import TYPE_ID_LENGTH, ResourceDescription, _new_description

_TOKEN_RE = re.compile(r"[A-Za-z0-9._-]+")
_HEX_RE = re.compile(r"[0-9a-f]+")
# A name without attributes: tokens separated by one or more spaces.
_PLAIN_NAME_RE = re.compile(r"\(([A-Za-z0-9._-]+(?: +[A-Za-z0-9._-]+)*)\)")
# A resource literal; the parser checks that the specification's length is even.
_LITERAL_RE = re.compile(r"\[([0-9a-f]{64}) ([0-9a-f]*)\]")
MAX_NESTING = 32
_new = object.__new__
# Where a parsed plain Name keeps its canonical text (see serialize_name).
_TEXT = "_text"


class NameSyntaxError(ValueError):
    """Input does not conform to the canonical name syntax."""

    def __init__(self, position: int, reason: str) -> None:
        super().__init__(f"{reason} at position {position}")
        self.position = position
        self.reason = reason


class EmptyNameError(NameSyntaxError):
    """``()`` is rejected: a name is a chain of at least one local name."""

    def __init__(self, position: int) -> None:
        super().__init__(position, "a name must contain at least one local name")


def _check_token(value: str, what: str) -> None:
    if not isinstance(value, str) or not _TOKEN_RE.fullmatch(value):
        raise ValueError(f"{what} must be a non-empty token of [A-Za-z0-9._-], got {value!r}")


@dataclass(frozen=True)
class StringValue:
    """Token value, typically a textual refinement of the primary name."""

    text: str

    def __post_init__(self) -> None:
        _check_token(self.text, "string value")


@dataclass(frozen=True)
class NameValue:
    """Nested name value, resolved against the initial resource."""

    name: "Name"

    def __post_init__(self) -> None:
        if not isinstance(self.name, Name):
            raise ValueError("name value must wrap a Name")
        if _nesting(self.name) >= MAX_NESTING:
            raise ValueError(f"names nest at most {MAX_NESTING} deep")


@dataclass(frozen=True)
class ResourceValue:
    """Resource description value, produced during resolution."""

    description: ResourceDescription

    def __post_init__(self) -> None:
        if not isinstance(self.description, ResourceDescription):
            raise ValueError("resource value must wrap a ResourceDescription")


AttrValue = Union[StringValue, NameValue, ResourceValue]


@dataclass(frozen=True)
class LocalName:
    """A primary token plus an optional ordered list of attribute pairs."""

    primary: str
    attributes: tuple[tuple[str, AttrValue], ...] = ()

    def __post_init__(self) -> None:
        _check_token(self.primary, "primary name")
        attrs = tuple((label, value) for label, value in self.attributes)
        seen: set[str] = set()
        for label, value in attrs:
            _check_token(label, "attribute label")
            if not isinstance(value, (StringValue, NameValue, ResourceValue)):
                raise ValueError(f"attribute value for {label!r} has unsupported type")
            if label in seen:
                raise ValueError(f"duplicate attribute label {label!r}")
            seen.add(label)
        object.__setattr__(self, "attributes", attrs)


@dataclass(frozen=True)
class Name:
    """A chain of local names; meaningful only relative to an initial resource."""

    locals: tuple[LocalName, ...]

    def __post_init__(self) -> None:
        locals_ = tuple(self.locals)
        if not locals_:
            raise ValueError("a name must contain at least one local name")
        for local in locals_:
            if not isinstance(local, LocalName):
                raise ValueError("a name may only chain LocalName values")
        object.__setattr__(self, "locals", locals_)

    def __getattr__(self, attr: str):
        # Runs only when normal lookup fails: a name that parse_name kept
        # as its text builds its local names the first time they are read.
        # setdefault hands every thread that raced to build them the one
        # tuple stored.
        fields = self.__dict__
        if attr == "locals" and _TEXT in fields:
            return fields.setdefault("locals", _plain_locals(fields[_TEXT][1:-1]))
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")


def _nesting(name: Name) -> int:
    """How deep names nest in `name`: 1 with no name-valued attribute.

    Every nested name in it was built within MAX_NESTING, so the
    recursion stays shallow.
    """
    nested = [
        _nesting(value.name)
        for local in name.locals
        for _, value in local.attributes
        if isinstance(value, NameValue)
    ]
    return 1 + max(nested, default=0)


# The private constructors: each fills an instance's dict in place, one
# item at a time, without the public constructor's checks (see the module
# docstring for the one condition their callers meet).

def _new_local(primary: str, attributes: tuple[tuple[str, AttrValue], ...]) -> LocalName:
    local = _new(LocalName)
    fields = local.__dict__
    fields["primary"] = primary
    fields["attributes"] = attributes
    return local


def _new_name(locals_: tuple[LocalName, ...]) -> Name:
    name = _new(Name)
    name.__dict__["locals"] = locals_
    return name


def _new_resource_value(description: ResourceDescription) -> ResourceValue:
    value = _new(ResourceValue)
    value.__dict__["description"] = description
    return value


# The parser: functions over (text, pos) that return (value, pos after
# it) and build each node once, from parts their own checks accepted.
# Where a loop builds one node per pass it builds it inline, as a call
# to the constructors above costs more.


def _name(text: str, pos: int, depth: int) -> tuple[Name, int]:
    """The name whose '(' is text[pos], `depth` names deep."""
    if depth > MAX_NESTING:
        raise NameSyntaxError(pos, f"names nest at most {MAX_NESTING} deep")
    pos += 1
    if text[pos : pos + 1] == ")":
        raise EmptyNameError(pos)
    locals_ = []
    while True:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise NameSyntaxError(pos, "expected primary name")
        pos = m.end()
        if text[pos : pos + 1] == "[":
            attributes, pos = _attributes(text, pos + 1, depth)
        else:
            attributes = ()
        local = _new(LocalName)
        fields = local.__dict__
        fields["primary"] = m.group()
        fields["attributes"] = attributes
        locals_.append(local)
        c = text[pos : pos + 1]
        if c == ")":
            name = _new(Name)
            name.__dict__["locals"] = tuple(locals_)
            return name, pos + 1
        if c != " ":
            raise NameSyntaxError(pos, "expected ' ' or ')' after local name")
        pos += 1
        while text[pos : pos + 1] == " ":
            pos += 1


def _attributes(text: str, pos: int, depth: int) -> tuple[tuple[tuple[str, AttrValue], ...], int]:
    """The attribute list after a '[', up to and including its ']'."""
    pairs: list[tuple[str, AttrValue]] = []
    seen: set[str] = set()
    while True:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise NameSyntaxError(pos, "expected attribute label")
        label = m.group()
        if label in seen:
            raise NameSyntaxError(pos, f"duplicate attribute label {label!r}")
        seen.add(label)
        pos = m.end()
        if text[pos : pos + 1] != "=":
            raise NameSyntaxError(pos, "expected '=' after attribute label")
        pos += 1
        c = text[pos : pos + 1]
        if c == "(":
            value = _new(NameValue)
            value.__dict__["name"], pos = _name(text, pos, depth + 1)
        elif c == "[":
            value = _new(ResourceValue)
            value.__dict__["description"], pos = _literal(text, pos)
        else:
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise NameSyntaxError(pos, "expected attribute value")
            value = _new(StringValue)
            value.__dict__["text"] = m.group()
            pos = m.end()
        pairs.append((label, value))
        c = text[pos : pos + 1]
        if c == "]":
            return tuple(pairs), pos + 1
        if c != ",":
            raise NameSyntaxError(pos, "expected ',' or ']' after attribute value")
        pos += 1


def _literal(text: str, pos: int) -> tuple[ResourceDescription, int]:
    """The resource literal whose '[' is text[pos]."""
    m = _LITERAL_RE.match(text, pos)
    if m is None or len(m[2]) % 2:
        raise _literal_error(text, pos)
    # The identifier has its length and both fields decode to bytes.
    return _new_description(bytes.fromhex(m[1]), bytes.fromhex(m[2])), m.end()


def _literal_error(text: str, pos: int) -> NameSyntaxError:
    """Why the text at `pos` is not a resource literal, and where."""
    if text[pos : pos + 1] != "[":
        return NameSyntaxError(pos, "expected '['")
    pos += 1
    m = _HEX_RE.match(text, pos)
    if m is None or m.end() - pos != 2 * TYPE_ID_LENGTH:
        return NameSyntaxError(
            pos, f"resource type identifier must be exactly {2 * TYPE_ID_LENGTH} lowercase hex digits"
        )
    pos = m.end()
    if text[pos : pos + 1] != " ":
        return NameSyntaxError(pos, "expected single space between identifier and specification")
    pos += 1
    m = _HEX_RE.match(text, pos)
    if m is not None and (m.end() - pos) % 2:
        return NameSyntaxError(pos, "specification must be an even number of hex digits")
    return NameSyntaxError(m.end() if m else pos, "expected ']' after resource specification")


def _finish(text: str, pos: int) -> None:
    if pos != len(text):
        raise NameSyntaxError(pos, "unexpected trailing input")


def _plain_locals(tokens: str) -> tuple[LocalName, ...]:
    """The local names of a name without attributes, from the tokens
    between its parentheses."""
    # Built inline (see the parser): every plain name a server or a local
    # step walks passes here once.
    locals_ = []
    for token in tokens.split():
        local = _new(LocalName)
        fields = local.__dict__
        fields["primary"] = token
        fields["attributes"] = ()
        locals_.append(local)
    return tuple(locals_)


def parse_name(text: str) -> Name:
    """Parse a name in canonical syntax; the whole input must be one name."""
    plain = _PLAIN_NAME_RE.fullmatch(text)
    if plain is not None:
        name = _new(Name)
        if "  " in text:
            name.__dict__["locals"] = _plain_locals(plain[1])
        else:  # the text is canonical (module docstring): it is the name
            name.__dict__[_TEXT] = text
        return name
    if text[:1] != "(":
        raise NameSyntaxError(0, "expected '('")
    name, pos = _name(text, 0, 1)
    _finish(text, pos)
    return name


def parse_resource_literal(text: str) -> ResourceDescription:
    """Parse a standalone ``[<identifier> <specification>]`` literal."""
    description, pos = _literal(text, 0)
    _finish(text, pos)
    return description


def serialize_resource_literal(description: ResourceDescription) -> str:
    return f"[{description.type_id.hex()} {description.spec.hex()}]"


def _serialize_value(value: AttrValue) -> str:
    if isinstance(value, StringValue):
        return value.text
    if isinstance(value, NameValue):
        return serialize_name(value.name)
    return serialize_resource_literal(value.description)


def _serialize_local(local: LocalName) -> str:
    if not local.attributes:
        return local.primary
    pairs = ",".join(f"{label}={_serialize_value(value)}" for label, value in local.attributes)
    return f"{local.primary}[{pairs}]"


def serialize_name(name: Name) -> str:
    """Render a name in canonical syntax; inverse of parse_name.

    A name parsed from canonical text without attributes answers with the
    text parse_name recorded; any other name is rendered from its parts.
    The record is not a field, so it takes no part in equality, hashing or
    repr.
    """
    return name.__dict__.get(_TEXT) or "(" + " ".join([_serialize_local(local) for local in name.locals]) + ")"
