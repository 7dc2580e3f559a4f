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
NameSyntaxError rather than yielding a partial name.

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

from .resources import TYPE_ID_LENGTH, ResourceDescription

_TOKEN_RE = re.compile(r"[A-Za-z0-9._-]+")
_HEX_RE = re.compile(r"[0-9a-f]+")
# A name without attributes: tokens separated by one or more spaces.
_PLAIN_NAME_RE = re.compile(r"\(([A-Za-z0-9._-]+(?: +[A-Za-z0-9._-]+)*)\)")
MAX_NESTING = 32


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


def _build(cls, fields: dict):
    """An instance of a value class from fields the caller has already checked.

    The parser and the resolution engine build names only from parts that
    their own checks accepted; this skips the constructors' second round
    of validation.  Equality and hashing are those of the public
    constructors, which keep validating for every other caller.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _Parser:
    __slots__ = ("text", "pos", "depth")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0  # names open at self.pos

    def error(self, reason: str) -> NameSyntaxError:
        return NameSyntaxError(self.pos, reason)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_token(self, what: str) -> str:
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def finish(self) -> None:
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")

    def name(self) -> Name:
        if self.peek() != "(":
            raise self.error("expected '('")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"names nest at most {MAX_NESTING} deep")
        self.pos += 1
        if self.peek() == ")":
            raise EmptyNameError(self.pos)
        locals_ = [self.local_name()]
        while True:
            c = self.peek()
            if c == ")":
                self.pos += 1
                self.depth -= 1
                return _build(Name, {"locals": tuple(locals_)})
            if c == " ":
                while self.peek() == " ":
                    self.pos += 1
                locals_.append(self.local_name())
                continue
            raise self.error("expected ' ' or ')' after local name")

    def local_name(self) -> LocalName:
        primary = self.take_token("primary name")
        if self.peek() != "[":
            return _build(LocalName, {"primary": primary, "attributes": ()})
        self.pos += 1
        return _build(LocalName, {"primary": primary, "attributes": self.attributes()})

    def attributes(self) -> tuple[tuple[str, AttrValue], ...]:
        pairs: list[tuple[str, AttrValue]] = []
        seen: set[str] = set()
        while True:
            label_pos = self.pos
            label = self.take_token("attribute label")
            if label in seen:
                raise NameSyntaxError(label_pos, f"duplicate attribute label {label!r}")
            seen.add(label)
            if self.peek() != "=":
                raise self.error("expected '=' after attribute label")
            self.pos += 1
            pairs.append((label, self.value()))
            c = self.peek()
            if c == ",":
                self.pos += 1
                continue
            if c == "]":
                self.pos += 1
                return tuple(pairs)
            raise self.error("expected ',' or ']' after attribute value")

    def value(self) -> AttrValue:
        c = self.peek()
        if c == "(":
            return _build(NameValue, {"name": self.name()})
        if c == "[":
            return _build(ResourceValue, {"description": self.resource()})
        return _build(StringValue, {"text": self.take_token("attribute value")})

    def resource(self) -> ResourceDescription:
        if self.peek() != "[":
            raise self.error("expected '['")
        self.pos += 1
        id_pos = self.pos
        m = _HEX_RE.match(self.text, self.pos)
        id_hex = m.group() if m else ""
        if len(id_hex) != 2 * TYPE_ID_LENGTH:
            raise NameSyntaxError(
                id_pos,
                f"resource type identifier must be exactly {2 * TYPE_ID_LENGTH} lowercase hex digits",
            )
        self.pos = m.end()  # type: ignore[union-attr]
        if self.peek() != " ":
            raise self.error("expected single space between identifier and specification")
        self.pos += 1
        spec_pos = self.pos
        m = _HEX_RE.match(self.text, self.pos)
        spec_hex = ""
        if m is not None:
            spec_hex = m.group()
            self.pos = m.end()
        if len(spec_hex) % 2:
            raise NameSyntaxError(spec_pos, "specification must be an even number of hex digits")
        if self.peek() != "]":
            raise self.error("expected ']' after resource specification")
        self.pos += 1
        # The identifier has its length and both fields decode to bytes:
        # all that ResourceDescription checks.
        return _build(
            ResourceDescription, {"type_id": bytes.fromhex(id_hex), "spec": bytes.fromhex(spec_hex)}
        )


def parse_name(text: str) -> Name:
    """Parse a name in canonical syntax; the whole input must be one name."""
    plain = _PLAIN_NAME_RE.fullmatch(text)
    if plain is not None:
        # _build, inlined: names pass here once per hop on both ends.
        new = object.__new__
        locals_ = []
        for token in plain[1].split():
            local = new(LocalName)
            local.__dict__.update(primary=token, attributes=())
            locals_.append(local)
        name = new(Name)
        name.__dict__["locals"] = tuple(locals_)
        return name
    parser = _Parser(text)
    name = parser.name()
    parser.finish()
    return name


def parse_resource_literal(text: str) -> ResourceDescription:
    """Parse a standalone ``[<identifier> <specification>]`` literal."""
    parser = _Parser(text)
    description = parser.resource()
    parser.finish()
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
    """Render a name in canonical syntax; inverse of parse_name."""
    return "(" + " ".join([_serialize_local(local) for local in name.locals]) + ")"
