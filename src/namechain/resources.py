"""Resource descriptions and the type registry.

A resource is described by a fixed-length type identifier plus an opaque
specification byte string.  Only code registered for the identifier may
interpret the specification; everything else passes descriptions around
unmodified.  Identifiers are derived by hashing a human-readable
descriptor string, so new types need no registration authority and two
independently chosen types collide with negligible probability.

A registered type is three functions: a decoder from specification bytes
to a value, a constructor from that value to a resolver, and optionally
a rendering of the value for people.  The registry composes them, so a
type's spec is decoded in one place, whether a resolver or a rendering
is wanted, and a resolver built from a value some step already holds
(TypeRegistry.build) is built by the same constructor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

if TYPE_CHECKING:
    from .resolver import Resolver

TYPE_ID_LENGTH = 32
_new = object.__new__


class DuplicateTypeError(Exception):
    """A decoder and constructor are already registered for this type identifier."""


def derive_type_id(descriptor: bytes | str) -> bytes:
    """Derive a 256-bit type identifier as the SHA-256 of a descriptor."""
    if isinstance(descriptor, str):
        descriptor = descriptor.encode("utf-8")
    return hashlib.sha256(descriptor).digest()


@dataclass(frozen=True)
class ResourceDescription:
    """Machine-readable description: type identifier plus specification bytes."""

    type_id: bytes
    spec: bytes = b""

    def __post_init__(self) -> None:
        if not isinstance(self.type_id, bytes) or len(self.type_id) != TYPE_ID_LENGTH:
            raise ValueError(f"type identifier must be exactly {TYPE_ID_LENGTH} bytes")
        if not isinstance(self.spec, bytes):
            raise ValueError("specification must be bytes")

    def to_bytes(self) -> bytes:
        return self.type_id + self.spec


def _new_description(type_id: bytes, spec: bytes) -> ResourceDescription:
    """A description of a type id of TYPE_ID_LENGTH bytes and a bytes spec,
    built without the constructor's checks (see the names module docstring)."""
    description = _new(ResourceDescription)
    fields = description.__dict__
    fields["type_id"] = type_id
    fields["spec"] = spec
    return description


class RegistryEntry(NamedTuple):
    decode: Callable[[bytes], Any]
    build: Callable[[Any], "Resolver"]
    usable: bool
    label: Optional[str]
    render: Optional[Callable[[Any], str]]


class TypeRegistry:
    """Maps type identifiers to their decoders, constructors and usability flags.

    Build the registry at startup and treat it as read-only afterwards;
    lookups then need no coordination between threads.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, RegistryEntry] = {}

    def register(
        self,
        type_id: bytes,
        decode: Callable[[bytes], Any],
        build: Callable[[Any], "Resolver"],
        *,
        usable: bool = False,
        label: str | None = None,
        render: Callable[[Any], str] | None = None,
    ) -> None:
        """Register a type: `decode` turns a spec into a value, `build`
        turns that value into the type's resolver, and `render`, when
        given, turns it into a human-readable form."""
        if not isinstance(type_id, bytes) or len(type_id) != TYPE_ID_LENGTH:
            raise ValueError(f"type identifier must be exactly {TYPE_ID_LENGTH} bytes")
        if type_id in self._entries:
            raise DuplicateTypeError(f"type {type_id.hex()} already registered")
        self._entries[type_id] = RegistryEntry(decode, build, usable, label, render)

    def knows(self, type_id: bytes) -> bool:
        return type_id in self._entries

    def is_usable(self, type_id: bytes) -> bool:
        entry = self._entries.get(type_id)
        return entry.usable if entry is not None else False

    def label_for(self, type_id: bytes) -> Optional[str]:
        entry = self._entries.get(type_id)
        return entry.label if entry is not None else None

    def pretty(self, description: ResourceDescription) -> Optional[str]:
        """Human-readable rendering of a description, or None when unknown.

        A spec the type's decoder refuses (MalformedSpecError, or
        ValueError from a decoder outside the kit) renders as undecodable;
        anything a rendering raises propagates.
        """
        from .resolver import MalformedSpecError  # resolver imports this module

        entry = self._entries.get(description.type_id)
        if entry is None:
            return None
        if entry.render is None:
            return entry.label
        try:
            value = entry.decode(description.spec)
        except (MalformedSpecError, ValueError):
            return f"{entry.label or 'resource'} (undecodable specification)"
        return entry.render(value)

    def instantiate(self, description: ResourceDescription) -> "Resolver | None":
        """Construct a resolver for a description; None for an unknown type.

        A decoder raises resolver.MalformedSpecError, a ResolutionError
        that resolution stamps with its step, for bytes its type refuses.
        """
        entry = self._entries.get(description.type_id)
        if entry is None:
            return None
        return entry.build(entry.decode(description.spec))

    def build(self, type_id: bytes, value: Any) -> "Resolver | None":
        """The resolver for a description of type_id whose spec decodes to
        `value`, built without decoding; None for an unknown type."""
        entry = self._entries.get(type_id)
        if entry is None:
            return None
        return entry.build(value)

    def type_ids(self) -> frozenset[bytes]:
        return frozenset(self._entries)

    def restrict(self, *type_ids: bytes) -> "TypeRegistry":
        """Copy containing only the given types (for locality experiments)."""
        out = TypeRegistry()
        for tid in type_ids:
            if tid in self._entries:
                out._entries[tid] = self._entries[tid]
        return out

    def without(self, *type_ids: bytes) -> "TypeRegistry":
        """Copy with the given types removed."""
        out = TypeRegistry()
        dropped = set(type_ids)
        out._entries = {t: e for t, e in self._entries.items() if t not in dropped}
        return out
