"""Resource descriptions and the type registry.

A resource is described by a fixed-length type identifier plus an opaque
specification byte string.  Only code registered for the identifier may
interpret the specification; everything else passes descriptions around
unmodified.  Identifiers are derived by hashing a human-readable
descriptor string, so new types need no registration authority and two
independently chosen types collide with negligible probability.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:
    from .resolver import Resolver

TYPE_ID_LENGTH = 32


class DuplicateTypeError(Exception):
    """A factory is already registered for this type identifier."""


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


ResolverFactory = Callable[[bytes], "Resolver"]
# The constructor a factory calls with what it decoded from a spec.
ResolverBuilder = Callable[[Any], "Resolver"]


@dataclass
class RegistryEntry:
    factory: ResolverFactory
    usable: bool = False
    label: Optional[str] = None
    pretty: Optional[Callable[[bytes], str]] = None
    build: Optional[ResolverBuilder] = None


class TypeRegistry:
    """Maps type identifiers to resolver factories and usability flags.

    Build the registry at startup and treat it as read-only afterwards;
    lookups then need no coordination between threads.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, RegistryEntry] = {}

    def register(
        self,
        type_id: bytes,
        factory: ResolverFactory,
        *,
        usable: bool = False,
        label: str | None = None,
        pretty: Callable[[bytes], str] | None = None,
        build: ResolverBuilder | None = None,
    ) -> None:
        """Register `factory` for `type_id`.

        `build`, when given, is the constructor `factory` calls after
        decoding a spec: factory(spec) == build(<what factory decoded>).
        """
        if not isinstance(type_id, bytes) or len(type_id) != TYPE_ID_LENGTH:
            raise ValueError(f"type identifier must be exactly {TYPE_ID_LENGTH} bytes")
        if type_id in self._entries:
            raise DuplicateTypeError(f"type {type_id.hex()} already registered")
        self._entries[type_id] = RegistryEntry(factory, usable, label, pretty, build)

    def knows(self, type_id: bytes) -> bool:
        return type_id in self._entries

    def is_usable(self, type_id: bytes) -> bool:
        entry = self._entries.get(type_id)
        return entry.usable if entry is not None else False

    def label_for(self, type_id: bytes) -> Optional[str]:
        entry = self._entries.get(type_id)
        return entry.label if entry is not None else None

    def pretty(self, description: ResourceDescription) -> Optional[str]:
        """Human-readable rendering of a description, or None when unknown."""
        entry = self._entries.get(description.type_id)
        if entry is None:
            return None
        if entry.pretty is None:
            return entry.label
        try:
            return entry.pretty(description.spec)
        except Exception:
            return f"{entry.label or 'resource'} (undecodable specification)"

    def instantiate(self, description: ResourceDescription) -> "Resolver | None":
        """Construct a resolver for a description; None for an unknown type.

        A factory raises resolver.MalformedSpecError, a ResolutionError
        that resolution stamps with its step, for bytes its type refuses.
        """
        entry = self._entries.get(description.type_id)
        if entry is None:
            return None
        return entry.factory(description.spec)

    def build(self, type_id: bytes, decoded: Any) -> "Resolver | None":
        """The resolver for a description of type_id whose spec decodes to
        `decoded`, built without decoding; None when the registry has no
        constructor for the type."""
        entry = self._entries.get(type_id)
        if entry is None or entry.build is None:
            return None
        return entry.build(decoded)

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
