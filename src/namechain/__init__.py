"""Relative naming among cooperating resources.

Resources name each other by local names; a name is a chain of local
names that only means something relative to an initial resource.
Resolution walks the chain recursively, dispatching each intermediate
resource description to type-specific code, and returns the final
description together with the intersected validity period of every step.
"""

from .cache import NameCache, cached_resolve
from .names import (
    AttrValue,
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
from .resolver import (
    DEFAULT_MAX_DEPTH,
    Clock,
    DepthExceededError,
    MalformedSpecError,
    NegativeDurationError,
    NotBoundError,
    Resolution,
    ResolutionError,
    ResolveContext,
    Resolver,
    TransportError,
    UnknownTypeError,
    Validity,
    intersect,
    resolve,
    system_clock,
    validity_from_duration,
)
from .resources import (
    TYPE_ID_LENGTH,
    DuplicateTypeError,
    ResourceDescription,
    TypeRegistry,
    derive_type_id,
)

__version__ = "0.1.0"

__all__ = [
    "AttrValue",
    "Clock",
    "DEFAULT_MAX_DEPTH",
    "DepthExceededError",
    "DuplicateTypeError",
    "EmptyNameError",
    "LocalName",
    "MalformedSpecError",
    "Name",
    "NameCache",
    "NameSyntaxError",
    "NameValue",
    "NegativeDurationError",
    "NotBoundError",
    "Resolution",
    "ResolutionError",
    "ResolveContext",
    "Resolver",
    "ResourceDescription",
    "ResourceValue",
    "StringValue",
    "TransportError",
    "TYPE_ID_LENGTH",
    "TypeRegistry",
    "UnknownTypeError",
    "Validity",
    "cached_resolve",
    "derive_type_id",
    "intersect",
    "parse_name",
    "parse_resource_literal",
    "resolve",
    "serialize_name",
    "serialize_resource_literal",
    "system_clock",
    "validity_from_duration",
]
