"""Generic recursive name resolution.

Every resource (or the separate resolver acting for it) exposes one
capability: resolve a single local name to a resource description plus a
validity period.  The engine here chains those capabilities: it resolves
the head of a name against the initial resource, instantiates a resolver
for the intermediate description via the type registry, dispatches the
remaining chain to it, and intersects the validity periods of all steps.
The final description is returned untouched, so no element along the way
needs to understand it.

Name-valued attributes are anchored to the initial resource: once, up
front, the engine replaces every nested name anywhere in the chain with
the resource description it resolves to, so downstream resources only
ever see literal values.  The validity of those attribute resolutions
joins the intersection too: the name means what it means only while
its attributes do.

A resolver that can handle whole names by itself (typically a proxy for
a networked element with native resolution support) may offer
``resolve_name(name) -> Resolution`` in place of resolve_local; the
engine then hands the entire remaining chain over in one step.  When
the initial resource itself does so, the engine literalizes nothing:
the name goes over as it is, and the element behind it anchors the
attributes to itself.

A resolver that decodes the description it returns (to check it, or to
compute the validity) may offer ``resolver_for(description)``: the
resolver for the description its last resolve_local call returned, built
from that decoding, or None.  When the name goes on past that description
and the registry knows its type, the engine takes the next resolver from
there instead of having the registry decode the same bytes again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Protocol

from .names import MAX_NESTING, LocalName, Name, NameValue, ResourceValue, _build
from .resources import ResourceDescription, TypeRegistry

Clock = Callable[[], int]

# One number for both limits: a name nested deeper than the parser takes
# spends more steps than this on its nested names alone.
DEFAULT_MAX_DEPTH = MAX_NESTING


def system_clock() -> int:
    """Current instant in milliseconds since the Unix epoch, UTC."""
    return time.time_ns() // 1_000_000


class NegativeDurationError(ValueError):
    """Validity durations must be non-negative."""


# Validity and Resolution are built on every step and every hop; as
# named tuples each costs one allocation, and they compare and hash by
# their fields.
class Validity(NamedTuple):
    """Absolute instant (ms since epoch) after which a mapping is stale."""

    expires_at: int


def intersect(a: Validity, b: Validity) -> Validity:
    """Intersection of two validity periods: the earlier expiry wins."""
    return a if a.expires_at <= b.expires_at else b


def validity_from_duration(now: int, duration_ms: int) -> Validity:
    if duration_ms < 0:
        raise NegativeDurationError(f"duration must be >= 0, got {duration_ms}")
    return Validity(now + duration_ms)


class Resolution(NamedTuple):
    """Result of resolving a name: final description plus end-to-end validity."""

    description: ResourceDescription
    validity: Validity


class ResolutionError(Exception):
    """Base class for failures of the resolution process.

    Every failure carries an optional free-text detail and the chain step
    (0-based) it occurred at, when known.  Subclasses supply the headline;
    str() gives ``<headline>[ (detail)][ at step N]``.
    """

    headline = "resolution failed"

    def __init__(self, detail: str = "", step: Optional[int] = None) -> None:
        super().__init__()
        self.detail = detail
        self.step = step

    def __str__(self) -> str:
        msg = self.headline
        if self.detail:
            msg += f" ({self.detail})"
        if self.step is not None:
            msg += f" at step {self.step}"
        return msg


class NotBoundError(ResolutionError):
    """A resource has no binding for the requested local name."""

    def __init__(self, local: str, detail: str = "", step: Optional[int] = None) -> None:
        super().__init__(detail, step)
        self.local = local

    @property
    def headline(self) -> str:
        return f"no binding for {self.local!r}"


class UnknownTypeError(ResolutionError):
    """No registered factory can resolve names from the intermediate resource."""

    def __init__(self, type_id: bytes, detail: str = "", step: Optional[int] = None) -> None:
        super().__init__(detail, step)
        self.type_id = type_id

    @property
    def headline(self) -> str:
        return f"cannot resolve names from resource of unknown type {self.type_id.hex()}"


class DepthExceededError(ResolutionError):
    """Resolution did not finish within the configured step budget."""

    def __init__(
        self, max_depth: Optional[int] = None, detail: str = "", step: Optional[int] = None
    ) -> None:
        super().__init__(detail, step)
        self.max_depth = max_depth

    @property
    def headline(self) -> str:
        if self.max_depth is None:
            return "resolution exceeded the maximum step count"
        return f"resolution exceeded the maximum step count of {self.max_depth}"


class TransportError(ResolutionError):
    """A networked resource could not be reached or answered garbage."""

    headline = "transport failure"


class MalformedSpecError(ResolutionError):
    """A type's own code refused the specification bytes of a description."""

    def __init__(self, type_id: bytes, reason: str) -> None:
        super().__init__()
        self.type_id = type_id
        self.reason = reason

    @property
    def headline(self) -> str:
        return f"malformed specification for type {self.type_id.hex()}: {self.reason}"


class Resolver(Protocol):
    """Behavioral contract every resource's resolution code satisfies.

    resolve_local receives a local name whose attribute values are all
    literal (tokens or resource descriptions, never nested names) and
    either returns a description plus the validity the resource assigns
    to that one mapping, or raises NotBoundError.  A resolver that offers
    resolve_name (see the module docstring) need not offer it: the
    engine hands such a resolver every name whole.
    """

    def resolve_local(self, local: LocalName) -> tuple[ResourceDescription, Validity]:
        ...


@dataclass
class ResolveContext:
    """Everything one top-level resolve call needs.

    max_depth caps the total number of single-step resolutions (local or
    delegated) performed on behalf of one call, attribute resolution
    included, so resolution terminates even on cyclic name graphs.
    """

    registry: TypeRegistry
    initial: Resolver
    clock: Clock = field(default=system_clock)
    max_depth: int = DEFAULT_MAX_DEPTH


class _Budget:
    __slots__ = ("remaining", "limit")

    def __init__(self, limit: int) -> None:
        self.remaining = limit
        self.limit = limit

    def spend(self) -> None:
        if self.remaining <= 0:
            raise DepthExceededError(self.limit)
        self.remaining -= 1


def _literalize(
    ctx: ResolveContext, name: Name, budget: _Budget
) -> tuple[Name, Optional[Validity]]:
    """Replace every name-valued attribute with the description it resolves to.

    Returns the literal name and the intersection of the validities of
    those attribute resolutions, or None when there were none; a name
    with no name-valued attribute comes back as it is.  A failure inside
    the attributes of the i-th local name, however deeply nested, carries
    step i: the step of the local name that holds the attribute (the
    outermost call sets it last).
    """
    out_locals = []
    validity: Optional[Validity] = None
    for local in name.locals:
        if local.attributes and any(isinstance(value, NameValue) for _, value in local.attributes):
            new_attrs = []
            try:
                for label, value in local.attributes:
                    if isinstance(value, NameValue):
                        inner, inner_validity = _literalize(ctx, value.name, budget)
                        resolution = _walk(ctx, inner, inner_validity, budget)
                        value = ResourceValue(resolution.description)
                        validity = (
                            resolution.validity
                            if validity is None
                            else intersect(validity, resolution.validity)
                        )
                    new_attrs.append((label, value))
            except ResolutionError as exc:
                # out_locals holds the local names before this one
                exc.step = len(out_locals)
                raise
            local = _build(LocalName, {"primary": local.primary, "attributes": tuple(new_attrs)})
        out_locals.append(local)
    if validity is None:
        return name, None
    return _build(Name, {"locals": tuple(out_locals)}), validity


def _walk(
    ctx: ResolveContext, name: Name, validity: Optional[Validity], budget: _Budget
) -> Resolution:
    """Resolve `name` from the initial resource, one step at a time.

    `validity` is that of the attribute resolutions already made for the
    name (None if none); the result's validity intersects it with every
    step's.  A step, local or delegated, is one pass of the loop's `try`:
    choose the resolver (resolver_for, as the module docstring says, else
    the registry), spend one unit of the budget, resolve; any failure in
    it carries that step unless it already knows a deeper one.
    """
    resolver = ctx.initial
    chain = name.locals
    step = 0
    while True:
        try:
            if step:
                resolver_for = getattr(resolver, "resolver_for", None)
                resolver = None
                if resolver_for is not None and ctx.registry.knows(description.type_id):
                    resolver = resolver_for(description)
                if resolver is None and (resolver := ctx.registry.instantiate(description)) is None:
                    raise UnknownTypeError(description.type_id)
            budget.spend()
            resolve_name = getattr(resolver, "resolve_name", None)
            if resolve_name is None:
                description, step_validity = resolver.resolve_local(chain[0])
                chain = chain[1:]
            else:
                # Whole-chain delegation: the element behind this resolver
                # runs the same procedure itself, anchored to itself.
                resolution = resolve_name(name if step == 0 else _build(Name, {"locals": chain}))
                if validity is None:
                    return resolution
                description, step_validity, chain = resolution.description, resolution.validity, ()
        except ResolutionError as exc:
            if exc.step is None:
                exc.step = step
            raise
        validity = step_validity if validity is None else intersect(validity, step_validity)
        if not chain:
            return Resolution(description, validity)
        step += 1


def resolve(ctx: ResolveContext, name: Name) -> Resolution:
    """Resolve a name relative to the context's initial resource.

    Every failure is a ResolutionError: NotBoundError, UnknownTypeError,
    DepthExceededError, TransportError or MalformedSpecError (a spec its
    type's code refused), carrying the chain step (0-based) it occurred at.
    """
    budget = _Budget(ctx.max_depth)
    validity = None
    if getattr(ctx.initial, "resolve_name", None) is None:
        name, validity = _literalize(ctx, name, budget)
    return _walk(ctx, name, validity, budget)
