"""Generic recursive name resolution.

Every resource (or the separate resolver acting for it) exposes one
capability: resolve a single local name to a resource description plus a
validity period.  The engine here chains those capabilities: it resolves
the head of a name against the initial resource, instantiates a resolver
for the intermediate description via the type registry, dispatches the
remaining chain to it, and intersects the validity periods of all steps.
The final description is returned untouched, so no element along the way
needs to understand it.

Name-valued attributes are anchored to the initial resource: before any
dispatch, the engine replaces every nested name anywhere in the chain
with the resource description it resolves to, so downstream resources
only ever see literal values.

A resolver that can handle whole names by itself (typically a proxy for
a networked element with native resolution support) may additionally
offer ``resolve_name(name) -> Resolution``; the engine then hands the
entire remaining chain over in one step.

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
from typing import Callable, Optional, Protocol

from .names import LocalName, Name, NameValue, ResourceValue, _build
from .resources import ResourceDescription, TypeRegistry

Clock = Callable[[], int]

DEFAULT_MAX_DEPTH = 32


def system_clock() -> int:
    """Current instant in milliseconds since the Unix epoch, UTC."""
    return time.time_ns() // 1_000_000


class NegativeDurationError(ValueError):
    """Validity durations must be non-negative."""


@dataclass(frozen=True)
class Validity:
    """Absolute instant (ms since epoch) after which a mapping is stale."""

    expires_at: int


def intersect(a: Validity, b: Validity) -> Validity:
    """Intersection of two validity periods: the earlier expiry wins."""
    return a if a.expires_at <= b.expires_at else b


def validity_from_duration(now: int, duration_ms: int) -> Validity:
    if duration_ms < 0:
        raise NegativeDurationError(f"duration must be >= 0, got {duration_ms}")
    return Validity(now + duration_ms)


@dataclass(frozen=True)
class Resolution:
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


class Resolver(Protocol):
    """Behavioral contract every resource's resolution code satisfies.

    resolve_local receives a local name whose attribute values are all
    literal (tokens or resource descriptions, never nested names) and
    either returns a description plus the validity the resource assigns
    to that one mapping, or raises NotBoundError.
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


def _stamp_step(exc: ResolutionError, step: int) -> None:
    if exc.step is None:
        exc.step = step


def _literalize(
    ctx: ResolveContext, name: Name, budget: _Budget, step: Optional[int] = None
) -> Name:
    """Replace every name-valued attribute with the description it resolves to.

    A name with no name-valued attribute comes back as it is.  When `name`
    is the chain being resolved from chain step `step` on, a failure inside
    the attributes of its i-th local name, however deeply nested, carries
    step + i: the step of the local name that holds the attribute.
    """
    out_locals = []
    changed = False
    for local in name.locals:
        if local.attributes and any(isinstance(value, NameValue) for _, value in local.attributes):
            new_attrs = []
            try:
                for label, value in local.attributes:
                    if isinstance(value, NameValue):
                        inner = _literalize(ctx, value.name, budget)
                        resolved = _dispatch(ctx, ctx.initial, inner, 0, budget, pre_resolved=True)
                        value = ResourceValue(resolved.description)
                    new_attrs.append((label, value))
            except ResolutionError as exc:
                if step is not None:
                    # out_locals holds the local names before this one
                    exc.step = step + len(out_locals)
                raise
            local = _build(LocalName, {"primary": local.primary, "attributes": tuple(new_attrs)})
            changed = True
        out_locals.append(local)
    if not changed:
        return name
    return _build(Name, {"locals": tuple(out_locals)})


def _next_resolver(
    ctx: ResolveContext, resolver: Resolver, description: ResourceDescription
) -> Optional[Resolver]:
    """Resolver for the description a step returned, None for an unknown type.

    The step's own resolver_for (see the module docstring) is asked
    first, as long as the registry knows the type; otherwise the registry
    instantiates it.
    """
    resolver_for = getattr(resolver, "resolver_for", None)
    if resolver_for is not None and ctx.registry.knows(description.type_id):
        nxt = resolver_for(description)
        if nxt is not None:
            return nxt
    return ctx.registry.instantiate(description)


def _dispatch(
    ctx: ResolveContext,
    resolver: Resolver,
    name: Name,
    step: int,
    budget: _Budget,
    pre_resolved: bool,
) -> Resolution:
    """Resolve `name` from `resolver` (taking chain step `step`), one step at a time."""
    chain = name.locals
    validity: Optional[Validity] = None  # intersection over the steps taken so far
    while True:
        resolve_name = getattr(resolver, "resolve_name", None)
        if resolve_name is not None:
            # Whole-chain delegation: the element behind this resolver runs
            # the same procedure itself and anchors any remaining name-valued
            # attributes to itself, which is exactly the initial resource's
            # role from here on.
            if chain is not name.locals:
                name = _build(Name, {"locals": chain})
            try:
                budget.spend()
                resolution = resolve_name(name)
            except ResolutionError as exc:
                _stamp_step(exc, step)
                raise
            if validity is None:
                return resolution
            return Resolution(resolution.description, intersect(validity, resolution.validity))
        if not pre_resolved:
            name = _literalize(ctx, name, budget, step)
            chain = name.locals
            pre_resolved = True
        try:
            budget.spend()
            description, step_validity = resolver.resolve_local(chain[0])
        except ResolutionError as exc:
            _stamp_step(exc, step)
            raise
        validity = step_validity if validity is None else intersect(validity, step_validity)
        chain = chain[1:]
        if not chain:
            return Resolution(description, validity)
        resolver = _next_resolver(ctx, resolver, description)
        step += 1
        if resolver is None:
            raise UnknownTypeError(description.type_id, step=step)


def resolve(ctx: ResolveContext, name: Name) -> Resolution:
    """Resolve a name relative to the context's initial resource.

    Raises NotBoundError, UnknownTypeError, DepthExceededError or
    TransportError; errors carry the chain step (0-based) they occurred
    at when known.
    """
    budget = _Budget(ctx.max_depth)
    return _dispatch(ctx, ctx.initial, name, 0, budget, pre_resolved=False)
