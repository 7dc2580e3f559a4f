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
attributes to itself.  The engine then reads no local name of it, so a
parsed plain name never builds them (see names.parse_name).

A step that encodes the description it returns from values it holds
(or decodes it, to check it or to compute the validity) may hand those
values on: resolve_local may return a third element, the value the
description's spec decodes to.  When the name goes on past that
description, the engine builds the next resolver from the value with
the type's constructor (TypeRegistry.build) instead of decoding the
bytes the step just wrote; any other description is decoded by its
type's decoder and built by the same constructor
(TypeRegistry.instantiate).  A step hands on only what it encoded or
decoded itself, never a description it read from elsewhere.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Protocol

from .names import _TEXT, MAX_NESTING, LocalName, Name, NameValue, _new_local, _new_name, _new_resource_value
from .resources import ResourceDescription, TypeRegistry

Clock = Callable[[], int]

# One number for both limits: a name nested deeper than the parser takes
# spends more steps than this on its nested names alone.
DEFAULT_MAX_DEPTH = MAX_NESTING
# Seconds each wire call of a resolution may wait to connect, and then
# on each send and receive.
DEFAULT_TIMEOUT = 5.0


def system_clock() -> int:
    """Current instant in milliseconds since the Unix epoch, UTC."""
    return time.time_ns() // 1_000_000


class NegativeDurationError(ValueError):
    """Validity durations must be non-negative."""


# Validity and Resolution are built on every step and every hop; as
# named tuples each costs one allocation, and they compare and hash by
# their fields.  Where they are built on every step (here, in the kit's
# steps and in wire.parse_ok_resolution) they are built as
# _new_tuple(cls, fields), which is what the generated __new__ does
# without its Python frame; Validity(...) and Resolution(...) stay the
# public way to build them.
_new_tuple = tuple.__new__


class Validity(NamedTuple):
    """Absolute instant (ms since epoch) after which a mapping is stale."""

    expires_at: int


def intersect(a: Validity, b: Validity) -> Validity:
    """Intersection of two validity periods: the earlier expiry wins."""
    return a if a.expires_at <= b.expires_at else b


def validity_from_duration(now: int, duration_ms: int) -> Validity:
    if duration_ms < 0:
        raise NegativeDurationError(f"duration must be >= 0, got {duration_ms}")
    return _new_tuple(Validity, (now + duration_ms,))


class Resolution(NamedTuple):
    """Result of resolving a name: final description plus end-to-end validity."""

    description: ResourceDescription
    validity: Validity


# What one resolve_local call returns: a description and its validity,
# optionally followed by the value the description's spec decodes to.
StepResult = tuple[ResourceDescription, Validity] | tuple[ResourceDescription, Validity, Any]


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
    """The registry has no decoder and constructor for the intermediate resource's type."""

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
    to that one mapping, or raises NotBoundError.  It may add a third
    element, the value the description's spec decodes to, which the engine
    builds the next step's resolver from (see the module docstring).  A
    resolver that offers resolve_name (see the module docstring) need not
    offer resolve_local: the engine hands such a resolver every name whole.
    """

    def resolve_local(self, local: LocalName) -> StepResult:
        ...


@dataclass
class ResolveContext:
    """Everything one top-level resolve call needs.

    It holds the limits of the request; no registry or proxy holds any:

    - max_depth caps the total number of single-step resolutions (local
      or delegated) performed for one request on this thread, attribute
      resolution and co-hosted hops included, so resolution terminates
      even on cyclic name graphs;
    - timeout (seconds) bounds every wire call its steps make: the
      connect, then each send and receive.

    A co-hosted hop keeps the limits of the request it is part of.
    """

    registry: TypeRegistry
    initial: Resolver
    clock: Clock = field(default=system_clock)
    max_depth: int = DEFAULT_MAX_DEPTH
    timeout: float = DEFAULT_TIMEOUT


class _Budget:
    """One request: the context that opened it, whose limits bound every
    hop of it, and the steps it has left."""

    __slots__ = ("remaining", "ctx")

    def __init__(self, ctx: ResolveContext) -> None:
        self.remaining = ctx.max_depth
        self.ctx = ctx


class _Scope(threading.local):
    budget: Optional[_Budget] = None  # the request of the resolution running on this thread
    answering = 0  # RoleServer.answer calls running on this thread, nested


# The request this thread runs: set by resolve() and RoleServer.answer,
# read by resolve() and wire._roundtrip.
scope = _Scope()


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
    if _TEXT in name.__dict__:  # a parsed plain name: it has no attribute
        return name, None
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
                        value = _new_resource_value(resolution.description)
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
            local = _new_local(local.primary, tuple(new_attrs))
        out_locals.append(local)
    if validity is None:
        return name, None
    return _new_name(tuple(out_locals)), validity


def _walk(
    ctx: ResolveContext, name: Name, validity: Optional[Validity], budget: _Budget
) -> Resolution:
    """Resolve `name` from the initial resource, one step at a time.

    `validity` is that of the attribute resolutions already made for the
    name (None if none); the result's validity intersects it with every
    step's.  A step, local or delegated, is one pass of the loop's `try`:
    choose the resolver (built by the registry from the value the last
    step handed on, as the module docstring says, else from the
    description), spend one unit of the budget, resolve; any failure in
    it carries that step unless it already knows a deeper one.  Step i
    resolves the i-th local name.  The local names are read at the first
    local step: a whole-name delegation at step 0 reads none.
    """
    resolver = ctx.initial
    step = 0
    while True:
        try:
            if step:
                if handed is None:
                    resolver = ctx.registry.instantiate(description)
                else:
                    resolver = ctx.registry.build(description.type_id, handed)
                if resolver is None:
                    raise UnknownTypeError(description.type_id)
            if budget.remaining <= 0:
                raise DepthExceededError(budget.ctx.max_depth)
            budget.remaining -= 1
            resolve_name = getattr(resolver, "resolve_name", None)
            if resolve_name is None:
                if not step:  # a step k > 0 follows this local step 0
                    chain = name.locals
                    last = len(chain) - 1
                result = resolver.resolve_local(chain[step])
                if len(result) == 2:
                    description, step_validity = result
                    handed = None
                else:
                    description, step_validity, handed = result
            else:
                # Whole-chain delegation: the element behind this resolver
                # runs the same procedure itself, anchored to itself.
                resolution = resolve_name(name if step == 0 else _new_name(chain[step:]))
                if validity is None or validity.expires_at >= resolution.validity.expires_at:
                    return resolution
                return _new_tuple(Resolution, (resolution.description, validity))
        except ResolutionError as exc:
            if exc.step is None:
                exc.step = step
            raise
        # intersect(validity, step_validity), compared inline
        if validity is None or step_validity.expires_at < validity.expires_at:
            validity = step_validity
        if step == last:
            return _new_tuple(Resolution, (description, validity))
        step += 1


def resolve(ctx: ResolveContext, name: Name) -> Resolution:
    """Resolve a name relative to the context's initial resource.

    One budget of ctx.max_depth steps, with ctx.timeout on each wire
    call, bounds one request on this thread, co-hosted hops included: a
    call made while a resolution runs on this thread (a server answering
    a co-hosted hop) spends that one's budget under its timeout.

    Every failure is a ResolutionError: NotBoundError, UnknownTypeError,
    DepthExceededError, TransportError or MalformedSpecError (a spec its
    type's code refused), carrying the chain step (0-based) it occurred at.
    """
    outer = scope.budget
    scope.budget = budget = outer if outer is not None else _Budget(ctx)
    try:
        validity = None
        if getattr(ctx.initial, "resolve_name", None) is None:
            name, validity = _literalize(ctx, name, budget)
        return _walk(ctx, name, validity, budget)
    finally:
        scope.budget = outer
