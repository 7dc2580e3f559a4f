"""Discovery scenarios and the timing harness.

Three scenarios exercise the deployment end to end:

    1  (today meeting moderator email)    asked of the calendar
    2  (today meeting location occupant)  asked of the calendar
    3  (occupant files naming.ppt)        asked of the location manager

Each can run two ways.  In resolver mode the scenario name is resolved
through the naming machinery.  In manual mode the same discovery is done
by hand-written, per-scenario code that queries the servers directly:
fetch today's tagged events, pull the moderator id out of the event
data, fetch the user record, extract the email, and so on.  Both ways
must discover the byte-identical final description; the harness refuses
to time anything if they disagree.

Timings are reported as mean and standard deviation in milliseconds
over the requested iterations, with no outlier trimming.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Optional

from . import kit, wire
from .cache import NameCache, cached_resolve
from .config import DeploymentConfig
from .names import parse_name
from .resolver import (
    Clock,
    NotBoundError,
    Resolution,
    ResolveContext,
    UnknownTypeError,
    resolve,
    system_clock,
)
from .resources import ResourceDescription, TypeRegistry


@dataclass(frozen=True)
class Scenario:
    number: int
    name_text: str
    initial_alias: str


SCENARIOS = {
    1: Scenario(1, "(today meeting moderator email)", "calendar"),
    2: Scenario(2, "(today meeting location occupant)", "calendar"),
    3: Scenario(3, "(occupant files naming.ppt)", "location"),
}


class ModeDisagreement(Exception):
    """Resolver mode and manual mode discovered different descriptions."""


def resolve_scenario(
    cfg: DeploymentConfig,
    scenario: int,
    *,
    clock: Clock = system_clock,
    registry: Optional[TypeRegistry] = None,
    cache: Optional[NameCache] = None,
    timeout: float = wire.DEFAULT_TIMEOUT,
) -> Resolution:
    """Resolve a scenario name through the naming system, each wire call
    within `timeout` seconds."""
    spec = SCENARIOS[scenario]
    if registry is None:
        registry = kit.build_registry(clock, cfg.addresses["userdb"])
    initial_desc = cfg.initial_description(spec.initial_alias)
    initial = registry.instantiate(initial_desc)
    if initial is None:
        raise UnknownTypeError(initial_desc.type_id, step=0)
    ctx = ResolveContext(registry, initial, clock, timeout=timeout)
    name = parse_name(spec.name_text)
    if cache is not None:
        return cached_resolve(ctx, cache, name)
    return resolve(ctx, name)


def _first_meeting_today(
    cfg: DeploymentConfig, clock: Clock, timeout: float
) -> kit.EventFields:
    day_start, day_end = kit.day_bounds(clock())
    specs = wire.query_events(cfg.addresses["calendar"], day_start, day_end, "meeting", timeout)
    if not specs:
        raise NotBoundError("meeting", "no event today carries this tag")
    return kit.parse_event_spec(specs[0])


def _occupancy_target(cfg: DeploymentConfig) -> tuple[str, bytes]:
    initial = cfg.initial_description(SCENARIOS[3].initial_alias)
    return wire.parse_addr_id_spec(initial.spec, initial.type_id)


def manual_discover(
    cfg: DeploymentConfig,
    scenario: int,
    *,
    clock: Clock = system_clock,
    timeout: float = wire.DEFAULT_TIMEOUT,
) -> ResourceDescription:
    """Hand-coded discovery: query the servers directly, no name resolution."""
    if scenario == 1:
        event = _first_meeting_today(cfg, clock, timeout)
        email, _ = wire.get_user(cfg.addresses["userdb"], event.moderator, timeout)
        return kit.string_description(email)
    if scenario == 2:
        event = _first_meeting_today(cfg, clock, timeout)
        address, location_id = wire.parse_addr_id_spec(event.location.spec, kit.LOCATION_TYPE)
        present = wire.occupancy(address, location_id, timeout)
        if not present:
            raise NotBoundError("occupant", "location is empty")
        return kit.user_description(cfg.addresses["userdb"], present[0])
    if scenario == 3:
        address, location_id = _occupancy_target(cfg)
        present = wire.occupancy(address, location_id, timeout)
        if not present:
            raise NotBoundError("occupant", "location is empty")
        _, fileprefix = wire.get_user(cfg.addresses["userdb"], present[0], timeout)
        return kit.file_description(fileprefix + "naming.ppt")
    raise ValueError(f"unknown scenario {scenario}")


@dataclass
class BenchReport:
    scenario: int
    mode: str
    iterations: int
    mean_ms: float
    stddev_ms: float
    description: ResourceDescription
    samples: list[float]

    def format_stats(self) -> str:
        return f"{self.mean_ms:.2f} ± {self.stddev_ms:.2f}"


def run_bench(
    cfg: DeploymentConfig,
    scenario: int,
    iterations: int,
    mode: str,
    *,
    clock: Clock = system_clock,
    use_cache: bool = False,
    timeout: float = wire.DEFAULT_TIMEOUT,
) -> BenchReport:
    """Time one scenario in one mode after checking the modes agree."""
    if mode not in ("nun", "manual"):
        raise ValueError(f"mode must be 'nun' or 'manual', got {mode!r}")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    registry = kit.build_registry(clock, cfg.addresses["userdb"])

    resolved = resolve_scenario(cfg, scenario, clock=clock, registry=registry, timeout=timeout)
    manual = manual_discover(cfg, scenario, clock=clock, timeout=timeout)
    if resolved.description.to_bytes() != manual.to_bytes():
        raise ModeDisagreement(
            f"scenario {scenario}: resolver found "
            f"{resolved.description.to_bytes().hex()} but manual queries found "
            f"{manual.to_bytes().hex()}"
        )

    cache = NameCache() if (use_cache and mode == "nun") else None
    samples: list[float] = []
    description = resolved.description
    for _ in range(iterations):
        t0 = time.perf_counter_ns()
        if mode == "nun":
            description = resolve_scenario(
                cfg, scenario, clock=clock, registry=registry, cache=cache, timeout=timeout
            ).description
        else:
            description = manual_discover(cfg, scenario, clock=clock, timeout=timeout)
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    mean = statistics.fmean(samples)
    stddev = statistics.stdev(samples) if len(samples) >= 2 else 0.0
    return BenchReport(scenario, mode, iterations, mean, stddev, description, samples)
