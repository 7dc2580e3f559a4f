"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import random
import statistics
import string
import time
from contextlib import contextmanager

import pytest

from conftest import Graph, node_description

from namechain import kit, wire
from namechain.bench import manual_discover, resolve_scenario, run_bench
from namechain.cache import NameCache, cached_resolve
from namechain.names import (
    LocalName,
    Name,
    NameSyntaxError,
    NameValue,
    ResourceValue,
    StringValue,
    parse_name,
    serialize_name,
)
from namechain.resolver import (
    DEFAULT_MAX_DEPTH,
    DepthExceededError,
    NotBoundError,
    Resolution,
    ResolveContext,
    Validity,
    intersect,
    resolve,
)
from namechain.resources import ResourceDescription


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({label}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({label}): PASS")


# --- criterion 1: grammar conformance ---------------------------------------

DOCUMENTED_NAMES = [
    "(printer)",
    "(printer administrator)",
    "(documents research naming)",
    "(author[n=3])",
    "(alice location display[user=(supervisor)])",
    "(today meeting moderator email)",
    "(today meeting location occupant)",
    "(occupant files naming.ppt)",
]

_TOKEN_ALPHABET = string.ascii_letters + string.digits + "._-"
_BAD_CHARS = "!@#$%^&*;:'\"\\/?<>~`+|{}"


def _gen_token(rng):
    return "".join(rng.choice(_TOKEN_ALPHABET) for _ in range(rng.randint(1, 10)))


def _gen_value(rng, depth):
    roll = rng.random()
    if depth >= 2 or roll < 0.55:
        return StringValue(_gen_token(rng))
    if roll < 0.8:
        return ResourceValue(
            ResourceDescription(rng.randbytes(32), rng.randbytes(rng.randint(0, 24)))
        )
    return NameValue(_gen_name(rng, depth + 1))


def _gen_local(rng, depth):
    labels = []
    seen = set()
    for _ in range(rng.randint(0, 3)):
        label = _gen_token(rng)
        if label not in seen:
            seen.add(label)
            labels.append(label)
    attrs = tuple((label, _gen_value(rng, depth)) for label in labels)
    return LocalName(_gen_token(rng), attrs)


def _gen_name(rng, depth=0):
    return Name(tuple(_gen_local(rng, depth) for _ in range(rng.randint(1, 4))))


def _mutations(rng, count):
    """Strings guaranteed not to be derivable from the grammar."""
    canned = [
        "()",
        "( )",
        "(a )",
        "( a)",
        "(a,b)",
        "(a[])",
        "(a[x=1,x=2])",
        "(a[x=1,,y=2])",
        "(a[x=])",
        "(a[=1])",
        "(a[x=1)",
        "(a[x=[abc def]])",
        "(a[x=[" + "00" * 32 + " 7]])",
        "(a[x=[" + "AB" * 32 + " ab]])",
        "(a[x=[" + "00" * 32 + "  ab]])",
        "(a[x=[" + "00" * 32 + "ab]])",
    ]
    out = list(canned)
    while len(out) < count:
        text = serialize_name(_gen_name(rng))
        kind = rng.randrange(6)
        if kind == 0:
            pos = rng.randint(0, len(text))
            out.append(text[:pos] + rng.choice(_BAD_CHARS) + text[pos:])
        elif kind == 1:
            out.append(text[:-1])  # drop the closing parenthesis
        elif kind == 2:
            out.append(text[1:])  # drop the opening parenthesis
        elif kind == 3:
            out.append(text + ")")
        elif kind == 4:
            out.append(text + rng.choice(_TOKEN_ALPHABET))
        else:
            label = _gen_token(rng)
            out.append(f"({_gen_token(rng)}[{label}=1,{label}=2])")
    return out[:count]


def test_criterion_1_grammar_conformance():
    with criterion(1, "grammar conformance"):
        started = time.monotonic()
        for text in DOCUMENTED_NAMES:
            assert serialize_name(parse_name(text)) == text
            # A name built by its constructor has no recorded text to answer with.
            assert serialize_name(Name(parse_name(text).locals)) == text

        rng = random.Random(0x5EED)
        for _ in range(10_000):
            name = _gen_name(rng)
            assert parse_name(serialize_name(name)) == name

        rejected = 0
        for bad in _mutations(rng, 1_000):
            with pytest.raises(NameSyntaxError):
                parse_name(bad)
            rejected += 1
        assert rejected == 1_000
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"grammar suite took {elapsed:.2f}s"


# --- criterion 2: six-resource graph oracle ----------------------------------

def test_criterion_2_six_resource_graph():
    with criterion(2, "six-resource graph"):
        graph = Graph(
            {
                "A": {"stuff": "C"},
                "B": {"peer": "C"},
                "C": {"peer": "B"},
                "D": {"files": "B", "owner": "F"},
                "E": {"landlord": "F", "neighbor": "A"},
                "F": {"bob": "D", "home": "E"},
            }
        )
        ctx = ResolveContext(registry=graph.registry, initial=graph.resolver("E"))
        resolution = resolve(ctx, parse_name("(landlord bob files)"))
        assert resolution.description == node_description("B")

        with pytest.raises(NotBoundError) as excinfo:
            resolve(ctx, parse_name("(landlord files)"))
        assert excinfo.value.local == "files"
        assert excinfo.value.step == 1


# --- criterion 3: scenario equivalence ---------------------------------------

def test_criterion_3_scenario_equivalence(deployment):
    with criterion(3, "scenario equivalence"):
        started = time.monotonic()
        cfg = deployment.cfg
        room = cfg.locations["room101"]
        alice, bob = cfg.users["alice"], cfg.users["bob"]
        for scenario in (1, 2, 3):
            finals = []
            for i in range(100):
                if i == 50:
                    wire.set_occupancy(
                        cfg.addresses["location"], room.location_id, [bob.user_id]
                    )
                resolved = resolve_scenario(cfg, scenario, clock=deployment.clock)
                manual = manual_discover(cfg, scenario, clock=deployment.clock)
                assert resolved.description.to_bytes() == manual.to_bytes()
                finals.append(resolved.description)
            wire.set_occupancy(cfg.addresses["location"], room.location_id, [alice.user_id])
            if scenario in (2, 3):
                # the occupancy flip must be visible to uncached runs
                assert finals[49] != finals[50]
                assert finals[0] == finals[49] and finals[50] == finals[99]
            else:
                assert finals[0] == finals[99]
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"equivalence suite took {elapsed:.2f}s"


# --- criterion 4: validity algebra --------------------------------------------

def test_criterion_4_validity_algebra():
    with criterion(4, "validity algebra"):
        started = time.monotonic()
        rng = random.Random(0xA15E)
        for _ in range(10_000):
            a, b, c = (Validity(rng.randrange(2**48)) for _ in range(3))
            assert intersect(a, b) == intersect(b, a)
            assert intersect(a, a) == a
            assert (
                intersect(intersect(a, b), c).expires_at
                == intersect(a, intersect(b, c)).expires_at
                == min(a.expires_at, b.expires_at, c.expires_at)
            )

        for _ in range(10_000):
            steps = rng.randint(2, 6)
            expiries = [rng.randrange(2**48) for _ in range(steps)]
            labels = [f"n{i}" for i in range(steps + 1)]
            edges = {labels[i]: {"next": labels[i + 1]} for i in range(steps)}
            edges[labels[-1]] = {}
            validities = {(labels[i], "next"): Validity(expiries[i]) for i in range(steps)}
            graph = Graph(edges, edge_validities=validities)
            ctx = ResolveContext(registry=graph.registry, initial=graph.resolver(labels[0]))
            resolution = resolve(ctx, Name(tuple(LocalName("next") for _ in range(steps))))
            assert resolution.validity.expires_at == min(expiries)
            assert all(resolution.validity.expires_at <= e for e in expiries)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"validity suite took {elapsed:.2f}s"


# --- criterion 5: cache correctness -------------------------------------------

def test_criterion_5_cache_model_and_wire_silence(fake_deployment):
    with criterion(5, "cache correctness"):
        rng = random.Random(0xCAC4E)
        cache = NameCache(capacity=64)
        model: dict[str, Resolution] = {}
        now = 0
        keys = [f"k{i}" for i in range(32)]  # fits: no eviction, exact model match
        for step in range(10_000):
            action = rng.random()
            key = rng.choice(keys)
            name = Name((LocalName(key),))
            if action < 0.45:
                r = Resolution(node_description(key), Validity(now + rng.randint(0, 5_000)))
                cache.put(name, r, now=now)
                if now < r.validity.expires_at:
                    model[key] = r
            elif action < 0.9:
                got = cache.get(name, now=now)
                expected = model.get(key)
                if expected is not None and now >= expected.validity.expires_at:
                    expected = None
                assert got == expected, f"model divergence at step {step}"
                if got is not None:
                    assert now < got.validity.expires_at, "stale entry served"
            else:
                now += rng.randint(0, 2_500)

        # a cached scenario stays off the wire until its validity expires
        dep = fake_deployment
        cfg = dep.cfg
        registry = kit.build_registry(dep.clock, cfg.addresses["userdb"])
        initial = registry.instantiate(cfg.initial_description("calendar"))
        ctx = ResolveContext(registry=registry, initial=initial, clock=dep.clock)
        name = parse_name("(today meeting moderator email)")
        cache = NameCache()

        def per_verb():
            return {
                (role, verb): count
                for role, server in dep.servers.items()
                for verb, count in server.stats.items()
            }

        before = per_verb()
        first = cached_resolve(ctx, cache, name)
        first_sequence = {k: v - before.get(k, 0) for k, v in per_verb().items()}
        assert sum(first_sequence.values()) > 0
        assert first_sequence[("calendar", "RESOLVE")] == 1
        assert first_sequence[("userdb", "GETUSER")] == 1

        for _ in range(25):
            assert cached_resolve(ctx, cache, name) == first
        assert per_verb() == {
            k: before.get(k, 0) + v for k, v in first_sequence.items()
        }, "cached resolutions must stay off the wire"

        # expire the entry: exactly the original message sequence repeats
        dep.clock.advance(first.validity.expires_at - dep.clock() + 1)
        refreshed = cached_resolve(ctx, cache, name)
        assert refreshed.description == first.description
        final = per_verb()
        for key, count in first_sequence.items():
            assert final[key] == before.get(key, 0) + 2 * count
        assert sum(final.values()) == sum(before.values()) + 2 * sum(first_sequence.values())


# --- criterion 6: termination on cycles ----------------------------------------

def test_criterion_6_cycle_terminates_at_max_depth():
    with criterion(6, "termination on cycles"):
        graph = Graph({"a": {"x": "b"}, "b": {"y": "a"}})
        locals_ = tuple(LocalName("x" if i % 2 == 0 else "y") for i in range(100))
        ctx = ResolveContext(registry=graph.registry, initial=graph.resolver("a"))
        assert ctx.max_depth == DEFAULT_MAX_DEPTH == 32
        with pytest.raises(DepthExceededError) as excinfo:
            resolve(ctx, Name(locals_))
        assert excinfo.value.max_depth == 32


# --- criterion 7: benchmark substitute for the timing tables -------------------

def test_criterion_7_bench_overhead_ratio(deployment):
    # The modes alternate in blocks, so that a change in host speed during
    # the run falls on both of them alike; each mode still runs 1000
    # iterations per scenario, and the means of the pooled samples are
    # compared.
    with criterion(7, "benchmark overhead ratio"):
        started = time.monotonic()
        rounds, block = 10, 100
        for scenario in (1, 2, 3):
            samples = {"nun": [], "manual": []}
            for _ in range(rounds):
                with_resolver = run_bench(
                    deployment.cfg, scenario, block, "nun", clock=deployment.clock
                )
                by_hand = run_bench(
                    deployment.cfg, scenario, block, "manual", clock=deployment.clock
                )
                assert with_resolver.description.to_bytes() == by_hand.description.to_bytes()
                samples["nun"] += with_resolver.samples
                samples["manual"] += by_hand.samples
            mean = {mode: statistics.fmean(values) for mode, values in samples.items()}
            stddev = {mode: statistics.stdev(values) for mode, values in samples.items()}
            ratio = mean["nun"] / mean["manual"]
            print(
                f"  scenario {scenario}: resolver {mean['nun']:.2f} ± {stddev['nun']:.2f} ms, "
                f"manual {mean['manual']:.2f} ± {stddev['manual']:.2f} ms, ratio {ratio:.2f}"
            )
            assert ratio <= 2.0, f"scenario {scenario} overhead ratio {ratio:.2f} exceeds 2.0"
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"benchmark suite took {elapsed:.2f}s"


# --- criterion 8: knowledge locality -------------------------------------------

def test_criterion_8_knowledge_locality(deployment):
    with criterion(8, "knowledge locality"):
        cfg = deployment.cfg
        full = kit.build_registry(deployment.clock, cfg.addresses["userdb"])
        consumer = full.restrict(wire.REMOTE_TYPE, kit.USER_TYPE)
        assert consumer.type_ids() == {wire.REMOTE_TYPE, kit.USER_TYPE}

        initial_desc = cfg.initial_description("calendar")
        ctx = ResolveContext(
            registry=consumer,
            initial=consumer.instantiate(initial_desc),
            clock=deployment.clock,
        )
        r1 = resolve(ctx, parse_name("(today meeting moderator email)"))
        assert r1.description == kit.string_description(cfg.users["alice"].email)

        r2 = resolve(ctx, parse_name("(today meeting location occupant)"))
        assert r2.description.type_id == kit.USER_TYPE
        occupant = consumer.instantiate(r2.description)
        assert occupant is not None  # final interpretation works

        # dropping the user type breaks interpretation, not resolution
        opaque = consumer.without(kit.USER_TYPE)
        ctx_opaque = ResolveContext(
            registry=opaque,
            initial=opaque.instantiate(initial_desc),
            clock=deployment.clock,
        )
        r2_opaque = resolve(ctx_opaque, parse_name("(today meeting location occupant)"))
        assert r2_opaque.description == r2.description
        assert opaque.instantiate(r2_opaque.description) is None
