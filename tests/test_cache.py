import sys
import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import FakeClock, Graph, node_description

from namechain import kit, names
from namechain.cache import NameCache, cached_resolve
from namechain.names import LocalName, Name, parse_name, serialize_name
from namechain.resolver import Resolution, ResolveContext, Validity

T0 = 1_754_640_000_000


def _name(text: str) -> Name:
    return Name((LocalName(text),))


def _resolution(tag: str, expires_at: int) -> Resolution:
    return Resolution(node_description(tag), Validity(expires_at))


def test_put_then_get_before_expiry():
    cache = NameCache(capacity=4)
    r = _resolution("a", T0 + 1_000)
    cache.put(_name("a"), r, now=T0)
    assert cache.get(_name("a"), now=T0 + 999) == r


def test_expiry_boundary_is_exclusive():
    cache = NameCache(capacity=4)
    cache.put(_name("a"), _resolution("a", T0 + 1_000), now=T0)
    assert cache.get(_name("a"), now=T0 + 1_000) is None
    assert len(cache) == 0  # expired entries are dropped on access


def test_storing_an_expired_resolution_is_a_no_op():
    cache = NameCache(capacity=4)
    cache.put(_name("a"), _resolution("a", T0), now=T0)
    assert len(cache) == 0


def test_reput_replaces_the_entry():
    cache = NameCache(capacity=4)
    cache.put(_name("a"), _resolution("old", T0 + 1_000), now=T0)
    cache.put(_name("a"), _resolution("new", T0 + 2_000), now=T0)
    assert cache.get(_name("a"), now=T0).description == node_description("new")


def test_overflow_evicts_the_least_recent_entry_on_probation():
    cache = NameCache(capacity=2)
    cache.put(_name("late"), _resolution("late", T0 + 30_000), now=T0)
    cache.put(_name("soon"), _resolution("soon", T0 + 1_000), now=T0)
    assert cache.get(_name("soon"), now=T0) is not None  # promoted
    cache.put(_name("mid"), _resolution("mid", T0 + 10_000), now=T0)
    assert cache.get(_name("late"), now=T0) is None  # expires last, yet goes first
    assert cache.get(_name("soon"), now=T0) is not None
    assert cache.get(_name("mid"), now=T0) is not None
    assert len(cache) == 2


def _lookup(cache: NameCache, name: Name, now: int, ttl: int = 30_000) -> bool:
    """cached_resolve's use of the cache: a hit, or a miss and a put."""
    if cache.get(name, now) is not None:
        return True
    cache.put(name, _resolution(serialize_name(name), now + ttl), now)
    return False


def test_names_asked_for_again_survive_a_scan():
    cache = NameCache(capacity=10)
    popular = [_name(f"hot{i}") for i in range(8)]  # the protected share
    for name in popular + popular:
        _lookup(cache, name, T0)
    for i in range(35):
        assert not _lookup(cache, _name(f"scan{i}"), T0)
    assert all(_lookup(cache, name, T0) for name in popular)


def test_zipf_lookups_mostly_hit():
    # Name-lookup popularity is Zipf-like; s = 1 over 8x the capacity.
    import random

    rng = random.Random(13)
    names = [_name(f"n{i}") for i in range(1024)]
    weights, total = [], 0.0
    for rank in range(1, len(names) + 1):
        total += 1 / rank
        weights.append(total)
    cache, clock = NameCache(capacity=128), FakeClock(0)
    hits = 0
    for i in rng.choices(range(len(names)), cum_weights=weights, k=100_000):
        hits += _lookup(cache, names[i], clock())
        clock.advance(1)
    assert hits / 100_000 >= 0.65


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        NameCache(capacity=0)


class CacheAgainstModel(RuleBasedStateMachine):
    """Bounded cache vs an unbounded map filtered by a linear expiry scan.

    The capacity exceeds the key universe, so no eviction can happen and
    the cache must agree with the model exactly.
    """

    keys = st.sampled_from(["k1", "k2", "k3", "k4", "k5"])

    def __init__(self):
        super().__init__()
        self.cache = NameCache(capacity=8)
        self.model: dict[str, Resolution] = {}
        self.now = T0

    @rule(key=keys, ttl=st.integers(0, 5_000))
    def put(self, key, ttl):
        r = _resolution(key, self.now + ttl)
        self.cache.put(_name(key), r, now=self.now)
        if ttl > 0:
            self.model[key] = r

    @rule(key=keys)
    def get(self, key):
        expected = self.model.get(key)
        if expected is not None and self.now >= expected.validity.expires_at:
            expected = None
        assert self.cache.get(_name(key), now=self.now) == expected

    @rule(delta=st.integers(0, 3_000))
    def advance(self, delta):
        self.now += delta

    @invariant()
    def never_overfull(self):
        assert len(self.cache) <= 8


TestCacheAgainstModel = CacheAgainstModel.TestCase
TestCacheAgainstModel.settings = settings(max_examples=60, stateful_step_count=30)


def test_bounded_cache_never_serves_stale_under_random_load():
    # eviction allowed: every hit must still match the model value and
    # never be stale; misses are always legal
    import random

    rng = random.Random(20250808)
    cache = NameCache(capacity=3)
    model: dict[str, Resolution] = {}
    now = T0
    keys = [f"k{i}" for i in range(8)]
    for _ in range(3_000):
        op = rng.random()
        key = rng.choice(keys)
        if op < 0.5:
            r = _resolution(key, now + rng.randint(0, 4_000))
            cache.put(_name(key), r, now=now)
            if now < r.validity.expires_at:
                model[key] = r
        elif op < 0.9:
            got = cache.get(_name(key), now=now)
            if got is not None:
                assert now < got.validity.expires_at
                assert got == model[key]
        else:
            now += rng.randint(0, 2_000)


class _CountingResolver:
    def __init__(self, description, validity_fn):
        self.description = description
        self.validity_fn = validity_fn
        self.calls = 0

    def resolve_local(self, local):
        self.calls += 1
        return self.description, self.validity_fn()


def test_cached_resolve_is_transparent_and_saves_work(fake_clock):
    resolver = _CountingResolver(
        node_description("x"), lambda: Validity(fake_clock() + 1_000)
    )
    graph = Graph({})
    ctx = ResolveContext(registry=graph.registry, initial=resolver, clock=fake_clock)
    cache = NameCache(capacity=4)
    name = parse_name("(anything)")

    direct = cached_resolve(ctx, cache, name)
    assert resolver.calls == 1
    assert cached_resolve(ctx, cache, name) == direct
    assert resolver.calls == 1  # served from cache

    fake_clock.advance(1_000)
    refreshed = cached_resolve(ctx, cache, name)
    assert resolver.calls == 2
    assert refreshed.validity.expires_at == fake_clock() + 1_000


def test_cached_resolve_misses_once_an_attribute_mapping_expires():
    clock = FakeClock(0)
    graph = Graph(
        {"a": {"x": "b", "p": "c"}, "b": {"y": "c"}},
        validity=Validity(10_000),
        edge_validities={("a", "p"): Validity(5)},
    )
    ctx = ResolveContext(registry=graph.registry, initial=graph.resolver("a"), clock=clock)
    cache = NameCache(capacity=4)
    name = parse_name("(x y[u=(p)])")

    first = cached_resolve(ctx, cache, name)
    assert first.validity == Validity(5)
    clock.advance(4)
    assert cached_resolve(ctx, cache, name) is first  # served from cache
    clock.advance(1)
    assert cache.get(name, clock()) is None  # so cached_resolve resolves again


def test_spellings_of_one_name_share_one_entry():
    cache = NameCache(capacity=4)
    cache.put(parse_name("(a  b)"), _resolution("ab", T0 + 1_000), now=T0)
    assert cache.get(parse_name("(a b)"), now=T0) == _resolution("ab", T0 + 1_000)
    cache.put(Name((LocalName("a"), LocalName("b"))), _resolution("new", T0 + 1_000), now=T0)
    assert len(cache) == 1
    assert cache.get(parse_name("(a  b)"), now=T0).description == node_description("new")


@pytest.mark.parametrize(
    "initial,text",
    [("calendar", "(today meeting moderator email)"), ("location", "(occupant files naming.ppt)")],
)
def test_a_parsed_canonical_name_is_never_serialized(deployment, monkeypatch, initial, text):
    """A miss (get, RESOLVE line, put) and a hit on a parsed canonical name
    make no pass over its local names, and build none."""
    passes = []
    serialize_local = names._serialize_local
    monkeypatch.setattr(names, "_serialize_local", lambda local: passes.append(local) or serialize_local(local))
    registry = kit.build_registry(deployment.clock, deployment.cfg.addresses["userdb"])
    ctx = ResolveContext(
        registry=registry,
        initial=registry.instantiate(deployment.cfg.initial_description(initial)),
        clock=deployment.clock,
    )
    cache = NameCache()
    resolves = deployment.servers[initial].stats["RESOLVE"]

    missed, hit = parse_name(text), parse_name(text)
    first = cached_resolve(ctx, cache, missed)
    assert cached_resolve(ctx, cache, hit) is first
    assert deployment.servers[initial].stats["RESOLVE"] == resolves + 1
    assert passes == []
    assert "locals" not in vars(missed) and "locals" not in vars(hit)


class _SegmentedLRUModel:
    """Reference policy, one step at a time: a list per segment, least
    recent first.

    A new key joins probation.  A hit on probation moves the key to
    protected; when protected then holds more than four fifths of the
    capacity, its least-recent key returns to probation as most recent.  A
    hit on protected makes the key most recent.  A new key in a full cache
    evicts probation's least-recent key, or protected's if probation is
    empty; a re-put key keeps its place.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.share = capacity * 4 // 5
        assert self.share < capacity  # probation always keeps a slot
        self.probation: list[str] = []
        self.protected: list[str] = []
        self.expiries: dict[str, int] = {}

    def get(self, key: str, now: int) -> bool:
        segment = self.protected if key in self.protected else self.probation
        if key not in segment:
            return False
        segment.remove(key)
        if now >= self.expiries[key]:
            del self.expiries[key]
            return False
        self.protected.append(key)
        if len(self.protected) > self.share:
            self.probation.append(self.protected.pop(0))
        return True

    def put(self, key: str, expires_at: int, now: int) -> None:
        if now >= expires_at:
            return
        if key not in self.expiries:
            if len(self.expiries) >= self.capacity:
                del self.expiries[(self.probation or self.protected).pop(0)]
            self.probation.append(key)
        self.expiries[key] = expires_at

    def clear(self) -> None:
        self.probation.clear()
        self.protected.clear()
        self.expiries.clear()


def _compare_with_model(rng, capacity: int) -> None:
    names = [_name(f"k{i}") for i in range(rng.randint(capacity + 1, 3 * capacity + 4))]
    cache, reference = NameCache(capacity), _SegmentedLRUModel(capacity)
    now = T0
    for _ in range(1_000):
        name = rng.choice(names)
        key = serialize_name(name)
        op = rng.random()
        if op < 0.6:
            # few distinct expiries, so equal-expiry ties are common
            expires_at = now + 100 * rng.randint(0, 8)
            cache.put(name, _resolution(key, expires_at), now=now)
            reference.put(key, expires_at, now)
        elif op < 0.9:
            assert (cache.get(name, now=now) is not None) == reference.get(key, now)
        elif op < 0.99:
            now += 100 * rng.randint(0, 3)
        else:
            cache.clear()
            reference.clear()
        assert list(cache._probation) == reference.probation
        assert list(cache._protected) == reference.protected
        entries = {**cache._probation, **cache._protected}
        assert {k: e.validity.expires_at for k, e in entries.items()} == reference.expiries


def test_eviction_matches_the_segmented_lru_model():
    import random

    for seed in range(100):
        _compare_with_model(random.Random(seed), capacity=1 + seed % 12)


def test_cache_is_safe_under_concurrent_use():
    cache = NameCache(capacity=16)
    errors = []

    def hammer(seed):
        try:
            for i in range(500):
                key = _name(f"k{(seed + i) % 20}")
                cache.put(key, _resolution("v", T0 + 1 + (i % 50)), now=T0)
                got = cache.get(key, now=T0 + (i % 60))
                if got is not None:
                    assert T0 + (i % 60) < got.validity.expires_at
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(cache) <= 16

    # fill up with late entries, then one more put must evict exactly
    # probation's least-recent entry
    for i in range(16 - len(cache)):
        cache.put(_name(f"late{i}"), _resolution("v", T0 + 1_000 + i), now=T0)
    assert len(cache) == 16
    probation, protected = list(cache._probation), list(cache._protected)
    assert not set(probation) & set(protected)
    assert len(protected) <= 16 * 4 // 5
    victim = probation[0]
    cache.put(_name("newcomer"), _resolution("v", T0 + 5_000), now=T0)
    assert len(cache) == 16
    assert list(cache._probation) == probation[1:] + [serialize_name(_name("newcomer"))]
    names = [_name(f"k{i}") for i in range(20)] + [_name(f"late{i}") for i in range(16)]
    for name in names:
        key = serialize_name(name)
        if key in probation or key in protected:
            assert (cache.get(name, now=T0) is None) == (key == victim)
