import sys
import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import FakeClock, Graph, node_description

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


def test_overflow_evicts_the_earliest_expiring():
    cache = NameCache(capacity=2)
    cache.put(_name("late"), _resolution("late", T0 + 30_000), now=T0)
    cache.put(_name("soon"), _resolution("soon", T0 + 1_000), now=T0)
    cache.put(_name("mid"), _resolution("mid", T0 + 10_000), now=T0)
    assert cache.get(_name("soon"), now=T0) is None
    assert cache.get(_name("late"), now=T0) is not None
    assert cache.get(_name("mid"), now=T0) is not None
    assert len(cache) == 2


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


class _LinearScanCache:
    """Reference policy: on overflow, evict min((expires_at, key)) by a scan."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.expiries: dict[str, int] = {}

    def get(self, key: str, now: int) -> None:
        if key in self.expiries and now >= self.expiries[key]:
            del self.expiries[key]

    def put(self, key: str, expires_at: int, now: int) -> None:
        if now >= expires_at:
            return
        if key not in self.expiries and len(self.expiries) >= self.capacity:
            del self.expiries[min(self.expiries, key=lambda k: (self.expiries[k], k))]
        self.expiries[key] = expires_at


def _compare_with_linear_scan(rng) -> None:
    capacity = rng.randint(1, 12)
    names = [_name(f"k{i}") for i in range(rng.randint(capacity + 1, 3 * capacity + 4))]
    cache, reference = NameCache(capacity), _LinearScanCache(capacity)
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
            cache.get(name, now=now)
            reference.get(key, now)
        elif op < 0.99:
            now += 100 * rng.randint(0, 3)
        else:
            cache.clear()
            reference.expiries.clear()
        assert set(cache._entries) == set(reference.expiries)
        assert len(cache._heap) <= 2 * capacity


def test_eviction_matches_the_linear_scan_policy():
    import random

    for seed in range(100):
        _compare_with_linear_scan(random.Random(seed))


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

    # fill up with late entries, then one more put must evict exactly the
    # earliest-expiring live entry (key breaking ties)
    for i in range(16 - len(cache)):
        cache.put(_name(f"late{i}"), _resolution("v", T0 + 1_000 + i), now=T0)
    live = {}
    for name in [_name(f"k{i}") for i in range(20)] + [_name(f"late{i}") for i in range(16)]:
        got = cache.get(name, now=T0)
        if got is not None:
            live[serialize_name(name)] = (got.validity.expires_at, name)
    assert len(live) == len(cache) == 16
    victim = min(live, key=lambda k: (live[k][0], k))
    cache.put(_name("newcomer"), _resolution("v", T0 + 5_000), now=T0)
    assert len(cache) == 16
    for key, (_, name) in live.items():
        assert (cache.get(name, now=T0) is None) == (key == victim)
