import pytest
from hypothesis import given, strategies as st

from conftest import Graph, MapResolver, node_description

from namechain.names import LocalName, Name, ResourceValue, parse_name
from namechain.resolver import (
    DepthExceededError,
    NegativeDurationError,
    NotBoundError,
    Resolution,
    ResolutionError,
    ResolveContext,
    TransportError,
    UnknownTypeError,
    Validity,
    intersect,
    resolve,
    validity_from_duration,
)
from namechain.resources import ResourceDescription, TypeRegistry, derive_type_id

T0 = 1_754_640_000_000


# --- validity algebra

def test_intersect_takes_the_minimum():
    ten = validity_from_duration(T0, 600_000)
    five = validity_from_duration(T0, 300_000)
    assert intersect(ten, five) == five
    assert intersect(five, ten) == five


def test_intersect_idempotent():
    v = Validity(T0 + 1)
    assert intersect(v, v) == v


@given(st.integers(0, 2**48), st.integers(0, 2**48), st.integers(0, 2**48))
def test_intersect_commutative_associative(a, b, c):
    va, vb, vc = Validity(a), Validity(b), Validity(c)
    assert intersect(va, vb) == intersect(vb, va)
    assert intersect(intersect(va, vb), vc) == intersect(va, intersect(vb, vc))
    assert intersect(intersect(va, vb), vc).expires_at == min(a, b, c)


def test_validity_from_duration():
    assert validity_from_duration(T0, 600_000) == Validity(T0 + 600_000)
    assert validity_from_duration(T0, 0) == Validity(T0)
    with pytest.raises(NegativeDurationError):
        validity_from_duration(T0, -1)


def test_duration_round_trip_at_same_instant():
    v = validity_from_duration(T0, 42_000)
    assert v.expires_at - T0 == 42_000


# --- the engine on in-process graphs

def _ctx(graph, initial_label, **kwargs):
    return ResolveContext(registry=graph.registry, initial=graph.resolver(initial_label), **kwargs)


def test_single_local_name_is_the_base_case():
    graph = Graph({"me": {"printer": "laser"}}, validity=Validity(T0 + 5))
    resolution = resolve(_ctx(graph, "me"), parse_name("(printer)"))
    assert resolution == Resolution(node_description("laser"), Validity(T0 + 5))


def test_chain_validity_is_the_running_minimum():
    graph = Graph(
        {"a": {"b": "b"}, "b": {"c": "c"}},
        edge_validities={("a", "b"): Validity(T0 + 10_000), ("b", "c"): Validity(T0 + 5_000)},
    )
    resolution = resolve(_ctx(graph, "a"), parse_name("(b c)"))
    assert resolution.description == node_description("c")
    assert resolution.validity == Validity(T0 + 5_000)


def test_final_description_returned_unmodified():
    # the last edge points at a type nobody registered; resolution still
    # succeeds because the final description is never interpreted
    alien = ResourceDescription(derive_type_id("unseen-type"), b"opaque")
    graph = Graph({"a": {"b": "b"}, "b": {"x": alien}})
    resolution = resolve(_ctx(graph, "a"), parse_name("(b x)"))
    assert resolution.description == alien


def test_not_bound_carries_the_step():
    graph = Graph({"a": {"b": "b"}, "b": {}})
    with pytest.raises(NotBoundError) as excinfo:
        resolve(_ctx(graph, "a"), parse_name("(b missing)"))
    assert excinfo.value.step == 1
    assert excinfo.value.local == "missing"


def test_unknown_intermediate_type_fails_with_step():
    alien = ResourceDescription(derive_type_id("unregistered"), b"")
    graph = Graph({"a": {}})
    resolver = MapResolver({"al": (alien, Validity(2**62))}, "a")
    ctx = ResolveContext(registry=graph.registry, initial=resolver)
    with pytest.raises(UnknownTypeError) as excinfo:
        resolve(ctx, parse_name("(al onward)"))
    assert excinfo.value.step == 1
    assert excinfo.value.type_id == alien.type_id


def test_cycle_terminates_with_depth_exceeded():
    graph = Graph({"a": {"x": "b"}, "b": {"y": "a"}})
    name = Name(tuple(LocalName("x" if i % 2 == 0 else "y") for i in range(100)))
    with pytest.raises(DepthExceededError) as excinfo:
        resolve(_ctx(graph, "a", max_depth=32), name)
    assert excinfo.value.max_depth == 32


def test_depth_exceeded_carries_the_step():
    graph = Graph({"a": {"x": "b"}, "b": {"y": "a"}})
    name = Name(tuple(LocalName("x" if i % 2 == 0 else "y") for i in range(100)))
    with pytest.raises(DepthExceededError) as excinfo:
        resolve(_ctx(graph, "a", max_depth=32), name)
    # steps 0-31 spent the budget; step 32 found it empty
    assert excinfo.value.step == 32
    assert str(excinfo.value).endswith(" at step 32")


@pytest.mark.parametrize(
    "error,headline",
    [
        (NotBoundError("x", "why", step=3), "no binding for 'x'"),
        (
            UnknownTypeError(b"\x01" * 32, "why", step=3),
            "cannot resolve names from resource of unknown type " + "01" * 32,
        ),
        (DepthExceededError(32, "why", step=3), "resolution exceeded the maximum step count of 32"),
        (TransportError("why", step=3), "transport failure"),
    ],
)
def test_errors_share_one_format(error, headline):
    assert type(error).__str__ is ResolutionError.__str__
    assert str(error) == f"{headline} (why) at step 3"
    error.detail, error.step = "", None
    assert str(error) == headline


def test_depth_budget_counts_attribute_resolution():
    graph = Graph({"a": {"x": "b", "p": "b"}, "b": {"y": "a"}})
    # two steps for the chain plus one for the attribute name
    name = parse_name("(x y[u=(p)])")
    assert resolve(_ctx(graph, "a", max_depth=3), name).description == node_description("a")
    with pytest.raises(DepthExceededError):
        resolve(_ctx(graph, "a", max_depth=2), name)


@pytest.mark.parametrize("text", ["(x y[u=(p)])", "(x[u=(p)] y)", "(x y[u=(x[v=(p)] y)])"])
def test_attribute_resolutions_join_the_validity_intersection(text):
    # every mapping lives to 10 000 except (p) from a, which only an
    # attribute uses
    graph = Graph(
        {"a": {"x": "b", "p": "c"}, "b": {"y": "c"}},
        validity=Validity(10_000),
        edge_validities={("a", "p"): Validity(5)},
    )
    resolution = resolve(_ctx(graph, "a"), parse_name(text))
    assert resolution == Resolution(node_description("c"), Validity(5))


@pytest.mark.parametrize(
    "text,step",
    [
        ("(x[u=(p missing)] y)", 0),
        ("(x y[u=(p missing)])", 1),
        ("(x y[u=(p[v=(p missing)])])", 1),
    ],
)
def test_attribute_errors_carry_the_step_of_the_holding_local_name(text, step):
    graph = Graph({"a": {"x": "b", "p": "b"}, "b": {"y": "a"}})
    with pytest.raises(NotBoundError) as excinfo:
        resolve(_ctx(graph, "a"), parse_name(text))
    assert excinfo.value.local == "missing"
    assert excinfo.value.step == step


class _RecordingResolver:
    def __init__(self, inner):
        self.inner = inner
        self.received: list[LocalName] = []

    def resolve_local(self, local):
        self.received.append(local)
        return self.inner.resolve_local(local)


def test_attribute_names_anchor_to_the_initial_resource():
    # from the initial node, (p) resolves to node "target"; the attribute
    # must reach the downstream resource as that literal description even
    # though the downstream node binds "p" to something else
    graph = Graph(
        {
            "init": {"p": "target", "hop": "down"},
            "down": {"q": "down-q", "p": "decoy"},
            "target": {},
            "down-q": {},
            "decoy": {},
        }
    )
    down = _RecordingResolver(graph.resolver("down"))
    graph.overrides["down"] = down
    ctx = ResolveContext(registry=graph.registry, initial=graph.resolver("init"))
    resolve(ctx, parse_name("(hop q[ref=(p)])"))

    assert len(down.received) == 1
    received = down.received[0]
    assert received.primary == "q"
    ((label, value),) = received.attributes
    assert label == "ref"
    assert isinstance(value, ResourceValue)
    assert value.description == node_description("target")


def test_nested_attribute_names_are_fully_literalized():
    graph = Graph({"init": {"p": "t1", "r": "t2", "hop": "down"}, "down": {"q": "end"}, "t1": {}, "t2": {}, "end": {}})
    name = parse_name("(hop q[a=(p[inner=(r)])])")
    # the nested (r) anchors to init as well; resolution must not raise
    resolution = resolve(ResolveContext(registry=graph.registry, initial=graph.resolver("init")), name)
    assert resolution.description == node_description("end")


class _Delegating:
    """Whole-name delegate standing in for a remote element's proxy."""

    def __init__(self, result: Resolution):
        self.result = result
        self.seen: list[Name] = []

    def resolve_name(self, name: Name) -> Resolution:
        self.seen.append(name)
        return self.result

    def resolve_local(self, local):
        raise AssertionError("resolve_name should be preferred")


def test_whole_chain_delegation_intersects_validity():
    final = Resolution(node_description("far"), Validity(T0 + 1_000))
    delegate = _Delegating(final)
    delegate_type = derive_type_id("delegating-node")

    registry = TypeRegistry()
    registry.register(delegate_type, lambda spec: delegate)
    initial = MapResolver(
        {"gw": (ResourceDescription(delegate_type, b""), Validity(T0 + 500))}, "init"
    )
    ctx = ResolveContext(registry=registry, initial=initial)
    resolution = resolve(ctx, parse_name("(gw a b c)"))
    assert resolution.description == node_description("far")
    assert resolution.validity == Validity(T0 + 500)
    assert delegate.seen == [parse_name("(a b c)")]


def test_initial_with_native_support_gets_the_whole_name():
    final = Resolution(node_description("far"), Validity(T0 + 1_000))
    delegate = _Delegating(final)
    ctx = ResolveContext(registry=TypeRegistry(), initial=delegate)
    resolution = resolve(ctx, parse_name("(a b[u=(x y)] c)"))
    assert resolution == final
    # attribute names are forwarded untouched: the delegate is the
    # initial resource, so it is the right anchor for them
    assert delegate.seen == [parse_name("(a b[u=(x y)] c)")]


def test_mid_chain_delegate_gets_the_literalized_rest():
    final = Resolution(node_description("far"), Validity(T0 + 1_000))
    delegate = _Delegating(final)
    delegate_type = derive_type_id("delegating-node")
    registry = TypeRegistry()
    registry.register(delegate_type, lambda spec: delegate)
    target = node_description("target")
    initial = MapResolver(
        {
            "gw": (ResourceDescription(delegate_type, b""), Validity(T0 + 500)),
            "x": (target, Validity(T0 + 2_000)),
        },
        "init",
    )
    ctx = ResolveContext(registry=registry, initial=initial)
    resolution = resolve(ctx, parse_name("(gw a[u=(x)] b)"))
    assert resolution == Resolution(node_description("far"), Validity(T0 + 500))
    # (x) was anchored to the initial resource before the hand-over
    literal = Name((LocalName("a", (("u", ResourceValue(target)),)), LocalName("b")))
    assert delegate.seen == [literal]


@given(
    st.lists(st.integers(0, 2**40), min_size=2, max_size=6),
    st.integers(0, 2**40),
)
def test_chain_resolution_matches_fold_min_oracle(expiries, _seed):
    labels = [f"n{i}" for i in range(len(expiries) + 1)]
    edges = {}
    edge_validities = {}
    for i, expiry in enumerate(expiries):
        edges[labels[i]] = {f"s{i}": labels[i + 1]}
        edge_validities[(labels[i], f"s{i}")] = Validity(expiry)
    edges[labels[-1]] = {}
    graph = Graph(edges, edge_validities=edge_validities)
    name = Name(tuple(LocalName(f"s{i}") for i in range(len(expiries))))
    resolution = resolve(_ctx(graph, labels[0]), name)
    assert resolution.description == node_description(labels[-1])
    assert resolution.validity.expires_at == min(expiries)
