import socket
import threading

import pytest

from namechain import wire
from namechain.config import DeploymentConfig, demo_deployment
from namechain.names import LocalName
from namechain.resolver import NotBoundError, Validity, system_clock
from namechain.resources import ResourceDescription, TypeRegistry, derive_type_id
from namechain.servers import RoleServer, serve, start_in_thread


class FakeClock:
    """Injectable clock; call it like system_clock, advance it by hand."""

    # default: 2025-08-08 08:00:00 UTC
    def __init__(self, now: int = 1_754_640_000_000) -> None:
        self.now = now

    def __call__(self) -> int:
        return self.now

    def advance(self, ms: int) -> None:
        self.now += ms


@pytest.fixture
def fake_clock():
    return FakeClock()


def nested_name(depth: int) -> str:
    """`(a[x=(a[x=...(a)...])])`, names nested `depth` deep."""
    return "(a[x=" * (depth - 1) + "(a)" + "])" * (depth - 1)


def free_port() -> int:
    """A port that was free a moment ago, for a server another process binds.

    Another process may take it before then; servers run in this process
    bind port 0 instead (see Deployment).
    """
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Deployment:
    """All three servers on loopback, plus the config describing them.

    Each server is built by `serve` and binds port 0 at `host`, so no port
    is chosen before it is bound.  They start in dependency order (userdb,
    location, calendar), each from a config holding the addresses bound
    before it.  The final config is built from the addresses the servers
    are reached at: `host`, as written, with the port each got.
    """

    def __init__(self, clock=None, host="127.0.0.1"):
        self.clock = clock if clock is not None else system_clock
        now = self.clock()
        # Roles not bound yet hold a placeholder: a port, as in every address
        # a description may carry, but one that no server here listens on.
        addresses = dict.fromkeys(("userdb", "location", "calendar"), "127.0.0.1:1")
        self.servers: dict[str, RoleServer] = {}
        self.threads: list[threading.Thread] = []
        for role in addresses:
            server = serve(role, demo_deployment(addresses, now), f"{host}:0", self.clock)
            addresses[role] = server.address
            self.servers[role] = server
            self.threads.append(start_in_thread(server))
        self.cfg: DeploymentConfig = demo_deployment(addresses, now)

    def request_totals(self) -> dict[str, int]:
        return {role: server.request_count() for role, server in self.servers.items()}

    def total_requests(self) -> int:
        return sum(self.request_totals().values())

    def shutdown(self) -> None:
        wire.close_idle_connections()
        for server in self.servers.values():
            server.shutdown()
            server.server_close()


@pytest.fixture
def deployment():
    dep = Deployment()
    yield dep
    dep.shutdown()


@pytest.fixture
def fake_deployment(fake_clock):
    dep = Deployment(clock=fake_clock)
    yield dep
    dep.shutdown()


# --- in-process name graphs for engine tests

GRAPH_TYPE = derive_type_id("namechain.test.graph-node.v1")


def node_description(label: str) -> ResourceDescription:
    return ResourceDescription(GRAPH_TYPE, label.encode("utf-8"))


class MapResolver:
    """Static bindings: primary name -> (description, validity)."""

    def __init__(self, bindings: dict[str, tuple[ResourceDescription, Validity]], label: str = "?"):
        self.bindings = bindings
        self.identity = label

    def resolve_local(self, local: LocalName):
        try:
            return self.bindings[local.primary]
        except KeyError:
            raise NotBoundError(local.primary, f"not bound by node {self.identity}") from None


class Graph:
    """A name graph over labeled nodes, all resolved in-process.

    edges: {node_label: {local_name: target}} where a target is another
    node's label or a literal ResourceDescription.  Every edge mapping is
    issued with the same validity unless a per-edge one is given.  A node
    can be replaced wholesale via `overrides` (e.g. to record the local
    names it is asked to resolve).
    """

    def __init__(
        self,
        edges: dict[str, dict[str, object]],
        validity: Validity = Validity(2**62),
        edge_validities: dict[tuple[str, str], Validity] | None = None,
    ):
        self.edges = edges
        self.validity = validity
        self.edge_validities = edge_validities or {}
        self.overrides: dict[str, object] = {}
        self.registry = TypeRegistry()
        self.registry.register(GRAPH_TYPE, lambda spec: spec, self._factory, label="graph-node")

    def _bindings(self, label: str) -> dict[str, tuple[ResourceDescription, Validity]]:
        out = {}
        for local, target in self.edges.get(label, {}).items():
            validity = self.edge_validities.get((label, local), self.validity)
            description = target if isinstance(target, ResourceDescription) else node_description(target)
            out[local] = (description, validity)
        return out

    def _factory(self, spec: bytes):
        label = spec.decode("utf-8")
        if label in self.overrides:
            return self.overrides[label]
        return self.resolver(label)

    def resolver(self, label: str) -> MapResolver:
        return MapResolver(self._bindings(label), label)
