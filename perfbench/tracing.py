"""Spans around the package's public entry points, recorded from outside.

The package has no trace hook of its own, so the benchmark installs one:
`install` replaces each layer's entry points with wrappers that record a
span per call.  A span holds its id, name, start and end (monotonic ns,
comparable across processes on one host), its parent span's id, the op
id current on its thread, and its self time: its duration minus the
durations of its child spans.  Spans stay in memory, packed in one
integer array, until the run ends.

Span names, one per layer boundary:

    op.<kind>                 one benchmark op (root; set by the workload)
    names.parse, names.serialize
    resources.instantiate     TypeRegistry.instantiate
    resolver.resolve          resolver.resolve
    kit.step.<type-label>     a resolver's resolve_local (resolve_name for remote)
    kit.decode.<type-label>   a specification decoder
    cache.get.hit, cache.get.miss, cache.put, cache.put.evict
    wire.<VERB>               a client call: RESOLVE, GETUSER, OCCUPANCY, EVENTS, SETOCC
    wire.connect              a new client connection
    servers.<role>.<VERB>     RoleServer.process_line; "!<code>" is appended on ERR

Only the calls made after `install` are traced: kit.build_registry binds
the wire fetch functions when it runs, so build registries (and servers)
after installing.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import socket
import threading
import time
from array import array

FIELDS = 7  # span id, name index, start, end, parent id, op id, self ns


class Tracer:
    def __init__(self) -> None:
        self.spans = array("q")
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            with self._lock:
                idx = self._index.setdefault(name, len(self.names))
                if idx == len(self.names):
                    self.names.append(name)
        return idx

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, rename=None):
        """Run fn(*args, **kwargs) inside a span; rename(result) may refine the name."""
        stack = self._stack()
        frame = [next(self._ids), 0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            if rename is not None:
                name = rename(name, result)
            self.spans.extend(
                (frame[0], self._name_index(name), start, end, parent,
                 getattr(self._local, "op", 0), duration - frame[1])
            )

    def op(self, op_id: int, kind: str, fn):
        """Run one benchmark op as a root span carrying op_id."""
        self._local.op = op_id
        try:
            return self.call(f"op.{kind}", fn, (), {})
        finally:
            self._local.op = 0

    def wrap(self, fn, name, rename=None):
        """Wrapper recording a span per call; name is a str or name(args)."""
        if callable(name):
            def traced(*args, **kwargs):
                return self.call(name(args), fn, args, kwargs, rename)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs, rename)
        return functools.update_wrapper(traced, fn)

    def clear(self) -> None:
        del self.spans[:]

    def save(self, path: str) -> None:
        with open(path + ".names", "w", encoding="utf-8") as handle:
            json.dump(self.names, handle)
        with open(path, "wb") as handle:
            self.spans.tofile(handle)


def load(path: str) -> tuple[list[str], array]:
    with open(path + ".names", encoding="utf-8") as handle:
        names = json.load(handle)
    spans = array("q")
    with open(path, "rb") as handle:
        spans.fromfile(handle, os.path.getsize(path) // spans.itemsize)
    return names, spans


def _patch_function(modules, owner, attr: str, wrapped_of) -> None:
    """Replace `owner.attr` in every module that imported the same object."""
    original = getattr(owner, attr)
    wrapped = wrapped_of(original)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch_method(tracer: Tracer, cls, attr: str, name, rename=None) -> None:
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, rename))


CLASS_LABELS = {
    "FileCollectionResolver": "file-collection",
    "FileSetResolver": "file-set",
    "EventResolver": "event",
    "UserResolver": "user",
    "TimePeriodResolver": "time-period",
    "CalendarResolver": "calendar",
    "CalendarProxyResolver": "calendar",
    "LocationProxyResolver": "location",
    "LocationStateResolver": "location",
    "RemoteResolver": "remote",
}


def _hit_or_miss(name, result):
    return name + (".miss" if result is None else ".hit")


def install(tracer: Tracer) -> None:
    """Wrap the entry points of names, resources, resolver, kit, cache and wire."""
    import namechain
    from namechain import bench, cache, config, kit, names, resolver, resources, servers, wire

    modules = (namechain, bench, cache, config, kit, names, resolver, resources, servers, wire)

    def fn(owner, attr, name):
        if hasattr(owner, attr):
            _patch_function(modules, owner, attr, lambda f: tracer.wrap(f, name))

    fn(names, "parse_name", "names.parse")
    fn(names, "serialize_name", "names.serialize")
    fn(resolver, "resolve", "resolver.resolve")
    _patch_method(tracer, resources.TypeRegistry, "instantiate", "resources.instantiate")

    for label in ("event", "time-period", "calendar", "file-set"):
        fn(kit, f"parse_{label.replace('-', '_')}_spec", f"kit.decode.{label}")
    owner_labels = {kit.LOCATION_TYPE: "location", kit.USER_TYPE: "user", wire.REMOTE_TYPE: "remote"}
    fn(wire, "parse_addr_id_spec", lambda a: "kit.decode." + owner_labels.get(a[1], "other"))

    # Every resolver class of the kit and wire modules, so that renamed or
    # merged classes still count as steps; the engine calls resolve_name
    # when a resolver has it.  Resolvers carrying a `kind` (strings and
    # files share a class) are labelled by it.
    for module in (kit, wire):
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            attr = next((a for a in ("resolve_name", "resolve_local") if a in vars(cls)), None)
            if attr is not None:
                label = CLASS_LABELS.get(cls.__name__, cls.__name__)
                _patch_method(tracer, cls, attr,
                              lambda a, label=label: "kit.step." + getattr(a[0], "kind", label))

    _patch_method(tracer, cache.NameCache, "get", "cache.get", _hit_or_miss)
    original_put = cache.NameCache.put

    @functools.wraps(original_put)
    def put(self, name, resolution, now):
        # cached_resolve puts only after a miss, so a live entry stored
        # into a full cache displaces one.
        full = now < resolution.validity.expires_at and len(self) >= self.capacity
        span = "cache.put.evict" if full else "cache.put"
        return tracer.call(span, original_put, (self, name, resolution, now), {})

    cache.NameCache.put = put

    for attr, verb in (
        ("resolve_remote", "RESOLVE"),
        ("get_user", "GETUSER"),
        ("occupancy", "OCCUPANCY"),
        ("query_events", "EVENTS"),
        ("set_occupancy", "SETOCC"),
    ):
        fn(wire, attr, "wire." + verb)
    socket.create_connection = tracer.wrap(socket.create_connection, "wire.connect")


def _with_error_code(name, responses):
    if responses and responses[0].startswith("ERR "):
        return f"{name}!{responses[0].split(' ')[1]}"
    return name


def install_servers(tracer: Tracer) -> None:
    """Wrap RoleServer.process_line: one span per request line a server handles."""
    from namechain import servers

    _patch_method(
        tracer,
        servers.RoleServer,
        "process_line",
        lambda a: f"servers.{a[0].role}.{a[1].partition(' ')[0]}",
        _with_error_code,
    )
