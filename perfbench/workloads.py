"""The three workloads: inputs drawn from the seed, closed-loop clients, oracles.

Each workload exposes:

    digest       SHA-256 over the seeded deployment and the generated op
                 sequence: equal seeds give equal digests
    cfg          the seeded deployment
    client(tr)   a client whose run(seconds) measures one closed loop,
                 tracing through `tr` (a tracing.Tracer) when it is set

discovery  the paper's experiment: one client cycles scenarios 1/2/3 in a
           seeded order, each resolver (nun) op followed by the manual op
           for the same scenario; no cache.  Answers must equal the
           descriptions derived from the config, byte for byte.
local      in-process, no sockets: names over the static kit types an
           event initial reaches (files, file set, file collection,
           moderator, location) with 0-3 levels of name-valued
           attributes plus resource literals; 1 in 10 fails with a
           NotBoundError at a step the generator knows.  Each nun op
           parses, instantiates the event and resolves; the manual op
           walks the decoded event by hand.
churn      two client threads, each its own closed loop, over a
           Zipf-popular population several times the NameCache capacity,
           one shared cache per initial resource; 1 op in 20 is a SETOCC
           rotating room101 through fixed occupant lists, 1 resolver op
           in 10 is followed by a manual op.  Answers must be in the set
           reachable under those occupancy states.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import threading
import time
from array import array

from namechain import bench, cache, kit, names, resolver, wire
from namechain.config import format_config, load_config
from namechain.resolver import NotBoundError, ResolveContext, system_clock
from namechain.resources import ResourceDescription

from deployment import (
    expected,
    first_meeting,
    free_addresses,
    make_config,
    token,
    user_by_id,
    user_expected,
)

OP_TIMEOUT_NS = 2_000_000_000
# Addresses of the local workload (which opens no sockets) and of digests.
PLACEHOLDER_ADDRESSES = {
    "userdb": "127.0.0.1:46001",
    "location": "127.0.0.1:46002",
    "calendar": "127.0.0.1:46003",
}

WINDOW_S = 1.0  # a loop's time splits into equal windows of about this length
# Latencies kept per mode, key and window: a uniform sample of at most this
# many, so the client's memory does not grow with the number of ops.
WINDOW_SAMPLES = 2048
# Every loop times the reference loop about this often (ns), between ops.
REF_INTERVAL_NS = 10_000_000


def reference_loop() -> int:
    """Fixed interpreted work that calls nothing in namechain.

    Its time in a window measures how fast this host runs Python code
    then: on a shared host that speed swings by up to 1.6x within
    seconds, and op latencies swing with it.
    """
    total = 0
    for i in range(300):
        total += i * i % 7
    return total


class Sample:
    """A uniform random sample of at most `capacity` values (reservoir sampling)."""

    def __init__(self, capacity: int, rng: random.Random) -> None:
        self.values = array("q")
        self.seen = 0
        self.capacity = capacity
        self.rng = rng

    def add(self, value: int) -> None:
        self.seen += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
        else:
            slot = self.rng.randrange(self.seen)
            if slot < self.capacity:
                self.values[slot] = value


class Phase:
    """Counts and latencies of one measured loop, by time window; thread-safe."""

    def __init__(self, start_ns: int, seconds: float) -> None:
        self.start_ns = start_ns
        self.windows = max(1, round(seconds / WINDOW_S))
        self.window_ns = max(1, int(seconds * 1e9 / self.windows))
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.window_verified = [0] * self.windows
        self.latency: dict[tuple, Sample] = {}  # (kind, key, window) -> Sample
        self.errors: list[str] = []
        self.seconds = 0.0
        self.cpu_s = 0.0
        self._next_ref_ns = 0
        self._rng = random.Random(0)
        self._lock = threading.Lock()

    def _keep(self, kind: str, key, ns: int, window: int) -> None:
        sample = self.latency.get((kind, key, window))
        if sample is None:
            sample = self.latency[kind, key, window] = Sample(WINDOW_SAMPLES, self._rng)
        sample.add(ns)

    def _window(self, end_ns: int) -> int:
        return min(self.windows - 1, (end_ns - self.start_ns) // self.window_ns)

    def pace_reference(self) -> None:
        """Time reference_loop() once if REF_INTERVAL_NS has passed since the last time."""
        if time.perf_counter_ns() < self._next_ref_ns:
            return
        t0 = time.perf_counter_ns()
        reference_loop()
        end = time.perf_counter_ns()
        self._next_ref_ns = end + REF_INTERVAL_NS
        with self._lock:
            self._keep("ref", None, end - t0, self._window(end))

    def record(self, kind: str, problem, ns: int, end_ns: int, key=None) -> None:
        if problem is None and ns > OP_TIMEOUT_NS:
            problem = f"took {ns / 1e9:.2f} s"
        window = self._window(end_ns)
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{kind} {key}: {problem}")
                return
            self.verified += 1
            self.window_verified[window] += 1
            if kind in ("nun", "manual"):
                self._keep(kind, key, ns, window)

    def samples(self, kind: str, key=None, window=None) -> list[int]:
        """Kept latencies of `kind`, over every key and window unless one is given."""
        out: list[int] = []
        for (k, sample_key, sample_window), sample in self.latency.items():
            if k == kind and key in (None, sample_key) and window in (None, sample_window):
                out.extend(sample.values)
        return out

    def seen(self, kind: str) -> int:
        return sum(s.seen for (k, _, _), s in self.latency.items() if k == kind)


def run_op(phase: Phase, tracer, op_id: int, kind: str, fn, check, key=None):
    """Time one op; `check(result)` returns None when the answer is right."""
    t0 = time.perf_counter_ns()
    try:
        result = fn() if tracer is None else tracer.op(op_id, kind, fn)
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        result = exc
    end = time.perf_counter_ns()
    phase.record(kind, check(result), end - t0, end, key)
    return result


def ops_digest(seed: int, op_lines) -> str:
    """Digest of the seeded deployment records (addresses and times fixed) and the ops."""
    digest = hashlib.sha256(format_config(make_config(seed, PLACEHOLDER_ADDRESSES, 0)).encode())
    for line in op_lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def show(got) -> str:
    if isinstance(got, Exception):
        return f"{type(got).__name__}: {got}"[:300]
    return repr(got)[:300]


def equals(want: ResourceDescription):
    want_bytes = want.to_bytes()

    def check(got):
        if isinstance(got, ResourceDescription) and got.to_bytes() == want_bytes:
            return None
        return f"expected {want!r}, got {show(got)}"

    return check


def in_set(allowed: frozenset):
    def check(got):
        if isinstance(got, ResourceDescription) and got.to_bytes() in allowed:
            return None
        return f"answer outside the reachable set: {show(got)}"

    return check


def _succeeds(got):
    return show(got) if isinstance(got, Exception) else None


def _timed_loop(seconds: float, body) -> Phase:
    phase = Phase(time.perf_counter_ns(), seconds)
    deadline = time.perf_counter() + seconds
    t0, c0 = time.perf_counter(), time.process_time()
    for i in itertools.count():
        if time.perf_counter() >= deadline:
            break
        body(phase, i)
        phase.pace_reference()
    phase.seconds = time.perf_counter() - t0
    phase.cpu_s = time.process_time() - c0
    return phase


def collection_prefix(files) -> str | None:
    """The URL prefix every file of an event shares with its name, if any."""
    if not files or not all(url.endswith(name) for name, url in files):
        return None
    prefixes = {url[: len(url) - len(name)] for name, url in files}
    return prefixes.pop() if len(prefixes) == 1 else None


# --- discovery

class Discovery:
    name = "discovery"
    threads = 1

    def __init__(self, seed: int) -> None:
        self.cfg = make_config(seed, free_addresses(), system_clock())
        rng = random.Random(f"discovery/{seed}")
        self.order: list[int] = []
        for _ in range(20_000):
            cycle = [1, 2, 3]
            rng.shuffle(cycle)
            self.order += cycle
        self.digest = ops_digest(seed, (f"{s} {bench.SCENARIOS[s].name_text}" for s in self.order))
        cfg = self.cfg
        meeting = first_meeting(cfg, system_clock())
        users = cfg.users
        room = cfg.locations[meeting.location]
        initial_room = cfg.locations["room101"]
        doc = bench.SCENARIOS[3].name_text[1:-1].split(" ")[-1]
        self.expected = {
            1: expected("string", users[meeting.moderator].email),
            2: user_expected(cfg.addresses["userdb"], users[room.occupants[0]].user_id),
            3: expected("file", users[initial_room.occupants[0]].fileprefix + doc),
        }

    def client(self, tracer) -> "DiscoveryClient":
        return DiscoveryClient(self, tracer)


class DiscoveryClient:
    def __init__(self, workload: Discovery, tracer) -> None:
        self.w = workload
        self.tracer = tracer
        cfg = workload.cfg
        self.registry = kit.build_registry(system_clock, cfg.addresses["userdb"])
        self.initials = {
            s: cfg.initial_description(bench.SCENARIOS[s].initial_alias) for s in (1, 2, 3)
        }

    def nun(self, scenario: int) -> ResourceDescription:
        name = names.parse_name(bench.SCENARIOS[scenario].name_text)
        initial = self.registry.instantiate(self.initials[scenario])
        ctx = ResolveContext(registry=self.registry, initial=initial)
        return resolver.resolve(ctx, name).description

    def manual(self, scenario: int) -> ResourceDescription:
        return bench.manual_discover(self.w.cfg, scenario)

    def run(self, seconds: float) -> Phase:
        order, checks = self.w.order, {s: equals(d) for s, d in self.w.expected.items()}

        def body(phase: Phase, i: int) -> None:
            s = order[i % len(order)]
            run_op(phase, self.tracer, 2 * i + 1, "nun", lambda: self.nun(s), checks[s], s)
            run_op(phase, self.tracer, 2 * i + 2, "manual", lambda: self.manual(s), checks[s], s)

        return _timed_loop(seconds, body)

    def traffic(self, server) -> dict[str, dict[str, int]]:
        """Wire messages of one op per scenario and mode, by role.verb."""
        shapes = {}
        for s in (1, 2, 3):
            for mode, fn in (("nun", self.nun), ("manual", self.manual)):
                before = server.command("STATS")["requests"]
                fn(s)
                after = server.command("STATS")["requests"]
                shapes[f"s{s}.{mode}"] = {
                    f"{role}.{verb}": n - before[role][verb]
                    for role, verbs in after.items()
                    for verb, n in verbs.items()
                    if n != before[role][verb]
                }
        return shapes


# --- churn

CHURN_SHAPES = {
    "occupant": ("location", "(occupant files {doc})"),
    "meeting": ("calendar", "(today meeting files {doc})"),
    "moderator": ("calendar", "(today meeting moderator files {doc})"),
}
CHURN_DOCS = 512  # per shape: names per cache are 4-8x NameCache's default 128
CHURN_ZIPF_S = 1.0
CHURN_OPS_PER_THREAD = 60_000


class Churn:
    name = "churn"
    threads = 2

    def __init__(self, seed: int) -> None:
        self.cfg = cfg = make_config(seed, free_addresses(), system_clock())
        rng = random.Random(f"churn/{seed}")
        docs = sorted({f"{token(rng, 8)}.doc" for _ in range(CHURN_DOCS)})
        # Popularity rank r goes to shape r % 3, so every seed gives each
        # shape the same share of the traffic; the seed picks the documents.
        by_shape = {shape: rng.sample(docs, len(docs)) for shape in CHURN_SHAPES}
        population = [(shape, by_shape[shape][r]) for r in range(len(docs)) for shape in CHURN_SHAPES]
        weights = list(itertools.accumulate(1 / (r + 1) ** CHURN_ZIPF_S for r in range(len(population))))

        users = cfg.users
        aliases = sorted(users)
        room101 = cfg.locations["room101"]
        self.rotation = [
            [users[a].user_id for a in room101.occupants],
            [users[rng.choice(aliases)].user_id],
            [users[a].user_id for a in rng.sample(aliases, 3)],
        ]
        by_id = user_by_id(cfg)
        meeting = first_meeting(cfg, system_clock())
        prefixes = {
            "occupant": {by_id[ids[0]].fileprefix for ids in self.rotation},
            "meeting": {collection_prefix(meeting.files)},
            "moderator": {users[meeting.moderator].fileprefix},
        }
        self.reachable = {
            (shape, doc): frozenset(expected("file", p + doc).to_bytes() for p in prefixes[shape])
            for shape, doc in population
        }
        self.texts = {(shape, doc): CHURN_SHAPES[shape][1].format(doc=doc) for shape, doc in population}

        # per thread: ("setocc", rotation index) or (shape, doc, with_manual)
        self.thread_ops = []
        for _ in range(self.threads):
            ops, turn = [], 0
            for _ in range(CHURN_OPS_PER_THREAD):
                if rng.random() < 1 / 20:
                    turn += 1
                    ops.append(("setocc", turn % len(self.rotation)))
                else:
                    shape, doc = rng.choices(population, cum_weights=weights)[0]
                    ops.append((shape, doc, rng.random() < 1 / 10))
            self.thread_ops.append(ops)
        self.digest = ops_digest(seed, (f"{t} {op}" for t, ops in enumerate(self.thread_ops) for op in ops))

    def client(self, tracer) -> "ChurnClient":
        return ChurnClient(self, tracer)


class ChurnClient:
    def __init__(self, workload: Churn, tracer) -> None:
        self.w = workload
        self.tracer = tracer
        cfg = workload.cfg
        self.userdb = cfg.addresses["userdb"]
        self.location = cfg.addresses["location"]
        self.room = cfg.locations["room101"].location_id
        registry = kit.build_registry(system_clock, self.userdb)
        self.contexts, self.caches = {}, {}
        for alias in ("calendar", "location"):
            initial = registry.instantiate(cfg.initial_description(alias))
            self.contexts[alias] = ResolveContext(registry=registry, initial=initial)
            self.caches[alias] = cache.NameCache()
        self._ids = itertools.count(1)

    def nun(self, shape: str, doc: str) -> ResourceDescription:
        alias = CHURN_SHAPES[shape][0]
        name = names.parse_name(self.w.texts[(shape, doc)])
        return cache.cached_resolve(self.contexts[alias], self.caches[alias], name).description

    def manual(self, shape: str, doc: str) -> ResourceDescription:
        if shape == "occupant":
            present = wire.occupancy(self.location, self.room)
            _, prefix = wire.get_user(self.userdb, present[0])
        else:
            day_start, day_end = kit.day_bounds(system_clock())
            specs = wire.query_events(self.w.cfg.addresses["calendar"], day_start, day_end, "meeting")
            event = kit.parse_event_spec(specs[0])
            if shape == "meeting":
                prefix = collection_prefix(event.files)
            else:
                _, prefix = wire.get_user(self.userdb, event.moderator)
        return expected("file", prefix + doc)

    def _thread(self, ops, deadline: float, phase: Phase) -> None:
        tracer, reachable, rotation = self.tracer, self.w.reachable, self.w.rotation
        for op in itertools.cycle(ops):
            if time.perf_counter() >= deadline:
                return
            phase.pace_reference()
            if op[0] == "setocc":
                ids = rotation[op[1]]
                run_op(phase, tracer, next(self._ids), "setocc",
                       lambda: wire.set_occupancy(self.location, self.room, ids), _succeeds)
                continue
            shape, doc, with_manual = op
            check = in_set(reachable[(shape, doc)])
            run_op(phase, tracer, next(self._ids), "nun", lambda: self.nun(shape, doc), check, shape)
            if with_manual:
                run_op(phase, tracer, next(self._ids), "manual",
                       lambda: self.manual(shape, doc), check, shape)

    def run(self, seconds: float) -> Phase:
        phase = Phase(time.perf_counter_ns(), seconds)
        deadline = time.perf_counter() + seconds
        t0, c0 = time.perf_counter(), time.process_time()
        workers = [
            threading.Thread(target=self._thread, args=(ops, deadline, phase), name=f"churn-{i}",
                             daemon=True)
            for i, ops in enumerate(self.w.thread_ops)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(seconds + 60)
        if any(worker.is_alive() for worker in workers):
            phase.record("thread", "a client thread did not finish", 0, time.perf_counter_ns())
        phase.seconds = time.perf_counter() - t0
        phase.cpu_s = time.process_time() - c0
        return phase


# --- local

LOCAL_POPULATION = 1500
# (chain template, names per 100).  "{doc}" is a file name the event lists
# or, for collections, any token.  The last five fail with NotBoundError.
# Each mix is exact for every seed, so seeds differ in names, not in cost.
LOCAL_TEMPLATES = (
    (("files", "{doc}"), 27),
    (("files",), 5),
    (("moderator",), 9),
    (("location",), 9),
    (("moderator", "email"), 14),
    (("moderator", "files", "{doc}"), 26),
    (("attendees",), 2),
    (("moderator", "phone"), 2),
    (("files", "{doc}", "page"), 2),
    (("files", "missing.pdf"), 2),
    (("moderator", "files", "{doc}", "x"), 2),
)
LOCAL_FAILING = 10  # per 100: the last five templates
LOCAL_DEPTHS = (0, 0, 0, 0, 1, 1, 1, 2, 2, 3)  # nested-name depth, per 10 names
LOCAL_EXTRA_ATTRS = (True, True, True) + (False,) * 7  # literal or token attribute, per 10
NESTED = (("moderator",), ("location",), ("moderator", "email"), ("files",))


def local_answer(chain, moderator: bytes, location: ResourceDescription, files, users, userdb):
    """Walk an event-initial chain by hand.

    Returns the final description, or ("notbound", step, local) where
    the resolver must raise NotBoundError.
    """
    head = chain[0]
    if head == "moderator":
        kind, value = "user", moderator
    elif head == "location":
        kind, value = "location", location
    elif head == "files":
        prefix = collection_prefix(files)
        kind, value = ("collection", prefix) if prefix is not None else ("set", dict(files))
    else:
        return ("notbound", 0, head)
    for step, local in enumerate(chain[1:], start=1):
        if kind == "user" and local in ("email", "files"):
            record = users[value]
            kind, value = ("string", record.email) if local == "email" else ("collection", record.fileprefix)
        elif kind == "collection":
            kind, value = "file", value + local
        elif kind == "set" and local in value:
            kind, value = "file", value[local]
        else:
            return ("notbound", step, local)
    if kind == "user":
        return user_expected(userdb, value)
    if kind == "location":
        return value
    label = {"string": "string", "file": "file", "collection": "file-collection"}[kind]
    return expected(label, value)


def _nested_name(nested, depth: int) -> str:
    """A name valid from any event, whose head carries a nested name depth-1 deep."""
    chain = list(next(nested))
    if depth > 1:
        chain[0] += f"[n={_nested_name(nested, depth - 1)}]"
    return "(" + " ".join(chain) + ")"


class LocalOp:
    """One generated name, its event initial, and checks of both modes' answers."""

    __slots__ = ("alias", "text", "initial", "chain", "check", "manual_check")

    def __init__(self, alias, text, initial, chain, answer) -> None:
        self.alias, self.text, self.initial, self.chain = alias, text, initial, chain
        if isinstance(answer, tuple):
            self.check = _expect_notbound(answer)
            self.manual_check = lambda got: None if got == answer else f"manual walk gave {show(got)}"
        else:
            self.check = self.manual_check = equals(answer)


class Local:
    name = "local"
    threads = 1

    def __init__(self, seed: int) -> None:
        self.cfg = cfg = make_config(seed, PLACEHOLDER_ADDRESSES, system_clock())
        self.userdb = cfg.addresses["userdb"]
        self.users = user_by_id(cfg)
        rng = random.Random(f"local/{seed}")
        events = list(cfg.events.values())
        self.initials = {e.alias: kit.event_description(cfg.event_fields(e)) for e in events}
        literal_values = [expected("file", f"http://files.example.net/{token(rng)}") for _ in range(8)]
        n = LOCAL_POPULATION
        templates = [t for t, per_100 in LOCAL_TEMPLATES for _ in range(per_100 * n // 100)]
        depths = list(LOCAL_DEPTHS) * (n // len(LOCAL_DEPTHS))
        literals = list(LOCAL_EXTRA_ATTRS) * (n // len(LOCAL_EXTRA_ATTRS))
        token_attrs = list(LOCAL_EXTRA_ATTRS) * (n // len(LOCAL_EXTRA_ATTRS))
        for column in (templates, depths, literals, token_attrs):
            rng.shuffle(column)
        failing = {t for t, _ in LOCAL_TEMPLATES[-5:]}
        with_files = [e for e in events if e.files]
        sets = [e for e in with_files if collection_prefix(e.files) is None]
        collections = [e for e in with_files if collection_prefix(e.files) is not None]
        eligible = {  # a set's spec layout is the kit's choice; collections bind any token
            ("files",): collections,
            ("files", "missing.pdf"): sets,
        }
        nested = itertools.cycle(NESTED)
        turns: dict[tuple, int] = {}
        self.population: list[LocalOp] = []
        for template, depth, literal, token_attr in zip(templates, depths, literals, token_attrs):
            pool = eligible.get(template, with_files if template[0] == "files" else events)
            turn = turns[template] = turns.get(template, -1) + 1
            event = pool[turn % len(pool)]
            if template[0] == "files" and (event in sets or turn % 2):
                doc = rng.choice(event.files)[0]
            else:
                doc = f"{token(rng)}.txt"
            chain = [doc if part == "{doc}" else part for part in template]
            answer = self._answer(chain, event)
            if (template in failing) != isinstance(answer, tuple):
                raise RuntimeError(f"generator produced {chain} with answer {answer!r}")
            attrs = []
            if depth:
                attrs.append(f"n={_nested_name(nested, depth)}")
            if literal:
                lit = rng.choice(literal_values)
                attrs.append(f"r=[{lit.type_id.hex()} {lit.spec.hex()}]")
            if token_attr:
                attrs.append(f"s={token(rng, 4)}")
            parts = list(chain)
            if attrs:
                k = rng.randrange(len(parts))
                parts[k] += "[" + ",".join(attrs) + "]"
            text = "(" + " ".join(parts) + ")"
            self.population.append(
                LocalOp(event.alias, text, self.initials[event.alias], tuple(chain), answer)
            )
        self.digest = ops_digest(seed, (f"{op.alias} {op.text}" for op in self.population))

    def _answer(self, chain, event):
        room = self.cfg.locations[event.location]
        location = expected("location", f"{self.cfg.addresses['location']} {room.location_id.hex()}")
        return local_answer(chain, self.cfg.users[event.moderator].user_id, location, event.files,
                            self.users, self.userdb)

    def fetch(self, address: str, user_id: bytes) -> tuple[str, str]:
        """The user database, in process."""
        record = self.users[user_id]
        return record.email, record.fileprefix

    def build(self, config_path: str) -> float:
        """The program's set-up: load the config, build the registry, instantiate
        every initial.  Returns the config load seconds."""
        t0 = time.perf_counter()
        load_config(config_path)
        load_s = time.perf_counter() - t0
        registry = kit.build_registry(system_clock, self.userdb, user_fetch=self.fetch)
        for description in self.initials.values():
            registry.instantiate(description)
        return load_s

    def client(self, tracer) -> "LocalClient":
        return LocalClient(self, tracer)


class LocalClient:
    def __init__(self, workload: Local, tracer) -> None:
        self.w = workload
        self.tracer = tracer
        self.registry = kit.build_registry(system_clock, workload.userdb, user_fetch=workload.fetch)

    def nun(self, op: LocalOp):
        name = names.parse_name(op.text)
        initial = self.registry.instantiate(op.initial)
        return resolver.resolve(ResolveContext(registry=self.registry, initial=initial), name).description

    def manual(self, op: LocalOp):
        event = kit.parse_event_spec(op.initial.spec)
        return local_answer(op.chain, event.moderator, event.location, event.files,
                            self.w.users, self.w.userdb)

    def run(self, seconds: float) -> Phase:
        population = self.w.population

        def body(phase: Phase, i: int) -> None:
            op = population[i % len(population)]
            run_op(phase, self.tracer, 2 * i + 1, "nun", lambda: self.nun(op), op.check, "local")
            run_op(phase, self.tracer, 2 * i + 2, "manual", lambda: self.manual(op), op.manual_check,
                   "local")

        return _timed_loop(seconds, body)


def _expect_notbound(want):
    _, step, local = want

    def check(got):
        if isinstance(got, NotBoundError) and got.step == step and got.local == local:
            return None
        return f"expected NotBoundError({local!r}) at step {step}, got {show(got)}"

    return check


WORKLOADS = {"discovery": Discovery, "local": Local, "churn": Churn}
