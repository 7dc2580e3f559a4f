"""Per-layer metrics from the traced run.

"Per op" means per resolver (nun) op of the traced run.  Client spans
count when they belong to a nun op; server spans all count, because on
the servers only RESOLVE handling (which only nun ops cause) reaches the
traced layers.  Server spans carry op id 0: the wire does not carry the
client's op id.  Wire and server metrics use every span of both
processes.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import FIELDS

STEP_LABELS = ("string", "file", "file-collection", "file-set", "location", "calendar",
               "time-period", "event", "user", "remote")
DECODE_LABELS = ("event", "time-period", "calendar", "file-set", "location", "user", "remote")
ROLE_VERBS = (("userdb", "GETUSER"), ("location", "RESOLVE"), ("location", "OCCUPANCY"),
              ("location", "SETOCC"), ("calendar", "RESOLVE"), ("calendar", "EVENTS"))
VERBS = ("RESOLVE", "GETUSER", "OCCUPANCY", "EVENTS", "SETOCC")
ERR_CODES = ("NOTBOUND", "UNKNOWNTYPE", "DEPTH", "NOTFOUND", "BADREQ", "INTERNAL")

# name -> (unit, better); BENCHMARK.json's per_layer list mirrors this table
PER_LAYER = {
    "names.parse_us_per_op": ("us/op", "lower"),
    "names.parse_calls_per_op": ("count/op", "lower"),
    "names.serialize_us_per_op": ("us/op", "lower"),
    "resources.instantiate_us_per_op": ("us/op", "lower"),
    "resources.instantiate_calls_per_op": ("count/op", "lower"),
    "resolver.resolve_self_us_per_op": ("us/op", "lower"),
    "resolver.steps_per_op": ("count/op", "lower"),
    **{f"resolver.overhead_ratio.s{s}": ("ratio", "lower") for s in (1, 2, 3)},
    **{f"kit.local_step_us.{label}": ("us/op", "lower") for label in STEP_LABELS},
    **{f"kit.local_step_calls.{label}": ("count/op", "lower") for label in STEP_LABELS},
    **{f"kit.spec_decodes_per_op.{label}": ("count/op", "lower") for label in DECODE_LABELS},
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.get_us": ("us", "lower"),
    "cache.put_us": ("us", "lower"),
    "cache.evictions_per_op": ("count/op", "lower"),
    **{f"wire.messages_per_op.{role}.{verb}": ("count/op", "lower") for role, verb in ROLE_VERBS},
    **{f"wire.roundtrip_us.{verb}": ("us", "lower") for verb in VERBS},
    **{f"wire.wait_us.{verb}": ("us", "lower") for verb in VERBS},
    "wire.connections_opened": ("count", "lower"),
    "wire.retries": ("count", "lower"),
    **{f"servers.process_line_us.{role}.{verb}": ("us", "lower") for role, verb in ROLE_VERBS},
    "servers.handler_threads_max": ("count", "lower"),
    **{f"servers.errors.{code}": ("count", "lower") for code in ERR_CODES},
    "servers.threads_leaked": ("count", "lower"),
    "servers.cpu_us_per_op": ("us/op", "lower"),
    "client.cpu_us_per_op": ("us/op", "lower"),
    "config.load_s": ("s", "lower"),
    "ops.failed_share": ("ratio", "lower"),
    "ops.latency_p99_us": ("us", "lower"),
    "wall.latency_p50_us": ("us", "lower"),
    "wall.manual_p50_us": ("us", "lower"),
    "wall.throughput_ops_s": ("1/s", "higher"),
    "wall.cpu_us_per_op": ("us", "lower"),
    "host.reference_us": ("us", "lower"),
    "trace.overhead_p50_ref": ("ref", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}


def totals(names, spans, keep=None) -> dict[str, list[int]]:
    """name -> [calls, self ns, inclusive ns], over spans whose op id passes `keep`."""
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    columns = [spans[k::FIELDS] for k in range(FIELDS)]
    for _, name_index, start, end, _, op, self_ns in zip(*columns):
        if keep is None or keep(op):
            entry = out[names[name_index]]
            entry[0] += 1
            entry[1] += self_ns
            entry[2] += end - start
    return out


def op_kinds(names, spans) -> dict[int, str]:
    """op id -> kind, from the root op.<kind> spans."""
    kinds = {}
    for i in range(0, len(spans), FIELDS):
        name = names[spans[i + 1]]
        if name.startswith("op."):
            kinds[spans[i + 5]] = name[3:]
    return kinds


def accounting_ok(names, spans) -> bool:
    """Per op, the self times of its spans add up to the op's duration."""
    self_sum: dict[int, int] = defaultdict(int)
    duration = {}
    for i in range(0, len(spans), FIELDS):
        op = spans[i + 5]
        self_sum[op] += spans[i + 6]
        if names[spans[i + 1]].startswith("op."):
            duration[op] = spans[i + 3] - spans[i + 2]
    return all(self_sum[op] == d for op, d in duration.items())


def _merge(*parts):
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for part in parts:
        for name, (calls, self_ns, incl) in part.items():
            entry = out[name]
            entry[0] += calls
            entry[1] += self_ns
            entry[2] += incl
    return out


def compute(client, server, requests_delta, received: int, traced_ops: int) -> dict[str, float]:
    """Layer metrics from client and server spans ((names, spans) pairs).

    requests_delta: {role: {verb: n}} the servers counted during the traced
    run ({} without servers); received: all requests they counted;
    traced_ops: ops attempted.
    """
    kinds = op_kinds(*client)
    n = max(1, sum(1 for kind in kinds.values() if kind == "nun"))
    nun = _merge(totals(*client, keep=lambda op: kinds.get(op) == "nun"),
                 totals(*server) if server else {})
    every = _merge(totals(*client), totals(*server) if server else {})
    zero = [0, 0, 0]

    def per_op_us(span):
        return nun.get(span, zero)[1] / n / 1e3

    def per_op_calls(span):
        return nun.get(span, zero)[0] / n

    def mean_us(entry, index):
        return entry[index] / entry[0] / 1e3 if entry[0] else 0.0

    m = {
        "names.parse_us_per_op": per_op_us("names.parse"),
        "names.parse_calls_per_op": per_op_calls("names.parse"),
        "names.serialize_us_per_op": per_op_us("names.serialize"),
        "resources.instantiate_us_per_op": per_op_us("resources.instantiate"),
        "resources.instantiate_calls_per_op": per_op_calls("resources.instantiate"),
        "resolver.resolve_self_us_per_op": per_op_us("resolver.resolve"),
        "resolver.steps_per_op": sum(e[0] for k, e in nun.items() if k.startswith("kit.step.")) / n,
    }
    for label in STEP_LABELS:
        m[f"kit.local_step_us.{label}"] = per_op_us(f"kit.step.{label}")
        m[f"kit.local_step_calls.{label}"] = per_op_calls(f"kit.step.{label}")
    for label in DECODE_LABELS:
        m[f"kit.spec_decodes_per_op.{label}"] = per_op_calls(f"kit.decode.{label}")

    hit, miss = nun.get("cache.get.hit", zero), nun.get("cache.get.miss", zero)
    put, evict = nun.get("cache.put", zero), nun.get("cache.put.evict", zero)
    puts = [put[0] + evict[0], put[1] + evict[1]]
    gets = [hit[0] + miss[0], hit[1] + miss[1]]
    m["cache.hit_ratio"] = hit[0] / gets[0] if gets[0] else 0.0
    m["cache.get_us"] = mean_us(gets, 1)
    m["cache.put_us"] = mean_us(puts, 1)
    m["cache.evictions_per_op"] = per_op_calls("cache.put.evict")

    served = defaultdict(lambda: [0, 0, 0])  # by verb and by (role, verb), over error codes
    errors = defaultdict(int)
    for name, entry in every.items():
        if name.startswith("servers."):
            base, _, code = name.partition("!")
            _, role, verb = base.split(".", 2)
            for key in (verb, (role, verb)):
                served[key] = [a + b for a, b in zip(served[key], entry)]
            if code:
                errors[code] += entry[0]
    for role, verb in ROLE_VERBS:
        count = requests_delta.get(role, {}).get(verb, 0)
        m[f"wire.messages_per_op.{role}.{verb}"] = count / max(1, traced_ops)
    sent = 0
    for verb in VERBS:
        trip = every.get(f"wire.{verb}", zero)
        sent += trip[0]
        m[f"wire.roundtrip_us.{verb}"] = mean_us(trip, 2)
        m[f"wire.wait_us.{verb}"] = (trip[2] - served[verb][2]) / trip[0] / 1e3 if trip[0] else 0.0
    m["wire.connections_opened"] = every.get("wire.connect", zero)[0]
    m["wire.retries"] = received - sent
    for role, verb in ROLE_VERBS:
        m[f"servers.process_line_us.{role}.{verb}"] = mean_us(served[(role, verb)], 1)
    for code in ERR_CODES:
        m[f"servers.errors.{code}"] = errors[code]

    op_spans = nun.get("op.nun", zero)
    m["trace.unattributed_share"] = op_spans[1] / op_spans[2] if op_spans[2] else 0.0
    return m
