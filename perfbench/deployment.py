"""Seeded deployments, the server process handle, and expected descriptions.

Expected descriptions are built from the deployment records and the
documented specification formats (type id = SHA-256 of the type's
descriptor, specification = UTF-8 text), without the resolver and
without the kit's description constructors.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import time

from namechain import kit, wire
from namechain.config import (
    DeploymentConfig,
    EventRecord,
    LocationRecord,
    UserRecord,
    format_config,
)
from namechain.resources import ResourceDescription

import checkout

DAY_MS = 86_400_000
HOUR_MS = 3_600_000
REPLY_TIMEOUT_S = 30.0


def expected(label: str, text: str) -> ResourceDescription:
    """Description of kit type `label` whose specification is `text`."""
    type_id = hashlib.sha256(f"namechain.type.{label}.v1".encode("utf-8")).digest()
    return ResourceDescription(type_id, text.encode("utf-8"))


def user_expected(userdb: str, user_id: bytes) -> ResourceDescription:
    return expected("user", f"{userdb} {user_id.hex()}")


def token(rng: random.Random, n: int = 6) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(n))


def free_addresses() -> dict[str, str]:
    sockets = []
    try:
        for _ in range(3):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            sockets.append(s)
        ports = [s.getsockname()[1] for s in sockets]
    finally:
        for s in sockets:
            s.close()
    return {role: f"127.0.0.1:{port}" for role, port in zip(("userdb", "location", "calendar"), ports)}


def make_config(seed: int, addresses: dict[str, str], now: int) -> DeploymentConfig:
    """Six users, three rooms, today's meetings plus decoys, all drawn from the seed.

    The first meeting today is "standup" in room101.  "standup-next" repeats
    it tomorrow with the same moderator, room and files, so a run that
    crosses midnight UTC expects the same answers.
    """
    rng = random.Random(f"deployment/{seed}")
    users = {}
    for i in range(6):
        alias = f"u{i}"
        users[alias] = UserRecord(
            alias,
            rng.randbytes(16),
            f"{alias}.{token(rng)}@example.org",
            f"http://files.example.net/{token(rng)}/",
        )
    aliases = list(users)
    rng.shuffle(aliases)
    locations = {
        "room101": LocationRecord("room101", rng.randbytes(16), tuple(aliases[2:4])),
        "room102": LocationRecord("room102", rng.randbytes(16), ()),
        "room103": LocationRecord("room103", rng.randbytes(16), (aliases[4],)),
    }
    day_start = now // DAY_MS * DAY_MS

    def collection(n: int) -> tuple[tuple[str, str], ...]:
        prefix = f"http://files.example.net/{token(rng)}/"
        names = sorted({f"{token(rng)}.txt" for _ in range(n)})
        return tuple((name, prefix + name) for name in names)

    def scattered(n: int) -> tuple[tuple[str, str], ...]:
        names = sorted({f"{token(rng)}.pdf" for _ in range(n)})
        return tuple((name, f"http://{token(rng, 4)}.example.net/{token(rng)}") for name in names)

    standup_files = collection(3)
    events = {}

    def add(alias, tags, moderator, location, files, start, hours=1):
        events[alias] = EventRecord(
            alias, rng.randbytes(16), tags, moderator, location, files, start, start + hours * HOUR_MS
        )

    add("standup", ("meeting", "weekly"), aliases[0], "room101", standup_files, day_start)
    add("lunch", ("social",), aliases[1], "room102", (), day_start)
    add("review", ("meeting",), aliases[1], "room103", scattered(2), day_start + 2 * HOUR_MS)
    for j in range(4):
        files = collection(2 + j) if j % 2 == 0 else scattered(2 + j)
        add(f"workshop{j}", ("workshop",), rng.choice(aliases), rng.choice(list(locations)),
            files, day_start + (4 + j) * HOUR_MS)
    add("standup-next", ("meeting", "weekly"), aliases[0], "room101", standup_files,
        day_start + DAY_MS)

    cfg = DeploymentConfig(
        addresses=dict(addresses), users=users, locations=locations, events=events,
        calendars=("main",),
    )
    cfg.initials = {
        "calendar": wire.remote_description(addresses["calendar"], kit.CALENDAR_RESOURCE_ID),
        "location": wire.remote_description(addresses["location"], locations["room101"].location_id),
    }
    return cfg


def write_config(cfg: DeploymentConfig, name: str) -> str:
    path = os.path.join(checkout.RUN_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_config(cfg))
    return path


def first_meeting(cfg: DeploymentConfig, now: int) -> EventRecord:
    """The event "today meeting" names: earliest start today, then lowest id."""
    day_start = now // DAY_MS * DAY_MS
    today = [e for e in cfg.events.values()
             if "meeting" in e.tags and day_start <= e.start < day_start + DAY_MS]
    return min(today, key=lambda e: (e.start, e.event_id))


def user_by_id(cfg: DeploymentConfig) -> dict[bytes, UserRecord]:
    return {u.user_id: u for u in cfg.users.values()}


class ServerProcess:
    """The three roles in a child process (serverproc.py), driven over its stdin."""

    def __init__(self, config_path: str, spans_path: str | None = None) -> None:
        command = [sys.executable, os.path.join(os.path.dirname(__file__), "serverproc.py"),
                   "--config", config_path]
        if spans_path:
            command += ["--spans", spans_path]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=checkout.ROOT
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("server process did not answer")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("QUIT\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def probe(cfg: DeploymentConfig) -> None:
    """One request to each role."""
    user = next(iter(cfg.users.values()))
    location = next(iter(cfg.locations.values()))
    wire.get_user(cfg.addresses["userdb"], user.user_id)
    wire.occupancy(cfg.addresses["location"], location.location_id)
    wire.query_events(cfg.addresses["calendar"], 0, 1, "meeting")


def start(cfg: DeploymentConfig, config_path: str, spans_path: str | None = None) -> ServerProcess:
    """Launch the server process and wait until every role has answered once."""
    server = ServerProcess(config_path, spans_path)
    try:
        probe(cfg)
    except BaseException:
        server.stop()
        raise
    return server


def time_setup(cfg: DeploymentConfig, config_path: str, repeats: int) -> tuple[float, float]:
    """Median seconds from launch to every role answering, and median config load seconds."""
    times, loads = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        server = start(cfg, config_path)
        times.append(time.perf_counter() - t0)
        loads.append(server.ready["load_s"])
        wire.close_idle_connections()
        server.stop()
    return statistics.median(times), statistics.median(loads)
