"""Command-line interface.

    namechain resolve --config deploy.cfg --initial calendar "(today meeting moderator email)"
    namechain serve --role userdb --config deploy.cfg
    namechain deploy --config deploy.cfg
    namechain bench --config deploy.cfg --scenario 1 --iterations 1000 --mode nun
    namechain fixture --out deploy.cfg

Exit codes: 0 success, 1 resolution or deployment failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import threading
from typing import Callable, Optional

from . import bench, kit, servers, wire
from .config import ConfigError, DeploymentConfig, demo_deployment, format_config, load_config
from .names import NameSyntaxError, parse_name, parse_resource_literal
from .resolver import ResolutionError, ResolveContext, UnknownTypeError, resolve, system_clock


def _positive(
    convert: Callable[[str], float], what: str, most: float = math.inf
) -> Callable[[str], float]:
    """An argparse type: `convert`, then refuse all but 0 < value <= most."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not 0 < value <= most:  # NaN fails this too
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


# A socket takes a timeout of at most threading.TIMEOUT_MAX seconds.
_TIMEOUT = _positive(float, f"seconds in (0, {threading.TIMEOUT_MAX:.0f}]", threading.TIMEOUT_MAX)


def _listen_address(text: str) -> str:
    """An argparse type: an address wire.parse_listen_address takes."""
    try:
        wire.parse_listen_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namechain",
        description="Resolve chained local names through cooperating resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", help="resolve a name relative to an initial resource")
    p.add_argument("--initial", required=True, help="configured alias or [type-hex spec-hex] literal")
    p.add_argument("--config", help="deployment configuration file")
    p.add_argument("--timeout", type=_TIMEOUT, default=wire.DEFAULT_TIMEOUT)
    p.add_argument("name", help="name in canonical syntax, e.g. '(printer administrator)'")

    p = sub.add_parser("serve", help="run one server role in the foreground")
    p.add_argument("--role", required=True, choices=("userdb", "location", "calendar"))
    p.add_argument("--config", required=True)
    p.add_argument("--listen", type=_listen_address, help="host:port (default: the role's address)")

    p = sub.add_parser("deploy", help="run all three server roles in one process")
    p.add_argument("--config", required=True)

    p = sub.add_parser("bench", help="time scenario discovery, resolver vs manual queries")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario", required=True, type=int, choices=(1, 2, 3))
    p.add_argument("--iterations", type=_positive(int, "a positive integer"), default=1000)
    p.add_argument("--mode", required=True, choices=("nun", "manual"))
    p.add_argument("--cache", action="store_true", help="resolve through a name cache")
    p.add_argument("--timeout", type=_TIMEOUT, default=wire.DEFAULT_TIMEOUT)

    p = sub.add_parser("fixture", help="write a demo deployment configuration")
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port-base", type=int, default=46001)

    return parser


def _load(path: Optional[str]) -> Optional[DeploymentConfig]:
    if path is None:
        return None
    return load_config(path)


def _cmd_resolve(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    try:
        name = parse_name(args.name)
    except NameSyntaxError as exc:
        print(f"usage error: bad name: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg is not None:
            initial_desc = cfg.initial_description(args.initial)
        elif args.initial.startswith("["):
            initial_desc = parse_resource_literal(args.initial)
        else:
            print("usage error: --initial aliases need --config", file=sys.stderr)
            return 2
    except (NameSyntaxError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    userdb = cfg.addresses.get("userdb") if cfg is not None else None
    registry = kit.build_registry(system_clock, userdb)
    try:
        initial = registry.instantiate(initial_desc)
        if initial is None:
            raise UnknownTypeError(initial_desc.type_id, step=0)
        ctx = ResolveContext(registry, initial, system_clock, timeout=args.timeout)
        resolution = resolve(ctx, name)
    except ResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    description = resolution.description
    print(f"type-id: {description.type_id.hex()}")
    print(f"spec: {wire.hex_field(description.spec)}")
    pretty = registry.pretty(description)
    if pretty is not None:
        print(f"pretty: {pretty}")
    print(f"usable: {'yes' if registry.is_usable(description.type_id) else 'no'}")
    print(f"expires-at: {resolution.validity.expires_at}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    server = servers.serve(args.role, cfg, listen=args.listen)
    print(f"serving {args.role} at {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    running = []
    try:
        for role in ("userdb", "location", "calendar"):
            server = servers.serve(role, cfg)
            servers.start_in_thread(server)
            running.append(server)
            print(f"serving {role} at {server.address}", flush=True)
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        for server in running:
            server.shutdown()
            server.server_close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    try:
        report = bench.run_bench(
            cfg,
            args.scenario,
            args.iterations,
            args.mode,
            use_cache=args.cache,
            timeout=args.timeout,
        )
    except (bench.ModeDisagreement, ResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name_text = bench.SCENARIOS[args.scenario].name_text
    samples = sorted(report.samples)
    p99 = samples[math.ceil(0.99 * len(samples)) - 1]  # nearest rank: always one of the samples
    print(
        f"{name_text} {args.mode} x{report.iterations}: {report.format_stats()} ms, "
        f"median {statistics.median(samples):.2f} ms, p99 {p99:.2f} ms"
    )
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    addresses = {
        "userdb": f"{args.host}:{args.port_base}",
        "location": f"{args.host}:{args.port_base + 1}",
        "calendar": f"{args.host}:{args.port_base + 2}",
    }
    try:
        cfg = demo_deployment(addresses, system_clock())
    except ValueError as exc:  # a host or port no address may hold
        raise ConfigError(None, str(exc)) from None
    text = format_config(cfg)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "resolve": _cmd_resolve,
    "serve": _cmd_serve,
    "deploy": _cmd_deploy,
    "bench": _cmd_bench,
    "fixture": _cmd_fixture,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
