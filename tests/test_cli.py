import select
import signal
import socket
import subprocess
import sys
import time

import pytest

from conftest import free_port, nested_name

from namechain import kit
from namechain.cli import main
from namechain.config import format_config, parse_config
from namechain.names import parse_name, serialize_resource_literal
from namechain.resources import ResourceDescription


def _write_cfg(tmp_path, cfg):
    path = tmp_path / "deploy.cfg"
    path.write_text(format_config(cfg), encoding="utf-8")
    return str(path)


def test_fixture_writes_a_parseable_config(tmp_path, capsys):
    out = tmp_path / "demo.cfg"
    assert main(["fixture", "--out", str(out), "--port-base", "47101"]) == 0
    cfg = parse_config(out.read_text(encoding="utf-8"))
    assert cfg.addresses["userdb"] == "127.0.0.1:47101"
    assert "standup" in cfg.events
    assert capsys.readouterr().out.startswith("wrote ")


def test_fixture_to_stdout(capsys):
    assert main(["fixture", "--out", "-"]) == 0
    assert "[addresses]" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--host", "a b"], ["--port-base", "65534"]])
def test_fixture_refuses_an_address_no_description_may_carry(argv, capsys):
    assert main(["fixture", "--out", "-", *argv]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_resolve_scenario_via_cli(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    code = main(
        ["resolve", "--config", path, "--initial", "calendar", "(today meeting moderator email)"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"type-id: {kit.STRING_TYPE.hex()}" in out
    assert f"spec: {deployment.cfg.users['alice'].email.encode().hex()}" in out
    assert 'pretty: string "alice@example.org"' in out
    assert "usable: yes" in out
    assert "expires-at: " in out


def test_resolve_occupant_scenario_via_cli(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    code = main(
        ["resolve", "--config", path, "--initial", "calendar", "(today meeting location occupant)"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"type-id: {kit.USER_TYPE.hex()}" in out
    assert "pretty: user " in out
    assert "usable: no" in out


def test_resolve_file_scenario_via_cli(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    code = main(
        ["resolve", "--config", path, "--initial", "location", "(occupant files naming.ppt)"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"type-id: {kit.FILE_TYPE.hex()}" in out
    url = deployment.cfg.users["alice"].fileprefix + "naming.ppt"
    assert f"pretty: file {url}" in out


def test_resolve_not_bound_exits_1(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    code = main(["resolve", "--config", path, "--initial", "calendar", "(nextmillennium)"])
    assert code == 1
    assert "no binding" in capsys.readouterr().err


def test_resolve_bad_name_exits_2(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    assert main(["resolve", "--config", path, "--initial", "calendar", "(oops"]) == 2
    assert "bad name" in capsys.readouterr().err


def test_resolve_deeply_nested_name_exits_2(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    assert main(["resolve", "--config", path, "--initial", "calendar", nested_name(1000)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad name: names nest at most 32 deep")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_resolve_unknown_alias_exits_2(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    assert main(["resolve", "--config", path, "--initial", "nosuch", "(x)"]) == 2
    assert "unknown initial" in capsys.readouterr().err


def test_resolve_alias_without_config_exits_2(capsys):
    assert main(["resolve", "--initial", "calendar", "(x)"]) == 2
    assert "--config" in capsys.readouterr().err


def test_resolve_literal_without_servers(capsys):
    literal = serialize_resource_literal(kit.file_collection_description("http://h/u/"))
    code = main(["resolve", "--initial", literal, "(naming.ppt)"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"type-id: {kit.FILE_TYPE.hex()}" in out
    assert "pretty: file http://h/u/naming.ppt" in out


def test_resolve_unknown_initial_type_exits_1(capsys):
    from namechain.resources import ResourceDescription, derive_type_id

    literal = serialize_resource_literal(
        ResourceDescription(derive_type_id("cli-test-unknown"), b"")
    )
    assert main(["resolve", "--initial", literal, "(x)"]) == 1
    assert "unknown type" in capsys.readouterr().err


WHITESPACE_MODERATOR_EVENT = (
    "tag=meeting\nmoderator=000000\t00000000\t0000000000000000\n"
    f"location={serialize_resource_literal(kit.string_description('room'))}\n"
    "start=1\nend=2\n"
).encode()


@pytest.mark.parametrize(
    "spec,reason",
    [
        (b"nonsense", "malformed line 'nonsense'"),
        (WHITESPACE_MODERATOR_EVENT, "moderator must be 32 lowercase hex digits"),
    ],
    ids=["nonsense", "whitespace-moderator"],
)
def test_resolve_malformed_event_spec_exits_1(tmp_path, capsys, spec, reason):
    from namechain.config import demo_deployment

    addresses = {"userdb": "127.0.0.1:1", "location": "127.0.0.1:2", "calendar": "127.0.0.1:3"}
    path = _write_cfg(tmp_path, demo_deployment(addresses, 0))
    literal = serialize_resource_literal(ResourceDescription(kit.EVENT_TYPE, spec))
    assert main(["resolve", "--config", path, "--initial", literal, "(moderator)"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: malformed specification for type {kit.EVENT_TYPE.hex()}: {reason}\n"


def test_resolve_spec_refused_mid_chain_exits_1_with_its_step(capsys):
    # an event whose location is a calendar spec that holds no address
    event = kit.event_description(
        kit.EventFields((), bytes(16), ResourceDescription(kit.CALENDAR_TYPE, b"no address"), (), 0, 1)
    )
    literal = serialize_resource_literal(event)
    assert main(["resolve", "--initial", literal, "(location today)"]) == 1
    assert capsys.readouterr().err == (
        f"error: malformed specification for type {kit.CALENDAR_TYPE.hex()}: "
        "address must be host:port, got 'no address' at step 1\n"
    )


@pytest.mark.parametrize(
    "argv,argument",
    [
        (["bench", "--scenario", "1", "--mode", "nun", "--iterations", "0"], "--iterations"),
        (["bench", "--scenario", "1", "--mode", "nun", "--iterations", "-3"], "--iterations"),
        (["bench", "--scenario", "1", "--mode", "nun", "--iterations", "2.5"], "--iterations"),
        (["bench", "--scenario", "1", "--mode", "nun", "--timeout", "0"], "--timeout"),
        (["resolve", "--initial", "calendar", "--timeout", "-1", "(today)"], "--timeout"),
        (["resolve", "--initial", "calendar", "--timeout", "nan", "(today)"], "--timeout"),
        (["resolve", "--initial", "calendar", "--timeout", "inf", "(today)"], "--timeout"),
        (["resolve", "--initial", "calendar", "--timeout", "1e10", "(today)"], "--timeout"),
    ],
)
def test_numeric_arguments_out_of_range_exit_2_with_usage(tmp_path, capsys, argv, argument):
    from namechain.config import demo_deployment

    addresses = {"userdb": "127.0.0.1:1", "location": "127.0.0.1:2", "calendar": "127.0.0.1:3"}
    path = _write_cfg(tmp_path, demo_deployment(addresses, 0))
    with pytest.raises(SystemExit) as excinfo:
        main(argv[:1] + ["--config", path] + argv[1:])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: namechain ")
    assert f"error: argument {argument}: expected " in err
    assert "Traceback" not in err


def test_broken_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("[addresses]\nuserdb = nonsense\n", encoding="utf-8")
    assert main(["resolve", "--config", str(path), "--initial", "x", "(a)"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_bench_via_cli(tmp_path, deployment, capsys):
    path = _write_cfg(tmp_path, deployment.cfg)
    code = main(
        ["bench", "--config", path, "--scenario", "3", "--iterations", "4", "--mode", "manual"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "(occupant files naming.ppt) manual x4:" in out
    assert "±" in out and out.rstrip().endswith("ms")


def test_usage_error_exit_code_is_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--scenario", "9"])
    assert excinfo.value.code == 2


def _wait_for_port(address: str, timeout: float = 10.0) -> None:
    host, port = address.rsplit(":", 1)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, int(port)), timeout=0.5):
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"nothing listening at {address}")


def test_deploy_subprocess_serves_all_roles(tmp_path):
    from namechain.config import demo_deployment
    from namechain.resolver import system_clock

    addresses = {
        "userdb": f"127.0.0.1:{free_port()}",
        "location": f"127.0.0.1:{free_port()}",
        "calendar": f"127.0.0.1:{free_port()}",
    }
    cfg = demo_deployment(addresses, system_clock())
    path = _write_cfg(tmp_path, cfg)
    proc = subprocess.Popen(
        [sys.executable, "-m", "namechain", "deploy", "--config", path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        for address in addresses.values():
            _wait_for_port(address)
        from namechain.bench import manual_discover, resolve_scenario

        resolved = resolve_scenario(cfg, 1)
        assert resolved.description.to_bytes() == manual_discover(cfg, 1).to_bytes()
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            assert proc.wait(timeout=10) == 0
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            proc.wait(timeout=10)
            raise


def test_serve_single_role_subprocess(tmp_path):
    from namechain import wire
    from namechain.config import demo_deployment
    from namechain.resolver import system_clock

    addresses = {
        "userdb": f"127.0.0.1:{free_port()}",
        "location": f"127.0.0.1:{free_port()}",
        "calendar": f"127.0.0.1:{free_port()}",
    }
    cfg = demo_deployment(addresses, system_clock())
    path = _write_cfg(tmp_path, cfg)
    proc = subprocess.Popen(
        [sys.executable, "-m", "namechain", "serve", "--role", "userdb", "--config", path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_port(addresses["userdb"])
        alice = cfg.users["alice"]
        assert wire.get_user(addresses["userdb"], alice.user_id) == (
            alice.email,
            alice.fileprefix,
        )
    finally:
        wire.close_idle_connections()
        proc.send_signal(signal.SIGINT)
        try:
            assert proc.wait(timeout=10) == 0
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            proc.wait(timeout=10)
            raise


def test_serve_on_port_0_prints_the_address_it_serves_at(tmp_path):
    from namechain import wire
    from namechain.config import demo_deployment
    from namechain.resolver import system_clock

    # nothing listens at the configured addresses; the calendar resolves
    # its own periods only if it advertises the port it bound
    addresses = dict.fromkeys(("userdb", "location", "calendar"), "127.0.0.1:1")
    path = _write_cfg(tmp_path, demo_deployment(addresses, system_clock()))
    proc = subprocess.Popen(
        [sys.executable, "-m", "namechain", "serve", "--role", "calendar", "--config", path,
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        assert select.select([proc.stdout], [], [], 10)[0], "no address printed"
        prefix = "serving calendar at "
        line = proc.stdout.readline()
        assert line.startswith(prefix)
        address = line[len(prefix):].strip()
        assert not address.endswith(":0")
        name = parse_name("(today meeting)")
        resolution = wire.resolve_remote(address, kit.CALENDAR_RESOURCE_ID, name, 5)
        assert resolution.description.type_id == kit.EVENT_TYPE
    finally:
        wire.close_idle_connections()
        proc.send_signal(signal.SIGINT)
        try:
            assert proc.wait(timeout=10) == 0
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            proc.wait(timeout=10)
            raise
        finally:
            proc.stdout.close()


def test_serve_rejects_unknown_role(tmp_path, deployment):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--role", "dns", "--config", "whatever"])
    assert excinfo.value.code == 2
