from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from namechain import kit, wire
from namechain.resolver import MalformedSpecError
from namechain.resources import (
    DuplicateTypeError,
    ResourceDescription,
    TYPE_ID_LENGTH,
    TypeRegistry,
    derive_type_id,
)

# Known-answer SHA-256 digests, frozen independently of the implementation.
EMPTY_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_DIGEST = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

FROZEN_TYPE_IDS = {
    "namechain.type.string.v1": "d9b31afa0b2b69f8eaf3f4de8ca9de9f58ddac8a1b319851d8e5d5e636b5dd43",
    "namechain.type.file.v1": "67d0f97f6030d523ba9601a27228f7bcffaaaa0e5e49980267981b92d1948ec5",
    "namechain.type.file-collection.v1": "9cfd59d87963a79c2d461b3923fcff0334d8d7acdaed4c70bf5397bb4b85cd5d",
    "namechain.type.location.v1": "1458c5de4c53bc54234b9e7080ea3d491ebf3ce2fbd079c45e5a5ee9b948d080",
    "namechain.type.calendar.v1": "f161d02761870d080a2993e274c4acf83451231865b89c53435f24673274a358",
    "namechain.type.time-period.v1": "c578d5c0f81edeaf9babcf7b37e6e99fa02e0536a0e45d8b44eda3f4c5765578",
    "namechain.type.event.v1": "c243ad31cf591535753e66aa582f6080dbcd2283d07cf5d8d7947487af0b81bd",
    "namechain.type.user.v1": "1dc414f61a5efe2a9616f7ac57d7c08dc0a30059d5b96254f78855807fefdedc",
    "namechain.type.remote.v1": "10e3ef6e20b9243a35b1842fbbacd80aec52d4563f34dc23948e31703b7265c5",
}


def test_derive_type_id_known_answers():
    assert derive_type_id(b"").hex() == EMPTY_DIGEST
    assert derive_type_id(b"abc").hex() == ABC_DIGEST
    assert derive_type_id("abc") == derive_type_id(b"abc")


def test_type_descriptors_digest_as_frozen():
    for descriptor, digest in FROZEN_TYPE_IDS.items():
        assert derive_type_id(descriptor).hex() == digest


def test_kit_registers_ten_distinct_types():
    # register refuses a duplicate id, so ten ids are ten distinct types
    ids = kit.build_registry().type_ids()
    assert len(ids) == 10
    assert wire.REMOTE_TYPE in ids and kit.FILE_SET_TYPE in ids
    assert {derive_type_id(d) for d in FROZEN_TYPE_IDS} <= ids


def test_derive_type_id_is_deterministic_and_fixed_length():
    assert derive_type_id("x") == derive_type_id("x")
    assert len(derive_type_id("anything")) == TYPE_ID_LENGTH


def test_description_requires_exact_id_length():
    with pytest.raises(ValueError):
        ResourceDescription(b"\x01" * 31, b"")
    with pytest.raises(ValueError):
        ResourceDescription(b"\x01" * 33, b"")


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=80))
def test_description_binary_encoding_round_trip(type_id, spec):
    description = ResourceDescription(type_id, spec)
    assert description.to_bytes() == type_id + spec


class _Marker:
    def __init__(self, tag):
        self.tag = tag

    def resolve_local(self, local):
        raise AssertionError("not used")


def test_register_then_instantiate_uses_the_factory():
    registry = TypeRegistry()
    tid = derive_type_id("reg-test-a")
    registry.register(tid, lambda spec: spec, _Marker)
    resolver = registry.instantiate(ResourceDescription(tid, b"hello"))
    assert isinstance(resolver, _Marker) and resolver.tag == b"hello"


def test_duplicate_registration_rejected():
    registry = TypeRegistry()
    tid = derive_type_id("reg-test-b")
    registry.register(tid, lambda spec: spec, _Marker)
    with pytest.raises(DuplicateTypeError):
        registry.register(tid, lambda spec: spec, _Marker)


def test_fresh_registry_misses():
    registry = TypeRegistry()
    tid = derive_type_id("reg-test-c")
    assert not registry.knows(tid)
    assert registry.instantiate(ResourceDescription(tid, b"")) is None
    assert registry.is_usable(tid) is False


def test_usability_flag_is_per_type():
    registry = kit.build_registry()
    assert registry.is_usable(kit.STRING_TYPE)
    assert registry.is_usable(kit.FILE_TYPE)
    for tid in (
        kit.FILE_COLLECTION_TYPE,
        kit.LOCATION_TYPE,
        kit.CALENDAR_TYPE,
        kit.TIME_PERIOD_TYPE,
        kit.EVENT_TYPE,
        kit.USER_TYPE,
        wire.REMOTE_TYPE,
    ):
        assert not registry.is_usable(tid)


def test_instantiate_file_collection_maps_by_prefix():
    registry = kit.build_registry()
    resolver = registry.instantiate(kit.file_collection_description("http://h/u/"))
    from namechain.names import LocalName

    description, _ = resolver.resolve_local(LocalName("naming.ppt"))
    assert description == kit.file_description("http://h/u/naming.ppt")


def test_instantiate_rejects_malformed_location_spec():
    registry = kit.build_registry()
    short = ResourceDescription(kit.LOCATION_TYPE, b"127.0.0.1:9 abcd")
    with pytest.raises(MalformedSpecError):
        registry.instantiate(short)


def test_restrict_and_without():
    registry = kit.build_registry()
    only = registry.restrict(kit.STRING_TYPE, kit.FILE_TYPE)
    assert only.type_ids() == {kit.STRING_TYPE, kit.FILE_TYPE}
    dropped = registry.without(kit.USER_TYPE)
    assert kit.USER_TYPE not in dropped.type_ids()
    assert kit.STRING_TYPE in dropped.type_ids()
    # the original is untouched
    assert kit.USER_TYPE in registry.type_ids()


def test_pretty_for_unknown_type_is_none():
    registry = kit.build_registry()
    unknown = ResourceDescription(derive_type_id("reg-test-d"), b"")
    assert registry.pretty(unknown) is None
    assert registry.label_for(unknown.type_id) is None


def test_pretty_for_known_types():
    registry = kit.build_registry()
    assert registry.pretty(kit.string_description("hi")) == 'string "hi"'
    assert "http://h/u/" in registry.pretty(kit.file_collection_description("http://h/u/"))


def test_pretty_decodes_through_the_factorys_decoder():
    # Each kit type renders exactly the specs its factory accepts; every
    # other spec renders as undecodable.
    registry = kit.build_registry()
    event = kit.EventFields(("t",), bytes(16), kit.string_description("x"), (), 1, 2)
    specs = [
        d.spec
        for d in (
            kit.string_description("hi"),
            kit.file_description("http://h/a"),
            kit.file_set_description((("a", "http://h/a"),)),
            kit.location_description("h:1", bytes(16)),
            kit.calendar_description("h:1"),
            kit.time_period_description("h:1", 0, 5),
            kit.event_description(event),
        )
    ] + [b"", b"\xff", b"http://h/ a", b"h:1 ", b"a=http://h/ a\n"]
    for type_id in registry.type_ids():
        label = registry.label_for(type_id)
        for spec in specs:
            description = ResourceDescription(type_id, spec)
            try:
                registry.instantiate(description)
            except MalformedSpecError:
                assert registry.pretty(description) == f"{label} (undecodable specification)"
            else:
                assert "undecodable" not in registry.pretty(description)
    raw_file = ResourceDescription(kit.FILE_TYPE, b"http://h/ a")
    assert registry.pretty(raw_file) == "file (undecodable specification)"


def test_pretty_wording_of_the_addr_id_types():
    registry = kit.build_registry()
    entity_id = bytes(range(16))
    assert registry.pretty(kit.location_description("h:1", entity_id)) == (
        f"location {entity_id.hex()} managed at h:1"
    )
    assert registry.pretty(kit.user_description("h:1", entity_id)) == (
        f"user {entity_id.hex()} in database at h:1"
    )
    assert registry.pretty(wire.remote_description("h:1", entity_id)) == (
        f"remote resource {entity_id.hex()} at h:1"
    )


def test_readme_python_blocks_run_as_written(capsys):
    # Every python block of the README, in order, in one namespace: a block
    # may use what an earlier one defined.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```\n", 1)[0] for part in readme.split("```python\n")[1:]]
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["resolution"].description == kit.file_description("http://host/docs/naming.ppt")
    registry, printer = namespace["registry"], namespace["printer"]
    assert namespace["administrator"].description == kit.string_description("ops@example.org")
    assert registry.label_for(printer.type_id) == "printer"
    undecodable = ResourceDescription(printer.type_id, b"\xff")
    assert registry.pretty(undecodable) == "printer (undecodable specification)"
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "b'http://host/docs/naming.ppt'"
    assert printed[2:] == ["printer administered by ops@example.org", "b'ops@example.org'"]


def test_pretty_renders_only_a_refused_spec_as_undecodable():
    """A spec its decoder refuses prints as undecodable, whether the decoder
    raises MalformedSpecError (the kit's) or ValueError; whatever a
    rendering raises is a bug, and pretty raises it."""
    registry = kit.build_registry()
    printer = derive_type_id("namechain.test.printer")
    registry.register(
        printer,
        lambda spec: spec.decode("utf-8"),
        lambda email: None,
        label="printer",
        render=lambda email: email + 1,
    )
    refused = ResourceDescription(kit.EVENT_TYPE, b"\xff")
    assert registry.pretty(refused) == "event (undecodable specification)"
    assert registry.pretty(ResourceDescription(printer, b"\xff")) == "printer (undecodable specification)"
    with pytest.raises(TypeError):
        registry.pretty(ResourceDescription(printer, b"ops@example.org"))
