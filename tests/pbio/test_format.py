"""Unit tests for IOFormat registration and wire metadata."""

import pytest

from repro.arch import SPARC_32, X86_32, X86_64
from repro.errors import DecodeError, FormatRegistrationError
from repro.pbio import IOContext, IOField, IOFormat
from repro.pbio.format import arch_from_tag

from tests.pbio.conftest import make_asdoff_fields


def simple_fields():
    return [
        IOField("x", "integer", 4, 0),
        IOField("y", "double", 8, 8),
    ]


class TestRegistration:
    def test_register_and_lookup(self):
        ctx = IOContext(X86_64)
        fmt = ctx.register_format("point", simple_fields())
        assert ctx.lookup_format("point") is fmt
        assert fmt.record_length == 16
        assert fmt.field_names() == ["x", "y"]

    def test_explicit_record_length_respected(self):
        ctx = IOContext(X86_64)
        fmt = ctx.register_format("padded", simple_fields(), record_length=24)
        assert fmt.record_length == 24

    def test_duplicate_name_rejected(self):
        ctx = IOContext(X86_64)
        ctx.register_format("point", simple_fields())
        with pytest.raises(FormatRegistrationError, match="already registered"):
            ctx.register_format("point", simple_fields())

    def test_duplicate_field_rejected(self):
        with pytest.raises(FormatRegistrationError, match="duplicate field"):
            IOFormat("bad", [IOField("x", "integer", 4, 0), IOField("x", "integer", 4, 4)], X86_64)

    def test_empty_fields_rejected(self):
        with pytest.raises(FormatRegistrationError, match="no fields"):
            IOFormat("bad", [], X86_64)

    def test_field_beyond_record_length_rejected(self):
        with pytest.raises(FormatRegistrationError, match="beyond the record length"):
            IOFormat("bad", simple_fields(), X86_64, record_length=12)

    def test_unregistered_nested_reference_rejected(self):
        with pytest.raises(FormatRegistrationError, match="unregistered format"):
            IOFormat("bad", [IOField("in_", "Missing", 8, 0)], X86_64)

    def test_nested_reference_resolves_through_context(self):
        ctx = IOContext(X86_64)
        inner = ctx.register_format("inner", simple_fields())
        outer = ctx.register_format(
            "outer",
            [IOField("a", "inner", inner.record_length, 0),
             IOField("b", "integer", 4, inner.record_length)],
        )
        assert outer.field("a").nested is inner

    def test_nested_format_wrong_arch_rejected(self):
        inner = IOFormat("inner", simple_fields(), X86_32)
        with pytest.raises(FormatRegistrationError, match="registered for"):
            IOFormat(
                "outer",
                [IOField("a", "inner", inner.record_length, 0)],
                X86_64,
                catalog={"inner": inner},
            )

    def test_dynamic_length_field_must_exist(self):
        with pytest.raises(FormatRegistrationError, match="not a field"):
            IOFormat("bad", [IOField("data", "integer[n]", 4, 0)], X86_64)

    def test_dynamic_length_field_must_be_integer(self):
        fields = [
            IOField("n", "double", 8, 0),
            IOField("data", "integer[n]", 4, 8),
        ]
        with pytest.raises(FormatRegistrationError, match="must be an integer"):
            IOFormat("bad", fields, X86_64)

    def test_dynamic_array_of_strings_rejected(self):
        fields = [
            IOField("n", "integer", 4, 0),
            IOField("names", "string[n]", 8, 8),
        ]
        with pytest.raises(FormatRegistrationError, match="not supported"):
            IOFormat("bad", fields, X86_64)

    def test_string_field_must_be_pointer_sized(self):
        with pytest.raises(FormatRegistrationError, match="pointer size"):
            IOFormat("bad", [IOField("s", "string", 4, 0)], X86_64)

    def test_bad_field_values_rejected_eagerly(self):
        with pytest.raises(FormatRegistrationError):
            IOField("", "integer", 4, 0)
        with pytest.raises(FormatRegistrationError):
            IOField("x", "integer", 0, 0)
        with pytest.raises(FormatRegistrationError):
            IOField("x", "integer", 4, -4)


class TestFormatIds:
    def test_id_is_eight_bytes(self):
        fmt = IOFormat("point", simple_fields(), X86_64)
        assert len(fmt.format_id) == 8

    def test_identical_formats_share_id(self):
        a = IOFormat("point", simple_fields(), X86_64)
        b = IOFormat("point", simple_fields(), X86_64)
        assert a.format_id == b.format_id
        assert a == b

    def test_different_arch_changes_id(self):
        a = IOFormat("point", simple_fields(), X86_64)
        b = IOFormat("point", simple_fields(), SPARC_64_OR_X86())
        assert a.format_id != b.format_id

    def test_different_fields_change_id(self):
        a = IOFormat("point", simple_fields(), X86_64)
        b = IOFormat(
            "point",
            [IOField("x", "integer", 4, 0), IOField("y", "float", 4, 4)],
            X86_64,
        )
        assert a.format_id != b.format_id


def SPARC_64_OR_X86():
    from repro.arch import SPARC_64

    return SPARC_64


class TestWireMetadata:
    def test_roundtrip_simple(self):
        fmt = IOFormat("point", simple_fields(), X86_64)
        again = IOFormat.from_wire_metadata(fmt.to_wire_metadata())
        assert again.format_id == fmt.format_id
        assert again.name == "point"
        assert again.record_length == fmt.record_length
        assert again.arch == X86_64

    def test_roundtrip_paper_structure(self):
        fields, size = make_asdoff_fields(SPARC_32)
        fmt = IOFormat("asdOff", fields, SPARC_32, record_length=size)
        again = IOFormat.from_wire_metadata(fmt.to_wire_metadata())
        assert again.format_id == fmt.format_id
        assert again.field("eta").type.length_field == "eta_count"

    def test_roundtrip_nested(self):
        ctx = IOContext(SPARC_32)
        inner = ctx.register_format(
            "inner", [IOField("v", "integer", 4, 0)]
        )
        outer = ctx.register_format(
            "outer",
            [
                IOField("a", "inner", inner.record_length, 0),
                IOField("b", "inner", inner.record_length, inner.record_length),
            ],
        )
        again = IOFormat.from_wire_metadata(outer.to_wire_metadata())
        assert again.format_id == outer.format_id
        assert again.field("a").nested.name == "inner"

    def test_bad_magic_rejected(self):
        with pytest.raises(DecodeError, match="magic"):
            IOFormat.from_wire_metadata(b"XXXX\x00\x00")

    def test_truncated_metadata_rejected(self):
        fmt = IOFormat("point", simple_fields(), X86_64)
        blob = fmt.to_wire_metadata()
        with pytest.raises(DecodeError):
            IOFormat.from_wire_metadata(blob[: len(blob) // 2])

    def test_empty_metadata_rejected(self):
        with pytest.raises(DecodeError, match="no formats"):
            IOFormat.from_wire_metadata(b"PBF1\x00\x00")


class TestArchFromTag:
    def test_known_arch_resolves_to_registry_model(self):
        assert arch_from_tag(X86_64.tag()) is X86_64

    def test_unknown_arch_reconstructed_from_tag(self):
        model = arch_from_tag("vax_custom:le:p4:i2448")
        assert model.byte_order == "little"
        assert model.pointer_size == 4
        assert model.sizeof("long") == 4
        assert model.sizeof("long long") == 8

    def test_malformed_tags_rejected(self):
        for tag in ("nope", "a:b:c:d", "x:le:p4:izzz9", "x:middle:p4:i2448"):
            with pytest.raises(DecodeError):
                arch_from_tag(tag)


class TestNestedEnumeration:
    def test_nested_formats_listed_dependencies_first(self):
        ctx = IOContext(X86_64)
        a = ctx.register_format("a", simple_fields())
        b = ctx.register_format(
            "b", [IOField("in_", "a", a.record_length, 0)]
        )
        c = ctx.register_format(
            "c",
            [
                IOField("x", "b", b.record_length, 0),
                IOField("y", "a", a.record_length, b.record_length),
            ],
        )
        names = [fmt.name for fmt in c.nested_formats()]
        assert names.index("a") < names.index("b")
        assert set(names) == {"a", "b"}


class TestNameGrammar:
    """Names end up inside generated source: ``[A-Za-z_][A-Za-z0-9_]*`` only,
    enforced where a format is built — before anything is compiled."""

    @pytest.fixture(autouse=True)
    def no_compile(self, monkeypatch):
        def compiled(*args, **kwargs):
            raise AssertionError("a rejected name must never reach compile")

        monkeypatch.setattr("repro.pbio.codegen._compile", compiled)

    @pytest.mark.parametrize(
        "name", ["x; import os", 'x"y', "x'y", "1st", "a.b", "a b", "é", "x\n", ""]
    )
    def test_field_name_rejected(self, name):
        with pytest.raises(FormatRegistrationError):
            IOFormat("t", [IOField(name, "integer", 4, 0)], X86_64)

    @pytest.mark.parametrize(
        "name", ['x" + str(__import__("os").getpid()) + "', "x; import os", "a-b", ""]
    )
    def test_format_name_rejected(self, name):
        with pytest.raises(FormatRegistrationError):
            IOContext(X86_64).register_format(name, [IOField("v", "integer", 4, 0)])

    def test_length_field_name_rejected(self):
        with pytest.raises(FormatRegistrationError):
            IOFormat(
                "t",
                [IOField("n", "integer", 4, 0), IOField("d", "double[n; x]", 8, 8)],
                X86_64,
            )

    @pytest.mark.parametrize("forged", [b'x"+yy+"z', b"x;import"])
    def test_forged_metadata_block_rejected(self, forged):
        honest = IOFormat("abcdefgh", [IOField("ijklmnop", "integer", 4, 0)], X86_64)
        for victim in (b"abcdefgh", b"ijklmnop"):
            metadata = honest.to_wire_metadata().replace(victim, forged)
            with pytest.raises(FormatRegistrationError, match="not a valid name"):
                IOFormat.from_wire_metadata(metadata)
            with pytest.raises(FormatRegistrationError):
                IOContext(X86_64).learn_format(metadata)
