"""Unit tests for the generated (sender-side DCG) encoder."""

import pytest

from repro.arch import SPARC_32, X86_64
from repro.errors import EncodeError
from repro.pbio import IOContext, IOField
from repro.pbio.codegen import generate_encoder_source, make_generated_encoder
from repro.pbio.encode import encode_record, get_encode_plan

from tests.pbio.conftest import ASDOFF_RECORD, register_asdoff


class TestByteParity:
    def test_identical_to_plan_on_paper_structure(self, any_arch):
        ctx = IOContext(any_arch)
        fmt = register_asdoff(ctx)
        generated = encode_record(fmt, ASDOFF_RECORD)
        interpreted = get_encode_plan(fmt).encode(ASDOFF_RECORD)
        assert generated == interpreted

    def test_identical_with_nulls_and_empties(self, sparc_context):
        fmt = sparc_context.register_format(
            "t",
            [
                IOField("s", "string", 4, 0),
                IOField("n", "integer", 4, 4),
                IOField("d", "double[n]", 8, 8),
            ],
            record_length=16,
        )
        for record in (
            {"s": None, "d": []},
            {"s": "", "d": [1.0]},
            {"s": "x", "d": None},
        ):
            assert encode_record(fmt, record) == get_encode_plan(fmt).encode(dict(record))

    def test_identical_on_nested_with_char_buffers(self, sparc_context):
        inner = sparc_context.register_format(
            "inner",
            [IOField("tag", "char[4]", 1, 0), IOField("c", "char", 1, 4),
             IOField("b", "boolean", 1, 5)],
            record_length=8,
        )
        fmt = sparc_context.register_format(
            "outer", [IOField("pair", "inner[2]", 8, 0)], record_length=16
        )
        record = {"pair": [{"tag": "ab", "c": "x", "b": True},
                           {"tag": "cdef", "c": "y", "b": False}]}
        assert encode_record(fmt, record) == get_encode_plan(fmt).encode(record)


class TestGeneratedSource:
    def test_single_pack_for_fixed_region(self, sparc_context):
        fmt = register_asdoff(sparc_context)
        source = generate_encoder_source(fmt)
        assert source.count("return pack(") == 1

    def test_offsets_absent_because_order_is_baked(self, sparc_context):
        """The encoder never mentions offsets: the pack format string of
        the plan already encodes them as pads."""
        fmt = register_asdoff(sparc_context)
        source = generate_encoder_source(fmt)
        assert "offset" not in source


class TestErrorParity:
    """The generated path must raise the same errors as the plan."""

    @pytest.fixture
    def fmt(self, x86_context):
        return x86_context.register_format(
            "t",
            [
                IOField("n", "integer", 4, 0),
                IOField("name", "string", 8, 8),
                IOField("data", "double[n]", 8, 16),
                IOField("trio", "integer[3]", 4, 24),
            ],
            record_length=40,
        )

    def test_missing_field(self, fmt):
        with pytest.raises(EncodeError, match="missing field"):
            encode_record(fmt, {"name": "x", "data": []})

    def test_string_type_mismatch(self, fmt):
        with pytest.raises(EncodeError, match="expects a string"):
            encode_record(fmt, {"name": 5, "data": [], "trio": [1, 2, 3]})

    def test_count_mismatch(self, fmt):
        with pytest.raises(EncodeError, match="count field"):
            encode_record(
                fmt, {"name": "x", "data": [1.0], "n": 3, "trio": [1, 2, 3]}
            )

    def test_static_array_length(self, fmt):
        with pytest.raises(EncodeError, match="exactly 3"):
            encode_record(fmt, {"name": "x", "data": [], "trio": [1]})

    def test_out_of_range_scalar(self, x86_context):
        fmt = x86_context.register_format("s", [IOField("v", "integer", 2, 0)])
        with pytest.raises(EncodeError):
            encode_record(fmt, {"v": 2**40})

    def test_unknown_mode_rejected(self, fmt):
        """Encoding has one implementation; no ``mode`` selects another."""
        with pytest.raises(TypeError):
            encode_record(fmt, {}, mode="quantum")


class TestFallbackCorrectness:
    def test_enum_members_encode_identically(self, x86_context):
        import enum

        class Color(enum.IntEnum):
            RED = 3

        fmt = x86_context.register_format(
            "t", [IOField("e", "enumeration", 4, 0)]
        )
        generated = encode_record(fmt, {"e": Color.RED})
        interpreted = get_encode_plan(fmt).encode({"e": Color.RED})
        assert generated == interpreted
        assert x86_context.decode(
            x86_context.encode(fmt, {"e": Color.RED})
        ).values == {"e": 3}

    def test_char_given_as_int_falls_back_identically(self, x86_context):
        """Int-valued chars miss the generated fast path's str handling;
        the fallback must produce the same bytes the plan does."""
        fmt = x86_context.register_format("t", [IOField("c", "char", 1, 0)])
        generated = encode_record(fmt, {"c": 65})
        interpreted = get_encode_plan(fmt).encode({"c": 65})
        assert generated == interpreted == b"A"
