"""Unit tests for the dynamic converter generator."""

import struct

import pytest

from repro.arch import SPARC_32, X86_64
from repro.pbio import IOContext, IOField
from repro.pbio.codegen import generate_converter_source, make_converter
from repro.pbio.encode import encode_record, get_encode_plan
from repro.pbio.reference import make_interpreted_converter

from tests.golden import vectors
from tests.pbio.conftest import ASDOFF_RECORD, register_asdoff


class TestGeneratedSource:
    def test_source_is_a_single_function(self):
        ctx = IOContext(SPARC_32)
        fmt = register_asdoff(ctx)
        source = generate_converter_source(fmt)
        assert source.startswith("def convert(")
        assert source.count("def ") == 1

    def test_source_contains_single_fixed_unpack(self):
        """The defining property of the generated routine: exactly one
        unpack call covers the whole fixed region (plus one per dynamic
        array, whose count is run-time data)."""
        ctx = IOContext(SPARC_32)
        fmt = register_asdoff(ctx)
        source = generate_converter_source(fmt)
        # one fixed unpack + one for the single dynamic array
        assert source.count("unpack_from(") == 2

    def test_offsets_are_baked_in_as_literals(self):
        ctx = IOContext(SPARC_32)
        fmt = ctx.register_format(
            "t", [IOField("a", "integer", 4, 0), IOField("b", "double", 8, 8)]
        )
        source = generate_converter_source(fmt)
        assert "'>i4xd'" in source

    def test_byte_order_matches_wire_architecture(self):
        little = IOContext(X86_64).register_format("t", [IOField("a", "integer", 4, 0)])
        big = IOContext(SPARC_32).register_format("t", [IOField("a", "integer", 4, 0)])
        assert "'<" in generate_converter_source(little)
        assert "'>" in generate_converter_source(big)

    def test_no_target_is_target_equals_wire(self, any_arch):
        """One generator: a record in its own wire shape is target=wire."""
        fmt = register_asdoff(IOContext(any_arch))
        assert generate_converter_source(fmt) == generate_converter_source(fmt, fmt)

    @pytest.mark.parametrize("name", vectors.VECTOR_NAMES)
    def test_golden_formats_unpack_the_fixed_region_once(self, name):
        """Exactly one ``unpack_from`` covers the fixed region of each
        golden-vector format; the rest are one per dynamic array."""
        _, fmt, _ = vectors.build(name)
        plan = get_encode_plan(fmt)
        source = generate_converter_source(fmt)
        fixed = f"unpack_from({plan.fixed_struct.format!r}, payload, 0)"
        assert source.count(fixed) == 1
        arrays = sum(item.kind == "array" for item in plan.var_items)
        assert source.count("unpack_from(") == 1 + arrays

    def test_custom_function_name(self):
        ctx = IOContext(SPARC_32)
        fmt = ctx.register_format("t", [IOField("a", "integer", 4, 0)])
        assert generate_converter_source(fmt, function_name="my_conv").startswith("def my_conv(")


class TestGeneratedVsInterpreted:
    """The two converter implementations must agree bit-for-bit."""

    def test_paper_structure_agreement(self, any_arch):
        ctx = IOContext(any_arch)
        fmt = register_asdoff(ctx)
        payload = encode_record(fmt, ASDOFF_RECORD)
        generated = make_converter(fmt)
        interpreted = make_interpreted_converter(fmt)
        assert generated(payload) == interpreted(payload) == ASDOFF_RECORD

    def test_nested_with_arrays_agreement(self):
        ctx = IOContext(SPARC_32)
        inner = ctx.register_format(
            "inner",
            [
                IOField("tag", "char[4]", 1, 0),
                IOField("n", "integer", 4, 4),
                IOField("vals", "float[n]", 4, 8),
            ],
            record_length=12,
        )
        outer = ctx.register_format(
            "outer",
            [
                IOField("pair", "inner[2]", inner.record_length, 0),
                IOField("flag", "boolean", 1, 24),
            ],
            record_length=28,
        )
        record = {
            "pair": [
                {"tag": "one", "n": 2, "vals": [1.0, 2.0]},
                {"tag": "two", "n": 0, "vals": []},
            ],
            "flag": True,
        }
        payload = encode_record(outer, record)
        assert make_converter(outer)(payload) == record
        assert make_interpreted_converter(outer)(payload) == record

    def test_multiple_dynamic_arrays(self):
        ctx = IOContext(X86_64)
        fmt = ctx.register_format(
            "t",
            [
                IOField("na", "integer", 4, 0),
                IOField("nb", "integer", 4, 4),
                IOField("a", "double[na]", 8, 8),
                IOField("b", "integer[nb]", 4, 16),
            ],
            record_length=24,
        )
        record = {"na": 2, "nb": 3, "a": [1.0, 2.0], "b": [7, 8, 9]}
        payload = encode_record(fmt, record)
        assert make_converter(fmt)(payload) == record
        assert make_interpreted_converter(fmt)(payload) == record


class TestGeneratedConverterBehaviour:
    def test_converter_is_pure_and_reusable(self):
        ctx = IOContext(SPARC_32)
        fmt = register_asdoff(ctx)
        convert = make_converter(fmt)
        payload = encode_record(fmt, ASDOFF_RECORD)
        assert convert(payload) == convert(payload) == ASDOFF_RECORD

    def test_converter_actually_byte_swaps(self):
        """A big-endian wire format decoded on this (little-endian) host
        must produce the logical value, not the raw bytes."""
        ctx = IOContext(SPARC_32)
        fmt = ctx.register_format("t", [IOField("v", "integer", 4, 0)])
        payload = struct.pack(">i", 0x01020304)
        assert make_converter(fmt)(payload) == {"v": 0x01020304}

    def test_corrupt_string_offset_raises_cleanly(self, x86_context):
        fmt = x86_context.register_format(
            "t", [IOField("s", "string", 8, 0)], record_length=8
        )
        message = bytearray(x86_context.encode(fmt, {"s": "hello"}))
        # Point the string offset past the end of the payload.
        message[16:24] = struct.pack("<Q", 10_000)
        from repro.errors import DecodeError

        with pytest.raises(DecodeError, match="corrupt"):
            x86_context.decode(bytes(message))
