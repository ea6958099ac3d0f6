"""Unit tests for format evolution (field addition/removal tolerance)."""

from repro.arch import SPARC_32, X86_64
from repro.pbio import IOContext, IOField
from repro.pbio.evolution import (
    Compatibility,
    compare_formats,
    default_record,
    formats_compatible,
)
from repro.pbio.codegen import make_converter
from repro.pbio.encode import encode_record
from repro.pbio.reference import reference_decode


def v1_fields(arch):
    return [
        IOField("flight", "string", arch.pointer_size, 0),
        IOField("alt", "integer", 4, arch.pointer_size),
    ]


def v2_fields(arch):
    """v1 plus a speed field — the paper's restricted evolution case."""
    return v1_fields(arch) + [
        IOField("speed", "double", 8, arch.pointer_size + 8),
    ]


class TestSenderAhead:
    """New sender (v2) talking to an old receiver (v1): extra field dropped."""

    def test_extra_wire_field_dropped(self):
        sender = IOContext(SPARC_32)
        v2 = sender.register_format("track", v2_fields(SPARC_32), record_length=24)
        message = sender.encode(v2, {"flight": "DL1", "alt": 31000, "speed": 450.0})

        receiver = IOContext(X86_64)
        receiver.register_format("track", v1_fields(X86_64))
        receiver.learn_format(v2.to_wire_metadata())
        decoded = receiver.decode(message, expect="track")
        assert decoded.values == {"flight": "DL1", "alt": 31000}


class TestReceiverAhead:
    """Old sender (v1) talking to a new receiver (v2): new field defaulted."""

    def test_missing_wire_field_defaulted(self):
        sender = IOContext(SPARC_32)
        v1 = sender.register_format("track", v1_fields(SPARC_32))
        message = sender.encode(v1, {"flight": "DL2", "alt": 28000})

        receiver = IOContext(X86_64)
        receiver.register_format("track", v2_fields(X86_64), record_length=24)
        receiver.learn_format(v1.to_wire_metadata())
        decoded = receiver.decode(message, expect="track")
        assert decoded.values == {"flight": "DL2", "alt": 28000, "speed": 0.0}


class TestDefaults:
    def test_default_record_shapes(self):
        ctx = IOContext(X86_64)
        inner = ctx.register_format(
            "inner", [IOField("v", "integer", 4, 0)]
        )
        fmt = ctx.register_format(
            "t",
            [
                IOField("i", "integer", 4, 0),
                IOField("f", "double", 8, 8),
                IOField("s", "string", 8, 16),
                IOField("b", "boolean", 1, 24),
                IOField("c", "char", 1, 25),
                IOField("tag", "char[4]", 1, 26),
                IOField("arr", "integer[3]", 4, 32),
                IOField("n", "integer", 4, 44),
                IOField("dyn", "double[n]", 8, 48),
                IOField("in_", "inner", 4, 56),
                IOField("ins", "inner[2]", 4, 60),
            ],
            record_length=72,
        )
        defaults = default_record(fmt)
        assert defaults == {
            "i": 0,
            "f": 0.0,
            "s": None,
            "b": False,
            "c": "\x00",
            "tag": "",
            "arr": [0, 0, 0],
            "n": 0,
            "dyn": [],
            "in_": {"v": 0},
            "ins": [{"v": 0}, {"v": 0}],
        }

    def test_defaults_are_not_aliased(self):
        ctx = IOContext(X86_64)
        old = ctx.register_format("old", [IOField("x", "integer", 4, 0)])
        new_ctx = IOContext(X86_64)
        new = new_ctx.register_format(
            "new",
            [IOField("x", "integer", 4, 0), IOField("extra", "integer[2]", 4, 4)],
        )
        convert = make_converter(old, new)
        first = convert(encode_record(old, {"x": 1}))
        second = convert(encode_record(old, {"x": 2}))
        first["extra"].append(99)
        assert second["extra"] == [0, 0]


class TestNestedEvolution:
    def test_nested_formats_project_recursively(self):
        sender = IOContext(SPARC_32)
        inner_v1 = sender.register_format("pt", [IOField("x", "double", 8, 0)])
        outer_v1 = sender.register_format(
            "seg", [IOField("a", "pt", 8, 0)], record_length=8
        )
        message = sender.encode(outer_v1, {"a": {"x": 5.0}})

        receiver = IOContext(X86_64)
        receiver.register_format(
            "pt", [IOField("x", "double", 8, 0), IOField("y", "double", 8, 8)]
        )
        receiver.register_format(
            "seg", [IOField("a", "pt", 16, 0)], record_length=16
        )
        receiver.learn_format(outer_v1.to_wire_metadata())
        decoded = receiver.decode(message, expect="seg")
        assert decoded.values == {"a": {"x": 5.0, "y": 0.0}}

    def test_shape_conflict_falls_back_to_default(self):
        """A field that is nested on one side and scalar on the other is
        treated as unknown (dropped + defaulted), never misinterpreted."""
        sender = IOContext(SPARC_32)
        wire = sender.register_format("t", [IOField("v", "integer", 4, 0)])

        receiver = IOContext(X86_64)
        inner = receiver.register_format("inner", [IOField("z", "integer", 4, 0)])
        target = receiver.register_format("t", [IOField("v", "inner", 4, 0)])
        payload = encode_record(wire, {"v": 7})
        assert make_converter(wire, target)(payload) == {"v": {"z": 0}}
        assert reference_decode(wire, payload, target) == {"v": {"z": 0}}


class TestCompatibilityPredicate:
    def test_same_names_compatible(self):
        a = IOContext(SPARC_32).register_format("t", v1_fields(SPARC_32))
        b = IOContext(X86_64).register_format("t", v1_fields(X86_64))
        assert formats_compatible(a, b)

    def test_differing_names_flagged(self):
        a = IOContext(SPARC_32).register_format("t", v1_fields(SPARC_32))
        b = IOContext(X86_64).register_format("t", v2_fields(X86_64), record_length=24)
        assert not formats_compatible(a, b)

    def test_identical_metadata_is_identity(self):
        a = IOContext(X86_64).register_format("t", v1_fields(X86_64))
        b = IOContext(X86_64).register_format("t", v1_fields(X86_64))
        relation = compare_formats(a, b)
        assert relation is Compatibility.IDENTITY
        assert relation.compatible and not relation.projection_needed

    def test_same_fields_other_arch_is_equivalent(self):
        """Decode is needed (layouts differ) but projection is not."""
        a = IOContext(SPARC_32).register_format("t", v1_fields(SPARC_32))
        b = IOContext(X86_64).register_format("t", v1_fields(X86_64))
        assert compare_formats(a, b) is Compatibility.EQUIVALENT

    def test_reordered_fields_are_not_identity(self):
        """Alias-aware: same *set* of fields in another order projects.

        The old set-equality predicate reported these as interchangeable."""
        a = IOContext(X86_64).register_format(
            "t", [IOField("x", "integer", 4, 0), IOField("y", "double", 8, 8)]
        )
        b = IOContext(X86_64).register_format(
            "t", [IOField("y", "double", 8, 0), IOField("x", "integer", 4, 8)]
        )
        assert compare_formats(a, b) is Compatibility.PROJECTION
        assert not formats_compatible(a, b)

    def test_retyped_field_is_projection(self):
        a = IOContext(X86_64).register_format("t", [IOField("x", "integer", 4, 0)])
        b = IOContext(X86_64).register_format("t", [IOField("x", "double", 8, 0)])
        assert compare_formats(a, b) is Compatibility.PROJECTION

    def test_enum_values_are_wire_strings(self):
        """The lineage endpoint serializes ``relation`` as these strings."""
        assert Compatibility.IDENTITY.value == "identity"
        assert Compatibility.EQUIVALENT.value == "equivalent"
        assert Compatibility.PROJECTION.value == "projection"
