"""Property-based parity of the generated converter against the reference.

For any (wire schema, evolved target schema) pair the metadata grammar
can express, any record fitting the wire schema, and any (sender,
receiver) architecture pair:

- ``IOContext.decode(expect=...)`` — the one generated converter for the
  pair — equals :func:`reference_decode`, the interpreted specification;
- the generated converter equals the explicit composition of the
  interpreted converter and the interpreted projection, and equals the
  reference projection applied to its own wire-shaped output;
- defaulted mutable values are fresh objects on every call (no
  aliasing between decodes);
- when :func:`compare_formats` says no projection is needed, projecting
  is the identity.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IOContext, XML2Wire
from repro.arch import ALPHA, SPARC_32, SPARC_64, X86_32, X86_64
from repro.pbio.codegen import generate_converter_source, make_converter
from repro.pbio.context import HEADER_SIZE
from repro.pbio.evolution import Compatibility, compare_formats
from repro.pbio.reference import (
    make_interpreted_converter,
    make_interpreted_projection,
    reference_decode,
)

from tests.property.strategies import evolution_case

ARCHES = [X86_32, X86_64, SPARC_32, SPARC_64, ALPHA]

arch_pairs = st.tuples(st.sampled_from(ARCHES), st.sampled_from(ARCHES))

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def register(schema, format_name, arch):
    tool = XML2Wire(IOContext(arch))
    tool.register_schema(schema)
    return tool.context, tool.context.lookup_format(format_name)


class TestProjectionParity:
    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_compiled_equals_interpreted(self, case, pair):
        """The shipped path, end to end, against the specification."""
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        receiver, target = register(target_schema, name, pair[1])
        receiver.learn_format(wire.to_wire_metadata())
        message = sender.encode(wire, record)
        compiled = receiver.decode(message, expect=name).values
        assert compiled == reference_decode(wire, message[HEADER_SIZE:], target)

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_fused_equals_interpreted_composition(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        _, target = register(target_schema, name, pair[1])
        # A view, as the zero-copy receive path hands it over.
        payload = memoryview(sender.encode(wire, record))[HEADER_SIZE:]
        interpreted = make_interpreted_projection(wire, target)(
            make_interpreted_converter(wire)(payload)
        )
        assert make_converter(wire, target)(payload) == interpreted

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_fused_equals_two_step(self, case, pair):
        """Projecting inside the routine equals projecting its wire-shaped
        output afterwards."""
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        _, target = register(target_schema, name, pair[1])
        payload = sender.encode(wire, record)[HEADER_SIZE:]
        wire_shaped = make_converter(wire)(payload)
        assert wire_shaped == record
        assert make_converter(wire, target)(payload) == make_interpreted_projection(
            wire, target
        )(wire_shaped)

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_defaults_are_fresh_per_decode(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        receiver, _ = register(target_schema, name, pair[1])
        receiver.learn_format(wire.to_wire_metadata())
        message = sender.encode(wire, record)
        first = receiver.decode(message, expect=name).values
        snapshot = copy.deepcopy(first)
        for value in first.values():
            if isinstance(value, list):
                value.append("tampered")
            elif isinstance(value, dict):
                value["tampered"] = True
        second = receiver.decode(message, expect=name).values
        assert second == snapshot

    @RELAXED
    @given(case=evolution_case(), arch=st.sampled_from(ARCHES))
    def test_projection_source_always_compiles(self, case, arch):
        wire_schema, target_schema, name, record = case
        _, wire = register(wire_schema, name, arch)
        _, target = register(target_schema, name, arch)
        compile(generate_converter_source(wire, target), "<converter>", "exec")
        assert generate_converter_source(wire) == generate_converter_source(wire, wire)


class TestCompatibilityConsistency:
    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_no_projection_needed_means_identity_projection(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        _, target = register(target_schema, name, pair[1])
        if compare_formats(wire, target) is Compatibility.PROJECTION:
            return
        decoded = IOContext(pair[1])
        decoded.learn_format(wire.to_wire_metadata())
        wire_shaped = decoded.decode(sender.encode(wire, record)).values
        assert make_interpreted_projection(wire, target)(wire_shaped) == wire_shaped

    @RELAXED
    @given(case=evolution_case(), arch=st.sampled_from(ARCHES))
    def test_self_comparison_is_identity(self, case, arch):
        wire_schema, _, name, record = case
        _, wire = register(wire_schema, name, arch)
        assert compare_formats(wire, wire) is Compatibility.IDENTITY

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_relation_is_architecture_symmetric(self, case, pair):
        """PROJECTION-ness depends on field sets, not on direction of
        the architecture change."""
        wire_schema, target_schema, name, record = case
        _, a = register(wire_schema, name, pair[0])
        _, b = register(wire_schema, name, pair[1])
        relation_ab = compare_formats(a, b)
        relation_ba = compare_formats(b, a)
        assert (relation_ab is Compatibility.PROJECTION) == (
            relation_ba is Compatibility.PROJECTION
        )
