"""Property-based invariants for the columnar bulk codec.

For any (non-nested) schema the metadata grammar can express and any
batch of records fitting it, across sender/receiver architecture pairs:

- ``decode_batch(encode_batch(records))`` is the identity on records;
- the columnar round-trip equals N per-record NDR round-trips,
  field for field — batching never changes what a receiver sees;
- the numpy and pure-Python encode paths produce identical bytes, and
  their decode paths produce identical records.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IOContext, XML2Wire
from repro.arch import ALPHA, SPARC_32, SPARC_64, X86_32, X86_64
from repro.pbio import types as pbio_types

from tests.property.strategies import schema_and_records

ARCHES = [X86_32, X86_64, SPARC_32, SPARC_64, ALPHA]

arch_pairs = st.tuples(st.sampled_from(ARCHES), st.sampled_from(ARCHES))

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HAVE_NUMPY = pbio_types.numpy is not None


def register(schema, format_name, arch):
    tool = XML2Wire(IOContext(arch))
    tool.register_schema(schema)
    return tool.context, tool.context.lookup_format(format_name)


class TestColumnarRoundtrip:
    @RELAXED
    @given(case=schema_and_records(), pair=arch_pairs)
    def test_cross_architecture_identity(self, case, pair):
        schema, format_name, records = case
        sender_arch, receiver_arch = pair
        sender, fmt = register(schema, format_name, sender_arch)
        message = sender.encode_batch(fmt, records)
        receiver = IOContext(receiver_arch)
        receiver.learn_format(fmt.to_wire_metadata())
        batch = receiver.decode_batch(message)
        assert list(batch) == records

    @RELAXED
    @given(case=schema_and_records(), pair=arch_pairs)
    def test_batch_equals_per_record_roundtrips(self, case, pair):
        """One columnar batch decodes to exactly what N per-record NDR
        messages would have decoded to, field for field."""
        schema, format_name, records = case
        sender_arch, receiver_arch = pair
        sender, fmt = register(schema, format_name, sender_arch)
        receiver = IOContext(receiver_arch)
        receiver.learn_format(fmt.to_wire_metadata())
        batched = receiver.decode_batch(sender.encode_batch(fmt, records))
        singles = [
            receiver.decode(sender.encode(fmt, record)).values
            for record in records
        ]
        assert len(batched) == len(singles)
        for from_batch, from_single in zip(batched, singles):
            assert set(from_batch) == set(from_single)
            for field in from_single:
                assert from_batch[field] == from_single[field], field

    @RELAXED
    @given(case=schema_and_records(), arch=st.sampled_from(ARCHES))
    def test_pure_python_roundtrip(self, case, arch, pure_python):
        schema, format_name, records = case
        sender, fmt = register(schema, format_name, arch)
        receiver = IOContext()
        receiver.learn_format(fmt.to_wire_metadata())
        with pure_python():
            message = sender.encode_batch(fmt, records)
            assert list(receiver.decode_batch(message)) == records


class TestNumpyPureParity:
    """The two implementations are byte- and value-interchangeable."""

    @RELAXED
    @given(case=schema_and_records(), arch=st.sampled_from(ARCHES))
    def test_encode_paths_byte_identical(self, case, arch, pure_python):
        if not HAVE_NUMPY:
            return  # single-path build: parity is vacuous
        schema, format_name, records = case
        sender, fmt = register(schema, format_name, arch)
        with pure_python():
            pure = sender.encode_batch(fmt, records)
        vectorized = sender.encode_batch(fmt, records)
        assert pure == vectorized

    @RELAXED
    @given(case=schema_and_records(), pair=arch_pairs)
    def test_decode_paths_agree(self, case, pair, pure_python):
        if not HAVE_NUMPY:
            return
        schema, format_name, records = case
        sender_arch, receiver_arch = pair
        sender, fmt = register(schema, format_name, sender_arch)
        message = sender.encode_batch(fmt, records)
        receiver = IOContext(receiver_arch)
        receiver.learn_format(fmt.to_wire_metadata())
        with pure_python():
            pure = list(receiver.decode_batch(message))
        vectorized = list(receiver.decode_batch(message))
        assert pure == vectorized == records
