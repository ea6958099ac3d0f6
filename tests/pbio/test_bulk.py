"""Unit tests for bulk numpy array support: ndarray-in encoding and
zero-copy ``RecordView.array`` views out of the wire buffer."""

import numpy
import pytest

from repro.arch import SPARC_32, X86_64
from repro.errors import DecodeError
from repro.pbio import IOContext, IOField, RecordView
from repro.pbio.encode import encode_record, get_encode_plan


@pytest.fixture
def chem_format(sparc_context):
    return sparc_context.register_format(
        "chem",
        [
            IOField("step", "unsigned integer", 4, 0),
            IOField("n", "integer", 4, 4),
            IOField("conc", "double[n]", 8, 8),
            IOField("grid", "float[4]", 4, 12),
        ],
        record_length=32,
    )


class TestEncodeWithNumpy:
    def test_ndarray_encodes_like_list(self, chem_format):
        values = [0.5, 1.5, 2.5]
        as_list = encode_record(
            chem_format, {"step": 1, "conc": values, "grid": [1, 2, 3, 4]}
        )
        as_array = encode_record(
            chem_format,
            {"step": 1, "conc": numpy.array(values), "grid": [1, 2, 3, 4]},
        )
        assert as_list == as_array

    def test_interpreted_encoder_matches_too(self, chem_format):
        record = {
            "step": 1,
            "conc": numpy.linspace(0, 1, 17),
            "grid": [1.0, 2.0, 3.0, 4.0],
        }
        assert encode_record(chem_format, record) == get_encode_plan(
            chem_format
        ).encode(record)

    def test_wrong_dtype_converted(self, chem_format):
        as_f32 = encode_record(
            chem_format,
            {"step": 1, "conc": numpy.array([1, 2], dtype="f4"),
             "grid": [0, 0, 0, 0]},
        )
        as_list = encode_record(
            chem_format, {"step": 1, "conc": [1.0, 2.0], "grid": [0, 0, 0, 0]}
        )
        assert as_f32 == as_list

    def test_empty_ndarray_is_null(self, chem_format):
        payload = encode_record(
            chem_format,
            {"step": 1, "conc": numpy.empty(0), "grid": [0, 0, 0, 0]},
        )
        view = RecordView(chem_format, payload)
        assert view["conc"] == []


class TestArrayView:
    def test_zero_copy_dynamic_array(self, chem_format):
        values = numpy.linspace(0.0, 4.0, 9)
        payload = encode_record(
            chem_format, {"step": 7, "conc": values, "grid": [1, 2, 3, 4]}
        )
        view = RecordView(chem_format, payload)
        array = view.array("conc")
        assert array.dtype == numpy.dtype(">f8")  # big-endian wire, intact
        numpy.testing.assert_array_equal(array.astype("f8"), values)
        # Genuinely aliasing the payload: no-copy semantics.
        assert array.base is not None

    def test_static_array_view(self, chem_format):
        payload = encode_record(
            chem_format, {"step": 1, "conc": [], "grid": [1.0, 2.0, 3.0, 4.0]}
        )
        array = RecordView(chem_format, payload).array("grid")
        assert array.dtype == numpy.dtype(">f4")
        numpy.testing.assert_array_equal(array.astype("f4"), [1, 2, 3, 4])

    def test_empty_dynamic_array(self, chem_format):
        payload = encode_record(
            chem_format, {"step": 1, "conc": [], "grid": [0, 0, 0, 0]}
        )
        assert len(RecordView(chem_format, payload).array("conc")) == 0

    def test_views_are_readonly(self, chem_format):
        payload = encode_record(
            chem_format, {"step": 1, "conc": [1.0], "grid": [0, 0, 0, 0]}
        )
        array = RecordView(chem_format, payload).array("conc")
        with pytest.raises((ValueError, RuntimeError)):
            array[0] = 9.0

    def test_native_copy_is_host_order(self, chem_format):
        payload = encode_record(
            chem_format, {"step": 1, "conc": [1.0, 2.0], "grid": [0, 0, 0, 0]}
        )
        copied = RecordView(chem_format, payload).array("conc").astype("=f8")
        assert copied.dtype.byteorder in ("=", "<", ">")
        assert copied.dtype == numpy.dtype("f8").newbyteorder("=")
        numpy.testing.assert_array_equal(copied, [1.0, 2.0])

    def test_non_array_field_rejected(self, chem_format):
        payload = encode_record(
            chem_format, {"step": 1, "conc": [], "grid": [0, 0, 0, 0]}
        )
        with pytest.raises(DecodeError, match="not a bulk numeric array"):
            RecordView(chem_format, payload).array("step")

    def test_string_array_rejected(self, x86_context):
        fmt = x86_context.register_format(
            "t", [IOField("names", "string[2]", 8, 0)]
        )
        payload = encode_record(fmt, {"names": ["a", "b"]})
        with pytest.raises(DecodeError, match="not a bulk numeric"):
            RecordView(fmt, payload).array("names")

    def test_corrupt_pointer_detected(self, chem_format):
        payload = bytearray(
            encode_record(chem_format, {"step": 1, "conc": [1.0], "grid": [0, 0, 0, 0]})
        )
        # Point conc past the end (offset 8 is the conc pointer slot).
        payload[8:12] = (10**6).to_bytes(4, "big")
        with pytest.raises(DecodeError, match="past the payload"):
            RecordView(chem_format, bytes(payload)).array("conc")


class TestHelpers:
    def test_wire_dtype_matches_architecture(self, chem_format):
        payload = encode_record(
            chem_format, {"step": 1, "conc": [1.0], "grid": [0, 0, 0, 0]}
        )
        view = RecordView(chem_format, payload)
        assert view.array("conc").dtype == numpy.dtype(">f8")
        assert view.array("grid").dtype == numpy.dtype(">f4")

    def test_pack_array_homogeneous_is_plain_bytes(self, x86_context):
        fmt = x86_context.register_format(
            "t",
            [IOField("n", "integer", 4, 0), IOField("d", "double[n]", 8, 8)],
            record_length=16,
        )
        values = numpy.array([1.0, 2.0, 3.0])
        payload = encode_record(fmt, {"d": values})
        assert payload[16:] == values.tobytes()

    def test_pack_array_foreign_order_swaps(self, sparc_context, chem_format):
        values = numpy.array([1.0, 2.0])
        payload = encode_record(
            chem_format, {"step": 1, "conc": values, "grid": [0, 0, 0, 0]}
        )
        assert payload[32:] == values.astype(">f8").tobytes()

    def test_full_roundtrip_through_view(self, chem_format):
        """numpy in, numpy out, across simulated architectures."""
        values = numpy.arange(1000, dtype="f8")
        payload = encode_record(
            chem_format, {"step": 2, "conc": values, "grid": [0, 0, 0, 0]}
        )
        # The receiver (this host) views the big-endian wire data in
        # place and converts once, vectorized.
        array = RecordView(chem_format, payload).array("conc").astype("=f8")
        numpy.testing.assert_array_equal(array, values)

    def test_array_without_numpy_is_a_typed_error(self, chem_format, pure_python):
        payload = encode_record(
            chem_format, {"step": 1, "conc": [1.0], "grid": [0, 0, 0, 0]}
        )
        with pure_python(), pytest.raises(DecodeError, match="needs numpy"):
            RecordView(chem_format, payload).array("conc")
