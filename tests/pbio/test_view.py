"""Unit tests for lazy record views (zero-copy homogeneous receive)."""

import pytest

from repro.arch import SPARC_32, X86_64
from repro.errors import ArchError, DecodeError
from repro.pbio import IOContext, IOField, RecordView, view_message
from repro.pbio.encode import encode_record

from tests.pbio.conftest import ASDOFF_RECORD, register_asdoff


@pytest.fixture
def asdoff(sparc_context):
    fmt = register_asdoff(sparc_context)
    payload = encode_record(fmt, ASDOFF_RECORD)
    return fmt, payload


class TestFieldAccess:
    def test_scalars_and_strings(self, asdoff):
        fmt, payload = asdoff
        view = RecordView(fmt, payload)
        assert view["fltNum"] == 1204
        assert view["cntrId"] == "ZTL"
        assert view["dest"] == "LAX"

    def test_arrays(self, asdoff):
        fmt, payload = asdoff
        view = RecordView(fmt, payload)
        assert view["off"] == [10, 20, 30, 40, 50]
        assert view["eta"] == [1000, 2000, 3000]
        assert view["eta_count"] == 3

    def test_materialize_equals_eager_decode(self, asdoff):
        fmt, payload = asdoff
        assert RecordView(fmt, payload).materialize() == ASDOFF_RECORD

    def test_byte_swapping_view_from_foreign_arch(self, asdoff):
        """Views work across architectures too — lazily."""
        fmt, payload = asdoff  # big-endian wire, we run little-endian
        view = RecordView(fmt, payload)
        assert view["fltNum"] == 1204

    def test_unknown_field_raises(self, asdoff):
        fmt, payload = asdoff
        with pytest.raises(Exception, match="no field"):
            RecordView(fmt, payload)["bogus"]

    def test_values_cached(self, asdoff):
        fmt, payload = asdoff
        view = RecordView(fmt, payload)
        first = view["off"]
        assert view["off"] is first


class TestMappingProtocol:
    def test_iteration_in_field_order(self, asdoff):
        fmt, payload = asdoff
        assert list(RecordView(fmt, payload)) == fmt.field_names()

    def test_len_and_contains(self, asdoff):
        fmt, payload = asdoff
        view = RecordView(fmt, payload)
        assert len(view) == 9
        assert "arln" in view
        assert "bogus" not in view

    def test_dict_conversion(self, asdoff):
        fmt, payload = asdoff
        assert dict(RecordView(fmt, payload)) == ASDOFF_RECORD


class TestNestedViews:
    def test_nested_fields_are_views(self, sparc_context):
        inner = sparc_context.register_format(
            "pt", [IOField("x", "double", 8, 0), IOField("y", "double", 8, 8)]
        )
        outer = sparc_context.register_format(
            "seg",
            [IOField("label", "string", 4, 0), IOField("a", "pt", 16, 8),
             IOField("b", "pt", 16, 24)],
            record_length=40,
        )
        record = {"label": "rw", "a": {"x": 1.0, "y": 2.0}, "b": {"x": 3.0, "y": 4.0}}
        view = RecordView(outer, encode_record(outer, record))
        assert isinstance(view["a"], RecordView)
        assert view["a"]["y"] == 2.0
        assert view.materialize() == record

    def test_null_string_and_empty_array(self, sparc_context):
        fmt = sparc_context.register_format(
            "t",
            [IOField("s", "string", 4, 0), IOField("n", "integer", 4, 4),
             IOField("d", "double[n]", 8, 8)],
            record_length=12,
        )
        view = RecordView(fmt, encode_record(fmt, {"s": None, "d": []}))
        assert view["s"] is None
        assert view["d"] == []


class TestViewMessage:
    def test_view_over_framed_message(self, sparc_context):
        fmt = register_asdoff(sparc_context)
        message = sparc_context.encode(fmt, ASDOFF_RECORD)
        view = view_message(fmt, message)
        assert view["arln"] == "DL"

    def test_context_decode_view_resolves_format(self, sparc_context, x86_context):
        fmt = register_asdoff(sparc_context)
        message = sparc_context.encode(fmt, ASDOFF_RECORD)
        x86_context.learn_format(fmt.to_wire_metadata())
        view = x86_context.decode_view(message)
        assert view["fltNum"] == 1204
        assert view.materialize() == ASDOFF_RECORD

    def test_context_decode_view_rejects_unknown_format(self, sparc_context, x86_context):
        fmt = register_asdoff(sparc_context)
        message = sparc_context.encode(fmt, ASDOFF_RECORD)
        with pytest.raises(DecodeError, match="unknown format id"):
            x86_context.decode_view(message)

    def test_context_decode_view_rejects_metadata_message(self, sparc_context):
        fmt = register_asdoff(sparc_context)
        with pytest.raises(DecodeError, match="data message"):
            sparc_context.decode_view(sparc_context.format_message(fmt))

    def test_wrong_format_id_rejected(self, sparc_context):
        fmt = register_asdoff(sparc_context)
        other = sparc_context.register_format("other", [IOField("v", "integer", 4, 0)])
        message = sparc_context.encode(other, {"v": 1})
        with pytest.raises(DecodeError, match="carries format"):
            view_message(fmt, message)

    def test_non_data_message_rejected(self, sparc_context):
        fmt = register_asdoff(sparc_context)
        with pytest.raises(DecodeError, match="data messages"):
            view_message(fmt, sparc_context.format_message(fmt))

    def test_short_payload_rejected(self, sparc_context):
        fmt = register_asdoff(sparc_context)
        with pytest.raises(DecodeError, match="too short"):
            RecordView(fmt, b"\x00" * 4)


class TestHostilePayloads:
    """Forged counts and pointers surface as DecodeError from every view
    read — never struct.error, ValueError or IndexError."""

    @staticmethod
    def forged(sparc_context, x86_context, field, value):
        fmt = register_asdoff(sparc_context)
        message = bytearray(sparc_context.encode(fmt, ASDOFF_RECORD))
        offset = 16 + fmt.field(field).offset
        message[offset:offset + 4] = value.to_bytes(4, "big")
        x86_context.learn_format(fmt.to_wire_metadata())
        return bytes(message)

    def test_forged_count_is_a_decode_error(self, sparc_context, x86_context):
        message = self.forged(sparc_context, x86_context, "eta_count", 0x7FFFFFFF)
        with pytest.raises(DecodeError, match="corrupt payload"):
            x86_context.decode(message)
        view = x86_context.decode_view(message)
        assert view["fltNum"] == 1204  # untouched fields still read
        with pytest.raises(DecodeError, match="eta"):
            view["eta"]
        with pytest.raises(DecodeError, match="past the payload"):
            view.array("eta")
        with pytest.raises(DecodeError):
            view.materialize()

    def test_negative_count_is_a_decode_error(self, sparc_context, x86_context):
        message = self.forged(sparc_context, x86_context, "eta_count", 0xFFFFFFFF)
        view = x86_context.decode_view(message)
        with pytest.raises(DecodeError):
            view["eta"]
        with pytest.raises(DecodeError):
            view.array("eta")

    @pytest.mark.parametrize("field", ["eta", "arln"])
    def test_forged_pointer_is_a_decode_error(self, sparc_context, x86_context, field):
        message = self.forged(sparc_context, x86_context, field, 0x7FFFFFF0)
        with pytest.raises(DecodeError):
            x86_context.decode(message)
        view = x86_context.decode_view(message)
        with pytest.raises(DecodeError, match=field):
            view[field]
        if field == "eta":
            with pytest.raises(DecodeError, match="past the payload"):
                view.array(field)
