"""Unit tests for IOContext framing, format learning and the format server."""

import pytest

from repro.arch import SPARC_32, X86_64
from repro.errors import DecodeError, FormatRegistrationError
from repro.pbio import FormatServer, IOContext, IOField, IOFormat
from repro.pbio.context import (
    HEADER_SIZE,
    KIND_DATA,
    KIND_FORMAT,
    KIND_REQUEST,
)


def point_fields():
    return [IOField("x", "double", 8, 0), IOField("y", "double", 8, 8)]


class TestFraming:
    def test_data_message_header(self, x86_context):
        fmt = x86_context.register_format("point", point_fields())
        message = x86_context.encode(fmt, {"x": 1.0, "y": 2.0})
        kind, version, _, length, format_id = IOContext.parse_header(message)
        assert kind == KIND_DATA
        assert version == 1
        assert length == len(message) - HEADER_SIZE
        assert format_id == fmt.format_id

    def test_format_message_header(self, x86_context):
        fmt = x86_context.register_format("point", point_fields())
        message = x86_context.format_message(fmt)
        kind, _, _, length, format_id = IOContext.parse_header(message)
        assert kind == KIND_FORMAT
        assert format_id == b"\x00" * 8
        assert length == len(message) - HEADER_SIZE

    def test_request_message_header(self, x86_context):
        fmt = x86_context.register_format("point", point_fields())
        message = x86_context.request_message(fmt.format_id)
        kind, _, _, length, format_id = IOContext.parse_header(message)
        assert kind == KIND_REQUEST
        assert length == 0
        assert format_id == fmt.format_id

    def test_encode_accepts_format_name(self, x86_context):
        x86_context.register_format("point", point_fields())
        message = x86_context.encode("point", {"x": 0.0, "y": 0.0})
        assert x86_context.decode(message).values == {"x": 0.0, "y": 0.0}

    def test_encoded_size_matches_message_length(self, x86_context):
        fmt = x86_context.register_format("point", point_fields())
        record = {"x": 1.0, "y": 2.0}
        assert x86_context.encoded_size(fmt, record) == len(
            x86_context.encode(fmt, record)
        )


class TestFormatLearning:
    def test_learn_format_enables_decode(self, sparc_context, x86_context):
        fmt = sparc_context.register_format("point", point_fields())
        message = sparc_context.encode(fmt, {"x": 1.5, "y": -2.5})
        assert not x86_context.knows_format_id(fmt.format_id)
        learned = x86_context.learn_format(fmt.to_wire_metadata())
        assert learned.format_id == fmt.format_id
        assert x86_context.decode(message).values == {"x": 1.5, "y": -2.5}

    def test_learning_via_format_message_body(self, sparc_context, x86_context):
        fmt = sparc_context.register_format("point", point_fields())
        format_message = sparc_context.format_message(fmt)
        x86_context.learn_format(format_message[HEADER_SIZE:])
        assert x86_context.knows_format_id(fmt.format_id)

    def test_own_formats_decodable_without_learning(self, x86_context):
        fmt = x86_context.register_format("point", point_fields())
        message = x86_context.encode(fmt, {"x": 0.0, "y": 1.0})
        assert x86_context.decode(message).values["y"] == 1.0

    def test_lookup_unknown_format_name(self, x86_context):
        with pytest.raises(FormatRegistrationError, match="no format named"):
            x86_context.lookup_format("nope")


class TestFormatServer:
    def test_server_resolves_unknown_ids(self):
        server = FormatServer()
        sender = IOContext(SPARC_32, format_server=server)
        fmt = sender.register_format("point", point_fields())
        message = sender.encode(fmt, {"x": 3.0, "y": 4.0})

        receiver = IOContext(X86_64, format_server=server)
        decoded = receiver.decode(message)  # no handshake needed
        assert decoded.values == {"x": 3.0, "y": 4.0}

    def test_server_registers_nested_dependencies(self):
        server = FormatServer()
        sender = IOContext(SPARC_32, format_server=server)
        inner = sender.register_format("inner", [IOField("v", "integer", 4, 0)])
        sender.register_format("outer", [IOField("a", "inner", 4, 0)])
        assert inner.format_id in server.known_ids()

    def test_unknown_id_without_server_raises(self, x86_context, sparc_context):
        fmt = sparc_context.register_format("point", point_fields())
        with pytest.raises(DecodeError, match="no format server attached"):
            x86_context.decode(sparc_context.encode(fmt, {"x": 0.0, "y": 0.0}))

    def test_unknown_id_on_server_raises(self):
        server = FormatServer()
        with pytest.raises(DecodeError, match="no format"):
            server.resolve(b"\xde\xad\xbe\xef\x00\x00\x00\x00")

    def test_registration_idempotent(self):
        server = FormatServer()
        fmt = IOFormat("point", point_fields(), X86_64)
        assert server.register(fmt) == server.register(fmt)
        assert len(server) == 1

    def test_resolve_metadata_raw_bytes(self):
        server = FormatServer()
        fmt = IOFormat("point", point_fields(), X86_64)
        server.register(fmt)
        assert server.resolve_metadata(fmt.format_id) == fmt.to_wire_metadata()


class TestAdoptFormat:
    def test_adopt_external_format(self, x86_context):
        fmt = IOFormat("point", point_fields(), X86_64)
        adopted = x86_context.adopt_format(fmt)
        assert x86_context.lookup_format("point") is adopted

    def test_adopt_wrong_arch_rejected(self, x86_context):
        fmt = IOFormat("point", point_fields(), SPARC_32)
        with pytest.raises(FormatRegistrationError, match="built for"):
            x86_context.adopt_format(fmt)

    def test_adopt_conflicting_metadata_rejected(self, x86_context):
        x86_context.register_format("point", point_fields())
        other = IOFormat(
            "point", [IOField("x", "integer", 4, 0)], X86_64
        )
        with pytest.raises(FormatRegistrationError, match="different metadata"):
            x86_context.adopt_format(other)

    def test_adopt_same_metadata_is_noop(self, x86_context):
        first = x86_context.register_format("point", point_fields())
        clone = IOFormat("point", point_fields(), X86_64)
        assert x86_context.adopt_format(clone) is first

    def test_adopt_pulls_in_nested(self):
        builder = IOContext(X86_64)
        inner = builder.register_format("inner", [IOField("v", "integer", 4, 0)])
        outer = builder.register_format("outer", [IOField("a", "inner", 4, 0)])
        fresh = IOContext(X86_64)
        fresh.adopt_format(outer)
        assert fresh.lookup_format("inner").format_id == inner.format_id


class TestConverterCaching:
    def test_converter_built_once_per_wire_format(self, sparc_context, x86_context):
        fmt = sparc_context.register_format("point", point_fields())
        x86_context.learn_format(fmt.to_wire_metadata())
        messages = [
            sparc_context.encode(fmt, {"x": float(i), "y": 0.0}) for i in range(10)
        ]
        for message in messages:
            x86_context.decode(message)
        assert x86_context.converter_builds == 1

    def test_unknown_mode_rejected(self, x86_context):
        """Decoding has one implementation; no ``mode`` selects another."""
        fmt = x86_context.register_format("point", point_fields())
        message = x86_context.encode(fmt, {"x": 0.0, "y": 0.0})
        with pytest.raises(TypeError):
            x86_context.decode(message, mode="quantum")


class TestDecodedRecord:
    def test_mapping_conveniences(self, x86_context):
        fmt = x86_context.register_format("point", point_fields())
        decoded = x86_context.decode(x86_context.encode(fmt, {"x": 1.0, "y": 2.0}))
        assert decoded["x"] == 1.0
        assert "y" in decoded
        assert "z" not in decoded
        assert decoded.format_name == "point"
