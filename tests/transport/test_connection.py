"""Unit tests for the RecordConnection protocol layer."""

import threading

import pytest

from repro.arch import SPARC_32, X86_64
from repro.errors import (
    ChannelClosedError,
    DecodeError,
    TransportError,
    UnknownFormatError,
)
from repro.pbio import FormatServer, IOContext, IOField
from repro.transport import RecordConnection, make_pipe


def point_fields():
    return [IOField("x", "double", 8, 0), IOField("y", "double", 8, 8)]


def connected_pair(sender_arch=SPARC_32, receiver_arch=X86_64, **kwargs):
    a, b = make_pipe()
    sender = RecordConnection(IOContext(sender_arch, **kwargs), a)
    receiver = RecordConnection(IOContext(receiver_arch, **kwargs), b)
    return sender, receiver


class TestEagerPush:
    def test_first_send_pushes_metadata(self):
        sender, receiver = connected_pair()
        fmt = sender.context.register_format("point", point_fields())
        sender.send(fmt, {"x": 1.0, "y": 2.0})
        decoded = receiver.recv(timeout=5)
        assert decoded.values == {"x": 1.0, "y": 2.0}
        assert sender.metadata_messages == 1
        assert sender.data_messages == 1

    def test_metadata_pushed_once_per_format(self):
        sender, receiver = connected_pair()
        fmt = sender.context.register_format("point", point_fields())
        for i in range(50):
            sender.send(fmt, {"x": float(i), "y": 0.0})
        for i in range(50):
            assert receiver.recv(timeout=5).values["x"] == float(i)
        assert sender.metadata_messages == 1
        assert sender.data_messages == 50

    def test_two_formats_two_pushes(self):
        sender, receiver = connected_pair()
        point = sender.context.register_format("point", point_fields())
        scalar = sender.context.register_format("scalar", [IOField("v", "integer", 4, 0)])
        sender.send(point, {"x": 0.0, "y": 0.0})
        sender.send(scalar, {"v": 7})
        assert receiver.recv(timeout=5).format_name == "point"
        assert receiver.recv(timeout=5).values == {"v": 7}
        assert sender.metadata_messages == 2

    def test_metadata_bytes_accounted_separately(self):
        sender, receiver = connected_pair()
        fmt = sender.context.register_format("point", point_fields())
        sender.send(fmt, {"x": 1.0, "y": 2.0})
        assert sender.metadata_bytes > 0
        assert sender.data_bytes > 0
        receiver.recv(timeout=5)


class TestPullOnMiss:
    def test_unknown_format_triggers_request(self):
        """A receiver that never saw the push asks for the metadata."""
        sender, receiver = connected_pair()
        fmt = sender.context.register_format("point", point_fields())
        # Bypass announce: send a bare data message, as if the receiver
        # joined a fan-out after the push happened.
        raw = sender.context.encode(fmt, {"x": 9.0, "y": 8.0})
        sender.channel.send(raw)

        result = {}

        def receive():
            result["record"] = receiver.recv(timeout=5)

        thread = threading.Thread(target=receive)
        thread.start()
        # The sender endpoint services the format request.
        assert sender.serve_protocol_once(timeout=5)
        thread.join(timeout=5)
        assert result["record"].values == {"x": 9.0, "y": 8.0}

    def test_order_preserved_across_resolution_stall(self):
        sender, receiver = connected_pair()
        fmt = sender.context.register_format("point", point_fields())
        raw1 = sender.context.encode(fmt, {"x": 1.0, "y": 0.0})
        raw2 = sender.context.encode(fmt, {"x": 2.0, "y": 0.0})
        sender.channel.send(raw1)
        sender.channel.send(raw2)

        received = []

        def receive():
            received.append(receiver.recv(timeout=5).values["x"])
            received.append(receiver.recv(timeout=5).values["x"])

        thread = threading.Thread(target=receive)
        thread.start()
        sender.serve_protocol_once(timeout=5)
        # Second record may trigger another request (already answered);
        # service any further protocol traffic without blocking long.
        sender.serve_protocol_once(timeout=0.2)
        thread.join(timeout=5)
        assert received == [1.0, 2.0]

    def test_serve_protocol_once_reports_only_a_timeout_as_no_message(self):
        sender, receiver = connected_pair()
        assert sender.serve_protocol_once(timeout=0.01) is False
        receiver.close()
        with pytest.raises(ChannelClosedError):
            sender.serve_protocol_once(timeout=5)

    def test_request_for_unregistered_format_fails_loudly(self):
        sender, receiver = connected_pair()
        bogus_request = receiver.context.request_message(b"\x01" * 8)
        receiver.channel.send(bogus_request)
        with pytest.raises(TransportError, match="not registered"):
            sender.serve_protocol_once(timeout=5)


class CountingContext:
    """An IOContext proxy counting the calls the receive path makes."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = {"parse_header": 0, "wire_format": 0, "decode": 0}

    def __getattr__(self, name):
        member = getattr(self._inner, name)
        if name not in self.calls:
            return member

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return member(*args, **kwargs)

        return counted


class TestReceiveHappyPath:
    def test_recv_is_channel_recv_feed_decode(self):
        """No pre-parse, no pre-probe: the connection reaches the codec
        only through ``feed`` -> ``decode``, once per record."""
        a, b = make_pipe()
        sender = RecordConnection(IOContext(SPARC_32), a)
        counting = CountingContext(IOContext(X86_64))
        receiver = RecordConnection(counting, b)
        fmt = sender.context.register_format("point", point_fields())
        for i in range(10):
            sender.send(fmt, {"x": float(i), "y": 0.0})
        assert [receiver.recv(timeout=5).values["x"] for i in range(10)] == [
            float(i) for i in range(10)
        ]
        # 10 data messages and the pushed metadata, one parse each by
        # the connection layer (decode's own parse is inside IOContext).
        assert counting.calls == {"parse_header": 11, "wire_format": 0, "decode": 10}

    def test_miss_is_typed_and_carries_the_format_id(self):
        sender, receiver = connected_pair()
        fmt = sender.context.register_format("point", point_fields())
        raw = sender.context.encode(fmt, {"x": 1.0, "y": 2.0})
        with pytest.raises(UnknownFormatError) as excinfo:
            receiver.context.decode(raw)
        assert excinfo.value.format_id == fmt.format_id
        assert isinstance(excinfo.value, DecodeError)
        with pytest.raises(UnknownFormatError):
            FormatServer().resolve(fmt.format_id)

    def test_undecodable_message_still_raises(self):
        sender, receiver = connected_pair()
        sender.channel.send(b"\x09" + b"\x01" + bytes(14))  # unknown kind 9
        with pytest.raises(DecodeError, match="unexpected message kind 9"):
            receiver.recv(timeout=5)
        sender.channel.send(b"short")
        with pytest.raises(DecodeError, match="shorter than"):
            receiver.recv(timeout=5)


class TestSharedFormatServer:
    def test_server_resolution_avoids_in_band_traffic(self):
        server = FormatServer()
        a, b = make_pipe()
        sender = RecordConnection(IOContext(SPARC_32, format_server=server), a)
        receiver = RecordConnection(IOContext(X86_64, format_server=server), b)
        fmt = sender.context.register_format("point", point_fields())
        raw = sender.context.encode(fmt, {"x": 5.0, "y": 6.0})
        sender.channel.send(raw)  # no push, no request needed
        decoded = receiver.recv(timeout=5)
        assert decoded.values == {"x": 5.0, "y": 6.0}
        assert receiver.metadata_messages == 0


class TestEvolutionOverConnection:
    def test_expect_projects_onto_local_format(self):
        sender, receiver = connected_pair()
        v2 = sender.context.register_format(
            "track",
            point_fields() + [IOField("alt", "integer", 4, 16)],
            record_length=24,
        )
        receiver.context.register_format("track", point_fields())
        sender.send(v2, {"x": 1.0, "y": 2.0, "alt": 30000})
        decoded = receiver.recv(timeout=5, expect="track")
        assert decoded.values == {"x": 1.0, "y": 2.0}
