"""Integration tests for the networked event backbone."""

import threading
import time

import pytest

from repro.arch import SPARC_32, X86_32, X86_64
from repro.errors import TransportError, TransportTimeoutError, WireError
from repro.events.remote import (
    BrokerServer,
    RemoteBackboneClient,
    pack_envelope,
    unpack_envelope,
    OP_EVENT,
    OP_PUBLISH,
    OP_SUBSCRIBE,
)
from repro.pbio import IOContext, IOField
from repro.transport import connect
from repro.wire import frame


def track_fields(arch):
    return [
        IOField("flight", "string", arch.pointer_size, 0),
        IOField("alt", "integer", 4, arch.pointer_size),
    ]


def make_client(broker, arch, register=True):
    context = IOContext(arch)
    if register:
        context.register_format("track", track_fields(arch))
    host, port = broker.address
    return RemoteBackboneClient.connect(host, port, context)


@pytest.fixture
def broker():
    with BrokerServer() as running:
        yield running


class TestEnvelope:
    def test_roundtrip(self):
        message = pack_envelope(OP_PUBLISH, "flights.a", "http://x", b"\x01\x02")
        assert unpack_envelope(message) == (
            OP_PUBLISH, "flights.a", "http://x", b"\x01\x02",
        )

    def test_empty_fields(self):
        message = pack_envelope(OP_SUBSCRIBE, "")
        assert unpack_envelope(message) == (OP_SUBSCRIBE, "", "", b"")

    def test_malformed_rejected(self):
        with pytest.raises(WireError, match="malformed"):
            unpack_envelope(b"\x01")

    def test_unicode_stream_names(self):
        message = pack_envelope(OP_EVENT, "flüge.münchen")
        assert unpack_envelope(message)[1] == "flüge.münchen"


class TestPublishSubscribeOverTCP:
    def test_basic_delivery_across_architectures(self, broker):
        subscriber = make_client(broker, X86_64, register=False)
        subscriber.subscribe("flights.*")
        publisher_client = make_client(broker, SPARC_32)
        publisher = publisher_client.publisher("flights.atl")
        publisher.publish("track", {"flight": "DL1", "alt": 31000})
        event = subscriber.next_event(timeout=5)
        assert event.stream == "flights.atl"
        assert event.values == {"flight": "DL1", "alt": 31000}
        subscriber.close()
        publisher_client.close()

    def test_many_messages_in_order(self, broker):
        subscriber = make_client(broker, X86_64, register=False)
        subscriber.subscribe("s")
        publisher_client = make_client(broker, SPARC_32)
        publisher = publisher_client.publisher("s")
        for i in range(50):
            publisher.publish("track", {"flight": f"F{i}", "alt": i})
        alts = [subscriber.next_event(timeout=5).values["alt"] for i in range(50)]
        assert alts == list(range(50))
        subscriber.close()
        publisher_client.close()

    def test_multiple_subscribers_fanout(self, broker):
        subscribers = []
        for _ in range(5):
            client = make_client(broker, X86_32, register=False)
            client.subscribe("s")
            subscribers.append(client)
        publisher_client = make_client(broker, SPARC_32)
        publisher_client.publisher("s").publish("track", {"flight": "X", "alt": 1})
        for client in subscribers:
            assert client.next_event(timeout=5).values["flight"] == "X"
            client.close()
        publisher_client.close()

    def test_late_joiner_gets_metadata_replay(self, broker):
        publisher_client = make_client(broker, SPARC_32)
        publisher = publisher_client.publisher("s")
        publisher.publish("track", {"flight": "EARLY", "alt": 1})
        publisher_client.flush()  # EARLY is routed (and dropped) first

        late = make_client(broker, X86_64, register=False)
        late.subscribe("s")
        publisher.publish("track", {"flight": "LATE", "alt": 2})
        event = late.next_event(timeout=5)
        assert event.values["flight"] == "LATE"
        late.close()
        publisher_client.close()

    def test_pattern_filtering(self, broker):
        subscriber = make_client(broker, X86_64, register=False)
        subscriber.subscribe("weather.*")
        publisher_client = make_client(broker, SPARC_32)
        publisher_client.publisher("flights.x").publish(
            "track", {"flight": "NO", "alt": 0}
        )
        publisher_client.publisher("weather.atl").publish(
            "track", {"flight": "YES", "alt": 0}
        )
        publisher_client.flush()
        assert subscriber.next_event(timeout=5).values["flight"] == "YES"
        subscriber.close()
        publisher_client.close()

    def test_metadata_url_advertisement(self, broker):
        publisher_client = make_client(broker, SPARC_32)
        publisher = publisher_client.publisher("s")
        publisher.advertise_metadata("http://meta/track.xsd")
        # The PONG confirms every earlier envelope on the connection
        # was processed: no polling.
        publisher_client.flush()
        assert broker.backbone.metadata_url("s") == "http://meta/track.xsd"
        publisher_client.close()

    def test_expect_projection_over_tcp(self, broker):
        receiver = make_client(broker, X86_64, register=True)  # v1 'track'
        receiver.subscribe("s")
        sender_context = IOContext(SPARC_32)
        sender_context.register_format(
            "track",
            track_fields(SPARC_32) + [IOField("speed", "double", 8, 8)],
            record_length=16,
        )
        host, port = broker.address
        sender = RemoteBackboneClient.connect(host, port, sender_context)
        sender.publisher("s").publish(
            "track", {"flight": "DL9", "alt": 100, "speed": 400.0}
        )
        event = receiver.next_event(timeout=5, expect="track")
        assert event.values == {"flight": "DL9", "alt": 100}
        receiver.close()
        sender.close()


class TestBrokerLifecycle:
    def test_connections_counted(self, broker):
        clients = [make_client(broker, X86_64, register=False) for _ in range(3)]
        import time

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and broker.connections_served < 3:
            time.sleep(0.02)
        assert broker.connections_served == 3
        for client in clients:
            client.close()

    def test_disconnect_unsubscribes(self, broker):
        subscriber = make_client(broker, X86_64, register=False)
        subscriber.subscribe("s")
        publisher_client = make_client(broker, SPARC_32)
        publisher_client.publisher("s").publish("track", {"flight": "A", "alt": 0})
        subscriber.next_event(timeout=5)
        subscriber.close()
        import time

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if broker.backbone.stats("s").subscribers == 0:
                break
            time.sleep(0.02)
        assert broker.backbone.stats("s").subscribers == 0
        publisher_client.close()

    def test_frame_straddling_the_stop_flag_poll_is_delivered(self, broker):
        """A publisher whose frame takes longer than the reader's 0.5 s
        poll to arrive stays connected: the partial frame waits in the
        channel's buffer and the next recv resumes it."""
        subscriber = make_client(broker, X86_64, register=False)
        subscriber.subscribe("s")

        class Captured:
            envelopes = []
            send = envelopes.append

        publisher = RemoteBackboneClient(Captured, IOContext(SPARC_32))
        publisher.context.register_format("track", track_fields(SPARC_32))
        publisher.publisher("s").publish("track", {"flight": "SLOW", "alt": 1})
        wire = b"".join(frame(envelope) for envelope in Captured.envelopes)
        Captured.envelopes.clear()
        publisher.publisher("s").publish("track", {"flight": "NEXT", "alt": 2})

        raw = connect(*broker.address)
        try:
            raw._sock.sendall(wire[:-7])  # all but the tail of the event
            time.sleep(0.8)  # the reader's recv(timeout=0.5) fires mid-frame
            raw._sock.sendall(wire[-7:])
            assert subscriber.next_event(timeout=5).values["flight"] == "SLOW"
            for envelope in Captured.envelopes:
                raw.send(envelope)
            assert subscriber.next_event(timeout=5).values["flight"] == "NEXT"
        finally:
            raw.close()
            subscriber.close()

    def test_failed_channel_is_dropped_not_polled(self, broker):
        """Only a timeout is a reason to poll again: a channel whose recv
        fails is closed and its session ended at once."""

        class FailingChannel:
            recvs = 0
            closed = threading.Event()

            def recv(self, timeout=None):
                self.recvs += 1
                if self.recvs == 1:
                    raise TransportTimeoutError("recv timed out")  # polled again
                raise TransportError("recv failed: [Errno 5] I/O error")

            def close(self):
                self.closed.set()

        stub = FailingChannel()
        broker.serve_channel(stub)
        assert stub.closed.wait(timeout=2)
        assert stub.recvs == 2

    def test_double_start_rejected(self):
        broker = BrokerServer()
        broker.start()
        try:
            with pytest.raises(Exception, match="already started"):
                broker.start()
        finally:
            broker.stop()

    def test_shared_backbone_bridges_local_and_remote(self, broker):
        """A local in-process subscriber sees events published by a
        remote TCP client, through the same backbone instance."""
        local = broker.backbone.subscribe("s", IOContext(X86_64))
        publisher_client = make_client(broker, SPARC_32)
        publisher_client.publisher("s").publish("track", {"flight": "MIX", "alt": 5})
        event = local.next(timeout=5)
        assert event.values["flight"] == "MIX"
        publisher_client.close()
