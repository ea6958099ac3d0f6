"""Unit tests for the event backbone."""

import threading

import pytest

from repro.arch import SPARC_32, X86_32, X86_64
from repro.errors import TransportError, TransportTimeoutError
from repro.events import EventBackbone
from repro.pbio import IOContext, IOField


def track_fields(arch):
    return [
        IOField("flight", "string", arch.pointer_size, 0),
        IOField("alt", "integer", 4, arch.pointer_size),
    ]


def make_publisher(backbone, stream, arch=SPARC_32):
    context = IOContext(arch)
    fmt = context.register_format("track", track_fields(arch))
    return backbone.publisher(stream, context), fmt


class TestPublishSubscribe:
    def test_single_stream_delivery(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("flights.asd", IOContext(X86_64))
        publisher, fmt = make_publisher(backbone, "flights.asd")
        publisher.publish(fmt, {"flight": "DL1", "alt": 31000})
        event = subscriber.next(timeout=5)
        assert event.stream == "flights.asd"
        assert event.values == {"flight": "DL1", "alt": 31000}

    def test_heterogeneous_publishers_one_subscriber(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("flights.*", IOContext(X86_64))
        pub_sparc, fmt_sparc = make_publisher(backbone, "flights.a", SPARC_32)
        pub_x86, fmt_x86 = make_publisher(backbone, "flights.b", X86_32)
        pub_sparc.publish(fmt_sparc, {"flight": "S1", "alt": 1})
        pub_x86.publish(fmt_x86, {"flight": "X1", "alt": 2})
        events = subscriber.drain(2, timeout=5)
        assert {e.values["flight"] for e in events} == {"S1", "X1"}

    def test_fanout_to_many_subscribers(self):
        backbone = EventBackbone()
        subscribers = [backbone.subscribe("s", IOContext(X86_64)) for _ in range(10)]
        publisher, fmt = make_publisher(backbone, "s")
        delivered = publisher.publish(fmt, {"flight": "F", "alt": 0})
        assert delivered == 10
        for subscriber in subscribers:
            assert subscriber.next(timeout=5).values["flight"] == "F"

    def test_no_subscribers_no_delivery(self):
        backbone = EventBackbone()
        publisher, fmt = make_publisher(backbone, "lonely")
        assert publisher.publish(fmt, {"flight": "F", "alt": 0}) == 0

    def test_format_pushed_once_per_stream(self):
        backbone = EventBackbone()
        backbone.subscribe("s", IOContext(X86_64))
        publisher, fmt = make_publisher(backbone, "s")
        for i in range(20):
            publisher.publish(fmt, {"flight": "F", "alt": i})
        stats = backbone.stats("s")
        assert stats.metadata_messages == 1
        assert stats.data_messages == 20


class TestLateJoin:
    def test_late_subscriber_gets_replayed_metadata(self):
        """The handheld-device case: metadata arrives from the broker's
        cache, so records decode without any publisher cooperation."""
        backbone = EventBackbone()
        publisher, fmt = make_publisher(backbone, "s")
        publisher.publish(fmt, {"flight": "EARLY", "alt": 1})  # nobody listening
        late = backbone.subscribe("s", IOContext(X86_64))
        publisher.publish(fmt, {"flight": "LATE", "alt": 2})
        event = late.next(timeout=5)
        assert event.values["flight"] == "LATE"

    def test_pattern_matches_future_streams(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("weather.*", IOContext(X86_64))
        publisher, fmt = make_publisher(backbone, "weather.atl")
        publisher.publish(fmt, {"flight": "n/a", "alt": 0})
        assert subscriber.next(timeout=5).stream == "weather.atl"

    def test_non_matching_stream_not_delivered(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("weather.*", IOContext(X86_64))
        publisher, fmt = make_publisher(backbone, "flights.x")
        publisher.publish(fmt, {"flight": "F", "alt": 0})
        with pytest.raises(TransportTimeoutError, match="no event"):
            subscriber.next(timeout=0.05)


class TestSubscriptionLifecycle:
    def test_cancel_stops_delivery(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("s", IOContext(X86_64))
        subscriber.cancel()
        publisher, fmt = make_publisher(backbone, "s")
        assert publisher.publish(fmt, {"flight": "F", "alt": 0}) == 0

    def test_cancel_wakes_blocked_next(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("s", IOContext(X86_64))
        errors = []

        def wait_for_event():
            try:
                subscriber.next(timeout=5)
            except TransportError as exc:
                errors.append(exc)

        thread = threading.Thread(target=wait_for_event)
        thread.start()
        subscriber.cancel()
        thread.join(timeout=5)
        assert errors and "cancelled" in str(errors[0])
        assert not isinstance(errors[0], TransportTimeoutError)  # not a poll miss

    def test_context_manager_cancels(self):
        backbone = EventBackbone()
        with backbone.subscribe("s", IOContext(X86_64)) as subscriber:
            pass
        publisher, fmt = make_publisher(backbone, "s")
        assert publisher.publish(fmt, {"flight": "F", "alt": 0}) == 0

    def test_double_cancel_harmless(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("s", IOContext(X86_64))
        subscriber.cancel()
        subscriber.cancel()


class TestEvolutionOnBackbone:
    def test_subscriber_projects_with_expect(self):
        backbone = EventBackbone()
        receiver = IOContext(X86_64)
        receiver.register_format("track", track_fields(X86_64))
        subscriber = backbone.subscribe("s", receiver, expect="track")
        context = IOContext(SPARC_32)
        v2 = context.register_format(
            "track",
            track_fields(SPARC_32) + [IOField("speed", "double", 8, 8)],
            record_length=16,
        )
        backbone.publisher("s", context).publish(
            v2, {"flight": "DL9", "alt": 100, "speed": 420.0}
        )
        assert subscriber.next(timeout=5).values == {"flight": "DL9", "alt": 100}


class TestIntrospection:
    def test_stream_listing_and_stats(self):
        backbone = EventBackbone()
        publisher, fmt = make_publisher(backbone, "s1")
        publisher.publish(fmt, {"flight": "F", "alt": 0})
        assert backbone.streams() == ["s1"]
        stats = backbone.stats("s1")
        assert stats.bytes_routed > 0
        assert stats.subscribers == 0

    def test_unknown_stream_stats_raises(self):
        with pytest.raises(TransportError, match="no stream"):
            EventBackbone().stats("nope")

    def test_metadata_url_advertisement(self):
        backbone = EventBackbone()
        publisher, _ = make_publisher(backbone, "s")
        publisher.advertise_metadata("http://meta/asdoff.xsd")
        assert backbone.metadata_url("s") == "http://meta/asdoff.xsd"
        assert backbone.metadata_url("unknown") is None

    def test_concurrent_publishers_thread_safe(self):
        backbone = EventBackbone()
        subscriber = backbone.subscribe("s", IOContext(X86_64))
        publishers = [make_publisher(backbone, "s") for _ in range(4)]

        def blast(publisher_fmt):
            publisher, fmt = publisher_fmt
            for i in range(50):
                publisher.publish(fmt, {"flight": "T", "alt": i})

        threads = [threading.Thread(target=blast, args=(p,)) for p in publishers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        events = subscriber.drain(200, timeout=5)
        assert len(events) == 200
