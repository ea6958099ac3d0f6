"""Hostile input must not escape a broker connection handler.

Four malformed client inputs against each broker entry point — the
threaded listener, ``BrokerServer.serve_channel`` and the asyncio
broker: the offending connection is dropped, nothing reaches
``threading.excepthook`` or asyncio's exception handler, the backbone is
untouched, the violation is counted once, and other clients carry on.
"""

import dataclasses
import logging
import struct
import threading

import pytest

from repro.aio import AsyncEventBroker, BackgroundLoop
from repro.arch import SPARC_32, X86_64
from repro.errors import ChannelClosedError
from repro.events import BrokerServer, EventBackbone, RemoteBackboneClient
from repro.events.protocol import OP_PUBLISH, pack_envelope
from repro.pbio import IOContext, IOField
from repro.transport import connect, make_pipe

#: name -> (envelope, the reason it is counted under)
HOSTILE = {
    "short_payload": (
        pack_envelope(OP_PUBLISH, "s", payload=b"\x01\x01\x00"), "payload",
    ),
    "one_byte_envelope": (b"\x02", "envelope"),
    "bad_utf8_name": (
        struct.pack(">BH", OP_PUBLISH, 2) + b"\xff\xfe\x00\x00", "envelope",
    ),
    "unknown_op": (pack_envelope(99, "s"), "op"),
}


@pytest.fixture(params=["tcp", "serve_channel", "asyncio"])
def open_channel(request):
    """``(backbone, open)``: ``open()`` is a fresh raw channel to a
    broker front end over ``backbone``."""
    backbone = EventBackbone()
    if request.param == "asyncio":
        loop = BackgroundLoop()
        broker = AsyncEventBroker(backbone=backbone)
        loop.run(broker.start())
        yield backbone, lambda: connect(*broker.address)
        loop.run(broker.stop())
        loop.stop()
        return
    broker = BrokerServer(backbone=backbone).start()
    if request.param == "tcp":
        yield backbone, lambda: connect(*broker.address)
    else:

        def open_pipe():
            ours, theirs = make_pipe()
            broker.serve_channel(theirs)
            return ours

        yield backbone, open_pipe
    broker.stop()


@pytest.fixture
def unhandled(monkeypatch, caplog):
    """Everything that reached threading.excepthook or the asyncio log."""
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    caplog.set_level(logging.ERROR, logger="asyncio")
    yield lambda: escaped + [r for r in caplog.records if r.name == "asyncio"]


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_envelope_drops_only_its_connection(
    case, open_channel, unhandled, fresh_registry
):
    envelope, reason = HOSTILE[case]
    backbone, open_raw = open_channel
    subscriber = RemoteBackboneClient(open_raw(), IOContext(X86_64))
    subscriber.subscribe("s")
    sender = IOContext(SPARC_32)
    sender.register_format(
        "track", [IOField("flight", "string", 4, 0), IOField("alt", "integer", 4, 4)]
    )
    publisher_client = RemoteBackboneClient(open_raw(), sender)
    publisher = publisher_client.publisher("s")
    publisher.publish("track", {"flight": "BEFORE", "alt": 1})
    assert subscriber.next_event(timeout=5)["flight"] == "BEFORE"
    stats_before = dataclasses.replace(backbone.stats("s"))
    cache_before = list(backbone._streams["s"].metadata_cache)
    streams_before = backbone.streams()

    hostile = open_raw()
    hostile.send(envelope)
    with pytest.raises(ChannelClosedError):
        hostile.recv(timeout=5)

    assert backbone.stats("s") == stats_before
    assert backbone._streams["s"].metadata_cache == cache_before
    assert backbone.streams() == streams_before
    errors = fresh_registry.snapshot()["events_protocol_errors_total"]
    assert errors == {(("reason", reason),): 1}
    assert "events_protocol_errors_total" in fresh_registry.render()

    publisher.publish("track", {"flight": "AFTER", "alt": 2})
    assert subscriber.next_event(timeout=5)["flight"] == "AFTER"
    assert unhandled() == []
    for client in (subscriber, publisher_client):
        client.close()
