"""The broker envelope core (PROTOCOL §7) without a network.

Server side: a hypothesis state machine drives several
``ServerSession`` objects over one ``EventBackbone`` with plain list
inboxes — no socket, thread or loop.  Client side: one scripted envelope
transcript goes through a fake sync channel and a fake async channel and
must give identical events from both remote clients.
"""

import asyncio
from fnmatch import fnmatchcase

import pytest
from hypothesis import HealthCheck, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import IOContext, XML2Wire
from repro.aio import AsyncBackboneClient
from repro.arch import SPARC_32, X86_64
from repro.errors import DecodeError, ReproError, WireError
from repro.events import EventBackbone, RemoteBackboneClient
from repro.events.protocol import (
    OP_ADVERTISE,
    OP_EVENT,
    OP_PING,
    OP_PONG,
    OP_PUBLISH,
    OP_SUBSCRIBE,
    OP_SUBSCRIBED,
    ClientSession,
    ServerSession,
    pack_envelope,
    unpack_envelope,
)
from repro.pbio.context import HEADER_SIZE, KIND_FORMAT
from repro.pbio.format import IOFormat
from repro.pbio.stream import RecordSender

SCHEMA = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:integer" />
    <xsd:element name="y" type="xsd:integer" />
  </xsd:complexType>
  <xsd:complexType name="Reading">
    <xsd:element name="sensor" type="xsd:string" />
    <xsd:element name="seq" type="xsd:unsigned-int" />
  </xsd:complexType>
</xsd:schema>"""

STREAMS = ["flights.atl", "flights.bos", "weather"]
PATTERNS = ["flights.*", "flights.atl", "weather", "*"]
SLOTS = st.integers(0, 2)


def sender_context():
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(SCHEMA)
    return context


class ListInbox:
    """The whole subscriber-queue contract, minus the waiting."""

    def __init__(self):
        self.frames = []
        self.closed = False

    def put(self, stream, frame):
        assert stream == frame.stream
        self.frames.append(frame)

    def close(self):
        self.closed = True

    def __len__(self):
        return len(self.frames)


class Connection:
    def __init__(self, backbone, name):
        self.name = name
        self.inbox = ListInbox()
        self.session = ServerSession(backbone, self.inbox)
        self.patterns = []
        self.senders = {}  # stream -> RecordSender: one publisher per stream


class BrokerMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.backbone = EventBackbone()
        self.context = sender_context()
        self.opened = 0
        self.connections = [self.open() for _ in range(3)]
        self.seq = 0
        self.routed = 0  # PUBLISH envelopes the sessions accepted
        self.sent = {}  # (stream, message) -> (publisher, [seq, ...])

    def open(self):
        self.opened += 1
        return Connection(self.backbone, f"c{self.opened}")

    def drop(self, slot):
        """What a driver does when its connection ends, for any reason."""
        connection = self.connections[slot]
        connection.session.close()
        assert connection.inbox.closed
        self.connections[slot] = self.open()

    def records(self, connection, fmt, count):
        out = []
        for _ in range(count):
            self.seq += 1
            out.append(
                {"x": int(connection.name[1:]), "y": self.seq}
                if fmt == "Point"
                else {"sensor": connection.name, "seq": self.seq}
            )
        return out

    # -- rules ---------------------------------------------------------------

    @rule(slot=SLOTS, pattern=st.sampled_from(PATTERNS))
    def subscribe(self, slot, pattern):
        connection = self.connections[slot]
        reply = connection.session.feed(pack_envelope(OP_SUBSCRIBE, pattern))
        assert reply == pack_envelope(OP_SUBSCRIBED, pattern)
        connection.patterns.append(pattern)

    @rule(
        slot=SLOTS,
        stream=st.sampled_from(STREAMS),
        fmt=st.sampled_from(["Point", "Reading"]),
        batch=st.integers(0, 3),
    )
    def publish(self, slot, stream, fmt, batch):
        connection = self.connections[slot]
        sender = connection.senders.setdefault(stream, RecordSender(self.context))
        records = self.records(connection, fmt, max(batch, 1))
        if batch:
            metadata, parts = sender.batch(fmt, records)
            message = b"".join(bytes(part) for part in parts)
        else:
            metadata, message = sender.record(fmt, records[0])
        if metadata is not None:
            envelope = ClientSession.publish(stream, metadata)
            assert connection.session.feed(envelope) is None
            sender.confirm(fmt)
            self.routed += 1
        seqs = [record.get("seq", record.get("y")) for record in records]
        self.sent[stream, message] = (connection.name, seqs)
        assert connection.session.feed(ClientSession.publish(stream, message)) is None
        self.routed += 1

    @rule(slot=SLOTS, stream=st.sampled_from(STREAMS))
    def advertise(self, slot, stream):
        url = f"http://meta/{stream}.xsd"
        envelope = ClientSession.advertise(stream, url)
        assert self.connections[slot].session.feed(envelope) is None
        assert self.backbone.metadata_url(stream) == url

    @rule(slot=SLOTS)
    def ping(self, slot):
        reply = self.connections[slot].session.feed(pack_envelope(OP_PING, "sync"))
        assert unpack_envelope(reply) == (OP_PONG, "sync", "", b"")
        # feed() is synchronous: by the PONG every earlier PUBLISH routed.
        assert self.total_routed() == self.routed

    @rule(slot=SLOTS)
    def close(self, slot):
        self.drop(slot)

    @rule(
        slot=SLOTS,
        base=st.sampled_from(["publish", "subscribe", "advertise"]),
        cut=st.one_of(st.none(), st.integers(0, 60)),
        position=st.integers(0, 60),
        delta=st.integers(1, 255),
    )
    def hostile(self, slot, base, cut, position, delta):
        connection = self.connections[slot]
        if base == "publish":
            # A record nobody sent: if a mutation of it is routed, the
            # order and metadata invariants do not look at it.
            record = self.records(connection, "Reading", 1)[0]
            message = self.context.encode("Reading", record)
            envelope = ClientSession.publish("weather", message)
        elif base == "subscribe":
            envelope = pack_envelope(OP_SUBSCRIBE, "flights.*")
        else:
            envelope = ClientSession.advertise("weather", "http://meta/w.xsd")
        if cut is not None:
            envelope = envelope[: cut % len(envelope)]
        else:
            mutated = bytearray(envelope)
            position %= len(mutated)
            mutated[position] = (mutated[position] + delta) % 256
            envelope = bytes(mutated)
        try:
            reply = connection.session.feed(envelope)
        except (WireError, DecodeError) as exc:  # anything else fails the test
            event(f"hostile envelope rejected: {type(exc).__name__}")
            self.drop(slot)
            return
        op, name, _, _ = unpack_envelope(envelope)  # accepted: still well formed
        event(f"hostile envelope accepted as op {op}")
        if op == OP_SUBSCRIBE:
            assert reply == pack_envelope(OP_SUBSCRIBED, name)
            connection.patterns.append(name)
        elif op == OP_PUBLISH:
            self.routed += 1
        else:
            assert op in (OP_ADVERTISE, OP_PING)

    # -- invariants ----------------------------------------------------------

    def total_routed(self):
        stats = [self.backbone.stats(name) for name in self.backbone.streams()]
        return sum(s.data_messages + s.metadata_messages for s in stats)

    @invariant()
    def subscriber_counts_match_open_connections(self):
        for stream in self.backbone.streams():
            expected = sum(
                any(fnmatchcase(stream, pattern) for pattern in connection.patterns)
                for connection in self.connections
            )
            assert self.backbone.stats(stream).subscribers == expected, stream

    @invariant()
    def metadata_precedes_data_and_publisher_order_holds(self):
        for connection in self.connections:
            announced = set()  # (stream, format id)
            last_seq = {}  # publisher -> last sequence number seen
            for frame in connection.inbox.frames:
                kind, _, _, length, format_id = IOContext.parse_header(frame.message)
                if kind == KIND_FORMAT:
                    try:
                        body = frame.message[HEADER_SIZE : HEADER_SIZE + length]
                        learned = IOFormat.from_wire_metadata(body)
                    except ReproError:
                        continue  # a routed mutation
                    announced.add((frame.stream, learned.format_id))
                elif (frame.stream, frame.message) in self.sent:
                    assert (frame.stream, format_id) in announced
                    publisher, seqs = self.sent[frame.stream, frame.message]
                    assert seqs[0] > last_seq.get(publisher, 0)
                    last_seq[publisher] = seqs[-1]


BrokerMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestBrokerMachine = BrokerMachine.TestCase


class TestServerSession:
    def test_close_before_subscribe_closes_the_inbox(self):
        inbox = ListInbox()
        ServerSession(EventBackbone(), inbox).close()
        assert inbox.closed

    def test_overlapping_patterns_attach_an_inbox_once(self):
        backbone = EventBackbone()
        inbox = ListInbox()
        session = ServerSession(backbone, inbox)
        session.feed(pack_envelope(OP_SUBSCRIBE, "flights.*"))
        session.feed(pack_envelope(OP_SUBSCRIBE, "*"))
        context = sender_context()
        message = context.encode("Point", {"x": 1, "y": 2})
        assert backbone.route("flights.new", message) == 1  # stream created after
        assert backbone.stats("flights.new").subscribers == 1
        session.close()
        assert backbone.stats("flights.new").subscribers == 0


# -- driver parity -------------------------------------------------------------


def transcript():
    """Envelopes a broker sends one subscriber, in order, with the
    points where the client acts."""
    context = sender_context()
    sender = RecordSender(context)
    meta, first = sender.record("Reading", {"sensor": "a", "seq": 1})
    sender.confirm("Reading")
    _, second = sender.record("Reading", {"sensor": "a", "seq": 2})
    point_meta, parts = sender.batch("Point", [{"x": n, "y": n * n} for n in range(3)])
    sender.confirm("Point")
    _, third = sender.record("Reading", {"sensor": "b", "seq": 3})

    def event(stream, message):
        return pack_envelope(OP_EVENT, stream, payload=message)

    return [
        pack_envelope(OP_SUBSCRIBED, "flights.*"),
        event("flights.atl", meta),  # these two arrive ahead of the second ack
        event("flights.atl", first),
        pack_envelope(OP_SUBSCRIBED, "weather"),
        event("flights.atl", second),
        pack_envelope(OP_SUBSCRIBED, "flights.*"),  # a late ack: skipped
        event("weather", point_meta),
        event("weather", b"".join(bytes(part) for part in parts)),
        event("flights.bos", meta),
        event("flights.bos", third),  # arrives ahead of the PONG
        pack_envelope(OP_PONG, "sync"),
    ]


class ScriptedChannel:
    def __init__(self, incoming):
        self.incoming = list(incoming)
        self.sent = []

    def send(self, message):
        self.sent.append(bytes(message))

    def recv(self, timeout=None):
        return self.incoming.pop(0)


class AsyncScriptedChannel(ScriptedChannel):
    async def send(self, message):
        self.sent.append(bytes(message))

    async def recv(self, timeout=None):
        return self.incoming.pop(0)


def drive_sync(channel):
    client = RemoteBackboneClient(channel, IOContext(X86_64))
    client.subscribe("flights.*")
    client.subscribe("weather")
    events = [client.next_event(timeout=1) for _ in range(5)]
    client.flush()
    events.append(client.next_event(timeout=1))
    return client, events


async def drive_async(channel):
    client = AsyncBackboneClient(channel, IOContext(X86_64))
    await client.subscribe("flights.*")
    await client.subscribe("weather")
    events = [await client.next_event(timeout=1) for _ in range(5)]
    await client.flush()
    events.append(await client.next_event(timeout=1))
    return client, events


class TestDriverParity:
    def test_one_transcript_gives_identical_events_on_both_planes(self):
        sync_channel = ScriptedChannel(transcript())
        async_channel = AsyncScriptedChannel(transcript())
        sync_client, sync_events = drive_sync(sync_channel)
        async_client, async_events = asyncio.run(drive_async(async_channel))
        assert sync_events == async_events
        assert sync_channel.sent == async_channel.sent
        assert sync_client.patterns == async_client.patterns == ["flights.*", "weather"]
        assert [(e.stream, e.format_name) for e in sync_events] == [
            ("flights.atl", "Reading"),
            ("flights.atl", "Reading"),
            ("weather", "Point"),
            ("weather", "Point"),
            ("weather", "Point"),
            ("flights.bos", "Reading"),
        ]
        numbers = [e.values.get("seq", e.values.get("y")) for e in sync_events]
        assert numbers == [1, 2, 0, 1, 4, 3]
        assert not sync_channel.incoming and not async_channel.incoming

    @pytest.mark.parametrize("awaiting", ["subscribe", "flush"])
    def test_wrong_ack_is_a_wire_error_on_both_planes(self, awaiting):
        wrong_op = OP_PONG if awaiting == "subscribe" else OP_SUBSCRIBED
        wrong = pack_envelope(wrong_op, "s")
        client = RemoteBackboneClient(ScriptedChannel([wrong]), IOContext())
        aclient = AsyncBackboneClient(AsyncScriptedChannel([wrong]), IOContext())
        with pytest.raises(WireError, match="while awaiting") as sync_error:
            client.subscribe("s") if awaiting == "subscribe" else client.flush()
        with pytest.raises(WireError, match="while awaiting") as async_error:
            asyncio.run(
                aclient.subscribe("s") if awaiting == "subscribe" else aclient.flush()
            )
        assert str(sync_error.value) == str(async_error.value)

    def test_publishers_send_identical_envelopes_on_both_planes(self):
        records = [{"x": n, "y": -n} for n in range(4)]
        sync_channel, async_channel = ScriptedChannel([]), AsyncScriptedChannel([])
        publisher = RemoteBackboneClient(sync_channel, sender_context()).publisher("s")
        publisher.publish("Point", records[0])
        assert publisher.publish_batch("Point", records) == 4
        publisher.advertise_metadata("http://meta/s.xsd")

        async def scenario():
            aclient = AsyncBackboneClient(async_channel, sender_context())
            apublisher = aclient.publisher("s")
            await apublisher.publish("Point", records[0])
            assert await apublisher.publish_batch("Point", records) == 4
            await apublisher.advertise_metadata("http://meta/s.xsd")
            return apublisher

        apublisher = asyncio.run(scenario())
        assert sync_channel.sent == async_channel.sent
        assert [unpack_envelope(m)[0] for m in sync_channel.sent] == [
            OP_PUBLISH, OP_PUBLISH, OP_PUBLISH, OP_ADVERTISE,
        ]  # metadata once, record, batch, advertisement
        assert publisher.published == apublisher.published == 2
