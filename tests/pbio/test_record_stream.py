"""The record stream core (PROTOCOL §5–§6) without a network.

``RecordSender`` and ``RecordReceiver`` are pure: these tests move
their messages through a Python list.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IOContext, XML2Wire
from repro.arch import ALPHA, SPARC_32, X86_32, X86_64
from repro.errors import DecodeError, ReproError, TransportError
from repro.events import EventBackbone
from repro.events.protocol import OP_EVENT, ClientSession, pack_envelope
from repro.pbio import IOFileReader, IOFileWriter
from repro.pbio.context import HEADER
from repro.pbio.iofile import MAGIC
from repro.pbio.stream import RecordReceiver, RecordSender
from repro.transport import RecordConnection, make_pipe
from repro.wire import frame

SCHEMA = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:integer" />
    <xsd:element name="y" type="xsd:integer" />
  </xsd:complexType>
  <xsd:complexType name="Reading">
    <xsd:element name="sensor" type="xsd:string" />
    <xsd:element name="value" type="xsd:double" />
    <xsd:element name="seq" type="xsd:unsigned-int" />
  </xsd:complexType>
  <xsd:complexType name="Samples">
    <xsd:element name="tag" type="xsd:string" />
    <xsd:element name="v" type="xsd:double" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>"""

ARCHES = [X86_32, X86_64, SPARC_32, ALPHA]
INT32 = st.integers(-(2**31), 2**31 - 1)
DOUBLE = st.floats(allow_nan=False, allow_infinity=False, width=64)
WORD = st.one_of(
    st.none(),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8),
)
RECORDS = {
    "Point": st.fixed_dictionaries({"x": INT32, "y": INT32}),
    "Reading": st.fixed_dictionaries(
        {"sensor": WORD, "value": DOUBLE, "seq": st.integers(0, 2**32 - 1)}
    ),
    "Samples": st.lists(DOUBLE, max_size=4).flatmap(
        lambda v: st.fixed_dictionaries(
            {"tag": WORD, "v": st.just(v), "v_count": st.just(len(v))}
        )
    ),
}
OPS = st.sampled_from(sorted(RECORDS)).flatmap(
    lambda name: st.one_of(
        st.tuples(st.just(name), RECORDS[name]),
        st.tuples(st.just(name), st.lists(RECORDS[name], min_size=1, max_size=4)),
    )
)


def sender_context(arch=SPARC_32):
    context = IOContext(arch)
    XML2Wire(context).register_schema(SCHEMA)
    return context


def emit(sender, name, payload):
    """What a driver does with one send: the messages that hit the wire."""
    if isinstance(payload, dict):
        metadata, message = sender.record(name, payload)
    else:
        metadata, parts = sender.batch(name, payload)
        message = b"".join(bytes(part) for part in parts)
    if metadata is None:
        return [message]
    sender.confirm(name)
    return [metadata, message]


def receive_all(receiver, wire):
    records = []
    for message in wire:
        record = receiver.feed(message)
        if record is not None:
            records.append(record)
        while receiver.ready:
            records.append(receiver.ready.popleft())
    return records


class TestStreamProperties:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        send_arch=st.sampled_from(ARCHES),
        recv_arch=st.sampled_from(ARCHES),
        ops=st.lists(OPS, min_size=1, max_size=12),
    )
    def test_any_interleaving_arrives_in_order_metadata_once(
        self, send_arch, recv_arch, ops
    ):
        context = sender_context(send_arch)
        sender = RecordSender(context)
        wire, expected = [], []
        for name, payload in ops:
            wire.extend(emit(sender, name, payload))
            batch = [payload] if isinstance(payload, dict) else payload
            expected.extend((name, record) for record in batch)
        received = receive_all(RecordReceiver(IOContext(recv_arch)), wire)
        assert [(r.format_name, r.values) for r in received] == expected
        used = {name for name, _ in ops}
        metadata = [context.format_message(name) for name in used]
        assert sorted(m for m in wire if m in metadata) == sorted(metadata)

    def test_unconfirmed_metadata_is_offered_again(self):
        sender = RecordSender(sender_context())
        first, _ = sender.record("Point", {"x": 1, "y": 2})
        again, _ = sender.record("Point", {"x": 3, "y": 4})  # emit "failed"
        assert first is not None and again == first
        sender.confirm("Point")
        assert sender.record("Point", {"x": 5, "y": 6})[0] is None
        assert sender.announce("Point") is None


class TestHostileMessages:
    """Every prefix and single-byte mutation of every emitted message
    yields a record (or nothing) or a typed error."""

    @pytest.fixture(scope="class")
    def transcript(self):
        sender = RecordSender(sender_context())
        wire = emit(sender, "Samples", {"tag": "a", "v": [1.0, 2.5], "v_count": 2})
        batch = [
            {"tag": None, "v": [], "v_count": 0},
            {"tag": "bc", "v": [3.0], "v_count": 1},
        ]
        wire += emit(sender, "Samples", batch)
        return wire

    @staticmethod
    def variants(message):
        for cut in range(len(message)):
            yield message[:cut]
        for position in range(len(message)):
            for delta in (1, 0x80, 0xFF):
                mutated = bytearray(message)
                mutated[position] = (mutated[position] + delta) % 256
                yield bytes(mutated)

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["metadata", "data", "batch"])
    def test_prefixes_and_mutations_are_contained(self, transcript, index):
        for variant in self.variants(transcript[index]):
            receiver = RecordReceiver(IOContext(X86_64))
            try:
                if index:
                    receiver.feed(transcript[0])
                receiver.feed(variant)
                if not index:  # damaged metadata: the records that follow
                    receive_all(receiver, transcript[1:])
            except ReproError:
                pass


def unknown_kind_message():
    return HEADER.pack(9, 1, 0, 0, b"\x00" * 8)


class TestSettledOnce:
    """Cases the five copies used to answer differently."""

    def test_unknown_kind_raises_at_the_core(self):
        with pytest.raises(DecodeError, match="unexpected message kind 9"):
            RecordReceiver(IOContext()).feed(unknown_kind_message())

    def test_unknown_kind_raises_at_a_connection(self):
        left, right = make_pipe()
        left.send(unknown_kind_message())
        with pytest.raises(DecodeError, match="kind 9"):
            RecordConnection(IOContext(), right).recv(timeout=1)

    def test_unknown_kind_raises_at_a_file_reader(self):
        reader = IOFileReader(io.BytesIO(MAGIC + frame(unknown_kind_message())))
        with pytest.raises(DecodeError, match="kind 9"):
            list(reader.records())

    def test_unknown_kind_raises_at_a_subscription(self):
        backbone = EventBackbone()
        subscription = backbone.subscribe("s", IOContext())
        backbone.route("s", unknown_kind_message())
        with pytest.raises(DecodeError, match="kind 9"):
            subscription.next(timeout=1)

    def test_unknown_kind_raises_at_a_remote_client(self):
        session = ClientSession(IOContext())
        session.feed(pack_envelope(OP_EVENT, "s", payload=unknown_kind_message()))
        with pytest.raises(DecodeError, match="kind 9"):
            session.next_event()

    def test_file_reader_expands_a_batch_message(self):
        context = sender_context()
        records = [{"x": n, "y": -n} for n in range(5)]
        out = io.BytesIO()
        with IOFileWriter(out, context) as writer:
            writer.write("Point", {"x": 100, "y": 0})
            out.write(frame(context.encode_batch("Point", records)))
            writer.write("Point", {"x": 200, "y": 0})
        reader = IOFileReader(io.BytesIO(out.getvalue()), IOContext(X86_64))
        values = [record.values for record in reader.records()]
        assert values == [{"x": 100, "y": 0}, *records, {"x": 200, "y": 0}]
        assert reader.records_read == 7

    def test_format_request_is_answered_from_the_id_index(self):
        context = sender_context()
        fmt = context.lookup_format("Reading")
        assert context.registered_format(fmt.format_id) is fmt
        assert context.registered_format(b"\x01" * 8) is None
        left, right = make_pipe()
        sender = RecordConnection(context, left)
        right.send(context.request_message(fmt.format_id))
        assert sender.serve_protocol_once(timeout=1)
        assert right.recv(timeout=1) == context.format_message(fmt)
        right.send(context.request_message(b"\x01" * 8))
        with pytest.raises(TransportError, match="not registered"):
            sender.serve_protocol_once(timeout=1)
