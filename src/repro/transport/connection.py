"""RecordConnection: the PBIO message protocol over any channel.

Pairs an :class:`~repro.pbio.IOContext` with a
:class:`~repro.transport.channel.Channel` and implements the metadata
exchange the paper describes:

- **eager push** — the first data message of each format on a connection
  is preceded by a format-metadata message, so a steady-state connection
  carries only 16-byte headers of per-format cost;
- **pull on miss** — a receiver that sees an unknown format id (say, it
  joined late on a multicast-style fan-out where the push was missed)
  sends a format request; the peer answers with the metadata.  The data
  message is parked meanwhile and decoded once the metadata lands.

The push half is the shared record stream of :mod:`repro.pbio.stream`;
this class moves its messages over the channel and layers pull on miss
on top, being the only endpoint with a peer to ask.  Counters expose
exactly what the amortization experiment (C4) needs: how many bytes went
to metadata versus data.
"""

from __future__ import annotations

from collections import deque

from repro.errors import (
    DecodeError,
    TransportError,
    TransportTimeoutError,
    UnknownFormatError,
)
from repro.obs.trace import TraceContext
from repro.pbio.context import (
    KIND_BATCH,
    KIND_DATA,
    KIND_REQUEST,
    DecodedRecord,
    IOContext,
)
from repro.pbio.format import IOFormat
from repro.pbio.stream import RecordReceiver, RecordSender
from repro.transport.channel import Channel


class RecordConnection:
    """Typed record exchange between two endpoints."""

    def __init__(self, context: IOContext, channel: Channel) -> None:
        self.context = context
        self.channel = channel
        self._sender = RecordSender(context)
        self._receiver = RecordReceiver(context)
        # Data messages parked until their format metadata lands, each
        # with the format id it waits for.
        self._parked: deque[tuple[bytes, bytes]] = deque()
        # Traffic accounting (bytes on the wire, split by purpose).
        self.data_bytes = 0
        self.metadata_bytes = 0
        self.data_messages = 0
        self.metadata_messages = 0
        self.batch_messages = 0  # columnar batch messages sent
        self.batch_records = 0  # records carried by sent batches

    @property
    def last_trace(self) -> TraceContext | None:
        """Trace context piggybacked on the last data message received
        (None when the sender did not propagate one)."""
        return self._receiver.last_trace

    @property
    def batches_received(self) -> int:
        """Columnar batch messages received so far."""
        return self._receiver.batches_received

    # -- sending -----------------------------------------------------------

    def send(self, fmt: IOFormat | str, record: dict) -> None:
        """Send one record, pushing format metadata first if needed."""
        metadata, message = self._sender.record(fmt, record)
        if metadata is not None:
            self._push(metadata, fmt)
        self.channel.send(message)
        self.data_bytes += len(message)
        self.data_messages += 1

    def send_batch(self, fmt: IOFormat | str, records) -> int:
        """Send ``records`` as one columnar batch message; returns the count.

        Metadata is pushed first like :meth:`send`.  The batch frame is
        handed to the channel as an iovec
        (:meth:`~repro.transport.channel.Channel.send_batch`), so
        scatter-gather transports never concatenate the column blocks.
        Batch messages carry no trace piggyback (PROTOCOL §11 tags data
        messages only), so their wire bytes are tracing-invariant.
        """
        metadata, parts = self._sender.batch(fmt, records)
        if metadata is not None:
            self._push(metadata, fmt)
        self.data_bytes += self.channel.send_batch(parts)
        self.batch_messages += 1
        count = len(records)
        self.batch_records += count
        return count

    def announce(self, fmt: IOFormat | str) -> bool:
        """Push ``fmt``'s metadata if this connection has not seen it.

        Returns True if a metadata message was actually sent.  Exposed
        separately so benchmarks can isolate the push cost.
        """
        metadata = self._sender.announce(fmt)
        if metadata is None:
            return False
        self._push(metadata, fmt)
        return True

    def _push(self, metadata: bytes, announced: IOFormat | str | None = None) -> None:
        self.channel.send(metadata)
        self.metadata_bytes += len(metadata)
        self.metadata_messages += 1
        if announced is not None:
            self._sender.confirm(announced)

    # -- receiving -----------------------------------------------------------

    def recv(
        self,
        timeout: float | None = None,
        *,
        expect: str | None = None,
    ) -> DecodedRecord:
        """Receive the next data record, servicing protocol messages.

        Format-metadata messages are absorbed; format requests are
        answered; data messages with unknown format ids trigger a
        request and are parked until the metadata arrives.  Columnar
        batch messages are expanded transparently: each record in the
        batch is returned by one ``recv`` call, in batch order.
        """
        receiver = self._receiver
        ready = receiver.ready
        parked = self._parked
        while True:
            # Records left over from an already-delivered batch come
            # first — they predate anything still on the wire.
            if ready:
                return ready.popleft()
            if parked:
                message = self._next_while_stalled(timeout)
                if message is None:
                    continue
            else:
                message = self.channel.recv(timeout)
            try:
                record = receiver.feed(message, expect)
            except UnknownFormatError as miss:
                self._park(miss.format_id, message)
                continue
            except DecodeError:
                # Not a record-stream message; a connection, unlike a
                # file, has a peer that may be asking for metadata.
                kind, format_id = self._kind_and_id(message)
                if kind != KIND_REQUEST:
                    raise
                self._answer_request(format_id)
                continue
            if record is not None:
                return record

    def _next_while_stalled(self, timeout: float | None):
        """The next message to feed while records are parked, or None.

        The oldest parked message, once decodable, goes first (FIFO
        order across the stall); data arriving meanwhile queues behind
        it, metadata and requests are fed straight away.
        """
        parked = self._parked
        if self._resolvable(parked[0][0]):
            return parked.popleft()[1]
        message = self.channel.recv(timeout)
        kind, format_id = self._kind_and_id(message)
        if kind != KIND_DATA and kind != KIND_BATCH:
            return message
        if self._resolvable(format_id):
            parked.append((format_id, message))
        else:
            self._park(format_id, message)
        return None

    def _park(self, format_id: bytes, message) -> None:
        """Pull on miss: ask the peer for ``format_id``, hold ``message``."""
        self.channel.send(self.context.request_message(format_id))
        self._parked.append((format_id, message))

    def _kind_and_id(self, message) -> tuple[int, bytes]:
        kind, _, _, _, format_id = self.context.parse_header(message)
        return kind, format_id

    def _resolvable(self, format_id: bytes) -> bool:
        try:
            self.context.wire_format(format_id)  # learned, or on the format server
            return True
        except UnknownFormatError:
            return False

    def _answer_request(self, format_id: bytes) -> None:
        fmt = self.context.registered_format(format_id)
        if fmt is None:
            raise TransportError(
                f"peer requested format {format_id.hex()}, which this "
                f"endpoint has not registered"
            )
        self._push(self.context.format_message(fmt))

    # -- service loop -----------------------------------------------------------

    def serve_protocol_once(self, timeout: float | None = None) -> bool:
        """Handle exactly one protocol (non-data) message, if present.

        Returns True if a message was handled, False on timeout.  Lets a
        sender endpoint answer format requests without a full recv loop;
        a data message that arrives instead is parked for :meth:`recv`.
        """
        try:
            message = self.channel.recv(timeout)
        except TransportTimeoutError:
            return False
        kind, format_id = self._kind_and_id(message)
        if kind == KIND_REQUEST:
            self._answer_request(format_id)
        elif kind == KIND_DATA or kind == KIND_BATCH:
            self._parked.append((format_id, message))
        else:
            self._receiver.feed(message)
        return True

    def close(self) -> None:
        """Close the underlying channel."""
        self.channel.close()
