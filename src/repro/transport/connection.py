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

Counters expose exactly what the amortization experiment (C4) needs:
how many bytes went to metadata versus data.
"""

from __future__ import annotations

from collections import deque

from repro.errors import DecodeError, TransportError
from repro.obs.propagate import extract, inject
from repro.obs.trace import TraceContext
from repro.pbio.context import (
    HEADER_SIZE,
    KIND_BATCH,
    KIND_DATA,
    KIND_FORMAT,
    KIND_REQUEST,
    DecodedRecord,
    IOContext,
)
from repro.pbio.format import IOFormat
from repro.transport.channel import Channel


class RecordConnection:
    """Typed record exchange between two endpoints."""

    def __init__(self, context: IOContext, channel: Channel) -> None:
        self.context = context
        self.channel = channel
        self._announced: set[bytes] = set()
        # Parked data messages await their format metadata; each rides
        # with the trace context (if any) it arrived with.
        self._parked: deque[tuple[bytes, TraceContext | None]] = deque()
        # Records already decoded from a delivered batch message, handed
        # out one per recv() call in batch order.
        self._ready: deque[DecodedRecord] = deque()
        # Traffic accounting (bytes on the wire, split by purpose).
        self.data_bytes = 0
        self.metadata_bytes = 0
        self.data_messages = 0
        self.metadata_messages = 0
        self.batch_messages = 0  # columnar batch messages sent
        self.batch_records = 0  # records carried by sent batches
        self.batches_received = 0
        #: Trace context piggybacked on the last data message received
        #: (None when the sender did not propagate one).
        self.last_trace: TraceContext | None = None

    # -- sending -----------------------------------------------------------

    def send(self, fmt: IOFormat | str, record: dict) -> None:
        """Send one record, pushing format metadata first if needed."""
        if isinstance(fmt, str):
            fmt = self.context.lookup_format(fmt)
        self.announce(fmt)
        # Trace injection happens here, after encode: NDR bytes are
        # never perturbed, only the wire message grows a trailing block
        # (PROTOCOL §11) when the feature flag is on.
        message = inject(self.context.encode(fmt, record))
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
        if isinstance(fmt, str):
            fmt = self.context.lookup_format(fmt)
        self.announce(fmt)
        parts = self.context.encode_batch_iov(fmt, records)
        sent = self.channel.send_batch(parts)
        self.data_bytes += sent
        self.batch_messages += 1
        count = len(records)
        self.batch_records += count
        return count

    def announce(self, fmt: IOFormat | str) -> bool:
        """Push ``fmt``'s metadata if this connection has not seen it.

        Returns True if a metadata message was actually sent.  Exposed
        separately so benchmarks can isolate the push cost.
        """
        if isinstance(fmt, str):
            fmt = self.context.lookup_format(fmt)
        if fmt.format_id in self._announced:
            return False
        message = self.context.format_message(fmt)
        self.channel.send(message)
        self._announced.add(fmt.format_id)
        self.metadata_bytes += len(message)
        self.metadata_messages += 1
        return True

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
        while True:
            # Records left over from an already-delivered batch come
            # first — they predate anything still on the wire.
            if self._ready:
                return self._ready.popleft()
            # Deliver the oldest parked data message once its format is
            # known — preserving FIFO order across the resolution stall.
            if self._parked:
                head, head_trace = self._parked[0]
                _, _, _, _, head_id = IOContext.parse_header(head)
                if self.context.knows_format_id(head_id) or self._try_server(head_id):
                    self._parked.popleft()
                    return self._deliver(head, head_trace, expect)
            message, trace = extract(self.channel.recv(timeout))
            kind, _, _, length, format_id = IOContext.parse_header(message)
            if kind == KIND_FORMAT:
                self.context.learn_format(message[HEADER_SIZE : HEADER_SIZE + length])
                continue
            if kind == KIND_REQUEST:
                self._answer_request(format_id)
                continue
            if kind not in (KIND_DATA, KIND_BATCH):
                raise DecodeError(f"unexpected message kind {kind}")
            if self.context.knows_format_id(format_id) or self._try_server(format_id):
                if self._parked:
                    # An earlier record is still stalled; keep order.
                    self._parked.append((message, trace))
                    continue
                return self._deliver(message, trace, expect)
            self.channel.send(self.context.request_message(format_id))
            self._parked.append((message, trace))

    def _deliver(self, message, trace, expect) -> DecodedRecord:
        """Decode one data or batch message; batches queue their tail."""
        kind, _, _, _, _ = IOContext.parse_header(message)
        self.last_trace = trace
        if kind != KIND_BATCH:
            return self.context.decode(message, expect=expect)
        batch = self.context.decode_batch(message)
        self.batches_received += 1
        records = [
            DecodedRecord(
                format_name=batch.format_name,
                values=values,
                wire_format=batch.wire_format,
            )
            for values in batch.records
        ]
        self._ready.extend(records[1:])
        return records[0]

    def _try_server(self, format_id: bytes) -> bool:
        try:
            self.context.wire_format(format_id)
            return True
        except DecodeError:
            return False

    def _answer_request(self, format_id: bytes) -> None:
        fmt = self._by_id(format_id)
        if fmt is None:
            raise TransportError(
                f"peer requested format {format_id.hex()}, which this "
                f"endpoint has not registered"
            )
        message = self.context.format_message(fmt)
        self.channel.send(message)
        self.metadata_bytes += len(message)
        self.metadata_messages += 1

    def _by_id(self, format_id: bytes) -> IOFormat | None:
        for name in self.context.format_names():
            fmt = self.context.lookup_format(name)
            if fmt.format_id == format_id:
                return fmt
        return None

    # -- service loop -----------------------------------------------------------

    def serve_protocol_once(self, timeout: float | None = None) -> bool:
        """Handle exactly one protocol (non-data) message, if present.

        Returns True if a message was handled, False on timeout.  Lets a
        sender endpoint answer format requests without a full recv loop.
        """
        try:
            message, trace = extract(self.channel.recv(timeout))
        except TransportError:
            return False
        kind, _, _, length, format_id = IOContext.parse_header(message)
        if kind == KIND_FORMAT:
            self.context.learn_format(message[HEADER_SIZE : HEADER_SIZE + length])
        elif kind == KIND_REQUEST:
            self._answer_request(format_id)
        else:
            self._parked.append((message, trace))
        return True

    def close(self) -> None:
        """Close the underlying channel."""
        self.channel.close()
