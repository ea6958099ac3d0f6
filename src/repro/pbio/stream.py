"""The record stream: PROTOCOL §5–§6 as two pure state machines.

A stream is a sequence of context messages in which a format's metadata
precedes its first record.  Whatever carries one — a connection, a PBIO
file, an event-backbone stream on any plane — is a *driver* moving the
messages :class:`RecordSender` produces and :class:`RecordReceiver`
consumes.  Neither touches a socket, file, lock or clock, and both reach
the codec only through public methods of the context they are handed,
so a delegating proxy around an ``IOContext`` sees every call.
"""

from __future__ import annotations

from collections import deque

from repro.errors import DecodeError
from repro.obs.propagate import TRACE_FLAG, extract, inject
from repro.obs.trace import TraceContext
from repro.pbio.context import (
    HEADER_SIZE,
    KIND_BATCH,
    KIND_DATA,
    KIND_FORMAT,
    DecodedRecord,
    IOContext,
)
from repro.pbio.format import IOFormat


class RecordSender:
    """The sending half: metadata once per format, then data.

    :meth:`record` and :meth:`batch` return ``(metadata, message)``;
    ``metadata`` is the format message the stream still lacks, or None.
    The driver emits it first and then calls :meth:`confirm`: a format
    counts as announced only once its metadata went out, so an emit
    that raised is repeated by the next send.
    """

    def __init__(self, context: IOContext) -> None:
        self.context = context
        self._announced: set[bytes] = set()

    def _resolve(self, fmt: IOFormat | str) -> IOFormat:
        return self.context.lookup_format(fmt) if isinstance(fmt, str) else fmt

    def announce(self, fmt: IOFormat | str) -> bytes | None:
        """``fmt``'s metadata message, or None if the stream carries it."""
        fmt = self._resolve(fmt)
        if fmt.format_id in self._announced:
            return None
        return self.context.format_message(fmt)

    def confirm(self, fmt: IOFormat | str) -> None:
        """Note that ``fmt``'s metadata message was emitted."""
        self._announced.add(self._resolve(fmt).format_id)

    def record(self, fmt: IOFormat | str, record: dict) -> tuple[bytes | None, bytes]:
        """The messages carrying one record; the trace block (§11.1)
        is injected after encode, so NDR bytes are never perturbed."""
        fmt = self._resolve(fmt)
        return self.announce(fmt), inject(self.context.encode(fmt, record))

    def batch(self, fmt: IOFormat | str, records) -> tuple[bytes | None, list]:
        """The messages carrying ``records`` as one columnar batch
        (§14), the batch as buffer parts for scatter-gather drivers.
        Batches carry no trace block."""
        fmt = self._resolve(fmt)
        return self.announce(fmt), self.context.encode_batch_iov(fmt, records)


class RecordReceiver:
    """The receiving half: one message in, at most one record out.

    A batch yields its first record and queues the rest on
    :attr:`ready`, which the driver drains before feeding again.
    """

    def __init__(self, context: IOContext) -> None:
        self.context = context
        #: Records of an already-fed batch message, in batch order.
        self.ready: deque[DecodedRecord] = deque()
        #: Trace context of the last data or batch message fed, if any.
        self.last_trace: TraceContext | None = None
        self.batches_received = 0

    def feed(self, message, expect: str | None = None) -> DecodedRecord | None:
        """Consume one message: absorb metadata, strip the trace block,
        expand a batch, decode onto ``expect``.  Any other message kind
        raises :class:`~repro.errors.DecodeError`."""
        context = self.context
        kind, _, reserved, length, _ = context.parse_header(message)
        trace = None
        if reserved & TRACE_FLAG:
            message, trace = extract(message)
        if kind == KIND_DATA:
            self.last_trace = trace
            return context.decode(message, expect=expect)
        if kind == KIND_FORMAT:
            context.learn_format(message[HEADER_SIZE : HEADER_SIZE + length])
            return None
        if kind != KIND_BATCH:
            raise DecodeError(f"unexpected message kind {kind}")
        batch = context.decode_batch(message)
        self.batches_received += 1
        self.last_trace = trace
        self.ready.extend(
            DecodedRecord(batch.format_name, values, batch.wire_format)
            for values in batch.records
        )
        return self.ready.popleft() if self.ready else None
