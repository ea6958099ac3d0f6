"""Publisher and subscription endpoints for the event backbone."""

from __future__ import annotations

from dataclasses import dataclass

from collections import deque

from repro.obs.propagate import extract, inject
from repro.obs.trace import TraceContext
from repro.pbio.context import (
    HEADER_SIZE,
    KIND_BATCH,
    KIND_DATA,
    KIND_FORMAT,
    IOContext,
)
from repro.pbio.format import IOFormat


class Publisher:
    """A capture point's handle on one stream.

    Encoding happens in the publisher's own context (its own simulated
    architecture); format metadata is pushed onto the stream once per
    format, where the broker caches it for late joiners.
    """

    def __init__(self, backbone, stream: str, context: IOContext) -> None:
        self.backbone = backbone
        self.stream = stream
        self.context = context
        self._announced: set[bytes] = set()
        self.published = 0

    def publish(self, fmt: IOFormat | str, record: dict) -> int:
        """Encode and publish one record; returns the delivery count."""
        if isinstance(fmt, str):
            fmt = self.context.lookup_format(fmt)
        if fmt.format_id not in self._announced:
            self.backbone.route(self.stream, self.context.format_message(fmt))
            self._announced.add(fmt.format_id)
        # Injection after encode: subscribers on any plane strip the
        # trace block back off and decode the identical NDR bytes.
        return self.backbone.route(
            self.stream, inject(self.context.encode(fmt, record))
        )

    def publish_batch(self, fmt: IOFormat | str, records) -> int:
        """Publish ``records`` as ONE columnar batch message.

        The backbone routes a single immutable frame that every matching
        subscriber shares — fan-out cost is per-batch, not per-record.
        Returns the delivery count (subscribers reached).
        """
        if isinstance(fmt, str):
            fmt = self.context.lookup_format(fmt)
        if fmt.format_id not in self._announced:
            self.backbone.route(self.stream, self.context.format_message(fmt))
            self._announced.add(fmt.format_id)
        message = self.context.encode_batch(fmt, records)
        return self.backbone.route(self.stream, message)

    def advertise_metadata(self, url: str) -> None:
        """Advertise the stream's schema document URL on the backbone."""
        self.backbone.set_metadata_url(self.stream, url)


@dataclass(frozen=True)
class Event:
    """One decoded event: where it came from plus the record."""

    stream: str
    format_name: str
    values: dict
    #: Trace context piggybacked by the publisher, when wire tracing is
    #: on at the sending end (None otherwise).
    trace: TraceContext | None = None

    def __getitem__(self, name: str):
        return self.values[name]


class Subscription:
    """A consumer's handle on all streams matching a pattern.

    ``next()`` transparently absorbs in-stream format metadata (learning
    the publishers' wire formats) and returns decoded data events.
    """

    def __init__(
        self,
        backbone,
        pattern: str,
        context: IOContext,
        queue,
        *,
        expect: str | None = None,
    ) -> None:
        self.backbone = backbone
        self.pattern = pattern
        self.context = context
        self.expect = expect
        self._queue = queue
        # Events expanded from an already-delivered batch message,
        # handed out one per next() call in batch order.
        self._ready: deque[Event] = deque()
        self.received = 0
        self._active = True

    def next(self, timeout: float | None = None) -> Event:
        """Block for the next data event on any matched stream.

        Columnar batch messages are expanded transparently: each record
        in the batch becomes one event, in batch order.
        """
        while True:
            if self._ready:
                self.received += 1
                return self._ready.popleft()
            stream_name, message = self._queue.get(timeout)
            message, trace = extract(message)
            kind, _, _, length, _ = IOContext.parse_header(message)
            if kind == KIND_FORMAT:
                self.context.learn_format(message[HEADER_SIZE : HEADER_SIZE + length])
                continue
            if kind == KIND_BATCH:
                batch = self.context.decode_batch(message)
                self._ready.extend(
                    Event(
                        stream=stream_name,
                        format_name=batch.format_name,
                        values=values,
                        trace=trace,
                    )
                    for values in batch.records
                )
                continue
            if kind != KIND_DATA:
                continue
            decoded = self.context.decode(message, expect=self.expect)
            self.received += 1
            return Event(
                stream=stream_name,
                format_name=decoded.format_name,
                values=decoded.values,
                trace=trace,
            )

    def drain(self, limit: int, timeout: float | None = 1.0) -> list[Event]:
        """Collect up to ``limit`` events (convenience for tests/examples)."""
        return [self.next(timeout) for _ in range(limit)]

    def pending(self) -> int:
        """Messages queued (data and metadata) awaiting :meth:`next`."""
        return len(self._queue)

    def cancel(self) -> None:
        """Unsubscribe; a blocked :meth:`next` raises TransportError."""
        if self._active:
            self._active = False
            self.backbone.unsubscribe(self._queue)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cancel()
