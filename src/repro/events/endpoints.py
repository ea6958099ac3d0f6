"""Publisher and subscription endpoints for the event backbone."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import TraceContext
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.pbio.stream import RecordReceiver, RecordSender


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
        self._sender = RecordSender(context)
        self.published = 0

    def publish(self, fmt: IOFormat | str, record: dict) -> int:
        """Encode and publish one record; returns the delivery count."""
        return self._route(fmt, *self._sender.record(fmt, record))

    def publish_batch(self, fmt: IOFormat | str, records) -> int:
        """Publish ``records`` as ONE columnar batch message.

        The backbone routes a single immutable frame that every matching
        subscriber shares — fan-out cost is per-batch, not per-record.
        Returns the delivery count (subscribers reached).
        """
        metadata, parts = self._sender.batch(fmt, records)
        return self._route(fmt, metadata, b"".join(parts))

    def _route(self, fmt, metadata: bytes | None, message: bytes) -> int:
        if metadata is not None:
            self.backbone.route(self.stream, metadata)
            self._sender.confirm(fmt)
        delivered = self.backbone.route(self.stream, message)
        self.published += 1
        return delivered

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


class EventDecoder:
    """``(stream, message)`` pairs in, :class:`Event` objects out: the
    record stream (:class:`~repro.pbio.stream.RecordReceiver`) with the
    stream name alongside.  Shared by :class:`Subscription` and the
    remote clients of both planes."""

    def __init__(self, context: IOContext) -> None:
        self._records = RecordReceiver(context)
        self._stream = ""  # origin of the last fed message and its batch tail

    def feed(self, stream: str, message, expect: str | None = None) -> Event | None:
        """Consume one routed message; the event it completes, if any."""
        self._stream = stream
        return self._event(self._records.feed(message, expect))

    def next_ready(self) -> Event | None:
        """The next event of an already-fed batch message, if any."""
        ready = self._records.ready
        return self._event(ready.popleft()) if ready else None

    def _event(self, record) -> Event | None:
        if record is None:
            return None
        return Event(
            self._stream, record.format_name, record.values, self._records.last_trace
        )


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
        self._events = EventDecoder(context)
        self.received = 0
        self._active = True

    def next(self, timeout: float | None = None) -> Event:
        """Block for the next data event on any matched stream.

        Columnar batch messages are expanded transparently: each record
        in the batch becomes one event, in batch order.
        """
        events = self._events
        while True:
            event = events.next_ready()
            if event is None:
                frame = self._queue.get(timeout)
                event = events.feed(frame.stream, frame.message, self.expect)
            if event is not None:
                self.received += 1
                return event

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
