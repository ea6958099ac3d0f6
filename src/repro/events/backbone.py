"""The broker: stream registry, routing, and metadata replay."""

from __future__ import annotations

import fnmatch
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.errors import TransportError, TransportTimeoutError
from repro.events.protocol import OP_EVENT, pack_envelope
from repro.obs.metrics import get_registry
from repro.pbio.context import KIND_FORMAT, IOContext


@dataclass
class StreamStats:
    """Per-stream routing counters."""

    data_messages: int = 0
    metadata_messages: int = 0
    bytes_routed: int = 0
    subscribers: int = 0


@dataclass
class _Stream:
    name: str
    queues: list["_SubscriberQueue"] = field(default_factory=list)
    metadata_cache: list[bytes] = field(default_factory=list)
    cached_ids: set[bytes] = field(default_factory=set)
    stats: StreamStats = field(default_factory=StreamStats)
    metadata_url: str | None = None


class RoutedFrame:
    """One routed message, shared by every subscriber of a fan-out.

    The backbone wraps each message in a single :class:`RoutedFrame`
    before delivery, so all N subscriber queues hold the *same* object.
    Remote broker fronts call :meth:`envelope` to get the OP_EVENT wire
    frame — built lazily and cached on the shared object, so a stream
    with N remote subscribers serializes the envelope once instead of N
    times.  Frames are immutable by convention: sinks treat ``message``
    and the envelope as read-only.
    """

    __slots__ = ("stream", "message", "_envelope")

    def __init__(self, stream: str, message: bytes) -> None:
        self.stream = stream
        self.message = message
        self._envelope: bytes | None = None

    def envelope(self) -> bytes:
        """The cached OP_EVENT envelope carrying this frame."""
        env = self._envelope
        if env is None:
            env = pack_envelope(OP_EVENT, self.stream, payload=self.message)
            # Benign race: concurrent builders produce identical bytes.
            self._envelope = env
        return env


class _SubscriberQueue:
    """One subscriber's inbox of :class:`RoutedFrame` objects."""

    def __init__(self) -> None:
        self._items: deque[RoutedFrame] = deque()
        self._condition = threading.Condition()
        self._closed = False

    def put(self, stream: str, frame: RoutedFrame) -> None:
        with self._condition:
            if self._closed:
                return
            self._items.append(frame)
            self._condition.notify()

    def get(self, timeout: float | None = None) -> RoutedFrame:
        """The oldest frame — the object shared by every sink of its
        fan-out, so sibling delivery loops reuse one cached envelope."""
        with self._condition:
            if not self._condition.wait_for(
                lambda: self._items or self._closed, timeout=timeout
            ):
                raise TransportTimeoutError(f"no event within {timeout}s")
            if self._items:
                return self._items.popleft()
            raise TransportError("subscription cancelled")

    def close(self) -> None:
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def __len__(self) -> int:
        with self._condition:
            return len(self._items)


class EventBackbone:
    """A thread-safe publish/subscribe broker for encoded messages.

    Use :meth:`~repro.events.endpoints.Publisher`-returning
    :meth:`publisher` and :meth:`subscribe` rather than the raw
    :meth:`route` / :meth:`add_queue` plumbing.
    """

    def __init__(self, *, sink_failure_limit: int = 3) -> None:
        if sink_failure_limit < 1:
            raise TransportError("sink_failure_limit must be at least 1")
        self._streams: dict[str, _Stream] = {}
        self._patterns: list[tuple[str, _SubscriberQueue]] = []
        self._lock = threading.Lock()
        self.sink_failure_limit = sink_failure_limit
        self._sink_failures: dict[int, int] = {}  # id(queue) -> consecutive
        self.dropped_sinks = 0

    # -- high-level endpoints -----------------------------------------------

    def publisher(self, stream: str, context: IOContext) -> "Publisher":
        """Create a publishing endpoint for ``stream``."""
        from repro.events.endpoints import Publisher

        return Publisher(self, stream, context)

    def subscribe(
        self, pattern: str, context: IOContext, *, expect: str | None = None
    ) -> "Subscription":
        """Subscribe ``context`` to every stream matching ``pattern``.

        ``pattern`` is a glob (``flights.*`` matches present *and
        future* streams).  ``expect`` optionally projects records onto a
        format registered in ``context`` (evolution tolerance).
        """
        from repro.events.endpoints import Subscription

        queue = _SubscriberQueue()
        self.attach_queue(pattern, queue)
        return Subscription(self, pattern, context, queue, expect=expect)

    def attach_queue(self, pattern: str, queue: "_SubscriberQueue") -> None:
        """Plumbing: register a raw queue for ``pattern``.

        Replays cached format metadata for already-matching streams and
        remembers the pattern for streams created later.  Used by
        :meth:`subscribe` and by remote broker fronts
        (:mod:`repro.events.remote`); application code wants
        :meth:`subscribe`.
        """
        with self._lock:
            replay: list[RoutedFrame] = []
            for stream in self._streams.values():
                if fnmatch.fnmatchcase(stream.name, pattern):
                    if queue not in stream.queues:
                        stream.queues.append(queue)
                        stream.stats.subscribers += 1
                    replay.extend(
                        RoutedFrame(stream.name, message)
                        for message in stream.metadata_cache
                    )
            self._subscribe_pattern(pattern, queue)
        for frame in replay:
            queue.put(frame.stream, frame)

    # -- plumbing ---------------------------------------------------------------

    def _subscribe_pattern(self, pattern: str, queue: _SubscriberQueue) -> None:
        # Remembered so the pattern also matches streams created later.
        self._patterns.append((pattern, queue))

    def _stream(self, name: str) -> _Stream:
        stream = self._streams.get(name)
        if stream is None:
            stream = _Stream(name)
            self._streams[name] = stream
            for pattern, queue in self._patterns:
                # One inbox may hold several matching patterns; it still
                # gets each message once.
                if fnmatch.fnmatchcase(name, pattern) and queue not in stream.queues:
                    stream.queues.append(queue)
                    stream.stats.subscribers += 1
        return stream

    def route(self, stream_name: str, message: bytes) -> int:
        """Route one encoded message; returns delivery count.

        Format-metadata messages are cached per stream (keyed by content)
        for replay to late subscribers.  A sink whose ``put`` raises is
        tolerated up to ``sink_failure_limit`` consecutive failures, then
        detached (bounded failure handling: one wedged subscriber must
        not take the broker down or stall other sinks forever).

        The message is wrapped in one shared :class:`RoutedFrame` for
        the whole fan-out — every subscriber (and every remote delivery
        loop) sees the same object, so the OP_EVENT envelope is built at
        most once per publish, not once per sink.
        """
        # Store-and-forward takes ownership: a view into a reusable
        # transport/encode buffer must be pinned before queues hold it
        # past this call.  (bytes messages — the common case — pass
        # through untouched.)
        if not isinstance(message, bytes):
            message = bytes(message)
        kind, _, _, _, _ = IOContext.parse_header(message)
        with self._lock:
            stream = self._stream(stream_name)
            if kind == KIND_FORMAT:
                digest = hash(message)
                if digest not in stream.cached_ids:
                    stream.cached_ids.add(digest)
                    stream.metadata_cache.append(message)
                stream.stats.metadata_messages += 1
            else:
                stream.stats.data_messages += 1
            stream.stats.bytes_routed += len(message)
            queues = list(stream.queues)
        registry = get_registry()
        if registry.enabled:
            message_kind = "metadata" if kind == KIND_FORMAT else "data"
            registry.counter(
                "events_routed_total", "messages routed by the backbone",
                ("stream", "kind"),
            ).labels(stream_name, message_kind).inc()
            registry.counter(
                "events_routed_bytes_total", "message bytes routed", ("stream",)
            ).labels(stream_name).inc(len(message))
        delivered = 0
        frame = RoutedFrame(stream_name, message)
        for queue in queues:
            try:
                queue.put(stream_name, frame)
            except Exception:
                failures = self._sink_failures.get(id(queue), 0) + 1
                self._sink_failures[id(queue)] = failures
                if failures >= self.sink_failure_limit:
                    self.unsubscribe(queue)
                    self._sink_failures.pop(id(queue), None)
                    self.dropped_sinks += 1
                    if registry.enabled:
                        registry.counter(
                            "events_dropped_sinks_total",
                            "subscriber queues detached after repeated failures",
                        ).inc()
            else:
                delivered += 1
                self._sink_failures.pop(id(queue), None)
        if registry.enabled and queues:
            # Deepest inbox after this fan-out: a rising value means a
            # consumer is falling behind the publisher.
            registry.gauge(
                "events_queue_depth", "deepest subscriber inbox per stream",
                ("stream",),
            ).labels(stream_name).set(max(len(queue) for queue in queues))
        return delivered

    def unsubscribe(self, queue: _SubscriberQueue) -> None:
        """Detach a queue from every stream and pattern; closes it."""
        with self._lock:
            for stream in self._streams.values():
                if queue in stream.queues:
                    stream.queues.remove(queue)
                    stream.stats.subscribers -= 1
            self._patterns = [
                (pattern, q) for pattern, q in self._patterns if q is not queue
            ]
        queue.close()

    # -- introspection -------------------------------------------------------------

    def streams(self) -> list[str]:
        """Names of every stream the backbone has seen."""
        with self._lock:
            return list(self._streams)

    def stats(self, stream_name: str) -> StreamStats:
        """Routing counters for ``stream_name`` (raises if unknown)."""
        with self._lock:
            stream = self._streams.get(stream_name)
            if stream is None:
                raise TransportError(f"no stream named {stream_name!r}")
            return stream.stats

    def set_metadata_url(self, stream_name: str, url: str) -> None:
        """Associate a stream with its schema document URL (discovery)."""
        with self._lock:
            self._stream(stream_name).metadata_url = url

    def metadata_url(self, stream_name: str) -> str | None:
        """The schema URL advertised for ``stream_name``, if any."""
        with self._lock:
            stream = self._streams.get(stream_name)
            return stream.metadata_url if stream else None
