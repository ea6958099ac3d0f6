"""The event backbone's asyncio front end: broker server and client.

The asyncio drivers of the envelope protocol in
:mod:`repro.events.protocol` (docs/PROTOCOL.md §7), which the threaded
plane (:mod:`repro.events.remote`) drives too, over
:class:`~repro.aio.channel.AsyncTCPChannel` and against the same
:class:`~repro.events.backbone.EventBackbone` — hand one backbone to a
threaded :class:`~repro.events.remote.BrokerServer` and an
:class:`AsyncEventBroker` and clients of either plane exchange events
through it.

Where the threaded broker spends two threads per connection (reader +
deliverer), the async broker spends two tasks; at a thousand
subscribers that is the difference between a thousand context-switching
threads and one loop.  Each subscriber gets a **bounded** queue
(``queue_limit`` messages): a consumer that stops reading fills its
queue, further deliveries to it fail, and the backbone's existing
consecutive-failure accounting eventually detaches it — backpressure
with the same semantics the sync plane already enforces, instead of
unbounded buffering.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque

from repro.aio.channel import AsyncChannel, AsyncTCPChannel, connect
from repro.errors import ReproError, TransportError
from repro.events.backbone import EventBackbone, RoutedFrame
from repro.events.endpoints import Event
from repro.events.protocol import ClientSession, ServerSession
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.pbio.stream import RecordSender

#: Default per-subscriber queue bound (messages, not bytes).
DEFAULT_QUEUE_LIMIT = 1024


class _AsyncSinkQueue:
    """A subscriber inbox deliverable from any thread, drained by a task.

    Duck-types :class:`repro.events.backbone._SubscriberQueue`: ``put``
    may be called from the event loop *or* from a publisher thread of a
    co-attached threaded broker; ``get`` is a coroutine.  ``put`` on a
    full queue raises, which the backbone counts as a sink failure —
    the bounded-queue backpressure contract.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, maxsize: int) -> None:
        self._loop = loop
        self._maxsize = maxsize
        self._mutex = threading.Lock()
        self._items: deque[RoutedFrame] = deque()
        self._ready = asyncio.Event()
        self._closed = False

    def put(self, stream: str, frame: RoutedFrame) -> None:
        with self._mutex:
            if self._closed:
                return
            if len(self._items) >= self._maxsize:
                raise TransportError(
                    f"subscriber queue full ({self._maxsize} messages)"
                )
            self._items.append(frame)
        self._loop.call_soon_threadsafe(self._ready.set)

    async def get(self) -> RoutedFrame:
        """The oldest frame — shared by every sink of its fan-out, so
        the delivery loops reuse one cached envelope."""
        while True:
            with self._mutex:
                if self._items:
                    return self._items.popleft()
                if self._closed:
                    raise TransportError("subscription cancelled")
                self._ready.clear()
            await self._ready.wait()

    def close(self) -> None:
        with self._mutex:
            self._closed = True
        try:
            self._loop.call_soon_threadsafe(self._ready.set)
        except RuntimeError:
            pass  # loop already closed during teardown

    def __len__(self) -> int:
        with self._mutex:
            return len(self._items)


class AsyncEventBroker:
    """An asyncio TCP front end over an :class:`EventBackbone`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backbone: EventBackbone | None = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        if queue_limit < 1:
            raise TransportError("queue_limit must be at least 1")
        self.backbone = backbone if backbone is not None else EventBackbone()
        self.queue_limit = queue_limit
        self._host = host
        self._port = port
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self.connections_served = 0

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise TransportError("broker not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "AsyncEventBroker":
        """Bind and begin accepting connections (fluent)."""
        if self._server is not None:
            raise TransportError("broker already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: AsyncTCPChannel(self._on_connection),
            self._host,
            self._port,
            backlog=1024,
        )
        return self

    async def stop(self) -> None:
        """Stop accepting and tear down every connection."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def __aenter__(self) -> "AsyncEventBroker":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling --------------------------------------------------

    def _on_connection(self, channel: AsyncTCPChannel) -> None:
        self.connections_served += 1
        task = asyncio.ensure_future(self._serve_connection(channel))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_connection(self, channel: AsyncTCPChannel) -> None:
        queue = _AsyncSinkQueue(asyncio.get_running_loop(), self.queue_limit)
        session = ServerSession(self.backbone, queue)
        delivery = asyncio.ensure_future(self._delivery_loop(channel, queue))
        try:
            while True:
                reply = session.feed(await channel.recv())
                if reply is not None:
                    await channel.send(reply)
        except (ReproError, OSError, asyncio.CancelledError):
            pass  # peer gone, protocol violation or stop(): drop this connection only
        finally:
            session.close()
            delivery.cancel()
            try:
                await delivery
            except (asyncio.CancelledError, Exception):
                pass
            await channel.close()

    async def _delivery_loop(self, channel: AsyncTCPChannel, queue) -> None:
        try:
            while True:
                frame = await queue.get()
                # envelope() is cached on the shared frame: the first
                # sink of a fan-out builds it, the rest reuse it.
                await channel.send(frame.envelope())
        except (TransportError, OSError):
            return  # subscription cancelled or peer gone


class AsyncBackboneClient:
    """An async client endpoint on a remote broker (either plane).

    Mirrors :class:`~repro.events.remote.RemoteBackboneClient` with
    coroutine methods.  Publishes are fire-and-forget and ride the
    channel's write coalescing, so a burst of small events costs one
    transport write; :meth:`flush` round-trips a PING when a publisher
    needs a processed-up-to-here barrier.
    """

    def __init__(self, channel: AsyncChannel, context: IOContext) -> None:
        self.channel = channel
        self.context = context
        self._session = ClientSession(context)
        self.patterns = self._session.patterns  # one list, kept by the session

    @classmethod
    async def connect(
        cls, host: str, port: int, context: IOContext
    ) -> "AsyncBackboneClient":
        """Connect to a broker (threaded or async; the wire is the same)."""
        return cls(await connect(host, port), context)

    # -- publishing ----------------------------------------------------------

    def publisher(self, stream: str) -> "AsyncRemotePublisher":
        """A publishing handle on ``stream`` over this connection."""
        return AsyncRemotePublisher(self, stream)

    async def route(self, stream: str, message: bytes) -> None:
        """Send one context message to ``stream`` (fire and forget)."""
        await self._send(self._session.publish(stream, message))

    async def set_metadata_url(self, stream: str, url: str) -> None:
        """Advertise ``stream``'s schema document URL on the broker."""
        await self._send(self._session.advertise(stream, url))

    async def _send(self, message: bytes) -> None:
        await self.channel.send(message)

    # -- subscribing ----------------------------------------------------------

    async def subscribe(self, pattern: str, timeout: float = 10.0) -> None:
        """Register ``pattern``; returns once the broker confirms."""
        await self._send(self._session.subscribe(pattern))
        while self._session.awaiting:
            self._session.feed(await self.channel.recv(timeout))

    async def flush(self, timeout: float = 10.0) -> None:
        """Block until the broker has processed everything sent so far."""
        await self._send(self._session.ping())
        while self._session.awaiting:
            self._session.feed(await self.channel.recv(timeout))

    async def next_event(
        self, timeout: float | None = None, *, expect: str | None = None
    ) -> Event:
        """Await the next data event on any subscribed pattern.

        Columnar batch messages are expanded transparently: each record
        in the batch becomes one event, in batch order.
        """
        while True:
            event = self._session.next_event(expect)
            if event is not None:
                return event
            self._session.feed(await self.channel.recv(timeout))

    async def close(self) -> None:
        """Disconnect from the broker."""
        await self.channel.close()

    async def __aenter__(self) -> "AsyncBackboneClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class AsyncRemotePublisher:
    """A capture point's async handle on one stream of a remote broker.

    :class:`~repro.events.endpoints.Publisher` with ``await`` at each
    ``route``: the record stream decides what to send, the client sends.
    """

    def __init__(self, client: AsyncBackboneClient, stream: str) -> None:
        self.client = client
        self.stream = stream
        self._sender = RecordSender(client.context)
        self.published = 0

    async def publish(self, fmt: IOFormat | str, record: dict) -> None:
        """Encode and publish one record (metadata pushed on first use)."""
        await self._route(fmt, *self._sender.record(fmt, record))

    async def publish_batch(self, fmt: IOFormat | str, records) -> int:
        """Publish ``records`` as ONE columnar batch message; returns
        the record count."""
        metadata, parts = self._sender.batch(fmt, records)
        await self._route(fmt, metadata, b"".join(parts))
        return len(records)

    async def _route(self, fmt, metadata: bytes | None, message: bytes) -> None:
        if metadata is not None:
            await self.client.route(self.stream, metadata)
            self._sender.confirm(fmt)
        await self.client.route(self.stream, message)
        self.published += 1

    async def advertise_metadata(self, url: str) -> None:
        """Advertise the stream's schema document URL on the broker."""
        await self.client.set_metadata_url(self.stream, url)
