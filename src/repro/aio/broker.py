"""The event backbone's asyncio front end: broker server and client.

Speaks the exact envelope protocol of :mod:`repro.events.remote`
(docs/PROTOCOL.md §7) over :class:`~repro.aio.channel.AsyncTCPChannel`,
against the same :class:`~repro.events.backbone.EventBackbone` — hand
one backbone to a threaded :class:`~repro.events.remote.BrokerServer`
and an :class:`AsyncEventBroker` and clients of either plane exchange
events through it.

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
from repro.errors import ChannelClosedError, TransportError, WireError
from repro.events.backbone import EventBackbone, RoutedFrame
from repro.events.endpoints import Event
from repro.obs.propagate import extract, inject
from repro.events.remote import (
    OP_ADVERTISE,
    OP_EVENT,
    OP_PING,
    OP_PONG,
    OP_PUBLISH,
    OP_SUBSCRIBE,
    OP_SUBSCRIBED,
    pack_envelope,
    unpack_envelope,
)
from repro.pbio.context import (
    HEADER_SIZE,
    KIND_BATCH,
    KIND_DATA,
    KIND_FORMAT,
    IOContext,
)
from repro.pbio.format import IOFormat

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
        self._items: deque[tuple[str, bytes]] = deque()
        self._ready = asyncio.Event()
        self._closed = False

    def put(self, stream: str, message) -> None:
        with self._mutex:
            if self._closed:
                return
            if len(self._items) >= self._maxsize:
                raise TransportError(
                    f"subscriber queue full ({self._maxsize} messages)"
                )
            self._items.append((stream, message))
        self._loop.call_soon_threadsafe(self._ready.set)

    async def _pop(self) -> tuple[str, object]:
        while True:
            with self._mutex:
                if self._items:
                    return self._items.popleft()
                if self._closed:
                    raise TransportError("subscription cancelled")
                self._ready.clear()
            await self._ready.wait()

    async def get(self) -> tuple[str, bytes]:
        stream, item = await self._pop()
        if isinstance(item, RoutedFrame):
            return stream, item.message
        return stream, item

    async def get_frame(self) -> RoutedFrame:
        """The shared :class:`~repro.events.backbone.RoutedFrame`.

        Lets the delivery loop reuse the envelope cached across every
        sink of a fan-out; raw-bytes items (metadata replay) are wrapped
        on the way out.
        """
        stream, item = await self._pop()
        if isinstance(item, RoutedFrame):
            return item
        return RoutedFrame(stream, item)

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
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port, backlog=1024
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

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self.connections_served += 1
        channel = AsyncTCPChannel(reader, writer)
        try:
            await self._serve_connection(channel)
        except asyncio.CancelledError:
            pass
        except (OSError, ConnectionError):
            pass
        finally:
            self._tasks.discard(task)
            await channel.close()

    async def _serve_connection(self, channel: AsyncTCPChannel) -> None:
        queue = _AsyncSinkQueue(asyncio.get_running_loop(), self.queue_limit)
        delivery = asyncio.ensure_future(self._delivery_loop(channel, queue))
        subscribed = False
        try:
            while True:
                try:
                    message = await channel.recv()
                except (ChannelClosedError, WireError):
                    break
                op, name, extra, payload = unpack_envelope(message)
                if op == OP_SUBSCRIBE:
                    self.backbone.attach_queue(name, queue)
                    subscribed = True
                    # Ack so the client knows routing is active before it
                    # lets publishers race ahead (same as the sync broker).
                    await channel.send(pack_envelope(OP_SUBSCRIBED, name))
                elif op == OP_PUBLISH:
                    self.backbone.route(name, payload)
                elif op == OP_ADVERTISE:
                    self.backbone.set_metadata_url(name, extra)
                elif op == OP_PING:
                    # One connection's envelopes are processed in order:
                    # the pong confirms every earlier publish routed.
                    await channel.send(pack_envelope(OP_PONG, name))
                else:
                    break  # protocol violation: drop the connection
        finally:
            if subscribed:
                self.backbone.unsubscribe(queue)
            else:
                queue.close()
            delivery.cancel()
            try:
                await delivery
            except (asyncio.CancelledError, Exception):
                pass

    async def _delivery_loop(self, channel: AsyncTCPChannel, queue) -> None:
        try:
            while True:
                frame = await queue.get_frame()
                # envelope() is cached on the shared frame: the first
                # sink of a fan-out builds it, the rest reuse it.
                await channel.send(frame.envelope())
        except (TransportError, ChannelClosedError, OSError):
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
        self._pending: list[bytes] = []  # events buffered during subscribe
        self._ready: list[Event] = []  # events expanded from a batch message
        self.patterns: list[str] = []

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

    # -- subscribing ----------------------------------------------------------

    async def subscribe(self, pattern: str, timeout: float = 10.0) -> None:
        """Register ``pattern``; returns once the broker confirms."""
        await self.channel.send(pack_envelope(OP_SUBSCRIBE, pattern))
        while True:
            message = await self.channel.recv(timeout)
            op, name, _, _ = unpack_envelope(message)
            if op == OP_SUBSCRIBED and name == pattern:
                break
            if op == OP_EVENT:
                self._pending.append(message)
                continue
            raise WireError(f"unexpected op {op} while awaiting subscribe ack")
        self.patterns.append(pattern)

    async def flush(self, timeout: float = 10.0) -> None:
        """Block until the broker has processed everything sent so far."""
        await self.channel.send(pack_envelope(OP_PING, "sync"))
        while True:
            message = await self.channel.recv(timeout)
            op, _, _, _ = unpack_envelope(message)
            if op == OP_PONG:
                return
            if op == OP_EVENT:
                self._pending.append(message)
                continue
            raise WireError(f"unexpected op {op} while awaiting pong")

    async def next_event(
        self, timeout: float | None = None, *, expect: str | None = None
    ) -> Event:
        """Await the next data event on any subscribed pattern.

        Columnar batch messages are expanded transparently: each record
        in the batch becomes one event, in batch order.
        """
        while True:
            if self._ready:
                return self._ready.pop(0)
            if self._pending:
                message = self._pending.pop(0)
            else:
                message = await self.channel.recv(timeout)
            op, stream_name, _, payload = unpack_envelope(message)
            if op in (OP_SUBSCRIBED, OP_PONG):
                continue  # late acks are not events
            if op != OP_EVENT:
                raise WireError(f"unexpected op {op} from broker")
            payload, trace = extract(payload)
            kind, _, _, length, _ = IOContext.parse_header(payload)
            if kind == KIND_FORMAT:
                self.context.learn_format(payload[HEADER_SIZE : HEADER_SIZE + length])
                continue
            if kind == KIND_BATCH:
                batch = self.context.decode_batch(payload)
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
            decoded = self.context.decode(payload, expect=expect)
            return Event(
                stream=stream_name,
                format_name=decoded.format_name,
                values=decoded.values,
                trace=trace,
            )

    async def close(self) -> None:
        """Disconnect from the broker."""
        await self.channel.close()

    async def __aenter__(self) -> "AsyncBackboneClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class AsyncRemotePublisher:
    """A capture point's async handle on one stream of a remote broker."""

    def __init__(self, client: AsyncBackboneClient, stream: str) -> None:
        self.client = client
        self.stream = stream
        self._announced: set[bytes] = set()
        self.published = 0

    async def publish(self, fmt: IOFormat | str, record: dict) -> None:
        """Encode and publish one record (metadata pushed on first use)."""
        context = self.client.context
        if isinstance(fmt, str):
            fmt = context.lookup_format(fmt)
        if fmt.format_id not in self._announced:
            await self.client.channel.send(
                pack_envelope(
                    OP_PUBLISH, self.stream, payload=context.format_message(fmt)
                )
            )
            self._announced.add(fmt.format_id)
        await self.client.channel.send(
            pack_envelope(
                OP_PUBLISH, self.stream, payload=inject(context.encode(fmt, record))
            )
        )
        self.published += 1

    async def publish_batch(self, fmt: IOFormat | str, records) -> int:
        """Publish ``records`` as ONE columnar batch message; returns
        the record count."""
        context = self.client.context
        if isinstance(fmt, str):
            fmt = context.lookup_format(fmt)
        if fmt.format_id not in self._announced:
            await self.client.channel.send(
                pack_envelope(
                    OP_PUBLISH, self.stream, payload=context.format_message(fmt)
                )
            )
            self._announced.add(fmt.format_id)
        message = context.encode_batch(fmt, records)
        await self.client.channel.send(
            pack_envelope(OP_PUBLISH, self.stream, payload=message)
        )
        self.published += 1
        return len(records)

    async def advertise_metadata(self, url: str) -> None:
        """Advertise the stream's schema document URL on the broker."""
        await self.client.channel.send(
            pack_envelope(OP_ADVERTISE, self.stream, extra=url)
        )
