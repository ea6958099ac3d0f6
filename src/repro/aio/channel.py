"""Asyncio transport: framed message channels over asyncio streams.

Speaks exactly the wire format of :mod:`repro.transport.tcp` — the
big-endian u32 length prefix of :mod:`repro.wire.framing` — so an
:class:`AsyncTCPChannel` on one end and a sync
:class:`~repro.transport.tcp.TCPChannel` on the other are
indistinguishable on the wire.

Concurrency model (see docs/PROTOCOL.md §10):

- **send lock** — concurrent ``send`` coroutines are serialized per
  frame; frames from different senders interleave at frame boundaries,
  never inside one.
- **recv lock** — concurrent ``recv`` coroutines are serialized per
  frame; each receives one whole frame, arrival order decides which.
- **write coalescing** — frames smaller than ``coalesce_bytes`` are
  parked in a user-space buffer and flushed in one transport write on
  the next loop tick (or sooner, when the buffer fills).  Many small
  publishes become one syscall instead of many.
- **backpressure** — the transport's write-buffer high-water mark is set
  to ``high_water``; every flush awaits ``drain()``, so a producer
  outrunning a slow peer suspends instead of buffering without bound.

As on the sync channel, a recv timeout can never desynchronize the
stream: asyncio's ``StreamReader`` only consumes bytes once a full read
is satisfied, so a cancelled mid-frame read leaves every byte buffered
and the next ``recv`` resumes cleanly.  :attr:`AsyncTCPChannel.poisoned`
exists for interface parity and is always ``False``.
"""

from __future__ import annotations

import abc
import asyncio
from time import perf_counter

from repro.errors import (
    ChannelClosedError,
    TransportError,
    TransportTimeoutError,
    WireError,
)
from repro.obs.instr import channel_handles
from repro.obs.metrics import get_registry
from repro.wire.framing import MAX_FRAME_SIZE, _LENGTH, frame_iov, frame_parts

# Memo of the bound series for the current default registry; swapped
# registries (tests) re-resolve on first use.
_obs_memo = [None]


def _obs():
    """The async plane's channel metric handles, or None if disabled."""
    registry = get_registry()
    if not registry.enabled:
        return None
    cached = _obs_memo[0]
    if cached is None or cached[0] is not registry:
        cached = (registry, channel_handles(registry, "async"))
        _obs_memo[0] = cached
    return cached[1]

#: Frames at or above this many bytes bypass the coalescing buffer.
DEFAULT_COALESCE_BYTES = 2048

#: Transport write-buffer high-water mark: ``drain()`` suspends above it.
DEFAULT_HIGH_WATER = 256 * 1024


class AsyncChannel(abc.ABC):
    """The async counterpart of :class:`repro.transport.channel.Channel`.

    Same contract — one ``send`` is one ``recv``, whole messages, the
    same error types — with coroutine methods.
    """

    @abc.abstractmethod
    async def send(self, message: bytes) -> None:
        """Deliver ``message`` to the peer (may buffer; see ``flush``)."""

    @abc.abstractmethod
    async def recv(self, timeout: float | None = None) -> bytes:
        """Await the next message.

        Raises :class:`~repro.errors.ChannelClosedError` on clean EOF,
        :class:`~repro.errors.TransportTimeoutError` on timeout.
        """

    @abc.abstractmethod
    async def close(self) -> None:
        """Close this end; idempotent."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        """True once :meth:`close` has been called on this end."""

    async def flush(self) -> None:
        """Force any buffered frames onto the wire (default: no-op)."""

    async def send_batch(self, parts) -> int:
        """Deliver ONE message supplied as an iovec of buffer parts.

        Same contract as
        :meth:`repro.transport.channel.Channel.send_batch`: the peer's
        ``recv`` sees the concatenation of ``parts`` as one message.
        The base implementation joins; scatter-gather transports
        override it.  Returns the message's byte length.
        """
        message = b"".join(bytes(part) for part in parts)
        await self.send(message)
        return len(message)

    async def __aenter__(self) -> "AsyncChannel":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class AsyncTCPChannel(AsyncChannel):
    """A connected asyncio stream speaking length-prefixed messages."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        coalesce_bytes: int = DEFAULT_COALESCE_BYTES,
        high_water: int = DEFAULT_HIGH_WATER,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._closed = False
        self._send_lock = asyncio.Lock()
        self._recv_lock = asyncio.Lock()
        # Coalescing buffer as an iovec: (header, payload) pairs are
        # appended by reference and handed to writelines() at flush — no
        # per-frame concatenation copy.
        self._wbufs: list = []
        self._wbuf_len = 0
        self._flush_task: asyncio.Task | None = None
        self.coalesce_bytes = coalesce_bytes
        self.frames_sent = 0
        self.frames_received = 0
        self.flushes = 0  # transport writes (each may carry many frames)
        try:
            writer.transport.set_write_buffer_limits(high=high_water)
        except (AttributeError, NotImplementedError):  # e.g. test transports
            pass

    # -- sending ---------------------------------------------------------------

    async def send(self, message: bytes) -> None:
        """Deliver ``message`` (may coalesce; see :meth:`flush`).

        The payload is buffered **by reference** until the flush that
        carries it: a caller handing in a mutable buffer (``bytearray``,
        ``memoryview`` over a pooled encode buffer) must not reuse it
        before ``await flush()`` returns.
        """
        header, payload = frame_iov(message)
        handles = _obs()
        started = perf_counter() if handles is not None else 0.0
        async with self._send_lock:
            if self._closed:
                raise ChannelClosedError("cannot send on a closed channel")
            self._wbufs.append(header)
            self._wbufs.append(payload)
            self._wbuf_len += len(header) + len(payload)
            self.frames_sent += 1
            if self._wbuf_len >= self.coalesce_bytes:
                await self._flush_buffered()
            elif self._flush_task is None:
                # Park small frames until the loop comes back around, so
                # a burst of sends in one tick costs one write.
                self._flush_task = asyncio.ensure_future(self._deferred_flush())
        if handles is not None:
            handles.send_seconds.observe(perf_counter() - started)
            handles.send_frames.inc()
            handles.send_bytes.inc(len(message))

    async def send_many(self, messages) -> int:
        """Send a batch as one vectored write; returns the frame count.

        All frames join the iovec under one lock acquisition and are
        flushed immediately with a single ``writelines`` + ``drain`` —
        the async counterpart of the sync channel's scatter-gather
        ``send_many``.
        """
        iov: list = []
        count = 0
        total_bytes = 0
        for message in messages:
            header, payload = frame_iov(message)
            iov.append(header)
            iov.append(payload)
            total_bytes += len(payload)
            count += 1
        if not count:
            return 0
        handles = _obs()
        started = perf_counter() if handles is not None else 0.0
        async with self._send_lock:
            if self._closed:
                raise ChannelClosedError("cannot send on a closed channel")
            self._wbufs.extend(iov)
            self._wbuf_len += total_bytes + _LENGTH.size * count
            self.frames_sent += count
            await self._flush_buffered()
        if handles is not None:
            handles.send_seconds.observe(perf_counter() - started)
            handles.send_frames.inc(count)
            handles.send_bytes.inc(total_bytes)
        return count

    async def send_batch(self, parts) -> int:
        """Send one frame supplied as an iovec of parts; returns its length.

        The async counterpart of the sync channel's ``send_batch``: a
        columnar batch message joins the write iovec part by part (no
        join copy) and is flushed immediately with one ``writelines`` +
        ``drain``.
        """
        buffers = frame_parts(parts)
        total = sum(len(part) for part in buffers) - _LENGTH.size
        handles = _obs()
        started = perf_counter() if handles is not None else 0.0
        async with self._send_lock:
            if self._closed:
                raise ChannelClosedError("cannot send on a closed channel")
            self._wbufs.extend(buffers)
            self._wbuf_len += total + _LENGTH.size
            self.frames_sent += 1
            await self._flush_buffered()
        if handles is not None:
            handles.send_seconds.observe(perf_counter() - started)
            handles.send_frames.inc()
            handles.send_bytes.inc(total)
        return total

    async def _deferred_flush(self) -> None:
        try:
            async with self._send_lock:
                await self._flush_buffered()
        except (TransportError, OSError):
            pass  # the next explicit send/flush surfaces the failure
        finally:
            self._flush_task = None

    async def _flush_buffered(self) -> None:
        """Vectored write + drain of the iovec; caller holds the send lock."""
        if not self._wbuf_len or self._closed:
            return
        buffers = self._wbufs
        self._wbufs = []
        self._wbuf_len = 0
        try:
            self._writer.writelines(buffers)
            self.flushes += 1
            await self._writer.drain()
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise ChannelClosedError(f"peer closed the connection: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    async def flush(self) -> None:
        """Push any coalesced frames onto the wire now."""
        async with self._send_lock:
            await self._flush_buffered()

    # -- receiving -------------------------------------------------------------

    async def recv(self, timeout: float | None = None) -> bytes:
        if self._closed:
            raise ChannelClosedError("cannot recv on a closed channel")
        handles = _obs()
        started = perf_counter() if handles is not None else 0.0
        try:
            message = await asyncio.wait_for(self._recv_one(), timeout)
        except asyncio.TimeoutError as exc:
            # StreamReader buffers partial frames, so a timeout never
            # desynchronizes the stream.
            raise TransportTimeoutError(f"recv timed out after {timeout}s") from exc
        if handles is not None:
            handles.recv_seconds.observe(perf_counter() - started)
            handles.recv_frames.inc()
            handles.recv_bytes.inc(len(message))
        return message

    async def _recv_one(self) -> bytes:
        async with self._recv_lock:
            try:
                header = await self._reader.readexactly(_LENGTH.size)
            except asyncio.IncompleteReadError as exc:
                if not exc.partial:
                    raise ChannelClosedError("peer closed the stream") from exc
                raise WireError("stream ended mid-frame") from exc
            except ConnectionResetError as exc:
                raise ChannelClosedError(f"connection reset: {exc}") from exc
            (length,) = _LENGTH.unpack(header)
            if length > MAX_FRAME_SIZE:
                raise WireError(f"frame length {length} exceeds limit")
            try:
                body = await self._reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise WireError("stream ended mid-frame") from exc
            except ConnectionResetError as exc:
                raise ChannelClosedError(f"connection reset: {exc}") from exc
            self.frames_received += 1
            return body

    # -- lifecycle -------------------------------------------------------------

    @property
    def poisoned(self) -> bool:
        """Always False: buffered reads make timeouts boundary-safe."""
        return False

    async def close(self) -> None:
        if self._closed:
            return
        try:
            await self.flush()
        except (TransportError, OSError):
            pass
        self._closed = True
        if self._flush_task is not None:
            self._flush_task.cancel()
            self._flush_task = None
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def local_address(self) -> tuple[str, int]:
        return self._writer.get_extra_info("sockname")[:2]


class AsyncTCPListener:
    """A listening server handing out :class:`AsyncTCPChannel` connections.

    Built on ``asyncio.start_server``: inbound connections queue until
    :meth:`accept` claims them.  Use :func:`listen` to construct.
    """

    def __init__(self, server: asyncio.base_events.Server, queue: asyncio.Queue) -> None:
        self._server = server
        self._queue = queue
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) actually bound (port 0 resolves here)."""
        return self._server.sockets[0].getsockname()[:2]

    async def accept(self, timeout: float | None = None) -> AsyncTCPChannel:
        """Await (and wrap) the next inbound connection."""
        if self._closed:
            raise ChannelClosedError("listener closed")
        try:
            return await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError as exc:
            raise TransportError(f"accept timed out after {timeout}s") from exc

    async def close(self) -> None:
        """Stop listening and drop queued, unclaimed connections."""
        if self._closed:
            return
        self._closed = True
        self._server.close()
        await self._server.wait_closed()
        while not self._queue.empty():
            channel = self._queue.get_nowait()
            await channel.close()

    async def __aenter__(self) -> "AsyncTCPListener":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def listen(host: str = "127.0.0.1", port: int = 0) -> AsyncTCPListener:
    """Open an async listener; ``port=0`` picks a free port."""
    queue: asyncio.Queue = asyncio.Queue()

    async def on_connection(reader, writer) -> None:
        await queue.put(AsyncTCPChannel(reader, writer))

    try:
        server = await asyncio.start_server(on_connection, host, port)
    except OSError as exc:
        raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
    return AsyncTCPListener(server, queue)


async def connect(
    host: str, port: int, timeout: float | None = 5.0
) -> AsyncTCPChannel:
    """Connect to a listener (sync or async) and return the channel."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except asyncio.TimeoutError as exc:
        raise TransportError(f"connect to {host}:{port} timed out") from exc
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return AsyncTCPChannel(reader, writer)
