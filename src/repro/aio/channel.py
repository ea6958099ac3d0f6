"""Asyncio transport: framed message channels on an event loop.

Speaks exactly the wire format of :mod:`repro.transport.tcp` — the
big-endian u32 length prefix of :mod:`repro.wire.framing` — so an
:class:`AsyncTCPChannel` on one end and a sync
:class:`~repro.transport.tcp.TCPChannel` on the other are
indistinguishable on the wire.  It runs the same frame reader, too: the
channel is an :class:`asyncio.BufferedProtocol` whose ``get_buffer`` is
:meth:`ReceiveBuffer.tail <repro.wire.framing.ReceiveBuffer.tail>` and
whose ``buffer_updated`` is ``commit`` plus a ``next_frame`` loop, so
the loop reads straight into the read-ahead buffer and a length prefix
is parsed, and vetted against the frame limit, in one place.

Concurrency model (see docs/PROTOCOL.md §10):

- **send lock** — concurrent ``send`` coroutines are serialized per
  frame; frames from different senders interleave at frame boundaries,
  never inside one.
- **frame queue** — whole frames wait in a FIFO as owned ``bytes``; each
  concurrent ``recv`` takes one, arrival order decides which.
- **write coalescing** — frames smaller than :data:`COALESCE_BYTES` are
  parked in a user-space buffer and flushed in one transport write on
  the next loop tick (or sooner, when the buffer fills).  Many small
  publishes become one syscall instead of many.
- **backpressure** — the transport's write-buffer high-water mark is
  :data:`HIGH_WATER` and every flush waits out ``pause_writing``, so a
  producer outrunning a slow peer suspends instead of buffering without
  bound; reading pauses while more than ``READ_AHEAD_MAX`` bytes of
  frames wait for a ``recv``, so an idle consumer fills the kernel's
  buffers, not ours.

As on the sync channel, a recv timeout cannot desynchronize the stream:
nothing is consumed until a frame is whole, so the part that arrived
before the deadline stays buffered (the error then carries
``mid_frame=True``) and the next ``recv`` returns the frame.
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
from repro.obs.instr import channel_handles, handle_memo
from repro.wire.bufpool import get_pool
from repro.wire.framing import READ_AHEAD_MAX, ReceiveBuffer, frame_iov, frame_parts

#: The async plane's channel metric handles, or None if disabled.
_obs = handle_memo(lambda registry: channel_handles(registry, "async"))

#: A ``send`` parks its frame until this many bytes are buffered.
COALESCE_BYTES = 2048

#: Transport write-buffer high-water mark: a flush suspends above it.
HIGH_WATER = 256 * 1024


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


class AsyncTCPChannel(AsyncChannel, asyncio.BufferedProtocol):
    """A connected TCP socket speaking length-prefixed messages.

    The channel is its own asyncio protocol: build one through
    :func:`connect` / :func:`listen` (or hand the class to
    ``loop.create_connection``).  ``on_connected``, the server side's
    hook, is called with the channel once its transport is up.
    """

    def __init__(self, on_connected=None) -> None:
        self._on_connected = on_connected
        self._transport: asyncio.Transport | None = None
        self._closed = False
        # Resolves to connection_lost's argument once the transport is gone.
        self._lost: asyncio.Future = asyncio.get_running_loop().create_future()
        self._send_lock = asyncio.Lock()
        # Coalescing buffer as an iovec: (header, payload) pairs are
        # appended by reference and handed to writelines() at flush — no
        # per-frame concatenation copy.
        self._wbufs: list = []
        self._wbuf_len = 0
        self._flush_task: asyncio.Task | None = None
        self._writable = asyncio.Event()  # cleared between pause_/resume_writing
        self._writable.set()
        self._rbuf = ReceiveBuffer(get_pool())
        # Whole frames not yet received, then the error that ended the
        # stream: it stays queued, so every later recv raises it.
        self._frames: asyncio.Queue = asyncio.Queue()
        self._queued_bytes = 0
        self._recv_ended = False
        self.frames_sent = 0
        self.frames_received = 0
        self.flushes = 0  # transport writes (each may carry many frames)

    # -- the protocol: what the transport calls --------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        transport.set_write_buffer_limits(high=HIGH_WATER)
        if self._on_connected is not None:
            self._on_connected(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._rbuf.tail()

    def buffer_updated(self, nbytes: int) -> None:
        rbuf = self._rbuf
        rbuf.commit(nbytes)
        handles = _obs()
        if handles is not None:
            handles.recv_reads.inc()
        put = self._frames.put_nowait
        try:
            while (view := rbuf.next_frame()) is not None:
                put(bytes(view))
                self._queued_bytes += len(view)
        except WireError as exc:
            # A forged prefix: stop reading rather than size a buffer by it.
            self._end_recv(exc)
        if self._queued_bytes > READ_AHEAD_MAX:
            self._transport.pause_reading()  # until recv brings it back under

    def eof_received(self) -> bool:
        self._end_recv(None)
        return True  # the write side stays up: sends fail when the kernel says so

    def connection_lost(self, exc) -> None:
        self._end_recv(exc)
        self._rbuf.close()
        self._lost.set_result(exc)
        self._writable.set()

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def _end_recv(self, exc) -> None:
        """No frame will follow: stop reading and queue the error every
        ``recv`` raises once the frames before it are taken."""
        if self._recv_ended:
            return
        self._recv_ended = True
        if exc is None and self._rbuf.pending:
            exc = WireError("stream ended mid-frame")
        elif exc is None:
            exc = ChannelClosedError("peer closed the stream")
        elif isinstance(exc, ConnectionResetError):
            exc = ChannelClosedError(f"connection reset: {exc}")
        elif not isinstance(exc, WireError):
            exc = TransportError(f"recv failed: {exc}")
        self._transport.pause_reading()
        self._frames.put_nowait(exc)

    # -- sending ---------------------------------------------------------------

    async def _send_iov(self, buffers, frames: int, payload_bytes: int, flush: bool) -> None:
        """Queue ``frames`` whole frames for the wire: the one send body
        (lock, closed check, coalescing, write, metrics) behind
        ``send``/``send_many``/``send_batch``.

        ``buffers`` is their iovec and starts with a length prefix;
        ``payload_bytes`` counts the messages without their prefixes.
        Without ``flush`` a small frame waits for the next loop tick.
        """
        handles = _obs()
        started = perf_counter() if handles is not None else 0.0
        async with self._send_lock:
            if self._closed:
                raise ChannelClosedError("cannot send on a closed channel")
            self._wbufs.extend(buffers)
            self._wbuf_len += payload_bytes + frames * len(buffers[0])
            self.frames_sent += frames
            if flush or self._wbuf_len >= COALESCE_BYTES:
                await self._flush_buffered()
            elif self._flush_task is None:
                # Park small frames until the loop comes back around, so
                # a burst of sends in one tick costs one write.
                self._flush_task = asyncio.ensure_future(self._deferred_flush())
        if handles is not None:
            handles.send_seconds.observe(perf_counter() - started)
            handles.send_frames.inc(frames)
            handles.send_bytes.inc(payload_bytes)

    async def send(self, message: bytes) -> None:
        """Deliver ``message`` (may coalesce; see :meth:`flush`).

        The payload is buffered **by reference** until the flush that
        carries it: a caller handing in a mutable buffer (``bytearray``,
        ``memoryview`` over a pooled encode buffer) must not reuse it
        before ``await flush()`` returns.
        """
        await self._send_iov(frame_iov(message), 1, len(message), False)

    async def send_many(self, messages) -> int:
        """Send a batch as one vectored write; returns the frame count.

        All frames join the iovec under one lock acquisition and are
        flushed immediately with a single ``writelines`` + drain — the
        async counterpart of the sync channel's scatter-gather
        ``send_many``.
        """
        buffers: list = []
        total_bytes = 0
        for message in messages:
            buffers.extend(frame_iov(message))
            total_bytes += len(message)
        count = len(buffers) // 2
        if count:
            await self._send_iov(buffers, count, total_bytes, True)
        return count

    async def send_batch(self, parts) -> int:
        """Send one frame supplied as an iovec of parts; returns its length.

        The async counterpart of the sync channel's ``send_batch``: a
        columnar batch message joins the write iovec part by part (no
        join copy) and is flushed immediately with one ``writelines`` +
        drain.
        """
        buffers = frame_parts(parts)
        total = sum(len(part) for part in buffers) - len(buffers[0])
        await self._send_iov(buffers, 1, total, True)
        return total

    async def _deferred_flush(self) -> None:
        try:
            await self.flush()
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
            self._transport.writelines(buffers)
            self.flushes += 1
            if self._transport.is_closing():
                await asyncio.sleep(0)  # a failed write: let connection_lost run
            if not self._writable.is_set():
                await self._writable.wait()  # above the high-water mark
            if self._lost.done():
                raise self._lost.result() or ConnectionResetError("connection lost")
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
        frames = self._frames
        if frames.empty():
            try:
                message = await asyncio.wait_for(frames.get(), timeout)
            except asyncio.TimeoutError as exc:
                pending = self._rbuf.pending  # stays buffered: the next recv resumes it
                raise TransportTimeoutError(
                    f"recv timed out after {timeout}s, {pending} byte(s) into a frame",
                    mid_frame=pending > 0,
                ) from exc
        else:
            message = frames.get_nowait()
        if message.__class__ is not bytes:
            frames.put_nowait(message)  # the stream's end, for every later recv too
            raise message
        queued = self._queued_bytes
        self._queued_bytes = queued - len(message)
        if self._queued_bytes <= READ_AHEAD_MAX < queued and not self._recv_ended:
            self._transport.resume_reading()  # back under the mark
        self.frames_received += 1
        if handles is not None:
            handles.recv_seconds.observe(perf_counter() - started)
            handles.recv_frames.inc()
            handles.recv_bytes.inc(len(message))
        return message

    # -- lifecycle -------------------------------------------------------------

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
        self._transport.close()
        await self._lost  # whatever was written has reached the kernel

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def local_address(self) -> tuple[str, int]:
        return self._transport.get_extra_info("sockname")[:2]


class AsyncTCPListener:
    """A listening server handing out :class:`AsyncTCPChannel` connections.

    Built on ``loop.create_server``: inbound connections queue until
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
            raise TransportTimeoutError(f"accept timed out after {timeout}s") from exc

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
    try:
        server = await asyncio.get_running_loop().create_server(
            lambda: AsyncTCPChannel(queue.put_nowait), host, port
        )
    except OSError as exc:
        raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
    return AsyncTCPListener(server, queue)


async def connect(
    host: str, port: int, timeout: float | None = 5.0
) -> AsyncTCPChannel:
    """Connect to a listener (sync or async) and return the channel."""
    loop = asyncio.get_running_loop()
    try:
        _, channel = await asyncio.wait_for(
            loop.create_connection(AsyncTCPChannel, host, port), timeout
        )
    except asyncio.TimeoutError as exc:
        raise TransportError(f"connect to {host}:{port} timed out") from exc
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return channel
