"""TCP transport: real sockets with the shared message framing.

The receive side reads ahead: one ``recv_into`` takes whatever the
socket holds into the channel's :class:`~repro.wire.framing.ReceiveBuffer`,
and a ``recv`` that finds a whole frame already buffered returns it
without a syscall or a timeout change.  ``send``, ``send_many`` and
``send_batch`` build an iovec for one send body, ``_send_iov``: one
``sendmsg`` whenever the kernel takes it whole.

A :class:`TCPChannel.recv` timeout raises
:class:`~repro.errors.TransportTimeoutError` and always leaves the
channel usable: bytes of a frame that arrived before the deadline stay
buffered (the error then carries ``mid_frame=True``) and the next
``recv`` resumes that frame.

:class:`ReconnectingTCPChannel` layers bounded reconnect-on-failure on
top: a sink (publisher, broker client) survives a broken connection by
redialing with backoff, up to a budget, instead of dying on the first
reset.
"""

from __future__ import annotations

import os
import socket
import threading
from time import perf_counter, sleep

from repro.errors import (
    ChannelClosedError,
    TransportError,
    TransportTimeoutError,
)
from repro.obs.instr import channel_handles, handle_memo
from repro.transport.channel import Channel, _view_debug
from repro.wire.bufpool import get_pool
from repro.wire.framing import (
    ReceiveBuffer,
    frame_iov,
    frame_parts,
    read_frame_into,
)

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
    if _IOV_MAX <= 0:
        _IOV_MAX = 1024
except (AttributeError, ValueError, OSError):
    _IOV_MAX = 1024
if not _HAS_SENDMSG:
    _IOV_MAX = 0  # how many buffers one sendmsg carries: here, none

#: The threaded plane's channel metric handles, or None if disabled.
_obs = handle_memo(lambda registry: channel_handles(registry, "threaded"))


class TCPChannel(Channel):
    """A connected TCP socket speaking length-prefixed messages.

    Thread safety: one channel may be shared by multiple threads.
    Concurrent ``send`` calls are serialized by an internal lock, so
    frames from different threads never interleave on the wire.
    Concurrent ``recv`` calls are serialized the same way — each caller
    receives one whole frame; *which* frame is arrival order, so
    multi-reader use only makes sense for work-sharing consumers.  A
    ``recv(timeout=...)`` that cannot acquire the read lock within its
    timeout raises :class:`~repro.errors.TransportTimeoutError` without
    touching the socket (the stream stays at a frame boundary).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._closed = False
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._rbuf = ReceiveBuffer(get_pool())
        self._debug_view: memoryview | None = None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _sendall_vectored(self, buffers, sent: int = 0) -> None:
        """Put every buffer on the wire via scatter-gather ``sendmsg``.

        The first ``sent`` bytes are already out.  Handles partial sends
        by advancing through the iov list; falls back to a joined
        ``sendall`` where ``sendmsg`` is unavailable.  Caller holds the
        send lock.
        """
        if not _HAS_SENDMSG:
            self._sock.sendall(b"".join(buffers))
            return
        iov = [memoryview(buffer) for buffer in buffers if len(buffer)]
        while True:
            while sent:
                head = iov[0]
                if sent >= len(head):
                    sent -= len(head)
                    del iov[0]
                else:
                    iov[0] = head[sent:]
                    sent = 0
            if not iov:
                return
            sent = self._sock.sendmsg(iov[:_IOV_MAX])

    def _send_iov(self, buffers, frames: int, payload_bytes: int) -> None:
        """Put ``frames`` whole frames on the wire: the one send body
        (closed check, lock, write, error mapping, metrics) behind
        ``send``/``send_many``/``send_batch``.

        ``buffers`` is their iovec and starts with a length prefix;
        ``payload_bytes`` counts the messages without their prefixes.
        """
        if self._closed:
            raise ChannelClosedError("cannot send on a closed channel")
        handles = _obs()
        started = perf_counter() if handles is not None else 0.0
        try:
            with self._send_lock:
                # One sendmsg carries everything unless the socket buffer is
                # full; only a short write, or an iovec too long, walks it.
                sent = self._sock.sendmsg(buffers) if len(buffers) <= _IOV_MAX else 0
                if sent < payload_bytes + frames * len(buffers[0]):
                    self._sendall_vectored(buffers, sent)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise ChannelClosedError(f"peer closed the connection: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        if handles is not None:
            handles.send_seconds.observe(perf_counter() - started)
            handles.send_frames.inc(frames)
            handles.send_bytes.inc(payload_bytes)

    def send(self, message: bytes) -> None:
        self._send_iov(frame_iov(message), 1, len(message))

    def send_many(self, messages) -> int:
        """Send every message as one scatter-gather batch; returns count.

        All frames go out in (at most a few) ``sendmsg`` syscalls under
        one lock acquisition, so frames from a batch never interleave
        with other senders and the per-message syscall cost is amortized
        across the batch.
        """
        buffers: list = []
        total_bytes = 0
        for message in messages:
            buffers.extend(frame_iov(message))
            total_bytes += len(message)
        count = len(buffers) // 2
        if count:
            self._send_iov(buffers, count, total_bytes)
        return count

    def send_batch(self, parts) -> int:
        """Send one frame supplied as an iovec of parts; returns its length.

        The scatter-gather flip side of :meth:`send_many`: where that
        sends N messages in one syscall batch, this sends ONE message
        (typically a columnar batch frame: header, column blocks, heap)
        without ever concatenating the parts — the length prefix and
        every part ride a single ``sendmsg`` iovec under one lock.
        """
        buffers = frame_parts(parts)
        total = sum(len(part) for part in buffers) - len(buffers[0])
        self._send_iov(buffers, 1, total)
        return total

    def recv(self, timeout: float | None = None) -> bytes:
        return self._recv_outer(timeout, copy=True)

    def recv_view(self, timeout: float | None = None) -> memoryview:
        """Zero-copy receive: a ``memoryview`` into the channel's buffer.

        The view is valid only until the next ``recv``/``recv_view`` on
        this channel (or its close) overwrites or recycles the buffer
        under it — decode or ``bytes()`` it before reading again
        (PROTOCOL §12).  Holding a view across the next receive is a
        contract violation that normally fails *silently* (what it reads
        is unspecified: the old bytes, a later frame, or whatever another
        pooled channel wrote into the recycled buffer); with
        :func:`set_recv_view_debug` enabled, the next receive revokes
        the stale view so any later access raises ``ValueError``.
        Intended for single-reader consumers; with competing readers,
        use :meth:`recv`.
        """
        return self._recv_outer(timeout, copy=False)

    def _invalidate_debug_view(self) -> None:
        """Revoke the previously handed-out view (debug mode only)."""
        stale, self._debug_view = self._debug_view, None
        if stale is not None:
            try:
                stale.release()
            except ValueError:
                pass  # caller took sub-views; those we cannot revoke

    def _recv_outer(self, timeout: float | None, *, copy: bool):
        if self._closed:
            raise ChannelClosedError("cannot recv on a closed channel")
        acquired = self._recv_lock.acquire(
            timeout=-1 if timeout is None else timeout
        )
        if not acquired:
            raise TransportTimeoutError(
                f"recv timed out after {timeout}s waiting for another reader"
            )
        handles = _obs()
        started = perf_counter() if handles is not None else 0.0
        try:
            debug = _view_debug[0]
            if debug:
                self._invalidate_debug_view()
            view = self._rbuf.next_frame()
            if view is None:
                view = self._read_frame(timeout, handles)
            message = bytes(view) if copy else view
            if debug and not copy:
                self._debug_view = view
        finally:
            self._recv_lock.release()
        if handles is not None:
            handles.recv_seconds.observe(perf_counter() - started)
            handles.recv_frames.inc()
            handles.recv_bytes.inc(len(message))
        return message

    def _read_frame(self, timeout: float | None, handles) -> memoryview:
        """The syscall path: no whole frame is buffered, so read for one.

        Caller holds the recv lock.  The deadline applies to each read.
        """
        sock, rbuf = self._sock, self._rbuf
        reads = rbuf.reads
        prior_timeout = sock.gettimeout()
        sock.settimeout(timeout)
        try:
            return read_frame_into(sock.recv_into, rbuf)
        except socket.timeout as exc:
            pending = rbuf.pending  # stays buffered: the next recv resumes it
            raise TransportTimeoutError(
                f"recv timed out after {timeout}s, {pending} byte(s) into a frame",
                mid_frame=pending > 0,
            ) from exc
        except ConnectionResetError as exc:
            raise ChannelClosedError(f"connection reset: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        finally:
            # settimeout must not leak: interleaved timed/untimed calls
            # (and sends on the same socket) see the prior deadline.
            try:
                sock.settimeout(prior_timeout)
            except OSError:
                pass
            if handles is not None:
                handles.recv_reads.inc(rbuf.reads - reads)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if _view_debug[0]:
                self._invalidate_debug_view()
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            self._rbuf.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def local_address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]


class TCPListener:
    """A listening socket handing out :class:`TCPChannel` connections."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 16,
        *,
        reuse_port: bool = False,
    ) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                self._sock.close()
                raise TransportError("SO_REUSEPORT unsupported on this platform")
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.listen(backlog)
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) actually bound (port 0 resolves here)."""
        return self._sock.getsockname()[:2]

    def accept(self, timeout: float | None = None) -> TCPChannel:
        """Block for (and wrap) the next inbound connection."""
        try:
            self._sock.settimeout(timeout)
            connection, _ = self._sock.accept()
        except socket.timeout as exc:
            raise TransportTimeoutError(f"accept timed out after {timeout}s") from exc
        except OSError as exc:
            raise ChannelClosedError(f"listener closed: {exc}") from exc
        return TCPChannel(connection)

    def close(self) -> None:
        """Close the listening socket; idempotent."""
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "TCPListener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def listen(host: str = "127.0.0.1", port: int = 0) -> TCPListener:
    """Open a listener; ``port=0`` picks a free port (see ``.address``)."""
    return TCPListener(host, port)


def connect(host: str, port: int, timeout: float | None = 5.0) -> TCPChannel:
    """Connect to a listener and return the channel."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    if sock.getsockname() == sock.getpeername():
        # TCP simultaneous-open: dialing a free port in the ephemeral
        # range can land on itself when the kernel picks the target as
        # the source port.  Nothing real is listening — treat as refused.
        sock.close()
        raise TransportError(f"cannot connect to {host}:{port}: self-connection")
    sock.settimeout(None)
    return TCPChannel(sock)


class ReconnectingTCPChannel(Channel):
    """A channel that redials its peer on connection failure, with a budget.

    Wraps the dial itself: construction connects immediately; a
    :class:`~repro.errors.ChannelClosedError` during ``send``/``recv``
    triggers up to ``max_reconnects`` redial attempts per operation,
    with exponential backoff between them.
    Messages in flight when the connection broke are *not* replayed —
    at-most-once, like the underlying socket; timeouts propagate as-is
    (the connection is still healthy, the peer is just quiet).

    ``on_reconnect`` (called with the fresh :class:`TCPChannel` after
    each successful redial) lets session-level protocols restore state,
    e.g. a broker client re-sending its SUBSCRIBE envelopes.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_reconnects: int = 3,
        base_delay: float = 0.05,
        connect_timeout: float | None = 5.0,
        on_reconnect=None,
        sleep=sleep,
    ) -> None:
        if max_reconnects < 0:
            raise TransportError("max_reconnects must be non-negative")
        self.host = host
        self.port = port
        self.max_reconnects = max_reconnects
        self.base_delay = base_delay
        self.connect_timeout = connect_timeout
        self.on_reconnect = on_reconnect
        self._sleep = sleep
        self._closed = False
        self.reconnects = 0  # successful redials over the channel's lifetime
        self._channel: TCPChannel = connect(host, port, timeout=connect_timeout)

    def _redial(self, budget_used: int) -> None:
        """One backoff-then-redial step; raises TransportError on failure."""
        self._sleep(self.base_delay * (2**budget_used))
        self._channel.close()
        self._channel = connect(self.host, self.port, timeout=self.connect_timeout)
        self.reconnects += 1
        if self.on_reconnect is not None:
            self.on_reconnect(self._channel)

    def _run(self, operation):
        redials = 0
        while True:
            if self._closed:
                raise ChannelClosedError("cannot use a closed channel")
            try:
                return operation(self._channel)
            except TransportTimeoutError:
                raise  # peer is slow, not gone: no redial
            except (ChannelClosedError, TransportError) as exc:
                last_error: Exception = exc
                # Burn redial budget until one dial succeeds, then retry
                # the operation on the fresh connection.
                while True:
                    if redials >= self.max_reconnects:
                        if last_error is exc:
                            raise  # no budget was available: original error
                        raise TransportError(
                            f"reconnect budget ({self.max_reconnects}) "
                            f"exhausted for {self.host}:{self.port}: "
                            f"{last_error}"
                        ) from last_error
                    try:
                        self._redial(redials)
                        redials += 1
                        break
                    except TransportError as dial_exc:
                        redials += 1
                        last_error = dial_exc

    def send(self, message: bytes) -> None:
        """Send, redialing (within budget) if the connection broke."""
        self._run(lambda channel: channel.send(message))

    def send_many(self, messages) -> int:
        """Batched send with redial-on-failure.

        The batch is materialized first so a redial mid-operation can
        resend it whole; at-most-once still applies — frames flushed
        before the break are not un-sent.
        """
        batch = list(messages)
        return self._run(lambda channel: channel.send_many(batch))

    def send_batch(self, parts) -> int:
        """One-frame iovec send with redial-on-failure (see ``send_many``)."""
        batch = list(parts)
        return self._run(lambda channel: channel.send_batch(batch))

    def recv(self, timeout: float | None = None) -> bytes:
        """Receive, redialing (within budget) if the connection broke."""
        return self._run(lambda channel: channel.recv(timeout))

    def close(self) -> None:
        """Close; a closed reconnecting channel never redials."""
        self._closed = True
        self._channel.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    @property
    def local_address(self) -> tuple[str, int]:
        """The (host, port) of the current underlying socket."""
        return self._channel.local_address
