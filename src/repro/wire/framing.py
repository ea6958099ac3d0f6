"""Length-prefixed message framing for byte-stream transports.

Every wire format in this repo is message-oriented; TCP and the in-process
pipe are byte streams.  Frames bridge the two: a big-endian u32 length
followed by the message bytes.

Reading is one core, :class:`ReceiveBuffer` — a contiguous read-ahead
buffer that hands out complete frames as views — with three consumption
styles over it:

- pull: :func:`read_frame_into` over a ``recv_into`` callable; one read
  takes whatever the stream holds, and frames already buffered are
  returned without touching the stream (what ``TCPChannel`` runs);
- push, in place: :meth:`ReceiveBuffer.tail` / :meth:`~ReceiveBuffer.commit`,
  the window an event loop reads into and the count it read (asyncio's
  ``BufferedProtocol.get_buffer`` / ``buffer_updated``; what
  ``AsyncTCPChannel`` runs);
- push, copying: :class:`FrameDecoder`, fed arbitrary chunks, yielding
  complete messages.

:func:`read_frame` is the copying reader for sources that buffer
themselves (PBIO files): exactly one frame per call, nothing read past
it.

On the send side, :func:`frame_iov` produces the (header, payload) pair
for scatter-gather writes (``socket.sendmsg``, ``writelines``) so the
payload is never copied into a concatenated frame.

Buffer ownership (the zero-copy contract, PROTOCOL §12): a
``memoryview`` returned by :func:`read_frame_into` or yielded by a
``copy=False`` :class:`FrameDecoder` aliases the :class:`ReceiveBuffer`
and is valid only until the next read or feed into the same buffer;
what a stale view shows after that is unspecified.  Consumers that need
a message beyond that window must ``bytes()`` it.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator

from repro.errors import ChannelClosedError, WireError

_LENGTH = struct.Struct(">I")

#: Frames above this are rejected as corrupt rather than allocated
#: (a length prefix of e.g. 0xFFFFFFFF from a desynchronized stream must
#: not trigger a 4 GiB allocation).
MAX_FRAME_SIZE = 256 * 1024 * 1024

#: How far :class:`ReceiveBuffer` reads past the frame in progress: one
#: read offers at most this many bytes, and a buffer that reads keep
#: filling doubles up to it.
READ_AHEAD_MAX = 64 * 1024


def frame(message: bytes) -> bytes:
    """Wrap ``message`` in a length prefix (one concatenation copy).

    The copying path; the transports use :func:`frame_iov` instead.
    """
    if len(message) > MAX_FRAME_SIZE:
        raise WireError(f"message of {len(message)} bytes exceeds frame limit")
    return _LENGTH.pack(len(message)) + message


def frame_iov(message) -> tuple[bytes, bytes]:
    """Vectored framing: the ``(header, payload)`` pair for one frame.

    The payload is returned as-is (any bytes-like object), never copied
    — hand both elements to a scatter-gather write
    (``socket.sendmsg``, a transport's ``writelines``) and the wire
    carries exactly what :func:`frame` would have produced, without the
    concatenation allocation.
    """
    length = len(message)
    if length > MAX_FRAME_SIZE:
        raise WireError(f"message of {length} bytes exceeds frame limit")
    return _LENGTH.pack(length), message


def frame_parts(parts) -> list:
    """Vectored framing of a message supplied as buffer parts.

    Returns ``[header, *parts]`` where the header's length covers the
    concatenation of every part — one frame on the wire, zero join
    copies.  This is how columnar batch messages (built as an iovec of
    prelude, column blocks and heap) reach scatter-gather senders.
    """
    length = sum(len(part) for part in parts)
    if length > MAX_FRAME_SIZE:
        raise WireError(f"message of {length} bytes exceeds frame limit")
    return [_LENGTH.pack(length), *parts]


def unframe(data) -> tuple:
    """Split one frame off the front of ``data``; returns (message, rest).

    Accepts ``bytes``, ``bytearray``, or ``memoryview``.  For ``bytes``
    input both results are ``bytes`` (slices copy — unavoidable for the
    immutable type).  For ``bytearray`` and ``memoryview`` input both
    results are **zero-copy memoryviews into the caller's buffer**: they
    are valid only while the caller keeps the underlying buffer alive
    and unmodified.  In particular, a view obtained from a channel's
    receive buffer must not be held across the next ``recv`` — the
    transport will overwrite the bytes under it.  Call ``bytes(view)``
    to take ownership.

    Raises :class:`~repro.errors.WireError` if ``data`` does not contain
    a complete frame.
    """
    if isinstance(data, (bytearray, memoryview)):
        data = memoryview(data)
    if len(data) < _LENGTH.size:
        raise WireError("incomplete frame header")
    (length,) = _LENGTH.unpack_from(data, 0)
    if length > MAX_FRAME_SIZE:
        raise WireError(f"frame length {length} exceeds limit")
    end = _LENGTH.size + length
    if len(data) < end:
        raise WireError("incomplete frame body")
    return data[_LENGTH.size : end], data[end:]


def read_frame(recv: Callable[[int], bytes]) -> bytes:
    """Read exactly one frame using ``recv(n)`` (socket-style).

    ``recv`` returning empty bytes signals EOF:
    :class:`~repro.errors.ChannelClosedError` at a frame boundary,
    :class:`~repro.errors.WireError` mid-frame (truncation).
    """
    header = _read_exactly(recv, _LENGTH.size, at_boundary=True)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_SIZE:
        raise WireError(f"frame length {length} exceeds limit")
    return _read_exactly(recv, length, at_boundary=False)


def _read_exactly(recv: Callable[[int], bytes], needed: int, *, at_boundary: bool) -> bytes:
    chunks: list[bytes] = []
    remaining = needed
    while remaining:
        chunk = recv(remaining)
        if not chunk:
            if at_boundary and remaining == needed:
                raise ChannelClosedError("peer closed the stream")
            raise WireError("stream ended mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class ReceiveBuffer:
    """The one incremental frame reader: a contiguous read-ahead buffer.

    Bytes enter at the tail — a read lands in :meth:`tail` and is
    accounted by :meth:`commit` (:meth:`fill` is both around one
    ``recv_into``), :meth:`feed` copies a chunk — and complete
    frames leave at the head as views (:meth:`next_frame`), with no
    copy and no further read while a whole frame is already buffered.
    Pending bytes are moved only when the tail cannot hold the frame in
    progress: to the front of the same buffer if that makes room, else
    into a larger one (swapped through the
    :class:`~repro.wire.bufpool.BufferPool` when one is attached).  A
    buffer a read filled to the brim doubles, up to
    :data:`READ_AHEAD_MAX`; a frame larger than that is read exactly to
    its end, so the frame after it never has to be moved.
    """

    __slots__ = ("_pool", "_data", "_view", "_initial", "_head", "_tail", "reads")

    def __init__(self, pool=None, *, initial: int = 4096) -> None:
        self._pool = pool
        self._data = bytearray()
        self._view = memoryview(self._data)
        self._initial = initial
        self._head = 0  # first unconsumed byte
        self._tail = 0  # end of the buffered bytes
        #: Reads accounted by :meth:`commit` (so by :meth:`fill`) so far.
        self.reads = 0

    def next_frame(self) -> memoryview | None:
        """Consume the frame at the head, if all of it is buffered.

        The view aliases the buffer and is valid until the next
        :meth:`tail` or :meth:`feed`.  A length prefix above
        :data:`MAX_FRAME_SIZE` raises :class:`~repro.errors.WireError`
        and consumes nothing.
        """
        start = self._head + _LENGTH.size
        if start > self._tail:
            return None
        (length,) = _LENGTH.unpack_from(self._data, self._head)
        if length > MAX_FRAME_SIZE:
            raise WireError(f"frame length {length} exceeds limit")
        end = start + length
        if end > self._tail:
            return None
        self._head = end
        return self._view[start:end]

    def tail(self) -> memoryview:
        """The writable window at the tail for the next read to land in.

        For use after :meth:`next_frame` returned None (which vetted the
        length prefix, if one is buffered); never empty.  Report what
        the read wrote with :meth:`commit`.
        """
        pending = self._tail - self._head
        capacity = len(self._data)
        needed = _LENGTH.size
        if pending >= needed:
            needed += _LENGTH.unpack_from(self._data, self._head)[0]
        # A buffer the last read filled to the brim doubles.
        filled = self._tail == capacity < READ_AHEAD_MAX
        self._make_room(needed, 2 * capacity if filled else 0)
        tail = self._tail
        if needed > READ_AHEAD_MAX:
            limit = self._head + needed
        else:
            limit = min(len(self._data), tail + READ_AHEAD_MAX)
        return self._view[tail:limit]

    def commit(self, count: int) -> int:
        """Account one read of ``count`` bytes into :meth:`tail`'s window."""
        self.reads += 1
        self._tail += count
        return count

    def fill(self, recv_into: Callable[[memoryview], int]) -> int:
        """One ``recv_into`` at the tail; returns its count (0 is EOF)."""
        return self.commit(recv_into(self.tail()))

    def feed(self, chunk) -> None:
        """Copy ``chunk`` (any bytes-like object) in at the tail."""
        size = len(chunk)
        if size:
            self._make_room(self._tail - self._head + size)
            tail = self._tail
            self._view[tail : tail + size] = chunk
            self._tail = tail + size

    def _make_room(self, needed: int, wanted: int = 0) -> None:
        """Make ``needed`` bytes fit from the head on, in a buffer of at
        least ``wanted`` bytes; pending bytes keep their order."""
        head = self._head
        capacity = len(self._data)
        wanted = max(wanted, needed, self._initial)
        if head == self._tail:
            head = self._head = self._tail = 0  # drained: rewind for free
        if head + needed <= capacity and wanted <= capacity:
            return
        pending = self._tail - head
        stale = self._view[head : self._tail]
        outgrown = None
        if wanted > capacity:
            outgrown = self._data
            self._data = (
                self._pool.acquire(wanted)
                if self._pool is not None
                else bytearray(max(wanted, 2 * capacity))
            )
            self._view = memoryview(self._data)
        self._view[:pending] = stale  # a memmove when it is one buffer
        if outgrown is not None and self._pool is not None:
            self._pool.release(outgrown)
        self._head = 0
        self._tail = pending

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet handed out as a frame."""
        return self._tail - self._head

    @property
    def capacity(self) -> int:
        """Bytes currently backing this buffer (0 before first use)."""
        return len(self._data)

    def close(self) -> None:
        """Return the backing buffer to the pool; idempotent."""
        if self._pool is not None:
            self._pool.release(self._data)
        self._data = bytearray()
        self._view = memoryview(self._data)
        self._head = self._tail = 0


def read_frame_into(
    recv_into: Callable[[memoryview], int], buffer: ReceiveBuffer
) -> memoryview:
    """The next frame from ``buffer``, reading only if it holds none.

    ``recv_into(view)`` fills some prefix of ``view`` and returns the
    byte count (0 for EOF) — ``socket.recv_into`` semantics.  The
    returned ``memoryview`` aliases ``buffer`` and is valid only until
    the next :func:`read_frame_into` on the same buffer.

    EOF raises :class:`~repro.errors.ChannelClosedError` at a frame
    boundary and :class:`~repro.errors.WireError` mid-frame, exactly
    like :func:`read_frame`.  An exception out of ``recv_into`` (a
    timeout) leaves every byte read so far buffered: the next call
    resumes the same frame.
    """
    while True:
        message = buffer.next_frame()
        if message is not None:
            return message
        if not buffer.fill(recv_into):
            if buffer.pending:
                raise WireError("stream ended mid-frame")
            raise ChannelClosedError("peer closed the stream")


class FrameDecoder:
    """Incremental frame decoder: feed chunks, iterate complete messages.

    The push front of :class:`ReceiveBuffer`: :meth:`feed` copies the
    chunk in, so the caller may reuse its read buffer at once.  By
    default each message is yielded as an owned ``bytes`` copy; with
    ``copy=False`` it is a **view of the decoder's buffer**, valid until
    the next :meth:`feed`.
    """

    def __init__(self, *, copy: bool = True) -> None:
        self._buffer = ReceiveBuffer()
        self._copy = copy

    def feed(self, chunk) -> None:
        """Append raw stream bytes (any bytes-like object)."""
        self._buffer.feed(chunk)

    def messages(self) -> Iterator[bytes]:
        """Yield every complete message currently buffered."""
        next_frame = self._buffer.next_frame
        while (message := next_frame()) is not None:
            yield bytes(message) if self._copy else message

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete message."""
        return self._buffer.pending
