"""``ShmChannel``: the intra-host zero-syscall transport (PROTOCOL §15).

A channel end owns two :class:`~repro.mp.ring.RingBuffer` mappings — one
it produces into, one it consumes from — so two co-located endpoints
exchange the exact frames the stream transports carry (NDR data,
format metadata, columnar ``KIND_BATCH``) without a socket, a syscall,
or an intermediate copy:

- :meth:`ShmChannel.send` / :meth:`send_many` write each payload once,
  straight into ring memory;
- :meth:`send_batch` writes its iovec parts (batch prelude, column
  blocks, heap) sequentially into one ring frame — the shm analogue of
  ``sendmsg`` scatter-gather, with no join;
- :meth:`recv_view` returns a **borrowed view of ring memory**, valid
  until the next receive on this channel (§12 ownership rules; debug
  mode revokes stale views, see
  :func:`repro.transport.set_recv_view_debug`).

Endpoints rendezvous by name: :meth:`ShmChannel.create` returns the
channel plus a picklable :class:`ShmEndpoint` (also a ``shm://`` URI)
that the peer — usually another process — turns into the other end with
:meth:`ShmChannel.attach`.  :meth:`ShmChannel.pair` is the in-process
shortcut for tests and co-located threads.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.errors import ChannelClosedError, TransportError
from repro.mp.ring import DEFAULT_CAPACITY, RingBuffer
from repro.obs.instr import channel_handles, handle_memo
from repro.obs.metrics import get_registry
from repro.transport.channel import Channel, recv_view_debug_enabled

#: The shm plane's channel metric handles, or None if disabled.
_obs = handle_memo(lambda registry: channel_handles(registry, "shm"))


def _depth_gauge(direction: str):
    registry = get_registry()
    if not registry.enabled:
        return None
    return registry.gauge(
        "shm_ring_depth_bytes",
        "unconsumed bytes in the shm ring, sampled at each operation",
        ("direction",),
    ).labels(direction)


def _stall_counter(role: str):
    registry = get_registry()
    if not registry.enabled:
        return None
    return registry.counter(
        "shm_ring_stalls_total",
        "operations that had to park (not just spin) for the ring peer",
        ("role",),
    ).labels(role)


@dataclass(frozen=True)
class ShmEndpoint:
    """The rendezvous descriptor for one :class:`ShmChannel` pair.

    ``a2b``/``b2a`` name the two shared-memory ring blocks (direction is
    relative to the *creator*, end A).  The descriptor is picklable and
    round-trips through the ``shm://a2b,b2a,capacity`` URI form accepted
    by :func:`repro.transport.connect_channel`.
    """

    a2b: str
    b2a: str
    capacity: int = DEFAULT_CAPACITY

    def uri(self) -> str:
        """This endpoint as a ``shm://`` URI."""
        return f"shm://{self.a2b},{self.b2a},{self.capacity}"

    @classmethod
    def parse(cls, uri: str) -> "ShmEndpoint":
        """Parse a ``shm://a2b,b2a,capacity`` URI."""
        if not uri.startswith("shm://"):
            raise TransportError(f"not an shm:// endpoint: {uri!r}")
        parts = uri[len("shm://"):].split(",")
        if len(parts) != 3 or not parts[2].isdigit():
            raise TransportError(f"malformed shm endpoint {uri!r}")
        return cls(a2b=parts[0], b2a=parts[1], capacity=int(parts[2]))


class ShmChannel(Channel):
    """A :class:`~repro.transport.channel.Channel` over two SPSC rings.

    Thread safety matches :class:`~repro.transport.tcp.TCPChannel`:
    concurrent sends are serialized by a send lock, concurrent receives
    by a receive lock — which also preserves the rings' single-producer/
    single-consumer invariant inside each process.
    """

    def __init__(
        self,
        out_ring: RingBuffer,
        in_ring: RingBuffer,
        *,
        endpoint: ShmEndpoint,
        owner: bool,
    ) -> None:
        self._out = out_ring
        self._in = in_ring
        self.endpoint = endpoint
        self._owner = owner
        self._closed = False
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._debug_view: memoryview | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, capacity: int = DEFAULT_CAPACITY) -> tuple["ShmChannel", ShmEndpoint]:
        """Allocate a channel pair's rings; returns (end A, descriptor).

        Hand the descriptor (or its :meth:`~ShmEndpoint.uri`) to the
        peer, which calls :meth:`attach` to become end B.  End A owns
        the shared-memory blocks and unlinks them on :meth:`close`.
        """
        a2b = RingBuffer.create(capacity)
        b2a = RingBuffer.create(capacity)
        endpoint = ShmEndpoint(a2b=a2b.name, b2a=b2a.name, capacity=capacity)
        return cls(a2b, b2a, endpoint=endpoint, owner=True), endpoint

    @classmethod
    def attach(cls, endpoint: "ShmEndpoint | str") -> "ShmChannel":
        """Map a peer-created pair as end B (producer of ``b2a``)."""
        if isinstance(endpoint, str):
            endpoint = ShmEndpoint.parse(endpoint)
        return cls(
            RingBuffer.attach(endpoint.b2a),
            RingBuffer.attach(endpoint.a2b),
            endpoint=endpoint,
            owner=False,
        )

    @classmethod
    def pair(cls, capacity: int = DEFAULT_CAPACITY) -> tuple["ShmChannel", "ShmChannel"]:
        """An in-process connected pair (co-located threads, tests)."""
        end_a, endpoint = cls.create(capacity)
        end_b = cls(
            RingBuffer.attach(endpoint.b2a),
            RingBuffer.attach(endpoint.a2b),
            endpoint=endpoint,
            owner=False,
        )
        return end_a, end_b

    # -- sending ---------------------------------------------------------------

    def _push(self, parts, total: int) -> None:
        handles = _obs()
        started = time.perf_counter() if handles is not None else 0.0
        stalls_before = self._out.stats.stalls
        with self._send_lock:
            if self._closed:
                raise ChannelClosedError("cannot send on a closed channel")
            self._out.push(parts)
        if handles is not None:
            handles.send_seconds.observe(time.perf_counter() - started)
            handles.send_frames.inc()
            handles.send_bytes.inc(total)
            stalled = self._out.stats.stalls - stalls_before
            if stalled:
                counter = _stall_counter("producer")
                if counter is not None:
                    counter.inc(stalled)
            gauge = _depth_gauge("send")
            if gauge is not None:
                gauge.set(self._out.depth())

    def send(self, message) -> None:
        self._push((message,), len(message))

    def send_many(self, messages) -> int:
        """Push every message under one lock acquisition; returns the count.

        Each message is still its own ring frame (one ``recv`` each on
        the peer), but the batch shares the lock and the obs bookkeeping
        — the shm analogue of the TCP plane's vectored ``send_many``.
        """
        handles = _obs()
        started = time.perf_counter() if handles is not None else 0.0
        count = 0
        total = 0
        with self._send_lock:
            if self._closed:
                raise ChannelClosedError("cannot send on a closed channel")
            for message in messages:
                self._out.push((message,))
                count += 1
                total += len(message)
        if handles is not None and count:
            handles.send_seconds.observe(time.perf_counter() - started)
            handles.send_frames.inc(count)
            handles.send_bytes.inc(total)
        return count

    def send_batch(self, parts) -> int:
        """One frame from an iovec of parts, written part-by-part into
        ring memory — zero joins, zero syscalls.  Returns the length."""
        parts = list(parts)
        total = sum(len(part) for part in parts)
        self._push(parts, total)
        return total

    # -- receiving -------------------------------------------------------------

    def recv(self, timeout: float | None = None) -> bytes:
        return self._recv_outer(timeout, copy=True)

    def recv_view(self, timeout: float | None = None) -> memoryview:
        """Zero-copy receive: a borrowed ``memoryview`` of ring memory.

        Valid only until the next ``recv``/``recv_view`` on this channel
        (which returns the ring space to the producer); ``bytes()`` or
        decode it before receiving again.  With recv-view debugging
        enabled (:func:`repro.transport.set_recv_view_debug`), the
        next receive *revokes* the view, so stale use raises
        ``ValueError`` instead of silently reading recycled ring bytes.
        """
        return self._recv_outer(timeout, copy=False)

    def _recv_outer(self, timeout: float | None, *, copy: bool):
        if self._closed:
            raise ChannelClosedError("cannot recv on a closed channel")
        handles = _obs()
        started = time.perf_counter() if handles is not None else 0.0
        stalls_before = self._in.stats.stalls
        with self._recv_lock:
            debug = recv_view_debug_enabled()
            if debug:
                stale, self._debug_view = self._debug_view, None
                if stale is not None:
                    self._in.invalidate_borrow()
            message = self._in.pop(timeout, copy=copy)
            if debug and not copy:
                self._debug_view = message
        if handles is not None:
            handles.recv_seconds.observe(time.perf_counter() - started)
            handles.recv_frames.inc()
            handles.recv_bytes.inc(len(message))
            stalled = self._in.stats.stalls - stalls_before
            if stalled:
                counter = _stall_counter("consumer")
                if counter is not None:
                    counter.inc(stalled)
            gauge = _depth_gauge("recv")
            if gauge is not None:
                gauge.set(self._in.depth())
        return message

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close this end without poisoning the peer (idempotent).

        The peer drains frames already in the ring, then sees a clean
        :class:`~repro.errors.ChannelClosedError`; its own close is what
        finally detaches its mappings.  The creating end also unlinks
        the blocks — on POSIX existing mappings survive the unlink, so
        even an attacher that closes *later* is safe.
        """
        if self._closed:
            return
        self._closed = True
        self._out.close_producer()
        self._in.close_consumer()
        self._debug_view = None
        self._in.invalidate_borrow()
        self._out.detach()
        self._in.detach()
        if self._owner:
            self._out.unlink()
            self._in.unlink()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Local ring counters for this end (frames/bytes/stalls/wraps)."""
        return {"send": self._out.stats.as_dict(), "recv": self._in.stats.as_dict()}

    def depths(self) -> dict:
        """Unconsumed bytes per direction (racy snapshot)."""
        try:
            return {"send": self._out.depth(), "recv": self._in.depth()}
        except (ValueError, OSError):
            return {"send": 0, "recv": 0}

    @property
    def pid(self) -> int:
        """This end's process id (debugging aid for handoff tests)."""
        return os.getpid()
