"""An in-process, thread-safe channel pair.

:func:`make_pipe` returns two connected :class:`InprocChannel` ends.
Messages are copied between per-end queues under a condition variable, so
producer and consumer may be different threads (the event backbone runs
its broker loop on one).  An optional :class:`~repro.transport.netsim.
NetworkModel` shapes each direction.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import ChannelClosedError, TransportError, TransportTimeoutError
from repro.transport.channel import Channel
from repro.transport.netsim import NetworkModel


class InprocChannel(Channel):
    """One end of an in-process pipe; construct via :func:`make_pipe`."""

    def __init__(self, model: NetworkModel | None = None) -> None:
        self._inbox: deque[bytes] = deque()
        self._condition = threading.Condition()
        self._closed = False
        self._peer: InprocChannel | None = None
        self.model = model

    def _bind(self, peer: "InprocChannel") -> None:
        self._peer = peer

    # -- Channel API ---------------------------------------------------------

    def send(self, message: bytes) -> None:
        peer = self._peer
        if peer is None:
            raise TransportError("channel is not connected")
        if self._closed:
            raise ChannelClosedError("cannot send on a closed channel")
        if self.model is not None:
            self.model.transmit(len(message))
        with peer._condition:
            if peer._closed:
                raise ChannelClosedError("peer end is closed")
            peer._inbox.append(bytes(message))
            peer._condition.notify()

    def recv(self, timeout: float | None = None) -> bytes:
        with self._condition:
            if not self._condition.wait_for(
                lambda: self._inbox or self._closed or self._peer_closed(),
                timeout=timeout,
            ):
                raise TransportTimeoutError(f"recv timed out after {timeout}s")
            if self._inbox:
                return self._inbox.popleft()
            raise ChannelClosedError("channel closed with no pending messages")

    def _peer_closed(self) -> bool:
        return self._peer is not None and self._peer._closed

    def close(self) -> None:
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        peer = self._peer
        if peer is not None:
            with peer._condition:
                peer._condition.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        """Messages queued but not yet received (introspection/tests)."""
        with self._condition:
            return len(self._inbox)


def make_pipe(
    model: NetworkModel | None = None,
    *,
    reverse_model: NetworkModel | None = None,
) -> tuple[InprocChannel, InprocChannel]:
    """Create a connected channel pair ``(a, b)``.

    ``model`` shapes the a→b direction; ``reverse_model`` (defaulting to
    ``model``) shapes b→a.  Pass ``None`` for an unshaped pipe.
    """
    a = InprocChannel(model)
    b = InprocChannel(reverse_model if reverse_model is not None else model)
    a._bind(b)
    b._bind(a)
    return a, b
