"""The message-oriented channel abstraction all transports implement."""

from __future__ import annotations

import abc
import os

# Debug switch for the recv_view ownership contract (PROTOCOL §12): when
# enabled, the next recv on a channel *revokes* the previously returned
# borrowed view, so stale use raises ValueError instead of silently
# reading whatever the recycled buffer holds now.  Costs one attribute
# check per receive when off; enable in tests via set_recv_view_debug or
# the REPRO_DEBUG_RECV_VIEW environment variable.
_view_debug = [os.environ.get("REPRO_DEBUG_RECV_VIEW", "") not in ("", "0")]


def set_recv_view_debug(enabled: bool) -> None:
    """Toggle stale-``recv_view`` revocation on every zero-copy channel."""
    _view_debug[0] = bool(enabled)


def recv_view_debug_enabled() -> bool:
    """Whether stale borrowed views are revoked on the next receive."""
    return _view_debug[0]


class Channel(abc.ABC):
    """A bidirectional, message-preserving communication endpoint.

    Unlike a raw byte stream, a channel delivers whole messages: one
    ``send`` on one end is one ``recv`` on the other.  Stream transports
    achieve this with the shared framing layer.
    """

    @abc.abstractmethod
    def send(self, message: bytes) -> None:
        """Deliver ``message`` to the peer.

        Raises :class:`~repro.errors.ChannelClosedError` if either end
        is closed.
        """

    @abc.abstractmethod
    def recv(self, timeout: float | None = None) -> bytes:
        """Block until a message arrives and return it.

        Raises :class:`~repro.errors.ChannelClosedError` on clean EOF
        with no pending messages, and
        :class:`~repro.errors.TransportTimeoutError` on timeout (the
        channel stays usable: a later ``recv`` returns the next message).
        """

    def send_many(self, messages) -> int:
        """Deliver every message in ``messages``; returns the count.

        The base implementation loops :meth:`send`.  Transports that can
        batch (scatter-gather sockets) override this to put N frames on
        the wire in one syscall.
        """
        count = 0
        for message in messages:
            self.send(message)
            count += 1
        return count

    def send_batch(self, parts) -> int:
        """Deliver ONE message supplied as an iovec of buffer parts.

        The peer's ``recv`` sees a single message equal to the
        concatenation of ``parts`` — this is how columnar batch frames
        (header, column blocks, heap) are sent.  The base implementation
        joins and :meth:`send`\\ s; scatter-gather transports override it
        to put the parts on the wire without the join copy.  Returns the
        message's byte length.
        """
        message = b"".join(parts)
        self.send(message)
        return len(message)

    def recv_view(self, timeout: float | None = None):
        """Receive one message as a buffer (``bytes`` or ``memoryview``).

        Zero-copy transports override this to return a ``memoryview``
        into their receive buffer, valid only until the next receive on
        the same channel (PROTOCOL §12).  The base implementation simply
        returns :meth:`recv`'s owned bytes.
        """
        return self.recv(timeout)

    @abc.abstractmethod
    def close(self) -> None:
        """Close this end; idempotent."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        """True once :meth:`close` has been called on this end."""

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
