"""The broker envelope protocol (PROTOCOL §7), sans-IO.

The envelope codec plus the two ends of a broker connection,
:class:`ServerSession` and :class:`ClientSession`, as pure state
machines: envelopes in, envelopes and events out, no socket, lock,
thread, coroutine or clock.  :mod:`repro.events.remote` (threads) and
:mod:`repro.aio.broker` (asyncio) are the drivers that move the bytes.

Envelope layout (per framed message, after the shared length prefix)::

    u8   op          1=SUBSCRIBE  2=PUBLISH  3=EVENT  4=ADVERTISE
                     5=SUBSCRIBED (ack)  6=PING  7=PONG
    u16  name_len    stream name (PUBLISH/EVENT/ADVERTISE) or pattern
    ...  name          (SUBSCRIBE/SUBSCRIBED), UTF-8
    u16  extra_len   metadata URL for ADVERTISE; empty otherwise
    ...  extra
    ...  payload     the opaque application message (PUBLISH/EVENT):
                     a standard PBIO context message, metadata or data
"""

from __future__ import annotations

import struct
from collections import deque

from repro.errors import DecodeError, WireError
from repro.events.endpoints import Event, EventDecoder
from repro.obs.metrics import get_registry
from repro.pbio.context import IOContext

OP_SUBSCRIBE = 1
OP_PUBLISH = 2
OP_EVENT = 3
OP_ADVERTISE = 4
OP_SUBSCRIBED = 5  # broker -> client: subscription is active
OP_PING = 6
OP_PONG = 7


def pack_envelope(op: int, name: str, extra: str = "", payload: bytes = b"") -> bytes:
    """Build one broker envelope (see docs/PROTOCOL.md §7)."""
    name_bytes = name.encode("utf-8")
    extra_bytes = extra.encode("utf-8")
    return (
        struct.pack(">BH", op, len(name_bytes))
        + name_bytes
        + struct.pack(">H", len(extra_bytes))
        + extra_bytes
        + payload
    )


def unpack_envelope(message: bytes) -> tuple[int, str, str, bytes]:
    """Split an envelope into (op, name, extra, payload)."""
    try:
        op, name_len = struct.unpack_from(">BH", message, 0)
        cursor = 3
        name = message[cursor : cursor + name_len].decode("utf-8")
        cursor += name_len
        (extra_len,) = struct.unpack_from(">H", message, cursor)
        cursor += 2
        extra = message[cursor : cursor + extra_len].decode("utf-8")
        cursor += extra_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"malformed backbone envelope: {exc}") from exc
    return op, name, extra, message[cursor:]


def _violation(reason: str) -> None:
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "events_protocol_errors_total",
            "broker connections dropped for a protocol violation",
            ("reason",),
        ).labels(reason).inc()


class ServerSession:
    """The broker's side of one client connection: ``backbone`` is the
    :class:`~repro.events.backbone.EventBackbone` fronted, ``inbox`` the
    subscriber queue this connection's delivery loop drains."""

    def __init__(self, backbone, inbox) -> None:
        self.backbone = backbone
        self.inbox = inbox
        self._subscribed = False

    def feed(self, envelope: bytes) -> bytes | None:
        """Act on one client envelope; the reply to send back, if any.

        Envelopes are fed in arrival order, so a PONG confirms every
        earlier PUBLISH was routed.  An undecodable envelope or unknown
        op raises :class:`~repro.errors.WireError`, a payload the
        backbone rejects :class:`~repro.errors.DecodeError`: the
        backbone is untouched, the violation is counted once, and the
        driver drops this connection and nothing else.
        """
        try:
            op, name, extra, payload = unpack_envelope(envelope)
        except WireError:
            _violation("envelope")
            raise
        if op == OP_PUBLISH:
            try:
                self.backbone.route(name, payload)
            except DecodeError:
                _violation("payload")
                raise
        elif op == OP_SUBSCRIBE:
            self.backbone.attach_queue(name, self.inbox)
            self._subscribed = True
            # Acknowledged so the client knows routing is active before
            # it lets publishers on other connections race ahead.
            return pack_envelope(OP_SUBSCRIBED, name)
        elif op == OP_PING:
            return pack_envelope(OP_PONG, name)
        elif op == OP_ADVERTISE:
            self.backbone.set_metadata_url(name, extra)
        else:
            _violation("op")
            raise WireError(f"unexpected op {op} from client")
        return None

    def close(self) -> None:
        """The connection ended: detach and close the inbox."""
        if self._subscribed:
            self.backbone.unsubscribe(self.inbox)
        else:
            self.inbox.close()


class ClientSession:
    """A client's side of its broker connection.

    Builds the envelopes a client sends; :meth:`feed` takes the ones it
    receives, resolving the ack being awaited and queueing events, which
    :meth:`next_event` runs through the record stream.
    """

    def __init__(self, context: IOContext) -> None:
        #: Patterns the broker has acknowledged, in subscription order.
        self.patterns: list[str] = []
        #: The ack still outstanding, as (op, name), or None.
        self.awaiting: tuple[int, str] | None = None
        self._events = EventDecoder(context)
        self._inbox: deque[tuple[str, bytes]] = deque()  # undecoded (stream, payload)

    def subscribe(self, pattern: str) -> bytes:
        """The SUBSCRIBE envelope; its ack is then :attr:`awaiting`."""
        self.awaiting = (OP_SUBSCRIBED, pattern)
        return pack_envelope(OP_SUBSCRIBE, pattern)

    def ping(self) -> bytes:
        """The PING envelope; the PONG is then :attr:`awaiting`."""
        self.awaiting = (OP_PONG, "sync")
        return pack_envelope(OP_PING, "sync")

    def resubscribe(self) -> list[bytes]:
        """SUBSCRIBE envelopes re-registering every pattern on a fresh
        connection; nothing awaits their acks."""
        return [pack_envelope(OP_SUBSCRIBE, pattern) for pattern in self.patterns]

    @staticmethod
    def publish(stream: str, message: bytes) -> bytes:
        """The PUBLISH envelope carrying one context message."""
        return pack_envelope(OP_PUBLISH, stream, payload=message)

    @staticmethod
    def advertise(stream: str, url: str) -> bytes:
        """The ADVERTISE envelope naming ``stream``'s schema document."""
        return pack_envelope(OP_ADVERTISE, stream, extra=url)

    def feed(self, envelope: bytes) -> None:
        """Consume one received envelope.

        Events queue for :meth:`next_event`, so those that arrive ahead
        of an ack are not lost.  With nothing awaited, acks are skipped
        (automatic re-subscription after a reconnect produces them);
        any other op raises :class:`~repro.errors.WireError`.
        """
        op, name, _, payload = unpack_envelope(envelope)
        if op == OP_EVENT:
            self._inbox.append((name, payload))
        elif self.awaiting is None:
            if op != OP_SUBSCRIBED and op != OP_PONG:
                raise WireError(f"unexpected op {op} from broker")
        else:
            wanted_op, wanted_name = self.awaiting
            if op != wanted_op or (op == OP_SUBSCRIBED and name != wanted_name):
                wanted = "subscribe ack" if wanted_op == OP_SUBSCRIBED else "pong"
                raise WireError(f"unexpected op {op} while awaiting {wanted}")
            if op == OP_SUBSCRIBED:
                self.patterns.append(name)
            self.awaiting = None

    def next_event(self, expect: str | None = None) -> Event | None:
        """Decode the next event in hand — the rest of a batch, then the
        queue — onto ``expect``.  None: feed more envelopes."""
        event = self._events.next_ready()
        while event is None and self._inbox:
            event = self._events.feed(*self._inbox.popleft(), expect)
        return event
