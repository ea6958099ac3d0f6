"""The networked event backbone: broker server and remote clients.

Figure 3's deployment has capture points and consumers on *different
machines*, connected through the backbone.  This module puts the broker
behind a TCP listener so that the in-process
:class:`~repro.events.EventBackbone` semantics — streams, pattern
subscriptions, metadata replay for late joiners — are available across
real sockets.

The envelope protocol (PROTOCOL §7) is :mod:`repro.events.protocol`;
the classes here are its threaded drivers, owning what is I/O: listener,
reader and delivery threads, send locks, stop flags, timeouts, redial.

The broker never looks inside payloads — it is subject-based routing in
the TIBCO style the paper names as a delivery substrate.  Application
format metadata flows *through* the broker as ordinary routed messages
and is replayed from the broker's per-stream cache to late subscribers,
so a remote handheld that joins mid-stream decodes without publisher
cooperation, exactly like the in-process case.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError, TransportError, TransportTimeoutError
from repro.events.backbone import EventBackbone, _SubscriberQueue
from repro.events.endpoints import Event, Publisher
from repro.events.protocol import (  # noqa: F401  (the codec's old home)
    OP_ADVERTISE,
    OP_EVENT,
    OP_PING,
    OP_PONG,
    OP_PUBLISH,
    OP_SUBSCRIBE,
    OP_SUBSCRIBED,
    ClientSession,
    ServerSession,
    pack_envelope,
    unpack_envelope,
)
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.transport.channel import Channel
from repro.transport.tcp import ReconnectingTCPChannel, TCPListener, connect


class BrokerServer:
    """A TCP front end over an :class:`EventBackbone`.

    One thread accepts connections; each connection gets a reader
    thread (handling SUBSCRIBE/PUBLISH/ADVERTISE) and a delivery thread
    (pumping matched events back as EVENT envelopes).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backbone: EventBackbone | None = None,
    ) -> None:
        self.backbone = backbone if backbone is not None else EventBackbone()
        self._listener = TCPListener(host, port)
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self.connections_served = 0

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.address

    def start(self) -> "BrokerServer":
        """Start the accept loop on a daemon thread (fluent)."""
        if self._accept_thread is not None:
            raise TransportError("broker already started")
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener, join the accept thread."""
        self._stop.set()
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling --------------------------------------------------

    def serve_channel(self, channel: Channel) -> None:
        """Serve a subscriber/publisher over an already-connected channel.

        The broker protocol is channel-agnostic; this entry point is how
        co-located clients skip TCP entirely and attach over an
        :class:`~repro.mp.shm.ShmChannel` (PROTOCOL §15): create a pair,
        hand one end here, drive the other with
        :class:`RemoteBackboneClient`.  Spawns the same reader/delivery
        threads as an accepted connection and returns immediately.
        """
        self.connections_served += 1
        worker = threading.Thread(
            target=self._serve_connection, args=(channel,), daemon=True
        )
        worker.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                channel = self._listener.accept(timeout=0.2)
            except TransportTimeoutError:
                continue  # poll the stop flag
            except Exception:
                return  # the listener is closed or broken: stop accepting
            self.serve_channel(channel)

    def _serve_connection(self, channel: Channel) -> None:
        queue = _SubscriberQueue()
        session = ServerSession(self.backbone, queue)
        send_lock = threading.Lock()
        deliverer = threading.Thread(
            target=self._delivery_loop, args=(channel, queue, send_lock), daemon=True
        )
        deliverer.start()
        try:
            while not self._stop.is_set():
                try:
                    message = channel.recv(timeout=0.5)
                except TransportTimeoutError:
                    continue  # poll the stop flag
                reply = session.feed(message)
                if reply is not None:
                    with send_lock:
                        channel.send(reply)
        except (ReproError, OSError):
            pass  # peer gone or protocol violation: drop this connection only
        finally:
            session.close()
            channel.close()

    def _delivery_loop(self, channel: Channel, queue: _SubscriberQueue, lock) -> None:
        while not self._stop.is_set():
            try:
                frame = queue.get(timeout=0.5)
            except TransportTimeoutError:
                continue  # poll the stop flag
            except TransportError:
                return  # subscription cancelled
            try:
                with lock:
                    # envelope() is cached on the frame shared by every
                    # subscriber of this publish: serialized once, sent N
                    # times — no per-sink re-framing.
                    channel.send(frame.envelope())
            except (TransportError, OSError):
                return  # peer gone


class RemoteBackboneClient:
    """A client endpoint on a remote broker.

    Mirrors the in-process API: :meth:`publisher` returns an object with
    ``publish``/``advertise_metadata``; :meth:`subscribe` registers a
    pattern; :meth:`next_event` blocks for the next decoded event across
    all subscribed patterns (learning application formats from in-stream
    metadata, exactly like a local subscription).
    """

    def __init__(self, channel: Channel, context: IOContext) -> None:
        self.channel = channel
        self.context = context
        self._send_lock = threading.Lock()
        self._session = ClientSession(context)
        self.patterns = self._session.patterns  # one list, kept by the session

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        context: IOContext,
        *,
        max_reconnects: int = 0,
    ) -> "RemoteBackboneClient":
        """Connect to a broker; ``max_reconnects > 0`` enables bounded
        redial-on-failure with automatic re-subscription of this
        client's patterns (events published while disconnected are
        lost — at-most-once, like the socket itself)."""
        if max_reconnects <= 0:
            return cls(connect(host, port), context)

        def resubscribe(fresh_channel) -> None:
            for envelope in client._session.resubscribe():
                fresh_channel.send(envelope)

        client = cls(
            ReconnectingTCPChannel(
                host, port, max_reconnects=max_reconnects, on_reconnect=resubscribe
            ),
            context,
        )
        return client

    # -- publishing ----------------------------------------------------------

    def publisher(self, stream: str) -> "RemotePublisher":
        """A publishing handle on ``stream`` over this connection."""
        return RemotePublisher(self, stream)

    def route(self, stream: str, message: bytes) -> None:
        """Send one context message to ``stream`` (fire and forget)."""
        self._send(self._session.publish(stream, message))

    def set_metadata_url(self, stream: str, url: str) -> None:
        """Advertise ``stream``'s schema document URL on the broker."""
        self._send(self._session.advertise(stream, url))

    def _send(self, message: bytes) -> None:
        with self._send_lock:
            self.channel.send(message)

    # -- subscribing ----------------------------------------------------------

    def subscribe(self, pattern: str, timeout: float = 10.0) -> None:
        """Register ``pattern``; returns once the broker confirms.

        The confirmation matters: without it, a publish on another
        connection could be routed before this subscription exists and
        the event would be silently missed.  Events arriving for earlier
        subscriptions while waiting are buffered for :meth:`next_event`.
        """
        self._send(self._session.subscribe(pattern))
        while self._session.awaiting:
            self._session.feed(self.channel.recv(timeout))

    def flush(self, timeout: float = 10.0) -> None:
        """Block until the broker has processed everything sent so far."""
        self._send(self._session.ping())
        while self._session.awaiting:
            self._session.feed(self.channel.recv(timeout))

    def next_event(
        self, timeout: float | None = None, *, expect: str | None = None
    ) -> Event:
        """Block for the next data event on any subscribed pattern.

        Columnar batch messages are expanded transparently: each record
        in the batch becomes one event, in batch order.
        """
        while True:
            event = self._session.next_event(expect)
            if event is not None:
                return event
            self._session.feed(self.channel.recv(timeout))

    def close(self) -> None:
        """Disconnect from the broker."""
        self.channel.close()

    def __enter__(self) -> "RemoteBackboneClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemotePublisher(Publisher):
    """A capture point's handle on one stream of a remote broker.

    The in-process :class:`~repro.events.endpoints.Publisher` driving a
    :class:`RemoteBackboneClient` where it would drive a backbone: the
    client's ``route`` and ``set_metadata_url`` send the envelopes.
    """

    def __init__(self, client: RemoteBackboneClient, stream: str) -> None:
        super().__init__(client, stream, client.context)
        self.client = client

    def publish_batch(self, fmt: IOFormat | str, records) -> int:
        """Publish ``records`` as ONE columnar batch message; returns
        the record count.  The broker routes the single frame to every
        matching subscriber — fan-out cost is per-batch, not per-record.
        """
        super().publish_batch(fmt, records)
        return len(records)
