"""TCP channel failure semantics: timeouts, mid-frame resumption, reconnects."""

import threading
import time

import pytest

from repro.errors import (
    ChannelClosedError,
    TransportError,
    TransportTimeoutError,
)
from repro.transport.tcp import ReconnectingTCPChannel, connect, listen


@pytest.fixture
def pair():
    """A connected (client, server) TCPChannel pair over loopback."""
    listener = listen()
    host, port = listener.address
    client = connect(host, port)
    server = listener.accept(timeout=5)
    yield client, server
    client.close()
    server.close()
    listener.close()


class TestTimeoutHygiene:
    def test_timeout_raises_distinct_type(self, pair):
        client, server = pair
        with pytest.raises(TransportTimeoutError) as excinfo:
            client.recv(timeout=0.05)
        assert not excinfo.value.mid_frame
        server.send(b"after the timeout")
        assert client.recv(timeout=5) == b"after the timeout"

    def test_socket_timeout_restored_after_timed_recv(self, pair):
        client, server = pair
        assert client._sock.gettimeout() is None
        with pytest.raises(TransportTimeoutError):
            client.recv(timeout=0.05)
        # The 0.05 deadline must not leak into later calls: an untimed
        # recv would otherwise spuriously time out.
        assert client._sock.gettimeout() is None
        server.send(b"late")
        assert client.recv(timeout=5) == b"late"

    def test_timeout_unchanged_by_mixed_recvs_sends(self, pair):
        client, server = pair
        for configured in (None, 7.5):
            client._sock.settimeout(configured)
            # Buffered fast path, syscall path, timeouts and sends, mixed.
            server.send_many([b"a", b"b", b"c"])
            assert client.recv(timeout=5) == b"a"
            client.send(b"ping")
            assert client._sock.gettimeout() == configured
            assert client.recv() == b"b"  # untimed, served from the buffer
            assert client.recv(timeout=0.01) == b"c"
            with pytest.raises(TransportTimeoutError):
                client.recv(timeout=0.01)
            assert client._sock.gettimeout() == configured
            client.send(b"pong")
            server.send(b"d")
            assert client.recv() == b"d"  # untimed, through the socket
            assert client._sock.gettimeout() == configured
            assert [server.recv(timeout=5) for _ in range(2)] == [b"ping", b"pong"]

    def test_boundary_timeout_keeps_channel_usable(self, pair):
        client, server = pair
        for _ in range(3):
            with pytest.raises(TransportTimeoutError):
                client.recv(timeout=0.02)
        server.send(b"finally")
        assert client.recv(timeout=5) == b"finally"


class TestMidFrameTimeout:
    """A timeout inside a frame keeps the partial frame buffered: the
    next recv resumes it (PROTOCOL §9.1)."""

    def test_partial_body_then_rest_yields_frame(self, pair):
        client, server = pair
        # A header promising 100 bytes, but only part of the body.
        server._sock.sendall((100).to_bytes(4, "big") + b"partial")
        time.sleep(0.05)
        with pytest.raises(TransportTimeoutError) as excinfo:
            client.recv(timeout=0.1)
        assert excinfo.value.mid_frame
        server._sock.sendall(b"x" * 93)
        assert client.recv(timeout=5) == b"partial" + b"x" * 93

    def test_partial_header_then_rest_yields_frame(self, pair):
        client, server = pair
        server._sock.sendall(b"\x00\x00")  # half a length prefix
        time.sleep(0.05)
        with pytest.raises(TransportTimeoutError) as excinfo:
            client.recv(timeout=0.1)
        assert excinfo.value.mid_frame
        server._sock.sendall(b"\x00\x05hello")
        server.send(b"next")
        assert client.recv(timeout=5) == b"hello"
        assert client.recv(timeout=5) == b"next"

    def test_repeated_timeouts_lose_nothing(self, pair):
        client, server = pair
        body = bytes(range(256)) * 40  # larger than the initial buffer
        wire = len(body).to_bytes(4, "big") + body
        for start in range(0, len(wire) - 3000, 3000):
            server._sock.sendall(wire[start : start + 3000])
            time.sleep(0.02)
            with pytest.raises(TransportTimeoutError) as excinfo:
                client.recv(timeout=0.05)
            assert excinfo.value.mid_frame
        server._sock.sendall(wire[start + 3000 :])
        assert client.recv(timeout=5) == body
        assert client._sock.gettimeout() is None

    def test_reconnecting_channel_does_not_redial(self):
        with listen() as listener:
            channel = ReconnectingTCPChannel(*listener.address, max_reconnects=3)
            server = listener.accept(timeout=5)
            server._sock.sendall((8).to_bytes(4, "big") + b"half")
            time.sleep(0.05)
            with pytest.raises(TransportTimeoutError) as excinfo:
                channel.recv(timeout=0.05)
            assert excinfo.value.mid_frame
            server._sock.sendall(b"-way")
            assert channel.recv(timeout=5) == b"half-way"
            assert channel.reconnects == 0
            channel.close()
            server.close()


class EchoServer:
    """Accepts one connection at a time and echoes frames back."""

    def __init__(self):
        self.listener = listen()
        self.address = self.listener.address
        self.accepted = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                channel = self.listener.accept(timeout=0.2)
            except TransportError:
                continue
            except Exception:
                return
            self.accepted += 1
            threading.Thread(
                target=self._echo, args=(channel,), daemon=True
            ).start()

    def _echo(self, channel):
        try:
            while True:
                channel.send(channel.recv(timeout=5))
        except Exception:
            channel.close()

    def stop(self):
        self._stop.set()
        self.listener.close()
        # Join the accept thread: while it is blocked in accept() the
        # kernel keeps the (closed-fd) socket listening, and a redial
        # in that window lands in a backlog nothing will ever accept.
        self._thread.join(timeout=2)


class TestReconnectingChannel:
    def test_transparent_when_healthy(self):
        server = EchoServer()
        host, port = server.address
        channel = ReconnectingTCPChannel(host, port, max_reconnects=2)
        channel.send(b"ping")
        assert channel.recv(timeout=5) == b"ping"
        assert channel.reconnects == 0
        channel.close()
        server.stop()

    def test_send_survives_peer_reset(self):
        server = EchoServer()
        host, port = server.address
        channel = ReconnectingTCPChannel(
            host, port, max_reconnects=3, base_delay=0.01
        )
        channel.send(b"one")
        assert channel.recv(timeout=5) == b"one"
        # Kill the server side of the current connection.
        channel._channel._sock.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                channel.send(b"two")
                break
            except TransportError:
                continue
        assert channel.reconnects >= 1
        assert channel.recv(timeout=5) == b"two"
        assert server.accepted == 2
        channel.close()
        server.stop()

    def test_budget_exhaustion_raises(self):
        server = EchoServer()
        host, port = server.address
        channel = ReconnectingTCPChannel(
            host, port, max_reconnects=2, base_delay=0.01
        )
        server.stop()
        channel._channel.close()  # simulate the break
        with pytest.raises(TransportError, match="budget"):
            channel.send(b"x")
        channel.close()

    def test_zero_budget_propagates_original_error(self):
        server = EchoServer()
        host, port = server.address
        channel = ReconnectingTCPChannel(host, port, max_reconnects=0)
        channel._channel.close()
        with pytest.raises(ChannelClosedError):
            channel.send(b"x")
        server.stop()

    def test_timeout_does_not_trigger_redial(self):
        server = EchoServer()
        host, port = server.address
        channel = ReconnectingTCPChannel(host, port, max_reconnects=3)
        with pytest.raises(TransportTimeoutError):
            channel.recv(timeout=0.05)
        assert channel.reconnects == 0
        channel.close()
        server.stop()

    def test_on_reconnect_callback_runs(self):
        server = EchoServer()
        host, port = server.address
        fresh = []
        channel = ReconnectingTCPChannel(
            host,
            port,
            max_reconnects=3,
            base_delay=0.01,
            on_reconnect=lambda ch: fresh.append(ch),
        )
        channel._channel._sock.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                channel.send(b"hello")
                break
            except TransportError:
                continue
        assert fresh, "reconnect callback never ran"
        channel.close()
        server.stop()
