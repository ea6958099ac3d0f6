"""Unit tests for in-process and TCP channels plus the network model."""

import threading

import pytest

from repro.errors import ChannelClosedError, TransportError, TransportTimeoutError
from repro.transport import NetworkModel, connect, listen, make_pipe
from repro.transport.netsim import lan_model, wan_model


class TestInprocChannel:
    def test_messages_delivered_in_order(self):
        a, b = make_pipe()
        a.send(b"one")
        a.send(b"two")
        assert b.recv() == b"one"
        assert b.recv() == b"two"

    def test_bidirectional(self):
        a, b = make_pipe()
        a.send(b"ping")
        assert b.recv() == b"ping"
        b.send(b"pong")
        assert a.recv() == b"pong"

    def test_messages_are_copied(self):
        a, b = make_pipe()
        payload = bytearray(b"mutable")
        a.send(bytes(payload))
        payload[0] = ord("X")
        assert b.recv() == b"mutable"

    def test_recv_timeout(self):
        a, b = make_pipe()
        with pytest.raises(TransportTimeoutError, match="timed out"):
            b.recv(timeout=0.01)
        a.send(b"after the timeout")
        assert b.recv(timeout=5) == b"after the timeout"

    def test_recv_after_peer_close_drains_then_raises(self):
        a, b = make_pipe()
        a.send(b"last")
        a.close()
        assert b.recv() == b"last"
        with pytest.raises(ChannelClosedError):
            b.recv()

    def test_send_to_closed_peer_raises(self):
        a, b = make_pipe()
        b.close()
        with pytest.raises(ChannelClosedError):
            a.send(b"x")

    def test_send_on_closed_end_raises(self):
        a, b = make_pipe()
        a.close()
        with pytest.raises(ChannelClosedError):
            a.send(b"x")

    def test_cross_thread_delivery(self):
        a, b = make_pipe()
        received = []

        def consumer():
            for _ in range(100):
                received.append(b.recv(timeout=5))

        thread = threading.Thread(target=consumer)
        thread.start()
        for i in range(100):
            a.send(str(i).encode())
        thread.join(timeout=5)
        assert received == [str(i).encode() for i in range(100)]

    def test_close_wakes_blocked_receiver(self):
        a, b = make_pipe()
        results = []

        def consumer():
            try:
                b.recv(timeout=5)
            except ChannelClosedError:
                results.append("closed")

        thread = threading.Thread(target=consumer)
        thread.start()
        a.close()
        thread.join(timeout=5)
        assert results == ["closed"]

    def test_context_manager_closes(self):
        a, b = make_pipe()
        with a:
            pass
        assert a.closed


class TestNetworkModel:
    def test_delay_components(self):
        model = NetworkModel(latency=0.010, bandwidth=1000)
        assert model.delay_for(500) == pytest.approx(0.010 + 0.5)

    def test_infinite_bandwidth(self):
        model = NetworkModel(latency=0.001)
        assert model.delay_for(10**9) == pytest.approx(0.001)

    def test_virtual_accounting_does_not_sleep(self):
        import time

        model = NetworkModel(latency=10.0, realtime=False)
        start = time.monotonic()
        a, b = make_pipe(model)
        a.send(b"x" * 1000)
        assert b.recv() == b"x" * 1000
        assert time.monotonic() - start < 1.0
        assert model.stats.messages == 1
        assert model.stats.bytes == 1000
        assert model.stats.virtual_seconds == pytest.approx(10.0)

    def test_realtime_model_sleeps(self):
        import time

        model = NetworkModel(latency=0.05, realtime=True)
        a, b = make_pipe(model)
        start = time.monotonic()
        a.send(b"x")
        assert time.monotonic() - start >= 0.05

    def test_directional_models(self):
        forward = NetworkModel(latency=1.0)
        backward = NetworkModel(latency=2.0)
        a, b = make_pipe(forward, reverse_model=backward)
        a.send(b"x")
        b.recv()
        b.send(b"y")
        a.recv()
        assert forward.stats.virtual_seconds == pytest.approx(1.0)
        assert backward.stats.virtual_seconds == pytest.approx(2.0)

    def test_presets_have_sane_shape(self):
        assert lan_model().delay_for(0) < wan_model().delay_for(0)
        assert lan_model().bandwidth > wan_model().bandwidth

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TransportError):
            NetworkModel(latency=-1)
        with pytest.raises(TransportError):
            NetworkModel(bandwidth=0)


class TestTCPChannel:
    def test_roundtrip_over_loopback(self):
        with listen() as listener:
            host, port = listener.address
            results = {}

            def server():
                channel = listener.accept(timeout=5)
                results["got"] = channel.recv(timeout=5)
                channel.send(b"reply")
                channel.close()

            thread = threading.Thread(target=server)
            thread.start()
            client = connect(host, port)
            client.send(b"request")
            assert client.recv(timeout=5) == b"reply"
            thread.join(timeout=5)
            client.close()
            assert results["got"] == b"request"

    def test_large_message_survives_segmentation(self):
        with listen() as listener:
            host, port = listener.address
            payload = bytes(range(256)) * 4096  # 1 MiB

            def server():
                channel = listener.accept(timeout=5)
                channel.send(payload)
                channel.close()

            thread = threading.Thread(target=server)
            thread.start()
            client = connect(host, port)
            assert client.recv(timeout=10) == payload
            thread.join(timeout=5)
            client.close()

    def test_recv_after_peer_close_raises_channel_closed(self):
        with listen() as listener:
            host, port = listener.address

            def server():
                listener.accept(timeout=5).close()

            thread = threading.Thread(target=server)
            thread.start()
            client = connect(host, port)
            with pytest.raises(ChannelClosedError):
                client.recv(timeout=5)
            thread.join(timeout=5)
            client.close()

    def test_connect_refused_raises_transport_error(self):
        listener = listen()
        host, port = listener.address
        listener.close()
        with pytest.raises(TransportError, match="connect"):
            connect(host, port, timeout=0.5)

    def test_accept_timeout_is_typed_and_a_closed_listener_is_not_one(self):
        listener = listen()
        with pytest.raises(TransportTimeoutError, match="accept timed out"):
            listener.accept(timeout=0.01)
        listener.close()
        with pytest.raises(ChannelClosedError):
            listener.accept(timeout=0.01)

    def test_recv_timeout(self):
        with listen() as listener:
            host, port = listener.address
            server_side = {}

            def server():
                server_side["chan"] = listener.accept(timeout=5)

            thread = threading.Thread(target=server)
            thread.start()
            client = connect(host, port)
            thread.join(timeout=5)
            with pytest.raises(TransportError, match="timed out"):
                client.recv(timeout=0.05)
            client.close()
            server_side["chan"].close()
