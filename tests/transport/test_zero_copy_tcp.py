"""Zero-copy TCP paths: scatter-gather sends, batched send_many, recv_view."""

import threading

import pytest

from repro.errors import ChannelClosedError
from repro.transport import (
    connect,
    listen,
    make_pipe,
    recv_view_debug_enabled,
    set_recv_view_debug,
)


@pytest.fixture
def tcp_pair():
    with listen() as listener:
        host, port = listener.address
        accepted = {}

        def acceptor():
            accepted["channel"] = listener.accept(timeout=5.0)

        thread = threading.Thread(target=acceptor)
        thread.start()
        client = connect(host, port)
        thread.join(timeout=5.0)
        server = accepted["channel"]
        try:
            yield client, server
        finally:
            client.close()
            server.close()


class TestScatterGatherSend:
    def test_roundtrip(self, tcp_pair):
        client, server = tcp_pair
        client.send(b"via sendmsg")
        assert server.recv(timeout=5.0) == b"via sendmsg"

    def test_memoryview_message(self, tcp_pair):
        client, server = tcp_pair
        client.send(memoryview(b"a view payload"))
        assert server.recv(timeout=5.0) == b"a view payload"

    def test_bytearray_message(self, tcp_pair):
        client, server = tcp_pair
        client.send(bytearray(b"mutable payload"))
        assert server.recv(timeout=5.0) == b"mutable payload"

    def test_empty_message(self, tcp_pair):
        client, server = tcp_pair
        client.send(b"")
        assert server.recv(timeout=5.0) == b""

    def test_large_message_partial_sends(self, tcp_pair):
        client, server = tcp_pair
        big = bytes(range(256)) * 8192  # 2 MiB: exceeds socket buffers
        received = {}

        def reader():
            received["message"] = server.recv(timeout=10.0)

        thread = threading.Thread(target=reader)
        thread.start()
        client.send(big)
        thread.join(timeout=10.0)
        assert received["message"] == big


class ShortWriter:
    """A socket whose ``sendmsg`` accepts at most the next limit's bytes."""

    def __init__(self, sock, limits):
        self._sock = sock
        self._limits = iter(limits)
        self.calls = 0

    def sendmsg(self, buffers):
        self.calls += 1
        data = b"".join(bytes(buffer) for buffer in buffers)
        return self._sock.send(data[: next(self._limits, len(data))])

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestShortWrites:
    def test_forced_short_writes_deliver_an_intact_frame(self, tcp_pair):
        client, server = tcp_pair
        # 1 byte (inside the prefix), 3 (its end), 2, 5, then the rest.
        writer = client._sock = ShortWriter(client._sock, [1, 3, 2, 5])
        client.send(b"short writes all the way")
        client.send(b"")
        assert writer.calls == 6
        assert server.recv(timeout=5.0) == b"short writes all the way"
        assert server.recv(timeout=5.0) == b""

    def test_whole_frame_goes_out_in_one_sendmsg(self, tcp_pair):
        client, server = tcp_pair
        writer = client._sock = ShortWriter(client._sock, [])
        client.send(b"one call")
        assert writer.calls == 1
        assert server.recv(timeout=5.0) == b"one call"

    def test_short_write_inside_a_batch(self, tcp_pair):
        client, server = tcp_pair
        client._sock = ShortWriter(client._sock, [5, 1])
        messages = [b"alpha", b"", b"gamma-gamma"]
        assert client.send_many(messages) == 3
        assert [server.recv(timeout=5.0) for _ in messages] == messages

    @pytest.mark.parametrize("limits, calls", [([], 1), ([1, 3, 2, 5], 5)])
    def test_every_entry_point_takes_the_same_write_path(self, tcp_pair, limits, calls):
        """send, send_many and send_batch are one body: a whole write is
        one sendmsg for each, a short one is finished the same way."""
        client, server = tcp_pair
        sends = [
            lambda: client.send(b"one frame, three ways"),
            lambda: client.send_many([b"one frame, ", b"three ways"]),
            lambda: client.send_batch([b"one frame, ", memoryview(b"three ways")]),
        ]
        expected = [
            b"one frame, three ways",
            b"one frame, ", b"three ways",
            b"one frame, three ways",
        ]
        for send in sends:
            writer = client._sock = ShortWriter(client._sock, limits)
            send()
            assert writer.calls == calls
            client._sock = writer._sock
        assert [server.recv(timeout=5.0) for _ in expected] == expected

    def test_batch_longer_than_the_kernel_iovec_limit(self, tcp_pair):
        from repro.transport.tcp import _IOV_MAX

        client, server = tcp_pair
        messages = [b"m%d" % i for i in range(_IOV_MAX)]  # 2 * IOV_MAX buffers
        writer = client._sock = ShortWriter(client._sock, [])
        assert client.send_many(messages) == len(messages)
        assert writer.calls == 2  # never one oversized sendmsg
        assert [server.recv(timeout=5.0) for _ in messages] == messages


class TestSendMany:
    def test_batch_arrives_as_individual_frames(self, tcp_pair):
        client, server = tcp_pair
        messages = [b"frame-%d" % i for i in range(10)]
        assert client.send_many(messages) == 10
        for expected in messages:
            assert server.recv(timeout=5.0) == expected

    def test_empty_batch(self, tcp_pair):
        client, server = tcp_pair
        assert client.send_many([]) == 0

    def test_batch_of_views(self, tcp_pair):
        client, server = tcp_pair
        messages = [memoryview(b"v" * n) for n in (1, 100, 1000)]
        assert client.send_many(messages) == 3
        for expected in messages:
            assert server.recv(timeout=5.0) == bytes(expected)

    def test_closed_channel_rejected(self, tcp_pair):
        client, server = tcp_pair
        client.close()
        with pytest.raises(ChannelClosedError):
            client.send_many([b"x"])

    def test_inproc_default_loops_send(self):
        a, b = make_pipe()
        assert a.send_many([b"one", b"two"]) == 2
        assert b.recv() == b"one"
        assert b.recv() == b"two"


class TestRecvView:
    def test_returns_view_of_message(self, tcp_pair):
        client, server = tcp_pair
        client.send(b"look, no copy")
        view = server.recv_view(timeout=5.0)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"look, no copy"

    def test_view_invalidated_by_next_recv(self, tcp_pair):
        client, server = tcp_pair
        client.send(b"aaaa")
        client.send(b"bbbb")
        first = server.recv_view(timeout=5.0)
        # The ownership contract: valid until the next receive, even
        # though the second frame is already buffered behind it...
        assert bytes(first) == b"aaaa"
        second = server.recv_view(timeout=5.0)
        # ...after which what ``first`` reads is unspecified (old bytes,
        # a later frame, another channel's data), so nothing is pinned.
        assert bytes(second) == b"bbbb"

    def test_recv_still_returns_owned_bytes(self, tcp_pair):
        client, server = tcp_pair
        client.send(b"aaaa")
        client.send(b"bbbb")
        first = server.recv(timeout=5.0)
        server.recv(timeout=5.0)
        assert first == b"aaaa"

    def test_inproc_default_returns_bytes(self):
        a, b = make_pipe()
        a.send(b"plain")
        assert b.recv_view() == b"plain"


class TestRecvViewDebug:
    """The debug-mode contract check: stale views raise, never alias."""

    @pytest.fixture
    def debug_mode(self):
        # Restore, not reset: CI also runs this suite with the
        # REPRO_DEBUG_RECV_VIEW environment variable set.
        before = recv_view_debug_enabled()
        set_recv_view_debug(True)
        try:
            yield
        finally:
            set_recv_view_debug(before)

    def test_flag_round_trips(self):
        before = recv_view_debug_enabled()
        try:
            set_recv_view_debug(False)
            assert recv_view_debug_enabled() is False
            set_recv_view_debug(True)
            assert recv_view_debug_enabled() is True
        finally:
            set_recv_view_debug(before)

    def test_stale_view_raises_instead_of_aliasing(self, tcp_pair, debug_mode):
        client, server = tcp_pair
        client.send(b"aaaa")
        client.send(b"bbbb")
        first = server.recv_view(timeout=5.0)
        assert bytes(first) == b"aaaa"
        second = server.recv_view(timeout=5.0)
        assert bytes(second) == b"bbbb"
        # Without debug mode this would silently read buffer memory.
        with pytest.raises(ValueError):
            bytes(first)

    def test_plain_recv_also_revokes(self, tcp_pair, debug_mode):
        client, server = tcp_pair
        client.send(b"aaaa")
        client.send(b"bbbb")
        first = server.recv_view(timeout=5.0)
        assert server.recv(timeout=5.0) == b"bbbb"
        with pytest.raises(ValueError):
            bytes(first)

    def test_close_revokes_outstanding_view(self, tcp_pair, debug_mode):
        client, server = tcp_pair
        client.send(b"aaaa")
        view = server.recv_view(timeout=5.0)
        server.close()
        with pytest.raises(ValueError):
            bytes(view)

    def test_copies_taken_in_time_survive(self, tcp_pair, debug_mode):
        client, server = tcp_pair
        client.send(b"aaaa")
        client.send(b"bbbb")
        first = bytes(server.recv_view(timeout=5.0))
        server.recv_view(timeout=5.0)
        assert first == b"aaaa"

    def test_default_mode_keeps_documented_alias(self, tcp_pair):
        if recv_view_debug_enabled():
            pytest.skip("REPRO_DEBUG_RECV_VIEW is set for this run")
        client, server = tcp_pair
        client.send(b"aaaa")
        client.send(b"bbbb")
        first = server.recv_view(timeout=5.0)
        server.recv_view(timeout=5.0)
        # Debug off: the stale view is not revoked, it silently aliases
        # buffer memory — the documented (and perf-default) hazard the
        # flag exists to catch.  Which bytes it shows is unspecified.
        assert len(bytes(first)) == 4
