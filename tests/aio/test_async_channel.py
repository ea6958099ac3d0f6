"""AsyncTCPChannel: framing parity with the sync plane, locks, coalescing.

The interop contract under test: an async channel and a sync
:class:`~repro.transport.tcp.TCPChannel` speak byte-identical frames, so
either end of a connection can be on either plane.
"""

import asyncio
import socket
import threading

import pytest

from repro import aio
from repro.errors import ChannelClosedError, TransportTimeoutError, WireError
from repro.transport import connect as sync_connect
from repro.transport import listen as sync_listen
from repro.wire.framing import READ_AHEAD_MAX, frame


async def async_pair():
    """A connected (client, server) AsyncTCPChannel pair plus listener."""
    listener = await aio.listen()
    client_task = asyncio.ensure_future(aio.connect(*listener.address))
    server = await listener.accept(timeout=5)
    client = await client_task
    return listener, client, server


async def raw_pair():
    """An accepted AsyncTCPChannel whose peer is a plain socket, for
    putting bytes on the wire that no channel would send."""
    listener = await aio.listen()
    raw = socket.create_connection(listener.address)
    server = await listener.accept(timeout=5)
    return listener, raw, server


class TestAsyncToAsync:
    def test_roundtrip_in_order(self, arun):
        async def scenario():
            listener, client, server = await async_pair()
            await client.send(b"one")
            await client.send(b"two")
            assert await server.recv(timeout=5) == b"one"
            assert await server.recv(timeout=5) == b"two"
            await server.send(b"pong")
            assert await client.recv(timeout=5) == b"pong"
            await client.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_recv_after_peer_close_raises_cleanly(self, arun):
        async def scenario():
            listener, client, server = await async_pair()
            await client.close()
            with pytest.raises(ChannelClosedError):
                await server.recv(timeout=5)
            await server.close()
            await listener.close()

        arun(scenario())

    def test_concurrent_sends_never_interleave(self, arun):
        async def scenario():
            listener, client, server = await async_pair()
            payloads = [bytes([i]) * 30_000 for i in range(8)]

            async def blast(payload):
                for _ in range(10):
                    await client.send(payload)

            senders = [asyncio.ensure_future(blast(p)) for p in payloads]
            received = [await server.recv(timeout=10) for _ in range(80)]
            await asyncio.gather(*senders)
            for message in received:
                assert message == bytes([message[0]]) * 30_000
            await client.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_small_frames_coalesce_into_few_writes(self, arun):
        async def scenario():
            listener, client, server = await async_pair()
            for i in range(50):
                await client.send(b"x%d" % i)  # all far below coalesce_bytes
            received = [await server.recv(timeout=5) for i in range(50)]
            assert received == [b"x%d" % i for i in range(50)]
            # A burst in one tick lands in far fewer transport writes.
            assert client.flushes < 50
            assert client.frames_sent == 50
            await client.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_timeout_never_poisons_the_stream(self, arun):
        async def scenario():
            listener, client, server = await async_pair()
            with pytest.raises(TransportTimeoutError) as excinfo:
                await server.recv(timeout=0.05)
            assert not excinfo.value.mid_frame  # not a byte had arrived
            await client.send(b"after the timeout")
            assert await server.recv(timeout=5) == b"after the timeout"
            await client.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_oversized_frame_header_rejected(self, arun):
        async def scenario():
            listener, raw, server = await raw_pair()
            # A desynchronized length prefix must not trigger a huge read:
            # the honest frame before it arrives, then the typed error,
            # and the receive buffer never grew to hold the forged frame.
            raw.sendall(frame(b"honest") + b"\xff\xff\xff\xff" + b"junk")
            assert await server.recv(timeout=5) == b"honest"
            for _ in range(2):  # the error is the channel's final state
                with pytest.raises(WireError, match="exceeds limit"):
                    await server.recv(timeout=5)
            assert server._rbuf.capacity <= READ_AHEAD_MAX
            raw.close()
            await server.close()
            await listener.close()

        arun(scenario())


class TestTimeoutResumes:
    """A recv timeout consumes nothing: whatever part of a frame had
    arrived stays in the receive buffer and the next recv returns the
    whole frame (PROTOCOL §10.2) — wherever the deadline fell."""

    def test_timeout_inside_the_body(self, arun):
        async def scenario():
            listener, raw, server = await raw_pair()
            body = bytes(range(100))
            raw.sendall((100).to_bytes(4, "big") + body[:10])
            with pytest.raises(TransportTimeoutError) as excinfo:
                await server.recv(timeout=0.1)
            assert excinfo.value.mid_frame
            raw.sendall(body[10:] + frame(b"next"))
            assert await server.recv(timeout=5) == body
            assert await server.recv(timeout=5) == b"next"
            raw.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_timeout_inside_the_header(self, arun):
        async def scenario():
            listener, raw, server = await raw_pair()
            raw.sendall(b"\x00\x00")  # half a length prefix
            with pytest.raises(TransportTimeoutError) as excinfo:
                await server.recv(timeout=0.1)
            assert excinfo.value.mid_frame
            raw.sendall(b"\x00\x05hello")
            assert await server.recv(timeout=5) == b"hello"
            raw.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_repeated_timeouts_lose_nothing(self, arun):
        async def scenario():
            listener, raw, server = await raw_pair()
            body = bytes(range(256)) * 40  # larger than the initial buffer
            wire = frame(body)
            for start in range(0, len(wire) - 3000, 3000):
                raw.sendall(wire[start : start + 3000])
                with pytest.raises(TransportTimeoutError) as excinfo:
                    await server.recv(timeout=0.05)
                assert excinfo.value.mid_frame
            raw.sendall(wire[start + 3000 :])
            assert await server.recv(timeout=5) == body
            raw.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_truncated_stream_is_a_wire_error(self, arun):
        async def scenario():
            listener, raw, server = await raw_pair()
            raw.sendall(frame(b"whole") + (8).to_bytes(4, "big") + b"half")
            raw.close()
            assert await server.recv(timeout=5) == b"whole"
            with pytest.raises(WireError, match="mid-frame"):
                await server.recv(timeout=5)
            await server.close()
            await listener.close()

        arun(scenario())


class TestReadAhead:
    def test_burst_of_small_frames_costs_few_reads(self, arun, fresh_registry):
        """The loop reads into the receive buffer, a buffer-full per
        read, and ``transport_recv_reads_total`` counts those reads."""

        async def scenario():
            listener, client, server = await async_pair()
            payload = b"r" * 104
            assert await client.send_many([payload] * 1000) == 1000
            received = [await server.recv(timeout=5) for _ in range(1000)]
            reads = server._rbuf.reads
            await client.close()
            await server.close()
            await listener.close()
            return received, reads

        received, reads = arun(scenario())
        assert received == [b"r" * 104] * 1000
        assert 1 <= reads < 100
        snap = fresh_registry.snapshot()
        plane = (("plane", "async"),)
        assert snap["transport_recv_reads_total"][plane] == reads
        assert snap["transport_frames_total"][plane + (("direction", "recv"),)] == 1000

    def test_idle_receiver_suspends_the_sender(self, arun):
        """Backpressure end to end: a peer that stops calling recv stops
        being read from (bounded queue), the kernel's buffers fill, and
        the sender's flush waits on the high-water mark."""

        async def scenario():
            listener, client, server = await async_pair()
            payload = bytes(8192)
            sent = 0

            async def blast():
                nonlocal sent
                while True:
                    await client.send(payload)
                    sent += 1

            sender = asyncio.ensure_future(blast())
            stalled_at = -1
            for _ in range(200):  # until a whole interval passes without a send
                await asyncio.sleep(0.05)
                if sent == stalled_at:
                    break
                stalled_at = sent
            assert sent == stalled_at and not sender.done()
            # What the idle receiver holds is bounded by the read pause:
            # the mark, the read that crossed it, and one frame in progress.
            bound = 2 * READ_AHEAD_MAX + len(payload) + 4
            assert server._queued_bytes + server._rbuf.pending <= bound
            # Receiving releases the sender, and nothing was lost or torn.
            for _ in range(sent):
                assert await server.recv(timeout=5) == payload
            await asyncio.sleep(0.1)
            assert sent > stalled_at
            sender.cancel()
            # The receiver first: the sender's close waits for its write
            # buffer, which only an open-and-reading (or gone) peer empties.
            await server.close()
            await client.close()
            await listener.close()

        arun(scenario())


class TestOneSendBody:
    """``send``, ``send_many`` and ``send_batch`` share one send path:
    the same frames, the same closed-channel error, the same counters."""

    def test_three_entry_points_one_wire_format(self, arun):
        async def scenario():
            listener, raw, server = await raw_pair()
            await server.send(b"alpha")
            assert await server.send_many([b"", b"beta"]) == 2
            assert await server.send_batch([b"gam", memoryview(b"ma")]) == 5
            await server.flush()
            expected = b"".join(map(frame, [b"alpha", b"", b"beta", b"gamma"]))
            raw.settimeout(5)
            wire = b""
            while len(wire) < len(expected):
                wire += raw.recv(1024)
            assert wire == expected
            assert server.frames_sent == 4
            assert await server.send_many([]) == 0
            raw.close()
            await server.close()
            await listener.close()

        arun(scenario())

    def test_closed_channel_rejects_every_entry_point(self, arun):
        async def scenario():
            listener, client, server = await async_pair()
            await client.close()
            with pytest.raises(ChannelClosedError):
                await client.send(b"x")
            with pytest.raises(ChannelClosedError):
                await client.send_many([b"x"])
            with pytest.raises(ChannelClosedError):
                await client.send_batch([b"x"])
            await server.close()
            await listener.close()

        arun(scenario())

    def test_send_to_a_gone_peer_is_a_closed_channel(self, arun):
        async def scenario():
            listener, raw, server = await raw_pair()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, bytes([1, 0] * 4))
            raw.close()  # linger 0: a reset, not a FIN
            with pytest.raises(ChannelClosedError):
                for _ in range(50):
                    await server.send_many([bytes(4096)])
                    await asyncio.sleep(0.01)
            await server.close()
            await listener.close()

        arun(scenario())


class TestCrossPlane:
    def test_async_sender_emits_byte_identical_frames(self, arun):
        """Raw wire capture of the async sender equals frame() exactly."""
        with sync_listen() as listener:
            raw = {}

            def capture():
                channel = listener.accept(timeout=5)
                raw["bytes"] = channel._sock.recv(1024)
                channel.close()

            collector = threading.Thread(target=capture)
            collector.start()

            async def send():
                channel = await aio.connect(*listener.address)
                await channel.send(b"alpha")
                await channel.send(b"beta")
                await channel.flush()
                await asyncio.sleep(0.2)  # let the capture thread read
                await channel.close()

            arun(send())
            collector.join()
        assert raw["bytes"] == frame(b"alpha") + frame(b"beta")

    def test_async_client_to_sync_server(self, arun):
        with sync_listen() as listener:
            result = {}

            def serve():
                channel = listener.accept(timeout=5)
                result["got"] = channel.recv(timeout=5)
                channel.send(b"reply from sync")
                channel.close()

            server_thread = threading.Thread(target=serve)
            server_thread.start()

            async def client():
                channel = await aio.connect(*listener.address)
                await channel.send(b"hello from async")
                reply = await channel.recv(timeout=5)
                await channel.close()
                return reply

            reply = arun(client())
            server_thread.join()
        assert result["got"] == b"hello from async"
        assert reply == b"reply from sync"

    def test_sync_client_to_async_server(self):
        with aio.BackgroundLoop() as bg:
            listener = bg.run(aio.listen())
            host, port = listener.address

            async def serve():
                channel = await listener.accept(timeout=5)
                message = await channel.recv(timeout=5)
                await channel.send(message.upper())
                await channel.flush()
                return message

            served = bg.submit(serve())
            channel = sync_connect(host, port)
            channel.send(b"shout this")
            assert channel.recv(timeout=5) == b"SHOUT THIS"
            channel.close()
            assert served.result(timeout=5) == b"shout this"
            bg.run(listener.close())
