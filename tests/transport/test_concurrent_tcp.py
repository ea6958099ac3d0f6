"""Concurrent use of one TCPChannel from multiple threads.

The documented contract (PROTOCOL.md §10): sends are serialized by an
internal lock so frames never interleave on the wire; concurrent recv
callers are serialized the same way, each receiving one whole frame in
arrival order; a timed recv that cannot get the read lock in time fails
with ``TransportTimeoutError`` instead of blocking indefinitely.
"""

import threading

import pytest

from repro.errors import TransportTimeoutError
from repro.transport import connect, listen

SENDERS = 8
FRAMES_PER_SENDER = 50


def tcp_pair(listener):
    client = connect(*listener.address)
    server = listener.accept(timeout=5)
    return client, server


class TestConcurrentSends:
    def test_frames_from_many_threads_never_interleave(self):
        with listen() as listener:
            client, server = tcp_pair(listener)
            # Payloads large enough that an unserialized sendall would
            # interleave across the socket buffer boundary.
            payloads = {
                sender: bytes([sender]) * 40_000 for sender in range(SENDERS)
            }
            threads = [
                threading.Thread(
                    target=lambda p=payloads[s]: [
                        client.send(p) for _ in range(FRAMES_PER_SENDER)
                    ]
                )
                for s in range(SENDERS)
            ]
            received = []
            collector = threading.Thread(
                target=lambda: [
                    received.append(server.recv(timeout=10))
                    for _ in range(SENDERS * FRAMES_PER_SENDER)
                ]
            )
            collector.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            collector.join()
            client.close()
            server.close()
        assert len(received) == SENDERS * FRAMES_PER_SENDER
        # Every frame must be exactly one sender's payload, uncorrupted.
        for message in received:
            assert len(message) == 40_000
            assert message == bytes([message[0]]) * 40_000


class TestConcurrentRecvs:
    def test_every_frame_received_exactly_once(self):
        with listen() as listener:
            client, server = tcp_pair(listener)
            total = 200
            for i in range(total):
                client.send(i.to_bytes(4, "big"))
            results = []
            results_lock = threading.Lock()

            def drain(count):
                for _ in range(count):
                    message = server.recv(timeout=10)
                    with results_lock:
                        results.append(int.from_bytes(message, "big"))

            readers = [
                threading.Thread(target=drain, args=(total // 4,))
                for _ in range(4)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join()
            client.close()
            server.close()
        # No frame lost, duplicated, or torn between readers.
        assert sorted(results) == list(range(total))

    def test_competing_readers_over_read_ahead(self):
        """Frames of every size class arrive while two readers compete
        with short timeouts: each frame is delivered whole, exactly
        once, wherever read-ahead left it in the buffer."""
        import sys

        sizes = [0, 1, 100, 4092, 5000, 70_000]
        total = 600
        expected = {
            i: i.to_bytes(4, "big") + bytes([i % 251]) * sizes[i % len(sizes)]
            for i in range(total)
        }
        results: dict[int, bytes] = {}
        duplicates = []
        results_lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with listen() as listener:
                client, server = tcp_pair(listener)

                def drain(take):
                    while True:
                        with results_lock:
                            if len(results) + len(duplicates) >= total:
                                return
                        try:
                            message = bytes(take(timeout=0.01))
                        except TransportTimeoutError:
                            continue
                        index = int.from_bytes(message[:4], "big")
                        with results_lock:
                            if index in results:
                                duplicates.append(index)
                            results[index] = message

                sender = threading.Thread(
                    target=lambda: [client.send(expected[i]) for i in range(total)]
                )
                readers = [
                    threading.Thread(target=drain, args=(server.recv,)),
                    threading.Thread(target=drain, args=(server.recv,)),
                ]
                for thread in (sender, *readers):
                    thread.start()
                for thread in (sender, *readers):
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                client.close()
                server.close()
        finally:
            sys.setswitchinterval(interval)
        assert not duplicates
        assert results == expected

    def test_timed_recv_fails_fast_while_another_reader_blocks(self):
        import time

        with listen() as listener:
            client, server = tcp_pair(listener)
            # Occupy the recv lock with a long blocking read first.
            holder = threading.Thread(target=lambda: server.recv(timeout=5))
            holder.start()
            time.sleep(0.1)  # let the holder take the recv lock
            with pytest.raises(TransportTimeoutError, match="timed out"):
                server.recv(timeout=0.1)
            client.send(b"unblock")
            holder.join()
            client.close()
            server.close()
