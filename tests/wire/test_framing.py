"""Unit tests for stream framing."""

import io

import pytest

from repro.errors import ChannelClosedError, WireError
from repro.wire import (
    BufferPool,
    FrameDecoder,
    ReceiveBuffer,
    frame,
    frame_iov,
    read_frame,
    read_frame_into,
    unframe,
)
from repro.wire.framing import READ_AHEAD_MAX


def reader_over(data: bytes):
    """A socket-style recv over a byte string."""
    stream = io.BytesIO(data)
    return lambda n: stream.read(n)


def recv_into_over(data: bytes):
    """A socket-style recv_into over a byte string."""
    stream = io.BytesIO(data)
    return lambda view: stream.readinto(view)


def recv_into_chunks(*chunks: bytes):
    """A recv_into that delivers one given chunk per call, then EOF."""
    pending = list(chunks)

    def recv_into(view):
        if not pending:
            return 0
        chunk = pending.pop(0)
        assert len(chunk) <= len(view), "chunk exceeds the offered window"
        view[: len(chunk)] = chunk
        return len(chunk)

    return recv_into


class TestFrameUnframe:
    def test_roundtrip(self):
        message, rest = unframe(frame(b"hello"))
        assert message == b"hello"
        assert rest == b""

    def test_concatenated_frames_split(self):
        data = frame(b"one") + frame(b"two")
        first, rest = unframe(data)
        second, rest = unframe(rest)
        assert (first, second, rest) == (b"one", b"two", b"")

    def test_empty_message_allowed(self):
        message, _ = unframe(frame(b""))
        assert message == b""

    def test_incomplete_header_rejected(self):
        with pytest.raises(WireError, match="incomplete frame header"):
            unframe(b"\x00\x00")

    def test_incomplete_body_rejected(self):
        with pytest.raises(WireError, match="incomplete frame body"):
            unframe(frame(b"hello")[:-1])

    def test_absurd_length_rejected_without_allocation(self):
        with pytest.raises(WireError, match="exceeds limit"):
            unframe(b"\xff\xff\xff\xff" + b"x")


class TestReadFrame:
    def test_reads_one_frame(self):
        recv = reader_over(frame(b"payload"))
        assert read_frame(recv) == b"payload"

    def test_sequential_frames(self):
        recv = reader_over(frame(b"a") + frame(b"bb"))
        assert read_frame(recv) == b"a"
        assert read_frame(recv) == b"bb"

    def test_eof_at_boundary_is_channel_closed(self):
        recv = reader_over(b"")
        with pytest.raises(ChannelClosedError):
            read_frame(recv)

    def test_eof_mid_frame_is_wire_error(self):
        recv = reader_over(frame(b"payload")[:-3])
        with pytest.raises(WireError, match="mid-frame"):
            read_frame(recv)

    def test_short_reads_accumulate(self):
        data = frame(b"abcdef")
        offsets = iter(range(0, len(data) + 1))
        next(offsets)

        def dribble(n, _state={"pos": 0}):
            pos = _state["pos"]
            chunk = data[pos : pos + 1]
            _state["pos"] = pos + 1
            return chunk

        assert read_frame(dribble) == b"abcdef"


class TestFrameDecoder:
    def test_whole_frames(self):
        decoder = FrameDecoder()
        decoder.feed(frame(b"x") + frame(b"yy"))
        assert list(decoder.messages()) == [b"x", b"yy"]

    def test_byte_by_byte_feeding(self):
        decoder = FrameDecoder()
        collected = []
        for byte in frame(b"hello") + frame(b"world"):
            decoder.feed(bytes([byte]))
            collected.extend(decoder.messages())
        assert collected == [b"hello", b"world"]

    def test_pending_bytes_reported(self):
        decoder = FrameDecoder()
        decoder.feed(frame(b"hello")[:3])
        assert list(decoder.messages()) == []
        assert decoder.pending_bytes == 3

    def test_oversize_frame_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"\xff\xff\xff\xff")
        with pytest.raises(WireError, match="exceeds limit"):
            list(decoder.messages())


class TestFrameIov:
    def test_equivalent_to_frame(self):
        header, payload = frame_iov(b"hello")
        assert header + payload == frame(b"hello")

    def test_payload_not_copied(self):
        message = b"payload bytes"
        _, payload = frame_iov(message)
        assert payload is message

    def test_accepts_memoryview(self):
        view = memoryview(b"viewed")
        header, payload = frame_iov(view)
        assert header + bytes(payload) == frame(b"viewed")

    def test_oversize_rejected(self):
        class Huge:
            def __len__(self):
                return 1 << 30

        with pytest.raises(WireError, match="exceeds frame limit"):
            frame_iov(Huge())


class TestUnframeZeroCopy:
    def test_memoryview_input_yields_views(self):
        data = memoryview(frame(b"one") + frame(b"two"))
        message, rest = unframe(data)
        assert isinstance(message, memoryview)
        assert isinstance(rest, memoryview)
        assert bytes(message) == b"one"
        second, rest = unframe(rest)
        assert bytes(second) == b"two"
        assert len(rest) == 0

    def test_bytearray_input_yields_views_without_copy(self):
        buffer = bytearray(frame(b"mutable"))
        message, _ = unframe(buffer)
        assert isinstance(message, memoryview)
        # Proof of aliasing: mutating the buffer shows through the view.
        buffer[4] = ord("M")
        assert bytes(message) == b"Mutable"

    def test_bytes_input_keeps_bytes_results(self):
        message, rest = unframe(frame(b"plain"))
        assert isinstance(message, bytes)
        assert isinstance(rest, bytes)

    def test_errors_match_bytes_path(self):
        with pytest.raises(WireError, match="incomplete frame header"):
            unframe(memoryview(b"\x00\x00"))
        with pytest.raises(WireError, match="incomplete frame body"):
            unframe(memoryview(frame(b"hello")[:-1]))


class TestReadFrameInto:
    def test_reads_one_frame(self):
        buffer = ReceiveBuffer()
        view = read_frame_into(recv_into_over(frame(b"payload")), buffer)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"payload"

    def test_sequential_frames_reuse_buffer(self):
        buffer = ReceiveBuffer()
        recv_into = recv_into_over(frame(b"first!") + frame(b"second"))
        first = bytes(read_frame_into(recv_into, buffer))
        capacity = buffer.capacity
        second = read_frame_into(recv_into, buffer)
        assert (first, bytes(second)) == (b"first!", b"second")
        assert buffer.capacity == capacity  # no new allocation

    def test_next_read_overwrites_prior_view(self):
        buffer = ReceiveBuffer()
        recv_into = recv_into_chunks(frame(b"aaaa"), frame(b"bbbb"))
        first = read_frame_into(recv_into, buffer)
        read_frame_into(recv_into, buffer)
        # The ownership contract: a drained buffer is refilled from its
        # start, so the old view aliases whatever was read next.
        assert bytes(first) == b"bbbb"

    def test_buffered_frames_cost_no_read(self):
        buffer = ReceiveBuffer()
        stream = b"".join(frame(b"%03d" % i) for i in range(100))
        recv_into = recv_into_over(stream)
        got = [bytes(read_frame_into(recv_into, buffer)) for _ in range(100)]
        assert got == [b"%03d" % i for i in range(100)]
        assert buffer.reads == 1

    def test_read_error_keeps_partial_frame_buffered(self):
        buffer = ReceiveBuffer()
        data = frame(b"resumable")
        attempts = iter([data[:2], TimeoutError, data[2:9], TimeoutError, data[9:]])

        def recv_into(view):
            step = next(attempts)
            if step is TimeoutError:
                raise TimeoutError
            view[: len(step)] = step
            return len(step)

        for pending in (2, 9):
            with pytest.raises(TimeoutError):
                read_frame_into(recv_into, buffer)
            assert buffer.pending == pending
        assert bytes(read_frame_into(recv_into, buffer)) == b"resumable"

    def test_partial_frame_moves_only_when_the_tail_is_short(self):
        buffer = ReceiveBuffer(initial=256)
        small, large = b"s" * 96, b"L" * 200
        first = frame(small) + frame(small) + frame(large)[:56]
        recv_into = recv_into_chunks(first, frame(large)[56:])
        assert bytes(read_frame_into(recv_into, buffer)) == small
        assert bytes(read_frame_into(recv_into, buffer)) == small
        # 56 bytes of a 204-byte frame sit at offset 200 of 256.
        assert bytes(read_frame_into(recv_into, buffer)) == large
        assert buffer.pending == 0

    def test_a_read_that_fills_the_buffer_doubles_it(self):
        buffer = ReceiveBuffer(initial=256)
        stream = b"".join(frame(b"x" * 60) for _ in range(64))
        recv_into = recv_into_over(stream)
        capacities = set()
        for _ in range(64):
            read_frame_into(recv_into, buffer)
            capacities.add(buffer.capacity)
        assert capacities == {256, 512, 1024, 2048, 4096}

    def test_frame_past_the_read_ahead_is_read_exactly_to_its_end(self):
        buffer = ReceiveBuffer()
        big = bytes(range(256)) * 1024  # 256 KiB > READ_AHEAD_MAX
        offered = []
        stream = io.BytesIO(frame(big) + frame(b"next"))

        def recv_into(view):
            offered.append(len(view))
            return stream.readinto(view)

        assert bytes(read_frame_into(recv_into, buffer)) == big
        assert buffer.pending == 0  # not one byte of the next frame
        assert len(big) > READ_AHEAD_MAX
        assert offered == [4096, len(big) + 4 - 4096]
        assert bytes(read_frame_into(recv_into, buffer)) == b"next"

    def test_oversize_prefix_behind_whole_frames(self):
        buffer = ReceiveBuffer()
        recv_into = recv_into_over(frame(b"one") + frame(b"two") + b"\xff" * 8)
        assert bytes(read_frame_into(recv_into, buffer)) == b"one"
        capacity = buffer.capacity
        assert bytes(read_frame_into(recv_into, buffer)) == b"two"
        for _ in range(2):  # rejected every time, nothing consumed
            with pytest.raises(WireError, match="exceeds limit"):
                read_frame_into(recv_into, buffer)
        assert buffer.capacity == capacity

    def test_eof_after_buffered_frames_is_channel_closed(self):
        buffer = ReceiveBuffer()
        recv_into = recv_into_over(frame(b"a") + frame(b"b"))
        assert bytes(read_frame_into(recv_into, buffer)) == b"a"
        assert bytes(read_frame_into(recv_into, buffer)) == b"b"
        with pytest.raises(ChannelClosedError):
            read_frame_into(recv_into, buffer)

    def test_eof_inside_buffered_partial_is_wire_error(self):
        buffer = ReceiveBuffer()
        recv_into = recv_into_over(frame(b"whole") + frame(b"partial")[:-1])
        assert bytes(read_frame_into(recv_into, buffer)) == b"whole"
        with pytest.raises(WireError, match="mid-frame"):
            read_frame_into(recv_into, buffer)

    def test_eof_at_boundary_is_channel_closed(self):
        with pytest.raises(ChannelClosedError):
            read_frame_into(recv_into_over(b""), ReceiveBuffer())

    def test_eof_mid_frame_is_wire_error(self):
        recv_into = recv_into_over(frame(b"payload")[:-3])
        with pytest.raises(WireError, match="mid-frame"):
            read_frame_into(recv_into, ReceiveBuffer())

    def test_oversize_length_rejected(self):
        recv_into = recv_into_over(b"\xff\xff\xff\xff")
        with pytest.raises(WireError, match="exceeds limit"):
            read_frame_into(recv_into, ReceiveBuffer())

    def test_empty_frame(self):
        view = read_frame_into(recv_into_over(frame(b"")), ReceiveBuffer())
        assert bytes(view) == b""

    def test_pool_backed_growth_swaps_through_pool(self):
        pool = BufferPool()
        buffer = ReceiveBuffer(pool, initial=256)
        recv_into = recv_into_over(frame(b"x" * 100) + frame(b"y" * 5000))
        read_frame_into(recv_into, buffer)
        read_frame_into(recv_into, buffer)
        assert buffer.capacity >= 5000
        # The outgrown 256-byte buffer went back to the pool.
        assert pool.releases == 1
        buffer.close()
        assert pool.stats()["pooled_buffers"] == 2


class TestFrameDecoderZeroCopy:
    def test_single_chunk_message_is_a_view(self):
        decoder = FrameDecoder(copy=False)
        decoder.feed(frame(b"zero-copy"))
        (message,) = decoder.messages()
        assert isinstance(message, memoryview)
        assert bytes(message) == b"zero-copy"

    def test_spanning_message_is_assembled(self):
        decoder = FrameDecoder(copy=False)
        data = frame(b"spans-two-chunks")
        decoder.feed(data[:7])
        decoder.feed(data[7:])
        (message,) = decoder.messages()
        assert bytes(message) == b"spans-two-chunks"

    def test_byte_by_byte_feeding(self):
        decoder = FrameDecoder(copy=False)
        collected = []
        for byte in frame(b"hello") + frame(b"world"):
            decoder.feed(bytes([byte]))
            collected.extend(bytes(m) for m in decoder.messages())
        assert collected == [b"hello", b"world"]

    def test_views_valid_until_next_feed(self):
        decoder = FrameDecoder(copy=False)
        decoder.feed(frame(b"first") + frame(b"second"))
        first, second = decoder.messages()
        # Both alias the decoder's buffer, untouched until the next feed.
        assert (bytes(first), bytes(second)) == (b"first", b"second")
        decoder.feed(frame(b"third"))
        assert [bytes(m) for m in decoder.messages()] == [b"third"]

    def test_copy_mode_defends_against_mutable_chunks(self):
        for copy in (True, False):  # feed copies the chunk in either mode
            decoder = FrameDecoder(copy=copy)
            chunk = bytearray(frame(b"abc"))
            decoder.feed(chunk)
            chunk[:] = b"\x00" * len(chunk)  # caller reuses the buffer
            assert [bytes(m) for m in decoder.messages()] == [b"abc"]

    def test_oversize_frame_rejected(self):
        decoder = FrameDecoder(copy=False)
        decoder.feed(b"\xff\xff\xff\xff")
        with pytest.raises(WireError, match="exceeds limit"):
            list(decoder.messages())
