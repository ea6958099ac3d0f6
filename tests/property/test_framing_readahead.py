"""The read-ahead frame reader against hostile chunking.

One core (:class:`~repro.wire.framing.ReceiveBuffer`) serves the socket
front (:func:`read_frame_into`, what ``TCPChannel`` runs), the in-place
push front (``tail()``/``commit()``, what asyncio's ``get_buffer`` /
``buffer_updated`` run on ``AsyncTCPChannel``) and the copying push
front (:class:`FrameDecoder`).  For any sequence of messages — empty,
one byte, exactly filling the initial buffer, larger than the
read-ahead, larger than whatever the buffer has grown to — and any way
the stream is cut into reads, including 1-byte reads and a cut inside a
length prefix, every front must yield exactly the sent messages in order
and fail typed: a forged length never allocates, EOF at a frame boundary
is a close, EOF inside a frame is truncation.

No ``max_examples`` is pinned here, so ``--hypothesis-profile=thorough``
(``tests/conftest.py``) raises the example count in CI.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelClosedError, WireError
from repro.wire.framing import (
    MAX_FRAME_SIZE,
    READ_AHEAD_MAX,
    FrameDecoder,
    ReceiveBuffer,
    frame,
    read_frame_into,
)

INITIAL = 4096  # ReceiveBuffer's starting capacity
_PATTERN = bytes(range(256)) * 300

sizes = st.one_of(
    st.sampled_from([0, 1, INITIAL - 4, INITIAL - 3, READ_AHEAD_MAX - 4, READ_AHEAD_MAX + 1]),
    st.integers(0, 300),
    st.integers(INITIAL - 8, 3 * INITIAL),
    st.integers(READ_AHEAD_MAX - 8, READ_AHEAD_MAX + INITIAL),
)


@st.composite
def message_lists(draw, min_size=1):
    """Messages of the interesting sizes, each with recognizable bytes."""
    drawn = draw(st.lists(st.tuples(sizes, st.integers(0, 255)), min_size=min_size, max_size=6))
    return [_PATTERN[offset : offset + size] for size, offset in drawn]


@st.composite
def cut_points(draw, stream_length, prefix_offsets=()):
    """Where the stream is cut into reads: arbitrary offsets, runs of
    1-byte reads, and cuts inside the length prefixes."""
    last = max(stream_length, 1)
    cuts = set(draw(st.lists(st.integers(0, last), max_size=12)))
    for start in draw(st.lists(st.integers(0, last), max_size=3)):
        cuts.update(range(start, start + draw(st.integers(1, 12))))
    for offset in prefix_offsets:
        if draw(st.booleans()):
            cuts.add(offset + draw(st.integers(1, 3)))
    return sorted(cut for cut in cuts if 0 < cut < stream_length) + [stream_length]


def frame_offsets(messages):
    offsets, position = [], 0
    for message in messages:
        offsets.append(position)
        position += 4 + len(message)
    return offsets


def recv_into_over(stream: bytes, boundaries):
    """``socket.recv_into`` over ``stream`` that never reads across a
    boundary; returns 0 (EOF) once the stream is exhausted."""
    position = 0

    def recv_into(view):
        nonlocal position
        if position == len(stream):
            return 0
        stop = boundaries[bisect_right(boundaries, position)]
        count = min(len(view), stop - position)
        assert count > 0, "the reader offered an empty window"
        view[:count] = stream[position : position + count]
        position += count
        return count

    return recv_into


def drain_socket_front(stream, boundaries, buffer):
    """Every frame read_frame_into yields, and the error that ended it."""
    recv_into = recv_into_over(stream, boundaries)
    received = []
    try:
        while True:
            received.append(bytes(read_frame_into(recv_into, buffer)))
    except (WireError, ChannelClosedError) as exc:
        return received, exc


def drain_decoder(stream, boundaries, decoder):
    """Every frame a FrameDecoder yields when fed read by read, and the
    error that stopped it (None if it took the whole stream)."""
    received, position = [], 0
    try:
        for stop in boundaries:
            decoder.feed(stream[position:stop])
            position = stop
            for message in decoder.messages():
                received.append(bytes(message))
    except WireError as exc:
        return received, exc
    return received, None


def drain_push_front(stream, boundaries, buffer):
    """What an event loop does: ask for ``tail()``, write what the read
    brought (never across a boundary, never more than the window),
    ``commit`` it, take every whole frame.  Returns the frames, the error
    that stopped the reading (None if the stream ran out first) and how
    many windows were requested."""
    received, position, windows = [], 0, 0
    while position < len(stream):
        window = buffer.tail()
        windows += 1
        assert len(window) > 0, "the reader offered an empty window"
        stop = boundaries[bisect_right(boundaries, position)]
        count = min(len(window), stop - position)
        window[:count] = stream[position : position + count]
        position += count
        buffer.commit(count)
        try:
            while (message := buffer.next_frame()) is not None:
                received.append(bytes(message))
        except WireError as exc:
            return received, exc, windows
    return received, None, windows


def capacity_bound(messages):
    largest = max((len(message) for message in messages), default=0)
    return 2 * max(READ_AHEAD_MAX, largest + 4)


class TestAnyChunking:
    @settings(deadline=None)
    @given(st.data())
    def test_both_fronts_yield_the_sent_messages(self, data):
        messages = data.draw(message_lists())
        stream = b"".join(frame(message) for message in messages)
        boundaries = data.draw(cut_points(len(stream), frame_offsets(messages)))

        buffer = ReceiveBuffer()
        received, ending = drain_socket_front(stream, boundaries, buffer)
        assert received == messages
        assert isinstance(ending, ChannelClosedError)  # EOF at a boundary
        assert buffer.pending == 0
        assert buffer.capacity <= capacity_bound(messages)

        pushed = ReceiveBuffer()
        received, ending, windows = drain_push_front(stream, boundaries, pushed)
        assert (received, ending) == (messages, None)
        assert pushed.pending == 0 and pushed.reads == windows
        assert pushed.capacity <= capacity_bound(messages)

        for copy in (True, False):
            decoder = FrameDecoder(copy=copy)
            assert drain_decoder(stream, boundaries, decoder) == (messages, None)
            assert decoder.pending_bytes == 0

    @settings(deadline=None)
    @given(st.data())
    def test_one_byte_reads_throughout(self, data):
        messages = data.draw(
            st.lists(st.binary(max_size=40), min_size=1, max_size=5)
        )
        stream = b"".join(frame(message) for message in messages)
        boundaries = list(range(1, len(stream) + 1))
        buffer = ReceiveBuffer()
        received, ending = drain_socket_front(stream, boundaries, buffer)
        assert received == messages
        assert isinstance(ending, ChannelClosedError)
        assert buffer.reads == len(stream) + 1  # one per byte, one for EOF
        pushed = ReceiveBuffer()
        assert drain_push_front(stream, boundaries, pushed) == (messages, None, len(stream))
        assert pushed.reads == len(stream)
        assert drain_decoder(stream, boundaries, FrameDecoder()) == (messages, None)


class TestHostileInput:
    @settings(deadline=None)
    @given(st.data())
    def test_forged_length_after_honest_frames(self, data):
        messages = data.draw(message_lists(min_size=0))
        forged = data.draw(st.integers(MAX_FRAME_SIZE + 1, 0xFFFFFFFF))
        junk = data.draw(st.binary(max_size=64))
        honest = b"".join(frame(message) for message in messages)
        stream = honest + forged.to_bytes(4, "big") + junk
        boundaries = data.draw(
            cut_points(len(stream), frame_offsets(messages) + [len(honest)])
        )

        buffer = ReceiveBuffer()
        received, ending = drain_socket_front(stream, boundaries, buffer)
        assert received == messages
        assert isinstance(ending, WireError) and "exceeds limit" in str(ending)
        # Rejected before any allocation: the buffer is only as large as
        # the honest frames made it, and asking again changes nothing.
        capacity = buffer.capacity
        assert capacity <= capacity_bound(messages)
        with pytest.raises(WireError, match="exceeds limit"):
            read_frame_into(recv_into_over(b"", [0]), buffer)
        assert buffer.capacity == capacity

        # The push front stops reading at the forged prefix: the error
        # consumes nothing, and no window is ever sized by it because
        # none is requested again (a channel pauses its transport here).
        pushed = ReceiveBuffer()
        received, ending, _ = drain_push_front(stream, boundaries, pushed)
        assert received == messages
        assert isinstance(ending, WireError) and "exceeds limit" in str(ending)
        pending = pushed.pending
        assert 4 <= pending <= 4 + len(junk)
        with pytest.raises(WireError, match="exceeds limit"):
            pushed.next_frame()
        assert pushed.pending == pending
        assert pushed.capacity <= capacity_bound(messages)

        decoder = FrameDecoder()
        received, ending = drain_decoder(stream, boundaries, decoder)
        assert received == messages
        assert isinstance(ending, WireError) and "exceeds limit" in str(ending)
        assert decoder.pending_bytes <= len(stream) - len(honest)

    @settings(deadline=None)
    @given(st.data())
    def test_eof_at_boundary_and_inside_a_frame(self, data):
        messages = data.draw(message_lists())
        stream = b"".join(frame(message) for message in messages)
        offsets = frame_offsets(messages) + [len(stream)]
        cut = data.draw(st.one_of(st.sampled_from(offsets), st.integers(0, len(stream))))
        boundaries = data.draw(cut_points(cut, frame_offsets(messages)))
        whole = bisect_right(offsets, cut) - 1  # frames wholly before the cut

        received, ending = drain_socket_front(stream[:cut], boundaries, ReceiveBuffer())
        assert received == messages[:whole]
        if cut in offsets:
            assert isinstance(ending, ChannelClosedError)
        else:
            assert isinstance(ending, WireError) and "mid-frame" in str(ending)
