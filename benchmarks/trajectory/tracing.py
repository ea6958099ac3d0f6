"""Harness-side spans for the traced run.

End-to-end numbers are taken with tracing off.  A traced round wraps the
public calls into each layer from the benchmark's own files: a
:class:`TracedChannel` around the transport and a :class:`TracedContext`
proxy around the :class:`~repro.IOContext` handed to
``RecordConnection`` / ``RemoteBackboneClient`` / ``BrokerServer``.
Spans stay in memory and are reduced to per-name self times when the
round ends.

Span names are fixed (see ``SPAN_NAMES``); each span records start, end,
the index of the enclosing span on the same thread, and the id of the
operation it served, which the generator and its peers derive the same
way (the ordinal of the record on the connection).
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter

from repro.transport import Channel

SPAN_NAMES = (
    "pbio.encode",
    "pbio.decode",
    "pbio.encode_batch",
    "pbio.decode_batch",
    "pbio.learn_format",
    "transport.send",
    "transport.recv",
    "events.publish",
    "events.next_event",
    "metaserver.fetch",
    "schema.parse",
    "core.register",
)


_NAME_IDS = {name: float(index) for index, name in enumerate(SPAN_NAMES)}
_FIELDS = 6  # serial, name id, start, end, parent serial, op id


class _ThreadSpans:
    __slots__ = ("data", "stack", "op", "serial")

    def __init__(self) -> None:
        # Finished spans as flat doubles: a list of tuples this long
        # (hundreds of thousands per round) made the cyclic GC the
        # largest cost of tracing.
        self.data = array("d")
        self.stack: list = []  # (serial, name id, start, op id) of open spans
        self.op = 0
        self.serial = 0


class Recorder:
    """In-memory span store, one span list per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # The creating thread runs the hot loop in every process but the
        # broker: it skips the thread-local lookup.
        self._owner = threading.get_ident()
        self._main = _ThreadSpans()
        self._threads: list[_ThreadSpans] = [self._main]

    def _state(self) -> _ThreadSpans:
        if threading.get_ident() == self._owner:
            return self._main
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
        return state

    def set_op(self, op: int) -> None:
        """Operation id given to spans begun on this thread from now on."""
        self._state().op = op

    def begin(self, name: str, op: int | None = None) -> None:
        state = self._state()
        state.serial += 1
        state.stack.append(
            (state.serial, _NAME_IDS[name], state.op if op is None else op, perf_counter())
        )

    def end(self) -> None:
        finished = perf_counter()
        state = self._state()
        serial, name_id, op, started = state.stack.pop()
        parent = state.stack[-1][0] if state.stack else 0
        state.data.extend((serial, name_id, started, finished, parent, op))

    def reduce(self, start: float, end: float, sample: int = 0) -> dict:
        """Per-name self time of the spans begun inside ``[start, end]``.

        Self time is a span's duration minus the time its child spans
        cover.  ``covered_s`` is the wall time inside root spans — the
        numerator of coverage.  ``sample`` keeps that many raw spans for
        the JSON report.
        """
        with self._lock:
            threads = list(self._threads)
        totals = [[0, 0.0] for _ in SPAN_NAMES]
        covered = 0.0
        kept: list = []
        for thread, state in enumerate(threads):
            data = state.data
            child_time: dict[float, float] = {}
            # Spans are stored as they finish, so children come first.
            for base in range(0, len(data), _FIELDS):
                serial, name_id, begun, finished, parent, op = data[base:base + _FIELDS]
                if not start <= begun <= end:
                    continue
                duration = finished - begun
                entry = totals[int(name_id)]
                entry[0] += 1
                entry[1] += duration - child_time.pop(serial, 0.0)
                if parent:
                    child_time[parent] = child_time.get(parent, 0.0) + duration
                else:
                    covered += duration
                if len(kept) < sample:
                    kept.append({
                        "name": SPAN_NAMES[int(name_id)], "start": begun, "end": finished,
                        "thread": thread, "span": int(serial), "parent": int(parent),
                        "op": int(op),
                    })
        return {
            "self": {
                name: {"count": count, "self_s": total}
                for name, (count, total) in zip(SPAN_NAMES, totals) if count
            },
            "covered_s": covered,
            "sample": kept,
        }


def wrap_channel(channel, recorder: "Recorder | None"):
    """``channel`` itself, or a :class:`TracedChannel` around it."""
    return channel if recorder is None else TracedChannel(channel, recorder)


def wrap_context(context, recorder: "Recorder | None"):
    """``context`` itself, or a :class:`TracedContext` around it."""
    return context if recorder is None else TracedContext(context, recorder)


def spanned(recorder: Recorder | None, name: str, call):
    """``call`` wrapped in a span, or ``call`` itself when not tracing.

    The loops wrap ``RecordConnection.send`` / ``recv`` this way: the
    connection belongs to the transport layer, so its own work (protocol
    messages, header parsing) is transport self time, with the channel
    and pbio spans nested inside.
    """
    if recorder is None:
        return call

    def wrapped(*args):
        recorder.begin(name)
        try:
            return call(*args)
        finally:
            recorder.end()

    return wrapped


class TracedChannel(Channel):
    """A channel that records ``transport.send`` / ``transport.recv``.

    ``transport.recv`` includes un-framing and the wait for the peer.
    With ``ordinal_ids`` the span's operation id is the frame's ordinal
    in its direction on this channel — what a process that never looks
    inside payloads (the broker) can know about which record it moved.
    """

    def __init__(self, inner: Channel, recorder: Recorder, *, ordinal_ids: bool = False) -> None:
        self._inner = inner
        self._recorder = recorder
        self._ordinal_ids = ordinal_ids
        self._sent = 0
        self._received = 0

    def _send_op(self):
        if not self._ordinal_ids:
            return None
        self._sent += 1
        return self._sent - 1

    def _recv_op(self):
        if not self._ordinal_ids:
            return None
        self._received += 1
        return self._received - 1

    def send(self, message) -> None:
        self._recorder.begin("transport.send", self._send_op())
        try:
            self._inner.send(message)
        finally:
            self._recorder.end()

    def send_many(self, messages) -> int:
        self._recorder.begin("transport.send", self._send_op())
        try:
            return self._inner.send_many(messages)
        finally:
            self._recorder.end()

    def send_batch(self, parts) -> int:
        self._recorder.begin("transport.send", self._send_op())
        try:
            return self._inner.send_batch(parts)
        finally:
            self._recorder.end()

    def recv(self, timeout: float | None = None):
        self._recorder.begin("transport.recv", self._recv_op())
        try:
            return self._inner.recv(timeout)
        finally:
            self._recorder.end()

    def recv_view(self, timeout: float | None = None):
        self._recorder.begin("transport.recv", self._recv_op())
        try:
            return self._inner.recv_view(timeout)
        finally:
            self._recorder.end()

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class TracedContext:
    """Delegating proxy around an IOContext that records pbio spans.

    Only the calls the connection layers make on the data path are
    wrapped; everything else (format lookup, header parsing, metadata
    messages) is passed straight through.
    """

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._begin = recorder.begin
        self._end = recorder.end
        # Bind the pass-through methods once: __getattr__ on every
        # knows_format_id() call showed up in the traced round.
        for name in dir(inner):
            if not name.startswith("_") and not hasattr(type(self), name):
                member = getattr(inner, name)
                if callable(member):
                    setattr(self, name, member)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def encode(self, fmt, record):
        self._begin("pbio.encode")
        try:
            return self._inner.encode(fmt, record)
        finally:
            self._end()

    def decode(self, message, **options):
        self._begin("pbio.decode")
        try:
            return self._inner.decode(message, **options)
        finally:
            self._end()

    def encode_batch(self, fmt, records, **options):
        self._begin("pbio.encode_batch")
        try:
            return self._inner.encode_batch(fmt, records, **options)
        finally:
            self._end()

    def encode_batch_iov(self, fmt, records, **options):
        self._begin("pbio.encode_batch")
        try:
            return self._inner.encode_batch_iov(fmt, records, **options)
        finally:
            self._end()

    def decode_batch(self, message, **options):
        self._begin("pbio.decode_batch")
        try:
            return self._inner.decode_batch(message, **options)
        finally:
            self._end()

    def learn_format(self, metadata):
        self._begin("pbio.learn_format")
        try:
            return self._inner.learn_format(metadata)
        finally:
            self._end()
