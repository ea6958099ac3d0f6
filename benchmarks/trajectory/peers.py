"""Peer processes: the far end of every workload and probe.

Process layout (decided by measurement — see README, "Sizing"): every
endpoint is its own single-threaded process.  The generator (sender,
publisher, client) is the parent; each peer (receiver, echoer, broker,
subscriber, metadata server) is a ``spawn``\\ ed child running one of the
role functions below.  Threads sharing one GIL turned queueing into
"latency" and made throughput wander round to round; processes did not.

Parent and child talk over a ``multiprocessing`` pipe: the child sends a
hello (its listening address), then answers commands.  Hot loops append
``(monotonic time, process CPU, operations so far)`` progress samples so
the parent can cut every side's work into the same rounds.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import socket
import threading
import traceback
from array import array
from time import perf_counter, process_time

from repro import IOContext, X86_64, XML2Wire, errors, get_registry
from repro.aio import AsyncEventBroker, AsyncMetadataServer, BackgroundLoop
from repro.events import BrokerServer, RemoteBackboneClient
from repro.metaserver import MetadataServer
from repro.mp import ShmChannel
from repro.transport import RecordConnection, connect, listen
from repro.workloads import ASDOFF_CD_SCHEMA

from benchmarks.trajectory.inputs import (
    BATCH_RECORDS,
    SENSOR_SCALARS,
    STAMP_FIELD,
    WEATHER_FORMAT,
    WEATHER_V1_SCHEMA,
    WEATHER_V2_ONLY,
)
from benchmarks.trajectory.tracing import (
    Recorder,
    TracedChannel,
    spanned,
    wrap_channel,
    wrap_context,
)

ReproError = errors.ReproError

#: PBIO message kinds (docs/PROTOCOL.md, message header).
KIND_FORMAT = 2
KIND_BATCH = 4

#: Operations between progress samples on the per-record loops.
CHUNK = 128
#: How long a peer waits for traffic before it declares the run failed.
RECV_TIMEOUT = 10.0
#: How long the parent waits for a peer's answer.
PEER_TIMEOUT = 60.0
#: The broker peer's idle thread polls the queue-depth gauge this often.
BACKLOG_POLL_S = 0.005

BROKER_STREAM = "weather.surface"

_SPAWN = multiprocessing.get_context("spawn")


def peer_core(index: int, processes: int) -> int | None:
    """The core peer number ``index`` is pinned to, or None for unpinned.

    Peers are pinned only when the workload runs more processes than
    the host has cores, and then to the cores after the first: on two
    cores broker and subscriber share the second and the scheduler
    keeps the (never pinned) generator on the first.  Left to the
    scheduler, three processes on two cores moved broker latency and
    CPU by 9-15 % from launch to launch; this way, by 1-3 %.  Pinning
    the generator as well made one ``send`` in ten take 100 us longer
    and the generator late; two processes on two cores were steady
    unpinned, and stream_bulk lost a third of its throughput pinned, so
    those are left alone.  See README, "Process layout".
    """
    cores = sorted(os.sched_getaffinity(0))
    if processes <= len(cores) or len(cores) < 2:
        return None
    return cores[1 + index % (len(cores) - 1)]


class PeerError(RuntimeError):
    """A peer process died, hung or reported an unexpected failure."""


class Peer:
    """Parent-side handle on one spawned peer process."""

    def __init__(self, role: str, config: dict) -> None:
        self.role = role
        self.conn, child_conn = _SPAWN.Pipe()
        self._process = _SPAWN.Process(
            target=main, args=(role, child_conn, config), daemon=True
        )
        self._process.start()
        child_conn.close()
        try:
            self.hello = self.result()
        except BaseException:
            self.stop()
            raise

    def command(self, *message) -> None:
        self.conn.send(message)

    def result(self, timeout: float = PEER_TIMEOUT) -> dict:
        if not self.conn.poll(timeout):
            raise PeerError(f"peer {self.role!r} silent for {timeout}s")
        try:
            reply = self.conn.recv()
        except EOFError:
            raise PeerError(f"peer {self.role!r} exited without answering") from None
        if "crash" in reply:
            raise PeerError(f"peer {self.role!r} crashed:\n{reply['crash']}")
        return reply

    def call(self, *message) -> dict:
        self.command(*message)
        return self.result()

    def stop(self) -> None:
        """Ask the peer to exit; kill it if it does not.  Always joins."""
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self.conn.close()


def stop_helpers() -> None:
    """Stop, and wait for, every process this one still has as a child.

    ``spawn`` starts multiprocessing's resource tracker beside the first
    peer (and ``ShmChannel`` would start it anyway).  Left alone it only
    ends once this process is gone, that is *after* the run: whoever
    looks at the process table then finds a python process the benchmark
    started.  Closing its pipe makes it end now; it is waited for.  Any
    other child still around (a peer whose handle was lost on an error
    path) is killed and waited for.  Call it last, on every path out.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    try:
        tracker._stop()  # closes the tracker's pipe and waits for its pid
    except (AttributeError, OSError):
        pass  # no tracker was started, or it is already gone
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = int(handle.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # ended while we looked
        if parent != me:
            continue
        try:
            os.kill(int(entry), 9)
        except OSError:
            pass
        try:
            os.waitpid(int(entry), 0)
        except OSError:
            pass  # already waited for


def main(role: str, conn, config: dict) -> None:
    """Child entry point: run ``role`` and report a crash to the parent."""
    try:
        if config.get("core") is not None:
            try:
                os.sched_setaffinity(0, {config["core"]})
            except OSError:
                pass  # a sandbox that forbids it: run unpinned
        if not config.get("registry", True):
            get_registry().disable()
        ROLES[role](conn, config)
    except BaseException:
        try:
            conn.send({"crash": traceback.format_exc()})
        except OSError:
            pass
    finally:
        conn.close()


def progress(samples: list, count: int) -> None:
    """Append one (monotonic time, process CPU, operations so far) sample."""
    samples.append((perf_counter(), process_time(), count))


def _recorder(config: dict) -> Recorder | None:
    return Recorder() if config.get("traced") else None


def _accept_one(conn):
    """Listen on loopback, tell the parent where, return its connection."""
    with listen() as listener:
        conn.send({"address": listener.address})
        return listener.accept(timeout=PEER_TIMEOUT)


def _serve(conn, handlers: dict) -> None:
    """Answer parent commands until ``stop``."""
    while True:
        message = conn.recv()
        if message[0] == "stop":
            return
        conn.send(handlers[message[0]](*message[1:]))


def _session_reply(samples, failed, error, **extra) -> dict:
    reply = {
        "samples": samples,
        "failed": failed,
        "error": error,
        "maxrss_kib": _maxrss_kib(),
    }
    reply.update(extra)
    return reply


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reduce_handler(recorder: Recorder | None):
    """The ``reduce`` command; a peer that records nothing answers empty."""
    return (recorder or Recorder()).reduce


# -- stream_small ----------------------------------------------------------


def stream_receiver(conn, config: dict) -> None:
    """``RecordConnection.recv`` of per-record NDR messages, verified."""
    expected = config["records"]
    recorder = _recorder(config)
    link = RecordConnection(
        wrap_context(IOContext(X86_64), recorder),
        wrap_channel(_accept_one(conn), recorder),
    )

    def session() -> dict:
        samples: list = []
        count = failed = 0
        error = None
        size = len(expected)
        recv = spanned(recorder, "transport.recv", link.recv)
        try:
            while True:
                if recorder is not None:
                    recorder.set_op(count)
                values = recv(RECV_TIMEOUT).values
                if values["fltNum"] == 0:  # the generator's end marker
                    break
                if values != expected[count % size]:
                    failed += 1
                count += 1
                if count % CHUNK == 1:
                    progress(samples, count)
        except ReproError as exc:
            error, failed = repr(exc), failed + 1
        return _session_reply(samples, failed, error, received=count)

    try:
        _serve(conn, {"session": session, "reduce": _reduce_handler(recorder)})
    finally:
        link.close()


# -- stream_bulk -----------------------------------------------------------


def bulk_receiver(conn, config: dict) -> None:
    """Columnar batches consumed as zero-copy column views, verified
    column-wise with exact equality."""
    import numpy

    expected = [
        {
            **{
                name: numpy.asarray([row[name] for row in batch])
                for name in SENSOR_SCALARS
            },
            "samples": numpy.asarray(
                [row["samples"] for row in batch], dtype="f8"
            ).ravel(),
            "counts": numpy.asarray([row["samples_count"] for row in batch]),
        }
        for batch in config["batches"]
    ]
    recorder = _recorder(config)
    context = IOContext(X86_64)
    channel = wrap_channel(_accept_one(conn), recorder)
    equal = numpy.array_equal

    def session() -> dict:
        samples: list = []
        batches = count = failed = 0
        error = None
        try:
            while True:
                if recorder is not None:
                    recorder.set_op(batches)
                message = channel.recv_view(RECV_TIMEOUT)
                kind, _, _, length, _ = IOContext.parse_header(message)
                if kind == KIND_FORMAT:
                    context.learn_format(bytes(message[len(message) - length:]))
                    continue
                if kind != KIND_BATCH:
                    failed += 1
                    continue
                if recorder is not None:
                    recorder.begin("pbio.decode_batch")
                view = context.decode_batch_view(message)
                columns = {name: view.column(name) for name in SENSOR_SCALARS}
                flat, counts = view.dynamic_column("samples")
                if recorder is not None:
                    recorder.end()
                if view.count != BATCH_RECORDS:  # the generator's end marker
                    break
                want = expected[batches % len(expected)]
                if not (
                    all(equal(columns[name], want[name]) for name in SENSOR_SCALARS)
                    and equal(flat, want["samples"])
                    and equal(counts, want["counts"])
                ):
                    failed += 1
                batches += 1
                count += view.count
                progress(samples, count)
        except ReproError as exc:
            error, failed = repr(exc), failed + 1
        return _session_reply(samples, failed, error, received=count)

    try:
        _serve(conn, {"session": session, "reduce": _reduce_handler(recorder)})
    finally:
        channel.close()


# -- rpc_echo --------------------------------------------------------------


def echo_server(conn, config: dict) -> None:
    """Decode each request, verify it, re-encode it as the reply."""
    expected = config["records"]
    recorder = _recorder(config)
    context = IOContext(X86_64)
    XML2Wire(context).register_schema(ASDOFF_CD_SCHEMA)
    reply_format = context.lookup_format("threeASDOffs")
    link = RecordConnection(
        wrap_context(context, recorder), wrap_channel(_accept_one(conn), recorder)
    )

    def session() -> dict:
        samples: list = []
        count = failed = 0
        error = None
        size = len(expected)
        recv = spanned(recorder, "transport.recv", link.recv)
        send = spanned(recorder, "transport.send", link.send)
        progress(samples, 0)
        try:
            while True:
                if recorder is not None:
                    recorder.set_op(count)
                values = recv(RECV_TIMEOUT).values
                if values["bart"] < 0.0:  # the generator's end marker
                    break
                if values != expected[count % size]:
                    failed += 1
                send(reply_format, values)
                count += 1
                if not count % CHUNK:
                    progress(samples, count)
        except ReproError as exc:
            error, failed = repr(exc), failed + 1
        return _session_reply(
            samples, failed, error,
            data_bytes=link.data_bytes, data_messages=link.data_messages,
        )

    try:
        _serve(conn, {"session": session, "reduce": _reduce_handler(recorder)})
    finally:
        link.close()


# -- broker_open / broker_open_aio ------------------------------------------


def broker(conn, config: dict) -> None:
    """The broker under test: threaded ``BrokerServer`` or, with
    ``config["aio"]``, ``AsyncEventBroker`` on its own loop thread.

    This main thread only answers ``mark`` (CPU so far, deepest
    subscriber queue since the last mark) and otherwise polls the
    backbone's queue-depth gauge.
    """
    recorder = _recorder(config)
    if config["aio"]:
        loop = BackgroundLoop()
        server = AsyncEventBroker()
        loop.run(server.start())
        address = server.address

        def shutdown() -> None:
            loop.run(server.stop())
            loop.stop()

    elif recorder is None:
        server = BrokerServer().start()
        address = server.address
        shutdown = server.stop
    else:
        # Traced: the harness accepts and hands the broker wrapped
        # channels, so its transport calls are recorded from outside.
        server = BrokerServer()
        listener = listen()
        address = listener.address
        stop_accepting = threading.Event()

        def accept_loop() -> None:
            while not stop_accepting.is_set():
                try:
                    channel = listener.accept(timeout=0.2)
                except ReproError:
                    continue
                server.serve_channel(
                    TracedChannel(channel, recorder, ordinal_ids=True)
                )

        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()

        def shutdown() -> None:
            stop_accepting.set()
            acceptor.join(timeout=2.0)
            listener.close()
            server.stop()

    depth = get_registry().gauge(
        "events_queue_depth", "deepest subscriber inbox per stream", ("stream",)
    ).labels(BROKER_STREAM)
    conn.send({"address": address})
    backlog_max = 0.0
    try:
        while True:
            if not conn.poll(BACKLOG_POLL_S):
                backlog_max = max(backlog_max, depth.value())
                continue
            message = conn.recv()
            if message[0] == "stop":
                return
            if message[0] == "mark":
                conn.send({
                    "t": perf_counter(), "cpu": process_time(),
                    "backlog_max": backlog_max, "maxrss_kib": _maxrss_kib(),
                })
                backlog_max = 0.0
            elif message[0] == "reduce":
                conn.send(_reduce_handler(recorder)(*message[1:]))
    finally:
        shutdown()


def subscriber(conn, config: dict) -> None:
    """Native v1 subscriber: every v2 delivery is projected on decode.

    Latency is receive time minus the due time the publisher stamped in
    ``altimeter``; ``issued`` carries the sequence number, so a lost or
    reordered delivery is seen, not just a wrong value.
    """
    expected = [
        {
            name: value for name, value in record.items()
            if name not in WEATHER_V2_ONLY and name not in (STAMP_FIELD, "issued")
        }
        for record in config["records"]
    ]
    recorder = _recorder(config)
    context = IOContext(X86_64)
    XML2Wire(context).register_schema(WEATHER_V1_SCHEMA)
    client = RemoteBackboneClient(
        wrap_channel(connect(*config["broker"]), recorder),
        wrap_context(context, recorder),
    )
    client.subscribe(BROKER_STREAM)
    conn.send({"subscribed": True})
    next_event = spanned(
        recorder, "events.next_event",
        lambda timeout: client.next_event(timeout, expect=WEATHER_FORMAT),
    )

    def session(first_seq: int) -> dict:
        samples: list = []
        due_times = array("d")
        latencies = array("d")
        count = failed = 0
        next_seq = first_seq
        error = None
        size = len(expected)
        progress(samples, 0)
        try:
            while True:
                if recorder is not None:
                    recorder.set_op(next_seq)
                values = next_event(RECV_TIMEOUT).values
                now = perf_counter()
                if values["wind_dir"] < 0:  # the generator's end marker
                    break
                due = values.pop(STAMP_FIELD)
                seq = values.pop("issued")
                if seq != next_seq or values != expected[seq % size]:
                    failed += 1
                next_seq = seq + 1
                due_times.append(due)
                latencies.append(now - due)
                count += 1
                if not count % CHUNK:
                    progress(samples, count)
        except ReproError as exc:
            error = repr(exc)
        progress(samples, count)
        return _session_reply(
            samples, failed, error,
            due=due_times.tobytes(), latency=latencies.tobytes(),
            converter=context.converter_cache_stats(),
            recv_bytes=transport_bytes("recv"),
        )

    try:
        _serve(conn, {"session": session, "reduce": _reduce_handler(recorder)})
    finally:
        client.close()


def transport_bytes(direction: str) -> float:
    """Message bytes this process moved over sync TCP channels so far."""
    series = get_registry().snapshot().get("transport_bytes_total", {})
    return sum(
        value for labels, value in series.items()
        if dict(labels).get("direction") == direction
    )


# -- discover_cold and the metaserver probes ---------------------------------


def metadata_server(conn, config: dict) -> None:
    """Threaded ``MetadataServer`` (or ``AsyncMetadataServer`` with
    ``config["aio"]``) publishing the schema corpus."""
    if config.get("aio"):
        loop = BackgroundLoop()
        server = AsyncMetadataServer()
        loop.run(server.start())

        def shutdown() -> None:
            loop.run(server.stop())
            loop.stop()

    else:
        server = MetadataServer().start()
        shutdown = server.stop
    urls = [server.publish_schema(path, xml) for path, _, xml, _ in config["corpus"]]
    conn.send({"urls": urls})

    def mark() -> dict:
        return {"t": perf_counter(), "cpu": process_time(), "maxrss_kib": _maxrss_kib()}

    try:
        _serve(conn, {"mark": mark, "reduce": _reduce_handler(None)})
    finally:
        shutdown()


# -- echo peers for the floor / transport / mp probes -------------------------


def raw_socket_echo(conn, config: dict) -> None:
    """Floor: a bare loopback socket, no repo code.

    Echoes every ``config["size"]`` bytes back (round-trip floor) or,
    with ``config["sink_total"]``, swallows that many bytes in reads of
    up to ``size``, answers one byte, and starts over (bandwidth floor).
    """
    size = config["size"]
    sink_total = config.get("sink_total")
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        conn.send({"address": listener.getsockname()})
        peer, _ = listener.accept()
    with peer:
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = bytearray(size)
        view = memoryview(buffer)
        got = 0
        while True:
            read = peer.recv_into(view if sink_total else view[got:])
            if not read:
                return
            got += read
            if sink_total is None and got == size:
                peer.sendall(buffer)
                got = 0
            elif sink_total is not None and got >= sink_total:
                peer.sendall(b"\x00")
                got = 0


def pipe_echo(conn, config: dict) -> None:
    """Floor: echo bytes on the multiprocessing pipe itself."""
    conn.send({"ready": True})
    while True:
        payload = conn.recv_bytes()
        if payload == b"stop":
            return
        conn.send_bytes(payload)


def channel_echo(conn, config: dict) -> None:
    """Echo whole frames on a repo channel: ``TCPChannel`` or, with
    ``config["shm"]``, the peer end of a ``ShmChannel``; with
    ``config["sink"]`` frames are swallowed (bandwidth probe)."""
    if "shm" in config:
        channel = ShmChannel.attach(config["shm"])
        conn.send({"attached": True})
    else:
        channel = _accept_one(conn)
    try:
        while True:
            try:
                frame = channel.recv_view(RECV_TIMEOUT)
            except ReproError:
                return
            # A one-byte frame asks for an answer even from a sink: the
            # generator uses it to know everything before it arrived.
            answer = bytes(frame) if len(frame) == 1 or not config.get("sink") else None
            del frame  # borrowed from the channel: must not outlive recv or close
            if answer is not None:
                channel.send(answer)
    finally:
        channel.close()


ROLES = {
    "stream_receiver": stream_receiver,
    "bulk_receiver": bulk_receiver,
    "echo_server": echo_server,
    "broker": broker,
    "subscriber": subscriber,
    "metadata_server": metadata_server,
    "raw_socket_echo": raw_socket_echo,
    "pipe_echo": pipe_echo,
    "channel_echo": channel_echo,
}
