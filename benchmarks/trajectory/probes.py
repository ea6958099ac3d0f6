"""Per-layer probes and host floors.

Layers are the package names under ``src/repro``.  Every timing here is
taken from outside, around a public call, on one thread, as the median
of BATCHES batches; counts come from the public stats each layer keeps.
Floors use no repo code at all: they are what this host charges for a
memcpy, a ``struct.unpack``, an ``np.frombuffer`` conversion, a loopback
socket and a pipe, so that every layer timing can be read as a ratio to
the floor it cannot beat (SNIPPETS.md #1).

Which end-to-end metric each probe should move is in the README.
"""

from __future__ import annotations

import contextlib
import os
import random
import socket
import struct
import sys
from statistics import median
from time import perf_counter

from repro import (
    CompiledSource,
    DiscoveryChain,
    EventBackbone,
    IOContext,
    MetadataClient,
    SPARC_32,
    X86_64,
    XDRCodec,
    XML2Wire,
    XMLTextCodec,
    connect,
    make_pipe,
    parse_schema,
)
from repro.mp import ShmChannel
from repro.wire import frame, get_pool, unframe
from repro.workloads import ASDOFF_B_SCHEMA, ASDOFF_CD_SCHEMA, make_synthetic_schema
from repro.xmlparse import parse_document

from benchmarks.trajectory import inputs
from benchmarks.trajectory.peers import Peer

BATCHES = 5
#: Target wall time of one batch; the inner count is calibrated to it.
BATCH_S = 0.012
ECHO_FRAME = 104  # the stream_small frame
SHM_FRAME = 4096
BULK_FRAME = 32 * 1024
BULK_TOTAL = 32 * 1024 * 1024


@contextlib.contextmanager
def _echo_peer(role: str, **config):
    """A peer process on a different core from this one, stopped on exit.

    Left alone, the scheduler sometimes stacks a sleepy ping-pong pair
    on one core (12 us round trips, half the bandwidth) and sometimes
    spreads it (55 us, full bandwidth).  The two-process workloads
    always run spread, so that is the layout the probes describe.
    """
    allowed = os.sched_getaffinity(0)
    cores = sorted(allowed)
    peer = None
    try:
        if len(cores) >= 2:
            os.sched_setaffinity(0, {cores[0]})
            config["core"] = cores[1]
        peer = Peer(role, config)
        yield peer
    finally:
        if peer is not None:
            peer.stop()
        os.sched_setaffinity(0, allowed)


def _time_ns(call, *, batches: int = BATCHES, batch_s: float = BATCH_S) -> float:
    """Median over batches of the per-call time of ``call``, in ns."""
    started = perf_counter()
    call()
    once = max(perf_counter() - started, 1e-7)
    inner = max(3, int(batch_s / once))
    per_call = []
    for _ in range(batches):
        started = perf_counter()
        for _ in range(inner):
            call()
        per_call.append((perf_counter() - started) / inner)
    return median(per_call) * 1e9


def _echo_rtt_us(send, recv, payload, *, count: int = 400) -> float:
    """Median round trip of ``payload`` through an echoing peer, in us."""
    for _ in range(50):
        send(payload)
        recv()
    batches = []
    for _ in range(BATCHES):
        started = perf_counter()
        for _ in range(count):
            send(payload)
            recv()
        batches.append((perf_counter() - started) / count)
    return median(batches) * 1e6


def _mib_per_s(send_chunk, await_ack, chunk_size: int) -> float:
    """Median over batches of one-way bandwidth: BULK_TOTAL bytes in
    chunks, timed until the peer confirms the last one."""
    chunk = bytes(chunk_size)
    rates = []
    for _ in range(BATCHES):
        started = perf_counter()
        for _ in range(BULK_TOTAL // chunk_size):
            send_chunk(chunk)
        await_ack()
        rates.append((BULK_TOTAL / (1 << 20)) / (perf_counter() - started))
    return median(rates)


def floors() -> dict:
    """What the host charges with no repo code involved."""
    import numpy

    out = {}
    calls = []
    for _ in range(BATCHES):
        started = perf_counter()
        for _ in range(20000):
            perf_counter()
        calls.append((perf_counter() - started) / 20000)
    out["harness.timer_ns"] = median(calls) * 1e9

    source = bytearray(random.Random(0).randbytes(1 << 20))
    target = memoryview(bytearray(1 << 20))

    def copy():
        target[:] = source

    out["floor.memcpy_ns_per_kib"] = _time_ns(copy) / 1024

    record = struct.Struct(">13I")
    packed = record.pack(*range(13))
    out["floor.struct_unpack_ns"] = _time_ns(lambda: record.unpack_from(packed))

    doubles = bytes(source[: 256 * 1024])
    out["floor.np_frombuffer_ns_per_kib"] = _time_ns(
        lambda: numpy.frombuffer(doubles, dtype=">f8").astype("<f8")
    ) / 256

    with _echo_peer("raw_socket_echo", size=ECHO_FRAME) as peer:
        with socket.create_connection(peer.hello["address"]) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reply = bytearray(ECHO_FRAME)

            def read_reply():
                got = 0
                while got < ECHO_FRAME:
                    got += sock.recv_into(memoryview(reply)[got:])

            out["floor.socket_rtt_us"] = _echo_rtt_us(
                sock.sendall, read_reply, bytes(ECHO_FRAME)
            )

    # The floor moves 1 MiB at a time: what the host can do, not what a
    # 32 KiB frame can.
    with _echo_peer("raw_socket_echo", size=1 << 20, sink_total=BULK_TOTAL) as peer:
        with socket.create_connection(peer.hello["address"]) as sock:
            out["floor.socket_mib_per_s"] = _mib_per_s(
                sock.sendall, lambda: sock.recv(1), 1 << 20
            )

    with _echo_peer("pipe_echo") as peer:
        out["floor.pipe_rtt_us"] = _echo_rtt_us(
            peer.conn.send_bytes, peer.conn.recv_bytes, bytes(ECHO_FRAME)
        )
        peer.conn.send_bytes(b"stop")
    return out


def pbio() -> dict:
    """Marshaling: per-record, same-arch, projected, batch, and cold."""
    import numpy

    rng = random.Random(1)
    out = {}
    sparc = IOContext(SPARC_32)
    XML2Wire(sparc).register_schema(ASDOFF_B_SCHEMA)
    fmt_b = sparc.lookup_format("ASDOffEvent")
    record = inputs.record_b(rng)
    message = sparc.encode(fmt_b, record)
    buffer = bytearray(4096)
    out["pbio.encode_ns"] = _time_ns(lambda: sparc.encode(fmt_b, record))
    out["pbio.encode_into_ns"] = _time_ns(lambda: sparc.encode_into(fmt_b, record, buffer))

    x86 = IOContext(X86_64)
    x86.learn_format(fmt_b.to_wire_metadata())
    out["pbio.decode_ns"] = _time_ns(lambda: x86.decode(message))
    out["pbio.decode_view_ns"] = _time_ns(lambda: x86.decode_view(message)["fltNum"])

    same = IOContext(X86_64)
    XML2Wire(same).register_schema(ASDOFF_CD_SCHEMA)
    nested = same.encode("threeASDOffs", inputs.record_cd(rng))
    out["pbio.decode_same_arch_ns"] = _time_ns(lambda: same.decode(nested))

    publisher = IOContext(SPARC_32)
    XML2Wire(publisher).register_schema(inputs.WEATHER_V2_SCHEMA)
    v2 = publisher.lookup_format(inputs.WEATHER_FORMAT)
    evolved = publisher.encode(v2, inputs.weather_v2(rng))
    native = IOContext(X86_64)
    XML2Wire(native).register_schema(inputs.WEATHER_V1_SCHEMA)
    native.learn_format(v2.to_wire_metadata())
    out["pbio.decode_projected_ns"] = _time_ns(
        lambda: native.decode(evolved, expect=inputs.WEATHER_FORMAT)
    )
    cache = native.converter_cache_stats()
    out["pbio.converter_cache_hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
    out["pbio.converter_builds"] = float(cache["builds"])

    bulk = IOContext(SPARC_32)
    XML2Wire(bulk).register_schema(inputs.SENSOR_SCHEMA)
    frame_format = bulk.lookup_format("SensorFrame")
    rows = [
        dict(row, samples=numpy.asarray(row["samples"], dtype="<f8"))
        for row in inputs.sensor_batch(rng, 0)
    ]
    batch = bulk.encode_batch(frame_format, rows)
    reader = IOContext(X86_64)
    reader.learn_format(frame_format.to_wire_metadata())

    def consume_view():
        view = reader.decode_batch_view(batch)
        for name in inputs.SENSOR_SCALARS:
            view.column(name)
        view.dynamic_column("samples")

    per_batch = len(rows)
    out["pbio.encode_batch_ns_per_record"] = _time_ns(
        lambda: bulk.encode_batch_iov(frame_format, rows)
    ) / per_batch
    out["pbio.decode_batch_view_ns_per_record"] = _time_ns(consume_view) / per_batch
    out["pbio.decode_batch_rows_ns_per_record"] = _time_ns(
        lambda: reader.decode_batch(batch), batch_s=0.05
    ) / per_batch

    fields, length = list(fmt_b.fields), fmt_b.record_length
    out["pbio.register_us"] = _time_ns(
        lambda: IOContext(SPARC_32).register_format(
            fmt_b.name, fields, record_length=length
        ),
        batch_s=0.03,
    ) / 1e3
    metadata = fmt_b.to_wire_metadata()

    def first_decode():
        fresh = IOContext(X86_64)
        fresh.learn_format(metadata)
        fresh.decode(message)

    out["pbio.first_decode_us"] = _time_ns(first_decode, batch_s=0.03) / 1e3
    return out


def discovery(pbio_register_us: float) -> dict:
    """xmlparse / schema / core: what registration from XML costs
    (the paper's Table 1, structure B on SPARC_32)."""
    out = {}
    text = ASDOFF_B_SCHEMA
    out["xmlparse.parse_us"] = _time_ns(lambda: parse_document(text), batch_s=0.03) / 1e3
    large = make_synthetic_schema(64)
    large_ns = _time_ns(lambda: parse_document(large), batch_s=0.03)
    out["xmlparse.mib_per_s"] = (len(large.encode("utf-8")) / (1 << 20)) / (large_ns / 1e9)
    schema_total_us = _time_ns(lambda: parse_schema(text), batch_s=0.03) / 1e3
    out["schema.parse_us"] = schema_total_us - out["xmlparse.parse_us"]
    document = parse_schema(text)
    out["core.register_us"] = _time_ns(
        lambda: XML2Wire(IOContext(SPARC_32)).register_schema(document), batch_s=0.03
    ) / 1e3
    out["core.xml2wire_over_pbio_ratio"] = (
        schema_total_us + out["core.register_us"]
    ) / pbio_register_us
    out["core.discover_us"] = _time_ns(
        lambda: DiscoveryChain([CompiledSource(text)]).discover(), batch_s=0.03
    ) / 1e3
    return out


def metaserver() -> dict:
    """One GET against each serving plane, cold and cached."""
    out = {}
    corpus = [("/asdoff_b.xsd", "ASDOffEvent", ASDOFF_B_SCHEMA, {})]
    for metric, aio in (("metaserver.fetch_us", False), ("aio.fetch_us", True)):
        with _echo_peer("metadata_server", corpus=corpus, aio=aio) as peer:
            url = peer.hello["urls"][0]
            cold = MetadataClient(ttl=0)
            out[metric] = _time_ns(lambda: cold.get_bytes(url), batch_s=0.03) / 1e3
            if not aio:
                warm = MetadataClient()
                out["metaserver.cached_get_us"] = _time_ns(lambda: warm.get_bytes(url)) / 1e3
                stats = warm.stats()
                out["metaserver.cache_hit_ratio"] = stats["hits"] / (
                    stats["hits"] + stats["fetches"]
                )
                out["metaserver.retries"] = float(stats["retries"] + cold.stats()["retries"])
    return out


def wire() -> dict:
    """Framing, the buffer pool, and the XDR / text-XML comparators
    (paper claims C1-C3) on record B."""
    out = {}
    rng = random.Random(2)
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(ASDOFF_B_SCHEMA)
    fmt = context.lookup_format("ASDOffEvent")
    record = inputs.record_b(rng)
    message = context.encode(fmt, record)
    framed = frame(message)
    out["wire.frame_ns"] = _time_ns(lambda: frame(message))
    out["wire.unframe_ns"] = _time_ns(lambda: unframe(framed))
    pool = get_pool()
    before = pool.stats()

    def cycle():
        pool.release(pool.acquire(4096))

    _time_ns(cycle)
    after = pool.stats()
    hits = after["hits"] - before["hits"]
    out["wire.bufpool_hit_ratio"] = hits / (hits + after["misses"] - before["misses"])
    xdr, text = XDRCodec(fmt), XMLTextCodec(fmt)
    out["wire.ndr_bytes"] = float(len(message))
    out["wire.xdr_bytes"] = float(len(xdr.encode(record)))
    out["wire.xmltext_bytes"] = float(len(text.encode(record)))
    out["wire.xdr_roundtrip_ns"] = _time_ns(lambda: xdr.decode(xdr.encode(record)))
    out["wire.xmltext_roundtrip_ns"] = _time_ns(lambda: text.decode(text.encode(record)))
    return out


def transport_and_mp() -> dict:
    """Channel round trips and bandwidth across two processes, with no
    codec: TCP at the stream_small frame size and at 4 KiB, the shm ring
    at 4 KiB (settling PR 8's single-core 0.25x), and the in-process
    pipe."""
    out = {}
    near, far = make_pipe()
    payload = bytes(ECHO_FRAME)

    def inproc():
        near.send(payload)
        far.send(far.recv())
        near.recv()

    out["transport.inproc_rtt_us"] = _time_ns(inproc) / 1e3

    def echo_over(channel, size: int) -> float:
        return _echo_rtt_us(channel.send, channel.recv, bytes(size))

    with _echo_peer("channel_echo") as peer, connect(*peer.hello["address"]) as channel:
        out["transport.tcp_rtt_us"] = echo_over(channel, ECHO_FRAME)
        tcp_4k = echo_over(channel, SHM_FRAME)
    with _echo_peer("channel_echo", sink=True) as peer, connect(
        *peer.hello["address"]
    ) as channel:

        def await_ack():
            channel.send(b"\x00")
            channel.recv_view(10.0)

        out["transport.tcp_mib_per_s"] = _mib_per_s(channel.send, await_ack, BULK_FRAME)
    try:
        channel, endpoint = ShmChannel.create()
    except OSError as exc:
        # No shared memory in this sandbox: leave the mp probes at 0.
        print(f"warning: mp probes skipped: {exc}", file=sys.stderr)
        out["mp.shm_rtt_us"] = out["mp.shm_over_tcp_ratio"] = 0.0
        return out
    with _echo_peer("channel_echo", shm=endpoint.uri()):
        try:
            out["mp.shm_rtt_us"] = echo_over(channel, SHM_FRAME)
        finally:
            channel.close()  # before the peer is stopped: it is blocked in recv
    # > 1 means the shm ring beats loopback TCP at the same frame size.
    out["mp.shm_over_tcp_ratio"] = tcp_4k / out["mp.shm_rtt_us"]
    return out


class _NullSink:
    """A subscriber inbox that drops what it is handed, so routing can
    be timed without a consumer or a growing queue."""

    def put(self, stream: str, frame) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


def events() -> dict:
    """In-process backbone: routing cost per sink and one publish."""
    out = {}
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(ASDOFF_B_SCHEMA)
    fmt = context.lookup_format("ASDOffEvent")
    record = inputs.record_b(random.Random(3))
    message = context.encode(fmt, record)
    for sinks in (1, 8):
        backbone = EventBackbone()
        for _ in range(sinks):
            backbone.attach_queue("flights", _NullSink())
        out[f"events.route_ns_per_sink.q{sinks}"] = _time_ns(
            lambda: backbone.route("flights", message)
        ) / sinks
    backbone = EventBackbone()
    backbone.attach_queue("flights", _NullSink())
    publisher = backbone.publisher("flights", context)
    out["events.publish_ns"] = _time_ns(lambda: publisher.publish(fmt, record))
    return out


def run_all() -> dict:
    """Every host-level probe; takes a few seconds."""
    out = {}
    out.update(floors())
    out.update(pbio())
    out.update(discovery(out["pbio.register_us"]))
    out.update(metaserver())
    out.update(wire())
    out.update(transport_and_mp())
    out.update(events())
    return out
