"""Experiment P7 — columnar bulk streaming vs per-record NDR.

The bulk-stream claim: carrying N same-format records as one columnar
frame (per-field column blocks, vectorized conversion, one writev per
batch) must deliver at least **10x** the end-to-end records/second of N
individual NDR messages once batches reach 64 records.

The workload is the paper's bulk-scientific case: a telemetry frame of
scalars plus a dynamic array of double samples — the shape atmospheric
and instrument streams actually have.  Each arm runs with its natural
input and output representation:

- **per-record NDR**: one ``encode``/``send`` syscall and one
  ``recv``/``decode``-to-dict per record — the pre-batch hot path.
- **columnar**: the bulk-sender idiom (sample arrays held as
  ndarrays), ``encode_batch_iov`` + scatter-gather ``send_batch``, and
  a receiver that consumes every column through the zero-copy
  :class:`~repro.pbio.ColumnBatchView` — the "touch only the bytes you
  need" consumption model the frame exists for.

Two A/B measurements over a real TCP socket pair: end-to-end
throughput (the acceptance gate) and codec-only throughput (no socket,
isolating vectorized conversion from syscall amortization).

The helpers are imported by ``benchmarks/report.py --pr7`` to emit
``BENCH_PR7.json``; keep their signatures stable.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import IOContext, XML2Wire
from repro.pbio import types as pbio_types
from repro.transport import connect, listen

#: Batch sizes swept by the throughput A/B; the acceptance gate reads
#: the best batch >= 64.
BATCH_SIZES = (64, 256, 512)

#: Records pushed per arm (divisible by every batch size).
TOTAL_RECORDS = 4096

#: Doubles per record's dynamic ``samples`` array.
SAMPLES_PER_RECORD = 128

SENSOR_SCHEMA = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="SensorFrame">
    <xsd:element name="seq" type="xsd:unsigned-int" />
    <xsd:element name="timestamp" type="xsd:double" />
    <xsd:element name="sensor" type="xsd:unsigned-short" />
    <xsd:element name="flags" type="xsd:unsigned-short" />
    <xsd:element name="value" type="xsd:double" />
    <xsd:element name="samples" type="xsd:double" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>"""

SCALAR_FIELDS = ("seq", "timestamp", "sensor", "flags", "value")

HAVE_NUMPY = pbio_types.numpy is not None

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the vectorized bulk path requires numpy"
)


def tcp_pair():
    """A connected (client, server, listener) triple on localhost."""
    listener = listen()
    host, port = listener.address
    accepted = {}
    thread = threading.Thread(
        target=lambda: accepted.update(channel=listener.accept(timeout=5.0))
    )
    thread.start()
    client = connect(host, port)
    thread.join(timeout=5.0)
    return client, accepted["channel"], listener


def build_endpoints():
    """(sender context, fmt, row records, bulk records, receiver context).

    ``row records`` carry plain-list sample arrays (the per-record
    arm's natural input); ``bulk records`` carry the same values as
    ndarrays when numpy is available (the documented bulk-sender
    idiom the columnar encoder vectorizes over).
    """
    sender = IOContext()
    XML2Wire(sender).register_schema(SENSOR_SCHEMA)
    fmt = sender.lookup_format("SensorFrame")
    receiver = IOContext()
    receiver.learn_format(fmt.to_wire_metadata())
    rows = []
    for index in range(TOTAL_RECORDS):
        rows.append({
            "seq": index,
            "timestamp": 954547200.0 + index * 0.001,
            "sensor": index % 64,
            "flags": index % 4,
            "value": (index % 1000) * 0.25,
            "samples": [index + 0.25 * j for j in range(SAMPLES_PER_RECORD)],
            "samples_count": SAMPLES_PER_RECORD,
        })
    numpy = pbio_types.numpy
    if numpy is None:
        bulk = rows
    else:
        bulk = [
            dict(row, samples=numpy.asarray(row["samples"], dtype="<f8"))
            for row in rows
        ]
    return sender, fmt, rows, bulk, receiver


def consume_view(view) -> int:
    """Touch every column of a batch the columnar way.

    Reads all five scalar columns and the flattened samples heap as
    zero-copy ndarrays — the whole payload is consumed, field by
    field, without materializing row dicts.
    """
    for name in SCALAR_FIELDS:
        view.column(name)
    view.dynamic_column("samples")
    return view.count


def _timed_pipeline(send_all, recv_all, trials: int) -> float:
    """Best-of-``trials`` records/second for one pipeline shape."""
    best = 0.0
    for _ in range(trials):
        client, server, listener = tcp_pair()
        try:
            done = threading.Event()
            thread = threading.Thread(target=lambda: (recv_all(server), done.set()))
            thread.start()
            started = time.perf_counter()
            send_all(client)
            done.wait(timeout=60.0)
            elapsed = time.perf_counter() - started
            thread.join(timeout=5.0)
        finally:
            client.close()
            server.close()
            listener.close()
        best = max(best, TOTAL_RECORDS / elapsed)
    return best


def run_e2e_throughput_ab(trials: int = 3) -> dict:
    """End-to-end records/second: per-record NDR vs columnar batches.

    Both arms cover the full pipeline — encode, send, receive, and
    consume every field of every record; the batch arm is swept over
    :data:`BATCH_SIZES`.
    """
    sender, fmt, rows, bulk, receiver = build_endpoints()
    meta = fmt.to_wire_metadata()

    def per_record_send(client):
        encode = sender.encode
        for record in rows:
            client.send(encode(fmt, record))

    def per_record_recv(server):
        decode = receiver.decode
        for _ in rows:
            decode(server.recv(timeout=10.0))

    per_record_rps = _timed_pipeline(per_record_send, per_record_recv, trials)

    use_view = HAVE_NUMPY
    batches = {}
    for batch_size in BATCH_SIZES:
        chunks = [
            bulk[start:start + batch_size]
            for start in range(0, TOTAL_RECORDS, batch_size)
        ]

        def batch_send(client, chunks=chunks):
            encode_iov = sender.encode_batch_iov
            for chunk in chunks:
                client.send_batch(encode_iov(fmt, chunk))

        def batch_recv(server, count=len(chunks)):
            if use_view:
                # Zero-copy all the way: the frame stays in the pooled
                # receive buffer and every column is consumed in place
                # before the next recv reuses it.
                decode_view = receiver.decode_batch_view
                for _ in range(count):
                    consume_view(decode_view(server.recv_view(timeout=10.0)))
            else:
                decode_batch = receiver.decode_batch
                for _ in range(count):
                    list(decode_batch(server.recv(timeout=10.0)))

        batch_rps = _timed_pipeline(batch_send, batch_recv, trials)
        batches[batch_size] = {
            "records_per_second": batch_rps,
            "speedup": batch_rps / per_record_rps,
        }

    best_speedup = max(entry["speedup"] for entry in batches.values())
    return {
        "records": TOTAL_RECORDS,
        "format": "SensorFrame (bulk telemetry)",
        "samples_per_record": SAMPLES_PER_RECORD,
        "metadata_bytes": len(meta),
        "numpy": HAVE_NUMPY,
        "per_record_rps": per_record_rps,
        "batches": batches,
        "best_speedup": best_speedup,
    }


def run_codec_throughput_ab(batch_size: int = 256, trials: int = 5) -> dict:
    """Codec-only records/second (no socket): encode + consume both ways."""
    sender, fmt, rows, bulk, receiver = build_endpoints()
    subset, bulk_subset = rows[:1024], bulk[:1024]
    chunks = [
        bulk_subset[start:start + batch_size]
        for start in range(0, len(bulk_subset), batch_size)
    ]
    use_view = HAVE_NUMPY

    def per_record():
        for record in subset:
            receiver.decode(sender.encode(fmt, record))

    def columnar():
        for chunk in chunks:
            message = sender.encode_batch(fmt, chunk)
            if use_view:
                consume_view(receiver.decode_batch_view(message))
            else:
                list(receiver.decode_batch(message))

    def best_rps(step):
        best = 0.0
        for _ in range(trials):
            started = time.perf_counter()
            step()
            best = max(best, len(subset) / (time.perf_counter() - started))
        return best

    per_record_rps = best_rps(per_record)
    columnar_rps = best_rps(columnar)
    return {
        "records": len(subset),
        "batch_size": batch_size,
        "numpy": HAVE_NUMPY,
        "per_record_rps": per_record_rps,
        "columnar_rps": columnar_rps,
        "speedup": columnar_rps / per_record_rps,
    }


# -- the acceptance tests ----------------------------------------------------


@needs_numpy
def test_batch_of_64_is_10x_per_record():
    result = run_e2e_throughput_ab()
    assert result["best_speedup"] >= 10.0, result


@needs_numpy
def test_codec_alone_beats_per_record():
    result = run_codec_throughput_ab()
    assert result["speedup"] >= 4.0, result


def test_batch_frames_decode_to_the_same_records():
    sender, fmt, rows, bulk, receiver = build_endpoints()
    subset, bulk_subset = rows[:64], bulk[:64]
    batch = receiver.decode_batch(sender.encode_batch(fmt, bulk_subset))
    singles = [receiver.decode(sender.encode(fmt, r)).values for r in subset]
    assert list(batch) == singles
