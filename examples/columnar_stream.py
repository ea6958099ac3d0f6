#!/usr/bin/env python
"""Columnar bulk streaming: batch frames vs per-record NDR.

When a stream is thousands of records of the *same* format — the
paper's bulk-scientific case — the per-record costs (one header, one
dict, one syscall per record) dominate.  A columnar batch frame
(kind 4, docs/PROTOCOL.md §14) ships N records as per-field column
blocks instead: fixed fields become packed arrays, dynamic arrays
become u32 offsets into a per-column heap, and the whole frame goes
out in one vectored send.

This example streams bulk telemetry over a real localhost socket both
ways and prints the records/second A/B, then shows the receive-side
payoff: zero-copy per-column access through ColumnBatchView.

Run:  python examples/columnar_stream.py [batch-size]
"""

import sys
import threading
import time

from repro import IOContext, XML2Wire
from repro.transport import connect, listen

SENSOR_SCHEMA = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="SensorFrame">
    <xsd:element name="seq" type="xsd:unsigned-int" />
    <xsd:element name="timestamp" type="xsd:double" />
    <xsd:element name="value" type="xsd:double" />
    <xsd:element name="samples" type="xsd:double" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>
"""

RECORDS = 2048
SAMPLES = 64


def make_records(numpy):
    records = []
    for seq in range(RECORDS):
        samples = [seq + 0.25 * j for j in range(SAMPLES)]
        if numpy is not None:
            # The bulk-sender idiom: sample arrays held as ndarrays so
            # the encoder can vectorize the heap conversion.
            samples = numpy.asarray(samples, dtype="<f8")
        records.append({
            "seq": seq,
            "timestamp": 954547200.0 + seq * 0.001,
            "value": (seq % 1000) * 0.25,
            "samples": samples,
            "samples_count": SAMPLES,
        })
    return records


def tcp_pair():
    listener = listen()
    host, port = listener.address
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(server=listener.accept(timeout=5.0))
    )
    thread.start()
    client = connect(host, port)
    thread.join(timeout=5.0)
    return client, box["server"], listener


def timed(send_all, recv_all):
    client, server, listener = tcp_pair()
    try:
        done = threading.Event()
        thread = threading.Thread(target=lambda: (recv_all(server), done.set()))
        thread.start()
        start = time.perf_counter()
        send_all(client)
        done.wait(timeout=60.0)
        elapsed = time.perf_counter() - start
        thread.join(timeout=5.0)
    finally:
        client.close()
        server.close()
        listener.close()
    return RECORDS / elapsed


def main() -> None:
    batch_size = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    try:
        import numpy  # optional: the library detects it the same way
    except ImportError:
        numpy = None

    sender = IOContext()
    fmt = XML2Wire(sender).register_schema(SENSOR_SCHEMA)[0]
    receiver = IOContext()
    receiver.learn_format(fmt.to_wire_metadata())
    records = make_records(numpy)

    print(f"{RECORDS} SensorFrame records x {SAMPLES} double samples, "
          f"batch size {batch_size}, numpy={'yes' if numpy else 'no'}\n")

    # Arm 1: one NDR message per record.
    def per_record_send(client):
        for record in records:
            client.send(sender.encode(fmt, record))

    def per_record_recv(server):
        for _ in records:
            receiver.decode(server.recv(timeout=10.0))

    per_record = timed(per_record_send, per_record_recv)

    # Arm 2: columnar batches — encode_batch_iov hands the transport a
    # list of buffers and send_batch frames them into one writev.
    chunks = [records[i:i + batch_size]
              for i in range(0, RECORDS, batch_size)]

    def batch_send(client):
        for chunk in chunks:
            client.send_batch(sender.encode_batch_iov(fmt, chunk))

    def batch_recv(server):
        for _ in chunks:
            if numpy is not None:
                view = receiver.decode_batch_view(server.recv_view(timeout=10.0))
                view.column("value")            # zero-copy ndarray
                view.dynamic_column("samples")  # flattened heap + counts
            else:
                list(receiver.decode_batch(server.recv(timeout=10.0)))

    columnar = timed(batch_send, batch_recv)

    print(f"{'pipeline':<22} {'records/s':>12} {'speedup':>8}")
    print(f"{'per-record NDR':<22} {per_record:>12,.0f} {'1.0x':>8}")
    print(f"{'columnar batches':<22} {columnar:>12,.0f} "
          f"{columnar / per_record:>7.1f}x")

    # The receive-side view, up close: columns are read in place.
    message = sender.encode_batch(fmt, chunks[0])
    view = receiver.decode_batch_view(message)
    print(f"\none {len(message):,}-byte frame carries {view.count} records")
    if numpy is not None:
        values = view.column("value")
        flat, counts = view.dynamic_column("samples")
        print(f"view.column('value')        -> ndarray{values.shape}, "
              f"mean {values.mean():.2f}")
        print(f"view.dynamic_column(...)    -> {flat.shape[0]} samples, "
              f"counts all {counts[0]}")
    print(f"view.row(0)['seq']          -> {view.row(0)['seq']} "
          f"(lazy dicts when you want rows)")


if __name__ == "__main__":
    main()
