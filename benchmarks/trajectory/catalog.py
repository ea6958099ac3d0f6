"""Names, units and directions of everything the benchmark reports.

``BENCHMARK.json`` at the repo root carries the same lists in the shape
the benchmark contract prescribes; ``test_harness.py`` asserts the two
agree.  The README says which layer metric should move which end-to-end
metric, on which workload.
"""

from __future__ import annotations

from benchmarks.trajectory.tracing import SPAN_NAMES

#: name -> one-line reason the workload exists.
WORKLOADS = {
    "stream_small": (
        "flow-controlled one-way stream of 104 B records SPARC_32 to X86_64 over "
        "loopback TCP: per-record codec, framing and syscall cost dominate, bytes do not"
    ),
    "stream_bulk": (
        "same pipe, 256-record columnar batches of 1 KiB SensorFrames read as column "
        "views: the numpy batch back end and bandwidth do the work, per-record paths are bypassed"
    ),
    "rpc_echo": (
        "closed loop, 1 client, 1 outstanding: nested 180 B record echoed between two "
        "X86_64 contexts, the same-architecture path where NDR decode should be near-free"
    ),
    "broker_open": (
        "open loop at 4000 msg/s, publisher to threaded BrokerServer process to native-v1 "
        "subscriber: routing, queues and the fused decode+project converter on every message"
    ),
    "broker_open_aio": (
        "identical generator, rate and clients with AsyncEventBroker as the broker "
        "process: the asyncio copy of the protocol, one variable changed"
    ),
    "discover_cold": (
        "closed loop, everything fresh per operation: URL fetch, XML parse, registration, "
        "first encode, learn_format and first decode over 64 schemas (the paper's Table 1)"
    ),
}

#: (name, unit, better, bound).  Every workload reports every metric.
END_TO_END = (
    ("records_per_s", "1/s", "higher", 0.08),
    ("cpu_us_per_record", "us", "lower", 0.08),
    ("wire_bytes_per_record", "B", "lower", 0.0001),
    ("latency_p50_us", "us", "lower", 0.10),
    ("setup_s", "s", "lower", 0.10),
    ("peak_rss_mib", "MiB", "lower", 0.06),
)

_HOST_PROBES = (
    ("floor.memcpy_ns_per_kib", "ns", "lower"),
    ("floor.struct_unpack_ns", "ns", "lower"),
    ("floor.np_frombuffer_ns_per_kib", "ns", "lower"),
    ("floor.socket_rtt_us", "us", "lower"),
    ("floor.socket_mib_per_s", "MiB/s", "higher"),
    ("floor.pipe_rtt_us", "us", "lower"),
    ("harness.timer_ns", "ns", "lower"),
    ("pbio.encode_ns", "ns", "lower"),
    ("pbio.encode_into_ns", "ns", "lower"),
    ("pbio.decode_ns", "ns", "lower"),
    ("pbio.decode_view_ns", "ns", "lower"),
    ("pbio.decode_same_arch_ns", "ns", "lower"),
    ("pbio.decode_projected_ns", "ns", "lower"),
    ("pbio.converter_cache_hit_ratio", "ratio", "higher"),
    ("pbio.converter_builds", "count", "lower"),
    ("pbio.encode_batch_ns_per_record", "ns", "lower"),
    ("pbio.decode_batch_view_ns_per_record", "ns", "lower"),
    ("pbio.decode_batch_rows_ns_per_record", "ns", "lower"),
    ("pbio.register_us", "us", "lower"),
    ("pbio.first_decode_us", "us", "lower"),
    ("xmlparse.parse_us", "us", "lower"),
    ("xmlparse.mib_per_s", "MiB/s", "higher"),
    ("schema.parse_us", "us", "lower"),
    ("core.register_us", "us", "lower"),
    ("core.xml2wire_over_pbio_ratio", "ratio", "lower"),
    ("core.discover_us", "us", "lower"),
    ("metaserver.fetch_us", "us", "lower"),
    ("metaserver.cached_get_us", "us", "lower"),
    ("metaserver.cache_hit_ratio", "ratio", "higher"),
    ("metaserver.retries", "count", "lower"),
    ("aio.fetch_us", "us", "lower"),
    ("wire.frame_ns", "ns", "lower"),
    ("wire.unframe_ns", "ns", "lower"),
    ("wire.bufpool_hit_ratio", "ratio", "higher"),
    ("wire.ndr_bytes", "B", "lower"),
    ("wire.xdr_bytes", "B", "lower"),
    ("wire.xmltext_bytes", "B", "lower"),
    ("wire.xdr_roundtrip_ns", "ns", "lower"),
    ("wire.xmltext_roundtrip_ns", "ns", "lower"),
    ("transport.tcp_rtt_us", "us", "lower"),
    ("transport.tcp_mib_per_s", "MiB/s", "higher"),
    ("transport.inproc_rtt_us", "us", "lower"),
    ("mp.shm_rtt_us", "us", "lower"),
    ("mp.shm_over_tcp_ratio", "ratio", "higher"),
    ("events.route_ns_per_sink.q1", "ns", "lower"),
    ("events.route_ns_per_sink.q8", "ns", "lower"),
    ("events.publish_ns", "ns", "lower"),
)

#: Measured on the workload being run; 0 where the workload has no such
#: thing (a closed loop has no send schedule, a stream has no broker).
_WORKLOAD_SCOPED = (
    ("latency_p99_us", "us", "lower"),
    ("failed_share", "ratio", "lower"),
    ("stream.sender_busy_share", "ratio", "lower"),
    ("stream.receiver_busy_share", "ratio", "lower"),
    ("events.broker_busy_share", "ratio", "lower"),
    ("events.broker_self_us", "us", "lower"),
    ("events.backlog_max", "count", "lower"),
    ("events.sustained_rate_per_s", "1/s", "higher"),
    ("events.delivery_p99_us.r2000", "us", "lower"),
    ("events.delivery_p99_us.r8000", "us", "lower"),
    ("events.delivery_p99_us.r12000", "us", "lower"),
    ("events.delivery_p99_us.r16000", "us", "lower"),
    ("harness.send_lag_p50_us", "us", "lower"),
    ("harness.send_lag_p99_us", "us", "lower"),
    ("obs.registry_overhead_share", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
) + tuple((f"trace.{span}_self_ns", "ns", "lower") for span in SPAN_NAMES)

HOST_PROBE_NAMES = tuple(name for name, _, _ in _HOST_PROBES)

#: (name, unit, better); no bounds.
PER_LAYER = _HOST_PROBES + _WORKLOAD_SCOPED

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
