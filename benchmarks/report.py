#!/usr/bin/env python
"""Regenerate every table and quantified claim of the paper, side by side.

Prints:

- **Table 1** — format registration costs (PBIO vs xml2wire) for the
  three Appendix A structures, with the paper's numbers alongside;
- **Claims C1-C3** — NDR vs XDR vs text XML round-trip performance and
  encoded sizes;
- **Claim C4** — amortization of registration cost over message count;
- **Claim C5** — registration-time scaling with structure size;
- **Claim C6** — discovery cost per source, including the fallback path;
- **Ablation A1** — generated vs interpreted conversion.

Run:  python benchmarks/report.py [--quick]

With ``--pr5`` the script instead runs the zero-copy hot-path suite
(allocation churn A/B, batched-send throughput A/B, pool steady state —
see :mod:`benchmarks.test_zero_copy`) and writes ``BENCH_PR5.json``
next to this file; ``--check`` additionally exits non-zero if a result
regresses past the acceptance floors, which is what CI's perf-smoke job
runs.

With ``--pr7`` it runs the columnar bulk-streaming suite (end-to-end
per-record NDR vs columnar batch throughput over TCP, plus the
codec-only A/B — see :mod:`benchmarks.test_columnar`) and writes
``BENCH_PR7.json``; ``--check`` gates on the ≥10x batch speedup floor.

With ``--pr8`` it runs the multi-core serving plane suite (worker-pool
fan-out throughput at 1/2/4 workers, shm vs loopback-TCP round-trip
latency at 4 KiB — see :mod:`benchmarks.test_mp_scaling`) and writes
``BENCH_PR8.json``; ``--check`` gates on the ≥1.8x scaling floor where
the host has ≥4 cores and the ≥3x shm latency win where it has ≥2 —
the JSON always records the core count the numbers were taken on.

With ``--pr10`` it runs the instance-based lazy-binding suite (fused
decode+project vs interpreted projection on evolved records, bounded
converter-cache churn with 10k distinct formats — see
:mod:`benchmarks.test_lazy_binding`) and writes ``BENCH_PR10.json``;
``--check`` gates on the ≥5x fused speedup floor at batch ≥64, the
cache-size-at-cap invariant, and the ≥99% steady-state hit rate.
"""

from __future__ import annotations

import statistics
import sys
import time

from repro import (
    CompiledSource,
    DiscoveryChain,
    FileSource,
    IOContext,
    MetadataClient,
    MetadataServer,
    SPARC_32,
    URLSource,
    X86_64,
    XDRCodec,
    XMLTextCodec,
    XML2Wire,
)
from repro.pbio.codegen import make_converter
from repro.pbio.reference import make_interpreted_converter
from repro.pbio.encode import encode_record
from repro.workloads import (
    ASDOFF_A_SCHEMA,
    ASDOFF_B_SCHEMA,
    ASDOFF_CD_SCHEMA,
    AirlineWorkload,
    SyntheticWorkload,
    make_synthetic_schema,
)

sys.path.insert(0, ".")
from benchmarks.conftest import (  # noqa: E402
    PBIO_REGISTRARS,
    TABLE1_ROWS,
    xml2wire_register,
)

QUICK = "--quick" in sys.argv
ROUNDS = 50 if QUICK else 300
MSG_ROUNDS = 300 if QUICK else 2000


def best_of(func, rounds):
    """Median of per-call times over ``rounds`` calls (milliseconds)."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def heading(title):
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def table1():
    heading("Table 1 — format registration costs (reference arch: sparc_32)")
    paper = {
        "A/32B": (32, 72, 72, 0.102, 0.191),
        "B/52B": (52, 104, 104, 0.110, 0.225),
        "CD/180B": (180, 268, 268, 0.158, 0.304),
    }
    workload = AirlineWorkload(seed=1204)
    records = {
        "A/32B": workload.record_a(),
        "B/52B": workload.record_b(),
        "CD/180B": workload.record_cd(),
    }
    print(f"{'struct':<9}{'size B':>7} | {'enc pbio':>9}{'enc xml2w':>10} | "
          f"{'reg pbio ms':>12}{'reg xml2w ms':>13}{'ratio':>7} | paper ratio")
    for label, schema, format_name in TABLE1_ROWS:
        via_xml = xml2wire_register(schema)
        direct = PBIO_REGISTRARS[label]()
        sender = IOContext(SPARC_32)
        sender.adopt_format(via_xml)
        enc_xml = len(sender.encode(format_name, records[label]))
        sender_direct = IOContext(SPARC_32)
        sender_direct.adopt_format(direct)
        enc_pbio = len(sender_direct.encode(format_name, records[label]))
        t_xml = best_of(lambda s=schema: xml2wire_register(s), ROUNDS)
        t_pbio = best_of(PBIO_REGISTRARS[label], ROUNDS)
        struct_size = paper[label][0]
        paper_ratio = paper[label][4] / paper[label][3]
        print(f"{label:<9}{struct_size:>7} | {enc_pbio:>9}{enc_xml:>10} | "
              f"{t_pbio:>12.3f}{t_xml:>13.3f}{t_xml / t_pbio:>7.2f} | "
              f"{paper_ratio:.2f}")
    print("\npaper encoded sizes were 72/104/268 with its (unpublished) record")
    print("contents and header; ours differ in absolute bytes but are exactly")
    print("EQUAL between the PBIO and xml2wire columns, which is the result.")


def claims_performance():
    heading("Claims C1/C2 — per-message round trip: NDR vs XDR vs text XML")
    workload = AirlineWorkload(seed=7)
    record = workload.record_b()
    sender = IOContext(SPARC_32)
    XML2Wire(sender).register_schema(ASDOFF_B_SCHEMA)
    fmt = sender.lookup_format("ASDOffEvent")
    receiver = IOContext(X86_64)
    receiver.learn_format(fmt.to_wire_metadata())
    receiver.decode(sender.encode(fmt, record))
    homo_receiver = IOContext(SPARC_32)
    homo_receiver.learn_format(fmt.to_wire_metadata())
    homo_receiver.decode(sender.encode(fmt, record))
    xdr = XDRCodec(fmt)
    xml = XMLTextCodec(fmt)
    from repro.wire import CDRCodec
    from repro.wire.xdrgen import make_generated_xdr

    cdr = CDRCodec(fmt)
    xdr_gen_encode, xdr_gen_decode = make_generated_xdr(fmt)

    rows = [
        ("NDR homogeneous", lambda: homo_receiver.decode(sender.encode(fmt, record))),
        ("NDR heterogeneous", lambda: receiver.decode(sender.encode(fmt, record))),
        ("CDR (IIOP)", lambda: cdr.decode(cdr.encode(record))),
        ("XDR interpreted", lambda: xdr.decode(xdr.encode(record))),
        ("XDR generated", lambda: xdr_gen_decode(xdr_gen_encode(record))),
        ("text XML", lambda: xml.decode(xml.encode(record))),
    ]
    baseline = None
    print(f"{'system':<20}{'us/msg':>10}{'vs NDR het.':>13}")
    results = {}
    for name, func in rows:
        per_msg = best_of(func, MSG_ROUNDS) * 1e3  # microseconds
        results[name] = per_msg
        if name == "NDR heterogeneous":
            baseline = per_msg
    for name, per_msg in results.items():
        print(f"{name:<20}{per_msg:>10.1f}{per_msg / baseline:>12.1f}x")
    print(f"\npaper: XDR slower by >50% -> measured "
          f"{results['XDR generated'] / results['NDR heterogeneous']:.1f}x "
          f"(vs compiled rpcgen-style stubs; "
          f"{results['XDR interpreted'] / results['NDR heterogeneous']:.1f}x "
          f"vs metadata-walking XDR)")
    print(f"paper: text XML ~an order of magnitude slower -> measured "
          f"{results['text XML'] / results['NDR heterogeneous']:.1f}x")


def claim_sizes():
    heading("Claim C3 — encoded sizes (payloads, no framing)")
    workload = AirlineWorkload(seed=7)
    record = workload.record_b()
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(ASDOFF_B_SCHEMA)
    fmt = context.lookup_format("ASDOffEvent")
    from repro.wire import CDRCodec

    ndr = len(encode_record(fmt, record))
    cdr = len(CDRCodec(fmt).encode(record))
    xdr = len(XDRCodec(fmt).encode(record))
    xml = len(XMLTextCodec(fmt).encode(record))
    print(f"{'wire format':<12}{'bytes':>8}{'vs NDR':>9}")
    for name, size in (("NDR", ndr), ("CDR", cdr), ("XDR", xdr), ("text XML", xml)):
        print(f"{name:<12}{size:>8}{size / ndr:>8.1f}x")
    print(f"\npaper: XML expansion 6-8x typical -> measured {xml / ndr:.1f}x "
          f"on Structure B")


def claim_amortization():
    heading("Claim C4 — registration cost amortizes over message count")
    workload = AirlineWorkload(seed=7)
    record = workload.record_b()

    def session(register, count):
        fmt = register()
        sender = IOContext(SPARC_32)
        fmt = sender.adopt_format(fmt)
        receiver = IOContext(X86_64)
        receiver.learn_format(fmt.to_wire_metadata())
        for _ in range(count):
            receiver.decode(sender.encode(fmt, record))

    def xml_register():
        return XML2Wire(IOContext(SPARC_32)).register_schema(ASDOFF_B_SCHEMA)[0]

    pbio_register = PBIO_REGISTRARS["B/52B"]
    print(f"{'N messages':>10}{'xml2wire ms':>13}{'compiled ms':>13}{'overhead':>10}")
    for count in (1, 10, 100, 1000, 10000):
        rounds = max(3, min(20, 2000 // max(count, 1)))
        t_xml = best_of(lambda: session(xml_register, count), rounds)
        t_pbio = best_of(lambda: session(pbio_register, count), rounds)
        overhead = t_xml / t_pbio - 1
        print(f"{count:>10}{t_xml:>13.2f}{t_pbio:>13.2f}{overhead:>9.0%}")
    print("\npaper: 'costs do not recur with each message exchange' -> the")
    print("whole-session overhead of XML metadata vanishes as N grows.")


def claim_scaling():
    heading("Claim C5 — registration time grows ~proportionally with size")
    print(f"{'fields':>7}{'xml2wire ms':>13}{'pbio ms':>10}{'xml/pbio':>10}")
    from repro.pbio import IOField

    for fields in (2, 8, 32, 128, 256):
        schema = make_synthetic_schema(fields, mix="integers")
        io_fields = [IOField(f"f{i}", "integer", 4, 4 * i) for i in range(fields)]
        t_xml = best_of(
            lambda s=schema: XML2Wire(IOContext(SPARC_32)).register_schema(s),
            max(5, ROUNDS // (1 + fields // 16)),
        )
        t_pbio = best_of(
            lambda f=io_fields, n=fields: IOContext(SPARC_32).register_format(
                "S", list(f), record_length=4 * n
            ),
            max(5, ROUNDS // (1 + fields // 16)),
        )
        print(f"{fields:>7}{t_xml:>13.3f}{t_pbio:>10.3f}{t_xml / t_pbio:>10.2f}")


def claim_discovery():
    heading("Claim C6 — discovery cost per source (+ fallback)")
    with MetadataServer() as server:
        url = server.publish_schema("/schemas/asdoff.xsd", ASDOFF_B_SCHEMA)
        import tempfile, os

        handle, path = tempfile.mkstemp(suffix=".xsd")
        with os.fdopen(handle, "w") as f:
            f.write(ASDOFF_B_SCHEMA)
        warm_client = MetadataClient(ttl=3600)
        warm_client.get_schema(url)
        sources = [
            ("http (cold)", lambda: DiscoveryChain(
                [URLSource(url, MetadataClient(ttl=0))]).discover()),
            ("http (cached)", lambda: DiscoveryChain(
                [URLSource(url, warm_client)]).discover()),
            ("local file", lambda: DiscoveryChain(
                [FileSource(path)]).discover()),
            ("compiled-in", lambda c=CompiledSource(ASDOFF_B_SCHEMA):
                DiscoveryChain([c]).discover()),
        ]
        print(f"{'source':<16}{'ms/discovery':>13}")
        for name, func in sources:
            rounds = 30 if "http (cold)" in name else ROUNDS
            print(f"{name:<16}{best_of(func, rounds):>13.3f}")
        os.unlink(path)

    # Fallback path with the server gone.
    with MetadataServer() as server:
        dead = server.url_for("/schemas/asdoff.xsd")
    chain = DiscoveryChain(
        [URLSource(dead, MetadataClient(timeout=0.1)), CompiledSource(ASDOFF_B_SCHEMA)]
    )
    start = time.perf_counter()
    result = chain.discover()
    elapsed = (time.perf_counter() - start) * 1e3
    print(f"{'dead http -> compiled fallback':<31}{elapsed:>8.3f} ms "
          f"(degraded={result.degraded})")


def ablation_codegen():
    heading("Ablation A1 — generated vs interpreted conversion")
    print(f"{'fields':>7}{'generated us':>14}{'interpreted us':>16}{'gain':>7}")
    for fields in (4, 16, 64, 128):
        workload = SyntheticWorkload(fields, mix="mixed")
        context = IOContext(SPARC_32)
        XML2Wire(context).register_schema(workload.schema)
        fmt = context.lookup_format("Synthetic")
        payload = encode_record(fmt, workload.record())
        generated = make_converter(fmt)
        interpreted = make_interpreted_converter(fmt)
        t_gen = best_of(lambda: generated(payload), MSG_ROUNDS) * 1e3
        t_int = best_of(lambda: interpreted(payload), MSG_ROUNDS) * 1e3
        print(f"{fields:>7}{t_gen:>14.2f}{t_int:>16.2f}{t_int / t_gen:>6.1f}x")


def pr5_report(check: bool) -> int:
    """Zero-copy hot-path numbers -> BENCH_PR5.json (and the console).

    ``check`` turns the run into a no-regression gate: exit status 1 if
    allocation churn is not down by half or batched sends are not 1.3x
    per-message sends (the PR's acceptance floors).
    """
    import json
    import os

    from benchmarks.test_zero_copy import (
        run_alloc_ab,
        run_pool_steady_state,
        run_throughput_ab,
    )

    heading("PR5 — allocation-free hot path")
    alloc = run_alloc_ab()
    throughput = run_throughput_ab()
    pool = run_pool_steady_state()
    print(f"{'allocation churn, copying path':<38}"
          f"{alloc['copy_churn_bytes_per_message']:>10.0f} B/msg")
    print(f"{'allocation churn, zero-copy path':<38}"
          f"{alloc['zero_copy_churn_bytes_per_message']:>10.0f} B/msg")
    print(f"{'churn reduction':<38}{alloc['churn_reduction']:>10.0%}")
    print(f"{'pipeline pool hit rate':<38}{alloc['pool_hit_rate']:>10.0%}")
    print(f"{'per-message sends':<38}"
          f"{throughput['per_message_mps']:>10.0f} msg/s")
    print(f"{'batched send_many':<38}{throughput['batched_mps']:>10.0f} msg/s")
    print(f"{'batched speedup':<38}{throughput['speedup']:>10.2f}x")
    print(f"{'pool steady-state hit rate':<38}{pool['hit_rate']:>10.0%}")
    results = {
        "allocation": alloc,
        "throughput": throughput,
        "pool_steady_state": pool,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_PR5.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    if not check:
        return 0
    failures = []
    if alloc["churn_reduction"] < 0.5:
        failures.append(
            f"churn reduction {alloc['churn_reduction']:.0%} < 50%"
        )
    if throughput["speedup"] < 1.3:
        failures.append(f"send_many speedup {throughput['speedup']:.2f}x < 1.3x")
    if pool["hit_rate"] < 0.9:
        failures.append(f"pool hit rate {pool['hit_rate']:.0%} < 90%")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


def pr7_report(check: bool) -> int:
    """Columnar bulk-streaming numbers -> BENCH_PR7.json (and console).

    ``check`` turns the run into a no-regression gate: exit status 1
    if the best batch (>= 64 records) end-to-end speedup over
    per-record NDR falls under the PR's 10x acceptance floor, or the
    codec-only speedup under 4x.
    """
    import json
    import os

    from benchmarks.test_columnar import (
        HAVE_NUMPY,
        run_codec_throughput_ab,
        run_e2e_throughput_ab,
    )

    heading("PR7 — columnar bulk streaming vs per-record NDR")
    e2e = run_e2e_throughput_ab()
    codec = run_codec_throughput_ab()
    print(f"{'format':<38}{e2e['format']:>24}")
    print(f"{'samples per record':<38}{e2e['samples_per_record']:>24}")
    print(f"{'numpy available':<38}{str(e2e['numpy']):>24}")
    print(f"{'per-record NDR end-to-end':<38}"
          f"{e2e['per_record_rps']:>16.0f} rec/s")
    for batch_size, entry in sorted(e2e["batches"].items()):
        print(f"{f'columnar batch={batch_size}':<38}"
              f"{entry['records_per_second']:>16.0f} rec/s  "
              f"({entry['speedup']:.1f}x)")
    print(f"{'best batch speedup':<38}{e2e['best_speedup']:>17.1f}x")
    print(f"{'codec-only per-record':<38}"
          f"{codec['per_record_rps']:>16.0f} rec/s")
    print(f"{'codec-only columnar':<38}"
          f"{codec['columnar_rps']:>16.0f} rec/s  ({codec['speedup']:.1f}x)")
    results = {"e2e": e2e, "codec": codec}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_PR7.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    if not check:
        return 0
    if not HAVE_NUMPY:
        print("numpy unavailable: vectorized floors not applicable, skipping")
        return 0
    failures = []
    best_64 = max(
        (entry["speedup"] for size, entry in e2e["batches"].items()
         if int(size) >= 64),
        default=0.0,
    )
    if best_64 < 10.0:
        failures.append(f"batch>=64 e2e speedup {best_64:.1f}x < 10x")
    if codec["speedup"] < 4.0:
        failures.append(f"codec-only speedup {codec['speedup']:.1f}x < 4x")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


def pr8_report(check: bool) -> int:
    """Multi-core serving plane numbers -> BENCH_PR8.json (and console).

    ``check`` turns the run into a no-regression gate: exit status 1 if
    the 1→4 worker fan-out scaling falls under 1.8x (hosts with ≥4
    cores) or the shm-over-TCP latency win under 3x at 4 KiB (hosts
    with ≥2 cores).  On smaller hosts the floors do not apply — worker
    processes time-slicing one core cannot scale and a spinning ring
    cannot beat a blocking read — so the gate reports the numbers and
    passes; the JSON records the core count either way.
    """
    import json
    import os

    from benchmarks.test_mp_scaling import (
        SCALING_FLOOR,
        SHM_SPEEDUP_FLOOR,
        run_fanout_scaling,
        run_shm_vs_tcp_latency,
    )

    heading("PR8 — multi-core serving plane")
    latency = run_shm_vs_tcp_latency()
    fanout = run_fanout_scaling()
    print(f"{'host cores':<38}{latency['cores']:>24}")
    print(f"{'shm round trip (4 KiB)':<38}{latency['shm_rtt_us']:>21.1f} us")
    print(f"{'tcp round trip (4 KiB)':<38}{latency['tcp_rtt_us']:>21.1f} us")
    print(f"{'shm over tcp':<38}{latency['speedup']:>23.2f}x")
    for point in fanout["points"].values():
        label = f"pool fan-out, {point['workers']} workers"
        print(f"{label:<38}{point['requests_per_second']:>18.0f} req/s")
    print(f"{'fan-out scaling 1 -> 4':<38}{fanout['scaling']:>23.2f}x")
    results = {"latency": latency, "fanout": fanout}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_PR8.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    if not check:
        return 0
    failures = []
    if latency["gated"]:
        if latency["speedup"] < SHM_SPEEDUP_FLOOR:
            failures.append(
                f"shm latency win {latency['speedup']:.2f}x < "
                f"{SHM_SPEEDUP_FLOOR}x at 4 KiB"
            )
    else:
        print("single core: shm latency floor not applicable, skipping")
    if fanout["gated"]:
        if fanout["scaling"] < SCALING_FLOOR:
            failures.append(
                f"fan-out scaling {fanout['scaling']:.2f}x < {SCALING_FLOOR}x"
            )
    else:
        print(f"{fanout['cores']} core(s): scaling floor needs >= 4, skipping")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


def pr10_report(check: bool) -> int:
    """Instance-based lazy binding numbers -> BENCH_PR10.json (and console).

    ``check`` turns the run into a no-regression gate: exit status 1 if
    the fused decode+project speedup over the interpreted projection
    composition falls under 5x at batch >= 64, if the 10k-format churn
    grows the converter cache past its capacity, or if the steady-state
    hit rate falls under 99%.
    """
    import json
    import os

    from benchmarks.test_lazy_binding import (
        FUSED_SPEEDUP_FLOOR,
        HIT_RATE_FLOOR,
        run_cache_churn,
        run_fused_decode_ab,
    )

    heading("PR10 — instance-based lazy binding")
    fused = run_fused_decode_ab()
    churn = run_cache_churn()
    print(f"{'wire/native fields':<38}"
          f"{fused['wire_fields']:>20} / {fused['native_fields']}")
    for batch_size, entry in sorted(fused["batches"].items()):
        print(f"{f'fused decode, batch={batch_size}':<38}"
              f"{entry['fused_rps']:>16.0f} rec/s  "
              f"({entry['speedup']:.1f}x over interpreted)")
    print(f"{'best speedup (batch >= 64)':<38}{fused['best_speedup']:>23.1f}x")
    print(f"{'distinct formats churned':<38}{churn['formats']:>24}")
    print(f"{'cache capacity':<38}{churn['capacity']:>24}")
    print(f"{'cache size after churn':<38}{churn['size_after_churn']:>24}")
    print(f"{'evictions':<38}{churn['evictions']:>24}")
    print(f"{'churn decode rate':<38}{churn['churn_rps']:>16.0f} rec/s")
    print(f"{'steady-state decode rate':<38}{churn['steady_rps']:>16.0f} rec/s")
    print(f"{'steady-state hit rate':<38}{churn['steady_hit_rate']:>23.1%}")
    results = {"fused": fused, "churn": churn}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_PR10.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    if not check:
        return 0
    failures = []
    if fused["best_speedup"] < FUSED_SPEEDUP_FLOOR:
        failures.append(
            f"fused speedup {fused['best_speedup']:.1f}x < "
            f"{FUSED_SPEEDUP_FLOOR}x at batch >= 64"
        )
    if churn["size_after_churn"] > churn["capacity"]:
        failures.append(
            f"cache size {churn['size_after_churn']} exceeds capacity "
            f"{churn['capacity']} after churn"
        )
    if churn["steady_hit_rate"] < HIT_RATE_FLOOR:
        failures.append(
            f"steady-state hit rate {churn['steady_hit_rate']:.1%} < "
            f"{HIT_RATE_FLOOR:.0%}"
        )
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


def main():
    print("repro benchmark report — paper: Widener/Schwan/Eisenhauer, "
          "ICDCS 2001 (GIT-CC-00-21)")
    if "--pr5" in sys.argv:
        raise SystemExit(pr5_report(check="--check" in sys.argv))
    if "--pr7" in sys.argv:
        raise SystemExit(pr7_report(check="--check" in sys.argv))
    if "--pr8" in sys.argv:
        raise SystemExit(pr8_report(check="--check" in sys.argv))
    if "--pr10" in sys.argv:
        raise SystemExit(pr10_report(check="--check" in sys.argv))
    print(f"mode: {'quick' if QUICK else 'full'}")
    table1()
    claims_performance()
    claim_sizes()
    claim_amortization()
    claim_scaling()
    claim_discovery()
    ablation_codegen()
    print()


if __name__ == "__main__":
    main()
