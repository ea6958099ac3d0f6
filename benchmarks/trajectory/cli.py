"""Command line of the trajectory benchmark.

Two ways in, one implementation:

- the benchmark contract (``BENCHMARK.json``)::

      python3 benchmarks/trajectory/run.py --workload W --seed N --seconds S --trace 0|1

  runs one workload in this process (plus its peers) and prints one JSON
  object as its last line: every end-to-end metric with ``--trace 0``,
  every per-layer metric with ``--trace 1``;

- the whole stack in one command::

      PYTHONPATH=src python -m benchmarks.trajectory --seed N --out FILE [--traced]

  runs that same command once per workload, each in a fresh process (so
  ``peak_rss_mib`` and ``setup_s`` mean the same thing in both modes),
  prints every metric by name with its unit, verifies outputs, and
  writes the JSON that ``--compare A.json B.json`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import subprocess
import sys
from statistics import median
from time import perf_counter

from benchmarks.trajectory import catalog, probes
from benchmarks.trajectory.inputs import build_inputs
from benchmarks.trajectory.peers import stop_helpers
from benchmarks.trajectory.stats import summarize
from benchmarks.trajectory.workloads import LADDER, REFERENCE_RATE, WORKLOADS

ROUND_S = 3.0
WARMUP_S = 1.0
SETUPS = 3
DEFAULT_SEED = 20010416
SUITE_ROUNDS = 5
NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Per-layer metrics that are the median over the plain session's rounds.
_ROUND_LAYER_METRICS = (
    "latency_p99_us", "stream.sender_busy_share", "stream.receiver_busy_share",
    "events.broker_busy_share", "events.backlog_max",
    "harness.send_lag_p50_us", "harness.send_lag_p99_us",
)

#: The host floor each probe is printed beside, where one applies.
_FLOOR_OF = {
    "pbio.encode_ns": "floor.struct_unpack_ns",
    "pbio.encode_into_ns": "floor.struct_unpack_ns",
    "pbio.decode_ns": "floor.struct_unpack_ns",
    "pbio.decode_view_ns": "floor.struct_unpack_ns",
    "pbio.decode_same_arch_ns": "floor.struct_unpack_ns",
    "pbio.decode_projected_ns": "floor.struct_unpack_ns",
    "pbio.encode_batch_ns_per_record": "floor.np_frombuffer_ns_per_kib",
    "pbio.decode_batch_view_ns_per_record": "floor.np_frombuffer_ns_per_kib",
    "pbio.decode_batch_rows_ns_per_record": "floor.np_frombuffer_ns_per_kib",
    "wire.frame_ns": "floor.struct_unpack_ns",
    "wire.unframe_ns": "floor.struct_unpack_ns",
    "wire.xdr_roundtrip_ns": "floor.struct_unpack_ns",
    "wire.xmltext_roundtrip_ns": "floor.struct_unpack_ns",
    "events.route_ns_per_sink.q1": "floor.struct_unpack_ns",
    "events.route_ns_per_sink.q8": "floor.struct_unpack_ns",
    "events.publish_ns": "floor.struct_unpack_ns",
    "metaserver.fetch_us": "floor.socket_rtt_us",
    "aio.fetch_us": "floor.socket_rtt_us",
    "transport.tcp_rtt_us": "floor.socket_rtt_us",
    "transport.tcp_mib_per_s": "floor.socket_mib_per_s",
    "mp.shm_rtt_us": "floor.pipe_rtt_us",
}


class BenchmarkFailure(RuntimeError):
    """The run cannot produce a valid result (a round did not complete)."""


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "switch_interval_s": sys.getswitchinterval(),
        "link": "loopback",
    }


# -- one workload, in this process -------------------------------------------------


def run_end_to_end(name: str, seed: int, seconds: float, import_s: float) -> dict:
    """SETUPS set-ups (the last is kept), a warm-up, ``seconds // 3``
    timed rounds; every end-to-end metric as median and quartiles."""
    rounds = max(1, int(seconds // ROUND_S))
    inputs = build_inputs(name, seed)
    workload = WORKLOADS[name](inputs)
    setups = []
    for attempt in range(SETUPS):
        if attempt:
            workload.close()
        started = perf_counter()
        workload.setup()
        setups.append(import_s + perf_counter() - started)
    try:
        session = workload.session(rounds, ROUND_S, WARMUP_S)
    finally:
        workload.close()
    if len(session["rounds"]) < rounds:
        raise BenchmarkFailure(
            f"{name}: {len(session['rounds'])} of {rounds} rounds completed: "
            f"{session['errors']}"
        )
    metrics = {
        metric: summarize([entry[metric] for entry in session["rounds"]])
        for metric, *_ in catalog.END_TO_END if metric in session["rounds"][0]
    }
    metrics["setup_s"] = summarize(setups)
    metrics["peak_rss_mib"] = summarize([session["peak_rss_mib"]])
    return {
        "input_digest": inputs["digest"],
        "attempted": session["attempted"],
        "failed": session["failed"],
        "errors": session["errors"],
        "rounds": rounds,
        "round_s": ROUND_S,
        "samples_per_round": median(e["latency_samples"] for e in session["rounds"]),
        "metrics": metrics,
    }


def run_per_layer(name: str, seed: int, seconds: float) -> dict:
    """The per-layer picture of one workload: the host probes, a plain
    session (with the rate ladder on the broker workloads), the same
    session with harness spans, and one with the obs registry off."""
    host_probes = probes.run_all()
    inputs = build_inputs(name, seed)
    sessions = {}
    for label, mode, rounds in (
        ("plain", {}, max(1, int(seconds // (2 * ROUND_S)))),
        ("traced", {"traced": True}, 1),
        ("registry_off", {"registry": False}, 1),
    ):
        workload = WORKLOADS[name](inputs)
        workload.setup(**mode)
        try:
            sessions[label] = workload.session(
                rounds, ROUND_S, WARMUP_S, ladder=label == "plain"
            )
        finally:
            workload.close()
        if not sessions[label]["rounds"]:
            raise BenchmarkFailure(
                f"{name}: {label} session completed no round: {sessions[label]['errors']}"
            )
    plain, traced = sessions["plain"], sessions["traced"]

    def cpu(session: dict) -> float:
        return median(entry["cpu_us_per_record"] for entry in session["rounds"])

    layer = dict.fromkeys((metric for metric, _, _ in catalog.PER_LAYER), 0.0)
    layer.update(host_probes)
    for metric in _ROUND_LAYER_METRICS:
        values = [entry[metric] for entry in plain["rounds"] if metric in entry]
        if values:
            layer[metric] = median(values)
    attempted = sum(session["attempted"] for session in sessions.values())
    failed = sum(session["failed"] for session in sessions.values())
    layer["failed_share"] = failed / attempted
    layer["obs.registry_overhead_share"] = 1.0 - cpu(sessions["registry_off"]) / cpu(plain)
    layer["trace.overhead_share"] = cpu(traced) / cpu(plain) - 1.0
    layer["trace.coverage"] = traced["trace"]["coverage"]
    for span, value in traced["trace"]["self_ns"].items():
        layer[f"trace.{span}_self_ns"] = value
    if "ladder" in plain:
        layer["events.sustained_rate_per_s"] = plain["sustained_rate_per_s"]
        for rate in LADDER:
            step = plain["ladder"][str(rate)][0]
            if rate != REFERENCE_RATE and "latency_p99_us" in step:
                layer[f"events.delivery_p99_us.r{rate}"] = step["latency_p99_us"]
        # What is left of a delivery once the two socket hops, the
        # encode and the projecting decode are taken out: the broker.
        layer["events.broker_self_us"] = (
            median(entry["latency_p50_us"] for entry in plain["rounds"])
            - host_probes["transport.tcp_rtt_us"]
            - host_probes["pbio.encode_ns"] / 1e3
            - host_probes["pbio.decode_projected_ns"] / 1e3
        )
    return {
        "input_digest": inputs["digest"],
        "attempted": attempted,
        "failed": failed,
        "errors": [error for session in sessions.values() for error in session["errors"]],
        "per_layer": layer,
        "ladder": plain.get("ladder"),
        "trace_sample": traced["trace"]["sample"],
    }


def contract_run(args, import_s: float) -> int:
    """One workload; the last line of stdout is the result."""
    if args.trace:
        result = run_per_layer(args.workload, args.seed, args.seconds)
        values, names = result["per_layer"], catalog.PER_LAYER
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds, import_s)
        values = {metric: entry["median"] for metric, entry in result["metrics"].items()}
        names = catalog.END_TO_END
    if os.cpu_count() < 2:
        print("warning: nproc < 2, wall-clock metrics measure the scheduler",
              file=sys.stderr)
    for error in result["errors"][:8]:
        print(f"error: {error}", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            metric: {"value": values[metric], "unit": unit} for metric, unit, *_ in names
        },
    }
    if args.detail:  # the whole-stack runner asks for quartiles and samples too
        line["detail"] = result
    print(json.dumps(line))
    return 0


# -- the whole stack in one command ------------------------------------------------


def _run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the contract command for one workload in a fresh process."""
    command = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--detail",
    ]
    finished = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stderr.write(finished.stderr)
    if finished.returncode:
        raise BenchmarkFailure(f"{name} --trace {trace} exited {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])["detail"]


def run_suite(seed: int, *, traced: bool, rounds: int) -> dict:
    document = {
        "benchmark": "trajectory",
        "seed": seed,
        "host": host_facts(),
        "rounds": rounds,
        "round_s": ROUND_S,
        "bounds": catalog.BOUNDS,
        "workloads": {},
    }
    single_core = os.cpu_count() < 2
    probe_runs = []
    for name in WORKLOADS:
        print(f"# {name}: {catalog.WORKLOADS[name]}", flush=True)
        entry = _run_child(name, seed, rounds * ROUND_S, 0)
        if single_core:
            # One core cannot run generator and peer at once: wall-clock
            # numbers would measure the scheduler (the BENCH_PR8 lesson).
            for metric in ("records_per_s", "latency_p50_us", "setup_s"):
                entry["metrics"][metric] = {"unresolved": "nproc < 2"}
        if traced:
            layered = _run_child(name, seed, 2 * ROUND_S, 1)
            probe_runs.append({
                metric: layered["per_layer"].pop(metric)
                for metric in catalog.HOST_PROBE_NAMES
            })
            entry["per_layer"] = layered["per_layer"]
            entry["ladder"] = layered["ladder"]
            entry["trace_sample"] = layered["trace_sample"]
            entry["failed"] += layered["failed"]
            entry["attempted"] += layered["attempted"]
            entry["errors"] += layered["errors"]
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        document["workloads"][name] = entry
    # Every traced child probed the host; keep the median of the six.
    document["per_layer_host"] = {
        metric: median(run[metric] for run in probe_runs)
        for metric in (catalog.HOST_PROBE_NAMES if probe_runs else ())
    }
    return document


def print_report(document: dict) -> None:
    """Every metric by name with its unit; probes beside their floor."""
    for name, entry in document["workloads"].items():
        print(f"\n{name}  (input {entry['input_digest']}, {entry['rounds']} rounds, "
              f"{entry['samples_per_round']:.0f} samples/round, "
              f"failed_share {entry['failed_share']:.6f})")
        for metric, summary in entry["metrics"].items():
            if "unresolved" in summary:
                print(f"  {metric:36s} unresolved ({summary['unresolved']})")
                continue
            print(f"  {metric:36s} {summary['median']:>14.4f} {catalog.UNITS[metric]:6s}"
                  f" [{summary['q1']:.4f} .. {summary['q3']:.4f}]")
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:36s} {value:>14.4f} {catalog.UNITS[metric]}")
    host = document["per_layer_host"]
    if host:
        print("\nper-layer probes, with the ratio to the matching host floor")
    for metric, value in host.items():
        floor = host.get(_FLOOR_OF.get(metric))
        beside = f"  = {value / floor:8.2f} x {_FLOOR_OF[metric]}" if floor else ""
        print(f"  {metric:38s} {value:>14.3f} {catalog.UNITS[metric]:6s}{beside}")


def validate(document: dict) -> list[str]:
    """Reasons the suite result is not acceptable as a baseline."""
    problems = []
    for name, entry in document["workloads"].items():
        if entry["failed_share"] > 0:
            problems.append(
                f"{name}: failed_share {entry['failed_share']} > 0: {entry['errors'][:3]}"
            )
        for metric, *_ in catalog.END_TO_END:
            if metric not in entry["metrics"]:
                problems.append(f"{name}: metric {metric} missing")
        for metric in list(entry["metrics"]) + list(entry.get("per_layer", {})):
            if not NAME_PATTERN.match(metric):
                problems.append(f"{name}: bad metric name {metric!r}")
    return problems


def compare(path_a: str, path_b: str) -> int:
    """Noise-aware verdict per (metric, workload) from the stored bounds
    and quartiles; every ratio is printed with its base."""
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        change = json.load(handle)
    verdicts = {"regressed": 0, "improved": 0, "unchanged": 0, "unresolved": 0}
    for name, entry in base["workloads"].items():
        print(f"\n{name}")
        other = change["workloads"].get(name, {}).get("metrics", {})
        for metric, _, better, bound in catalog.END_TO_END:
            a, b = entry["metrics"].get(metric), other.get(metric)
            if not a or not b or "unresolved" in a or "unresolved" in b:
                verdict, detail = "unresolved", "not recorded on one side"
            else:
                sign = 1.0 if better == "lower" else -1.0
                worse = sign * (b["median"] - a["median"]) / a["median"]
                spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / a["median"]
                if worse > bound:
                    verdict = "regressed"
                elif worse < -bound:
                    verdict = "improved"
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "unchanged"
                detail = (f"{b['median']:.4f} vs base {a['median']:.4f} = "
                          f"{b['median'] / a['median']:.4f}x  (bound {bound}, "
                          f"round spread {spread:.4f})")
            verdicts[verdict] += 1
            print(f"  {metric:24s} {verdict:10s} {detail}")
    print("\n" + ", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 1 if verdicts["regressed"] else 0


def smoke(seed: int) -> int:
    """Every workload end to end, briefly; only correctness is kept."""
    failed = 0
    for name in WORKLOADS:
        workload = WORKLOADS[name](build_inputs(name, seed))
        workload.setup()
        try:
            session = workload.session(1, 0.5, 0.1)
        finally:
            workload.close()
        share = session["failed"] / session["attempted"]
        print(f"{name}: attempted {session['attempted']}, failed_share {share}")
        failed += session["failed"]
    return 1 if failed else 0


def main(argv=None, *, import_s: float = 0.0) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.trajectory", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured time of a --workload run (3 s rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="write the whole-stack JSON here")
    parser.add_argument("--traced", action="store_true",
                        help="whole-stack run: add the probes, ladder and traced round")
    parser.add_argument("--smoke", action="store_true",
                        help="one 0.5 s round per workload, numbers discarded")
    parser.add_argument("--list", action="store_true", help="print every name and exit")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one: peers stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _dispatch(args, import_s)
    finally:
        stop_helpers()  # the resource tracker must not outlive the run


def _dispatch(args, import_s: float) -> int:
    if args.list:
        for name in WORKLOADS:
            print(f"workload {name}")
        for name, unit, *_ in catalog.END_TO_END:
            print(f"end_to_end {name} {unit}")
        for name, unit, _ in catalog.PER_LAYER:
            print(f"per_layer {name} {unit}")
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke(args.seed)
    if args.workload:
        return contract_run(args, import_s)
    document = run_suite(args.seed, traced=args.traced, rounds=SUITE_ROUNDS)
    print_report(document)
    problems = validate(document)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if problems else 0
