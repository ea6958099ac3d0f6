"""The six workloads: generator loops and the reduction to per-round
metrics.  ``WORKLOADS`` maps the final names to their classes; the why
of each is in ``BENCHMARK.json`` and the README.

Every workload has the same life cycle: ``setup`` spawns its peers,
registers schemas, connects and pushes formats (all of that is
``setup_s``); ``session`` runs a warm-up and then timed rounds and
returns per-round metrics; ``close`` stops every process.  A session's
rounds are cut from progress samples after the fact, so no side ever
stops to synchronise while it is being timed.
"""

from __future__ import annotations

import resource
from array import array
from statistics import median
from time import perf_counter, process_time, sleep

from repro import (
    IOContext,
    MetadataClient,
    RecordConnection,
    SPARC_32,
    X86_64,
    XML2Wire,
    connect,
    get_registry,
    parse_schema,
)
from repro.events import RemoteBackboneClient
from repro.workloads import ASDOFF_B_SCHEMA, ASDOFF_CD_SCHEMA

from benchmarks.trajectory.inputs import (
    BATCH_RECORDS,
    SENSOR_SCHEMA,
    STAMP_FIELD,
    WEATHER_FORMAT,
    WEATHER_V2_SCHEMA,
)
from benchmarks.trajectory.peers import (
    BROKER_STREAM,
    CHUNK,
    RECV_TIMEOUT,
    Peer,
    ReproError,
    peer_core,
    progress,
    transport_bytes,
)
from benchmarks.trajectory.stats import percentile, tail
from benchmarks.trajectory.tracing import Recorder, spanned, wrap_channel, wrap_context

#: The generator keeps sending this long past the last round so the
#: reference side's final round is complete before the end marker.
SESSION_MARGIN_S = 0.25

#: Open-loop ladder (msg/s); REFERENCE_RATE carries the end-to-end
#: latency metrics and is repeated once per round.
LADDER = (2000, 4000, 8000, 12000, 16000)
REFERENCE_RATE = 4000
STEP_WARMUP_S = 0.5
#: A ladder rate is sustained only if its p99 delivery stays under this,
#: nothing fails, the backlog does not grow and the generator kept time.
LATENCY_LIMIT_US = 10_000.0
DRAIN_LIMIT_S = 0.050
SEND_LAG_LIMIT = 0.10  # share of the latency limit
#: The pacer sleeps until this close to the due time, then spins: sleep
#: alone overshoots by 70-100 us on this kernel, a pure spin is no more
#: punctual.  At 4000 msg/s and above the margin covers the whole
#: period, so the generator never sleeps on the measured steps.
SPIN_S = 200e-6


def _cut(samples: list, start: float, end: float):
    """First and last progress samples inside ``[start, end]``."""
    inside = [sample for sample in samples if start <= sample[0] <= end]
    if len(inside) < 2:
        return None
    return inside[0], inside[-1]


def _latency_metrics(latencies_s: list[float]) -> dict:
    ordered = sorted(latencies_s)
    return {
        "latency_p50_us": percentile(ordered, 0.50) * 1e6,
        "latency_p99_us": tail(ordered) * 1e6,
        "latency_samples": len(ordered),
    }


def _side(samples: list, start: float, end: float) -> tuple[float, float]:
    """(CPU seconds per operation, busy share) of one side in a window."""
    cut = _cut(samples, start, end)
    if cut is None or cut[1][2] == cut[0][2]:
        return 0.0, 0.0
    first, last = cut
    cpu = last[1] - first[1]
    return cpu / (last[2] - first[2]), cpu / (last[0] - first[0])


class Workload:
    """Life cycle and the reduction shared by all six workloads."""

    name = ""
    #: Generator plus peers; decides whether the peers are pinned.
    processes = 2
    #: Index into [generator, peer 0, peer 1, ...] of the reference side:
    #: the process whose wall time per operation is the end-to-end time.
    reference_part = 0
    #: Records moved by one traced operation (a batch is one operation).
    records_per_op = 1

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self.peers: list[Peer] = []
        self.recorder: Recorder | None = None
        self.link = None  # whatever connection _setup opens; closed by close()
        self._registry_disabled = False

    # -- life cycle ---------------------------------------------------------

    def setup(self, *, traced: bool = False, registry: bool = True) -> None:
        """Spawn peers, register schemas, connect, push formats and prove
        the path with one verified operation: everything ``setup_s`` is."""
        self.recorder = Recorder() if traced else None
        if not registry:
            get_registry().disable()
            self._registry_disabled = True
        self._mode = {"traced": traced, "registry": registry}
        try:
            self._setup()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the connection and stop (and wait for) every peer."""
        try:
            if self.link is not None:
                self.link.close()
                self.link = None
        finally:
            for peer in self.peers:
                peer.stop()
            self.peers = []
            if self._registry_disabled:
                get_registry().enable()
                self._registry_disabled = False

    def _spawn(self, role: str, **config) -> Peer:
        core = peer_core(len(self.peers), self.processes)
        peer = Peer(role, {**self._mode, "core": core, **config})
        self.peers.append(peer)
        return peer

    def _setup(self) -> None:
        raise NotImplementedError

    def session(self, rounds: int, round_s: float, warmup_s: float, ladder: bool = False) -> dict:
        """A warm-up and ``rounds`` timed rounds; per-round metrics."""
        raise NotImplementedError

    # -- shared reduction ------------------------------------------------------

    def _result(self, attempted: int, failed: int, errors: list, peer_rss_kib: list) -> dict:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "attempted": max(1, attempted), "failed": failed, "errors": errors[:8],
            "peak_rss_mib": max([own, *peer_rss_kib]) / 1024.0,
            "rounds": [], "window": (0.0, 0.0), "operations": 0,
        }

    def _cut_rounds(
        self, result: dict, reference: list, generator: list, peer: list,
        latencies_between, wire_bytes: float,
        rounds: int, round_s: float, warmup_s: float,
    ) -> dict:
        """Cut a closed-loop session into rounds on the reference side's
        clock.  ``latencies_between(first, last)`` gives the latency
        samples between two of the reference side's progress samples."""
        if rounds and reference:
            origin = reference[0][0] + warmup_s
            for index in range(rounds):
                start = origin + index * round_s
                end = start + round_s
                cut = _cut(reference, start, end)
                if cut is None:
                    continue
                first, last = cut
                generator_cpu, generator_busy = _side(generator, start, end)
                peer_cpu, peer_busy = _side(peer, start, end)
                result["rounds"].append({
                    "records_per_s": (last[2] - first[2]) / (last[0] - first[0]),
                    "cpu_us_per_record": (generator_cpu + peer_cpu) * 1e6,
                    "wire_bytes_per_record": wire_bytes,
                    **_latency_metrics(latencies_between(first, last)),
                    "stream.sender_busy_share": generator_busy,
                    "stream.receiver_busy_share": peer_busy,
                })
            result["window"] = (origin, origin + rounds * round_s)
            cut = _cut(reference, *result["window"])
            if cut is not None:
                result["operations"] = (cut[1][2] - cut[0][2]) // self.records_per_op
            self._reduce_trace(result)
        return result

    def _reduce_trace(self, result: dict) -> None:
        """Merge every process's spans for the session's timed window."""
        start, end = result["window"]
        if self.recorder is None or not result["operations"]:
            return
        reduced = [self.recorder.reduce(start, end, 48)]
        reduced += [peer.call("reduce", start, end, 16) for peer in self.peers]
        merged: dict[str, float] = {}
        for part in reduced:
            for name, entry in part["self"].items():
                merged[name] = merged.get(name, 0.0) + entry["self_s"]
        result["trace"] = {
            "self_ns": {
                name: total / result["operations"] * 1e9 for name, total in merged.items()
            },
            "coverage": reduced[self.reference_part]["covered_s"] / (end - start),
            "sample": [
                {"process": process, **span}
                for process, part in zip(["generator", *(p.role for p in self.peers)], reduced)
                for span in part["sample"]
            ],
        }


class _Stream(Workload):
    """Flow-controlled one-way stream over one loopback TCP connection.

    The receiver is the reference side: rounds are cut on its clock and
    ``records_per_s`` is what it received, decoded and verified.  Its
    latency is the time per window of CHUNK records (or per batch): the
    inter-delivery time a consumer of the stream sees.
    """

    reference_part = 1
    peer_role = ""

    def _connect(self, schema: str, format_name: str, **peer_config) -> None:
        self.peer = self._spawn(self.peer_role, **peer_config)
        context = IOContext(SPARC_32)
        XML2Wire(context).register_schema(schema)
        self.format = context.lookup_format(format_name)
        self.link = RecordConnection(
            wrap_context(context, self.recorder),
            wrap_channel(connect(*self.peer.hello["address"]), self.recorder),
        )
        self.link.announce(self.format)
        # Prime: set-up ends when the receiver has decoded one message.
        self.peer.command("session")
        self._send_end_marker()
        primed = self.peer.result()
        if primed["error"] or primed["failed"]:
            raise RuntimeError(f"{self.name}: priming failed: {primed}")

    def _send_for(self, duration: float) -> tuple[int, list, float]:
        """Stream for ``duration`` seconds; (records sent, progress
        samples, wire bytes per record)."""
        raise NotImplementedError

    def _send_end_marker(self) -> None:
        raise NotImplementedError

    def session(self, rounds: int, round_s: float, warmup_s: float, ladder: bool = False) -> dict:
        self.peer.command("session")
        failed, errors = 0, []
        sent, sender, wire_bytes = 0, [], 0.0
        try:
            sent, sender, wire_bytes = self._send_for(
                warmup_s + rounds * round_s + SESSION_MARGIN_S
            )
            self._send_end_marker()
        except ReproError as exc:
            failed += 1
            errors.append(repr(exc))
        reply = self.peer.result()
        if reply["error"]:
            errors.append(reply["error"])
        failed += reply["failed"] + max(0, sent - reply["received"])
        receiver = reply["samples"]

        def windows(first, last):
            times = [s[0] for s in receiver if first[0] <= s[0] <= last[0]]
            return [later - earlier for earlier, later in zip(times, times[1:])]

        return self._cut_rounds(
            self._result(sent, failed, errors, [reply["maxrss_kib"]]),
            receiver, sender, receiver, windows, wire_bytes, rounds, round_s, warmup_s,
        )


class StreamSmall(_Stream):
    name = "stream_small"
    peer_role = "stream_receiver"

    def _setup(self) -> None:
        self.records = self.inputs["records"]
        self._connect(ASDOFF_B_SCHEMA, "ASDOffEvent", records=self.records)

    def _send_for(self, duration: float):
        samples: list = []
        records, size = self.records, len(self.records)
        fmt, recorder, link = self.format, self.recorder, self.link
        send = spanned(recorder, "transport.send", link.send)
        bytes_before, messages_before = link.data_bytes, link.data_messages
        count = 0
        progress(samples, 0)
        deadline = samples[0][0] + duration
        while True:
            if recorder is not None:
                recorder.set_op(count)
            send(fmt, records[count % size])
            count += 1
            if not count % CHUNK:
                progress(samples, count)
                if samples[-1][0] >= deadline:
                    break
        wire_bytes = (link.data_bytes - bytes_before) / (link.data_messages - messages_before)
        return count, samples, wire_bytes

    def _send_end_marker(self) -> None:
        self.link.send(self.format, dict(self.records[0], fltNum=0))


class StreamBulk(_Stream):
    name = "stream_bulk"
    peer_role = "bulk_receiver"
    records_per_op = BATCH_RECORDS

    def _setup(self) -> None:
        import numpy

        # The bulk-sender idiom: sample arrays are held as ndarrays.
        self.batches = [
            [dict(row, samples=numpy.asarray(row["samples"], dtype="<f8")) for row in batch]
            for batch in self.inputs["batches"]
        ]
        self._connect(SENSOR_SCHEMA, "SensorFrame", batches=self.inputs["batches"])

    def _send_for(self, duration: float):
        samples: list = []
        batches, size = self.batches, len(self.batches)
        fmt, recorder, link = self.format, self.recorder, self.link
        send_batch = spanned(recorder, "transport.send", link.send_batch)
        bytes_before, records_before = link.data_bytes, link.batch_records
        sent = count = 0
        progress(samples, 0)
        deadline = samples[0][0] + duration
        while True:
            if recorder is not None:
                recorder.set_op(sent)
            count += send_batch(fmt, batches[sent % size])
            sent += 1
            progress(samples, count)
            if samples[-1][0] >= deadline:
                break
        wire_bytes = (link.data_bytes - bytes_before) / (link.batch_records - records_before)
        return count, samples, wire_bytes

    def _send_end_marker(self) -> None:
        self.link.send_batch(self.format, self.batches[0][:1])


class RpcEcho(Workload):
    """Closed loop, one client, one request outstanding."""

    name = "rpc_echo"

    def _setup(self) -> None:
        self.records = self.inputs["records"]
        self.peer = self._spawn("echo_server", records=self.records)
        context = IOContext(X86_64)
        XML2Wire(context).register_schema(ASDOFF_CD_SCHEMA)
        self.format = context.lookup_format("threeASDOffs")
        self.link = RecordConnection(
            wrap_context(context, self.recorder),
            wrap_channel(connect(*self.peer.hello["address"]), self.recorder),
        )
        # Prime: one verified round trip pushes the format both ways.
        primed = self.session(rounds=0, round_s=0.0, warmup_s=0.0)
        if primed["failed"]:
            raise RuntimeError(f"{self.name}: priming failed: {primed['errors']}")

    def session(self, rounds: int, round_s: float, warmup_s: float, ladder: bool = False) -> dict:
        self.peer.command("session")
        records, size = self.records, len(self.records)
        fmt, recorder = self.format, self.recorder
        send = spanned(recorder, "transport.send", self.link.send)
        recv = spanned(recorder, "transport.recv", self.link.recv)
        samples: list = []
        latencies: list[float] = []
        count = failed = 0
        errors = []
        progress(samples, 0)
        # With no rounds this is the priming call: one round trip.
        deadline = samples[0][0] + warmup_s + rounds * round_s + (
            SESSION_MARGIN_S if rounds else 0.0
        )
        try:
            while True:
                record = records[count % size]
                if recorder is not None:
                    recorder.set_op(count)
                started = perf_counter()
                send(fmt, record)
                reply = recv(RECV_TIMEOUT)
                latencies.append(perf_counter() - started)
                if reply.values != record:
                    failed += 1
                count += 1
                if not count % CHUNK or not rounds:
                    progress(samples, count)
                    if samples[-1][0] >= deadline:
                        break
            self.link.send(fmt, dict(records[0], bart=-1.0))
        except ReproError as exc:
            failed += 1
            errors.append(repr(exc))
        reply = self.peer.result()
        if reply["error"]:
            errors.append(reply["error"])
        # Both directions carry the same format, so the same bytes.
        wire_bytes = (
            self.link.data_bytes / self.link.data_messages
            + reply["data_bytes"] / max(1, reply["data_messages"])
        )
        return self._cut_rounds(
            self._result(count, failed + reply["failed"], errors, [reply["maxrss_kib"]]),
            samples, samples, reply["samples"],
            lambda first, last: latencies[first[2]:last[2]],
            wire_bytes, rounds, round_s, warmup_s,
        )


class DiscoverCold(Workload):
    """Closed loop: URL to first decoded, verified record, everything
    fresh each time.  Progress is sampled once per pass over the corpus,
    so every round covers whole passes and the mix of schema sizes is
    the same in each."""

    name = "discover_cold"

    def _setup(self) -> None:
        self.corpus = self.inputs["corpus"]
        self.peer = self._spawn("metadata_server", corpus=self.corpus)
        self.urls = self.peer.hello["urls"]
        moved: list[int] = []
        count, failed, errors = self._one_pass(0, [], moved)
        if failed:
            raise RuntimeError(f"{self.name}: priming failed: {errors}")
        self.wire_bytes = sum(moved) / count

    def _discover(self, url: str, format_name: str, record: dict):
        """One cold discovery as a user writes it; returns the decoded
        values and the PBIO bytes a wire would have carried."""
        sender = IOContext(SPARC_32)
        XML2Wire(sender).register_url(url, MetadataClient())
        fmt = sender.lookup_format(format_name)
        message = sender.encode(fmt, record)
        metadata = fmt.to_wire_metadata()
        receiver = IOContext(X86_64)
        receiver.learn_format(metadata)
        return receiver.decode(message).values, len(message) + len(metadata)

    def _discover_traced(self, url: str, format_name: str, record: dict):
        """The same discovery with ``register_url`` taken apart into its
        three public steps so each can carry a span."""
        begin, end = self.recorder.begin, self.recorder.end
        sender = IOContext(SPARC_32)
        begin("metaserver.fetch")
        body = MetadataClient().get_bytes(url)
        end()
        begin("schema.parse")
        document = parse_schema(body.decode("utf-8"))
        end()
        begin("core.register")
        XML2Wire(sender).register_schema(document)
        end()
        fmt = sender.lookup_format(format_name)
        begin("pbio.encode")
        message = sender.encode(fmt, record)
        end()
        metadata = fmt.to_wire_metadata()
        receiver = IOContext(X86_64)
        begin("pbio.learn_format")
        receiver.learn_format(metadata)
        end()
        begin("pbio.decode")
        values = receiver.decode(message).values
        end()
        return values, len(message) + len(metadata)

    def _one_pass(self, count: int, latencies: list, moved: list | None = None):
        """Discover every schema of the corpus once; (operations so far,
        failures, errors).  ``moved`` collects bytes per operation."""
        discover = self._discover if self.recorder is None else self._discover_traced
        failed, errors = 0, []
        for url, (_, format_name, xml, record) in zip(self.urls, self.corpus):
            if self.recorder is not None:
                self.recorder.set_op(count)
            started = perf_counter()
            try:
                values, pbio_bytes = discover(url, format_name, record)
                if values != record:
                    failed += 1
                if moved is not None:
                    moved.append(len(xml.encode("utf-8")) + pbio_bytes)
            except ReproError as exc:
                failed += 1
                errors.append(repr(exc))
            latencies.append(perf_counter() - started)
            count += 1
        return count, failed, errors

    def _serverprogress(self, server: list, count: int) -> dict:
        mark = self.peer.call("mark")
        server.append((mark["t"], mark["cpu"], count))
        return mark

    def session(self, rounds: int, round_s: float, warmup_s: float, ladder: bool = False) -> dict:
        samples: list = []
        server: list = []
        latencies: list[float] = []
        count = failed = 0
        errors: list = []
        self._serverprogress(server, 0)
        progress(samples, 0)
        deadline = samples[0][0] + warmup_s + rounds * round_s + SESSION_MARGIN_S
        while samples[-1][0] < deadline:
            count, pass_failed, pass_errors = self._one_pass(count, latencies)
            failed += pass_failed
            errors += pass_errors
            mark = self._serverprogress(server, count)
            progress(samples, count)
        return self._cut_rounds(
            self._result(count, failed, errors, [mark["maxrss_kib"]]),
            samples, samples, server,
            lambda first, last: latencies[first[2]:last[2]],
            self.wire_bytes, rounds, round_s, warmup_s,
        )


#: What one reference-rate step contributes to a round.
_STEP_ROUND_KEYS = (
    "records_per_s", "cpu_us_per_record", "wire_bytes_per_record",
    "latency_p50_us", "latency_p99_us", "latency_samples",
    "harness.send_lag_p50_us", "harness.send_lag_p99_us", "events.backlog_max",
    "stream.sender_busy_share", "stream.receiver_busy_share", "events.broker_busy_share",
)


class BrokerOpen(Workload):
    """Open loop: publisher -> broker process -> subscriber process.

    Messages are sent when due, not when the previous one completed;
    latency runs from the due time (carried in the record) to the
    decoded, verified event, so a late generator or a growing queue is
    charged to the message that waited.
    """

    name = "broker_open"
    processes = 3
    aio = False
    #: The subscriber is the last hop: its clock is the reference.
    reference_part = 2

    def _setup(self) -> None:
        # Copies: the pacer stamps due time and sequence number in place.
        self.records = [dict(record) for record in self.inputs["records"]]
        self.broker = self._spawn("broker", aio=self.aio)
        address = tuple(self.broker.hello["address"])
        self.subscriber = self._spawn(
            "subscriber", records=self.inputs["records"], broker=address
        )
        context = IOContext(SPARC_32)
        XML2Wire(context).register_schema(WEATHER_V2_SCHEMA)
        self.format = context.lookup_format(WEATHER_FORMAT)
        self.link = RemoteBackboneClient(
            wrap_channel(connect(*address), self.recorder), wrap_context(context, self.recorder)
        )
        self.publisher = self.link.publisher(BROKER_STREAM)
        self.next_seq = 0
        self.sent_bytes = self.received_bytes = 0.0
        # Prime: delivered messages push the format through the broker
        # and build the subscriber's projecting converter.
        primed = self._step(rate=100, duration=0.02, warmup=0.0)
        if primed["failed"]:
            raise RuntimeError(f"{self.name}: priming failed: {primed['errors']}")

    def _publish_on_schedule(self, start: float, period: float, total: int):
        """The open loop itself; (send lags, CPU seconds spent publishing).

        CPU is metered around ``publish`` only: the pacer's spinning is
        the harness's cost, not the system's.
        """
        records, size = self.records, len(self.records)
        fmt, recorder, first_seq = self.format, self.recorder, self.next_seq
        publish = spanned(recorder, "events.publish", self.publisher.publish)
        lags = array("d")
        cpu = 0.0
        for index in range(total):
            due = start + index * period
            record = records[(first_seq + index) % size]
            record["issued"] = first_seq + index
            record[STAMP_FIELD] = due
            wait = due - perf_counter()
            if wait > SPIN_S:
                sleep(wait - SPIN_S)
            while perf_counter() < due:
                pass
            cpu_before = process_time()
            lags.append(perf_counter() - due)
            if recorder is not None:
                recorder.set_op(first_seq + index)
            publish(fmt, record)
            cpu += process_time() - cpu_before
        self.publisher.publish(fmt, dict(records[0], wind_dir=-1))  # end marker
        return lags, cpu

    def _step(self, rate: int, duration: float, warmup: float) -> dict:
        """Publish at ``rate`` for ``duration`` seconds; the first
        ``warmup`` seconds are sent but not measured."""
        total = max(1, int(rate * duration))
        period = 1.0 / rate
        errors = []
        before = self.broker.call("mark")
        self.subscriber.command("session", self.next_seq)
        start = perf_counter() + 0.005
        last_due = start + (total - 1) * period
        lags, publisher_cpu = array("d"), 0.0
        try:
            lags, publisher_cpu = self._publish_on_schedule(start, period, total)
        except ReproError as exc:
            errors.append(repr(exc))
        self.next_seq += total
        reply = self.subscriber.result(timeout=RECV_TIMEOUT + 30.0)
        after = self.broker.call("mark")
        if reply["error"]:
            errors.append(reply["error"])
        due_times, latencies = array("d"), array("d")
        due_times.frombytes(reply["due"])
        latencies.frombytes(reply["latency"])
        measured = [
            (due, latency) for due, latency in zip(due_times, latencies)
            if due >= start + warmup
        ]
        sent_bytes, received_bytes = transport_bytes("send"), reply["recv_bytes"]
        step = {
            "rate": rate, "attempted": total, "errors": errors,
            # Undelivered and wrong deliveries both count; a step the
            # generator could not finish fails whatever was delivered.
            "failed": reply["failed"] + (total - len(latencies)) + (len(lags) < total),
            # Every message has the same size; the end marker is one more.
            "wire_bytes_per_record": (
                sent_bytes - self.sent_bytes + received_bytes - self.received_bytes
            ) / (total + 1),
            "converter": reply["converter"],
            "peak_rss_kib": [reply["maxrss_kib"], after["maxrss_kib"]],
            "window": (start + warmup, last_due),
            "sustained": False,
        }
        self.sent_bytes, self.received_bytes = sent_bytes, received_bytes
        if not measured or len(lags) < total:
            return step
        ordered_lags = sorted(lags)
        delays = [latency for _, latency in measured]
        third = max(1, len(delays) // 3)
        last_arrival = measured[-1][0] + measured[-1][1]
        subscriber_cpu, subscriber_busy = _side(reply["samples"], 0.0, float("inf"))
        broker_cpu = after["cpu"] - before["cpu"]
        step.update(_latency_metrics(delays))
        step.update({
            # Open loop: what arrives per second is what was offered,
            # unless deliveries are lost or the pipe falls behind.
            "records_per_s": len(measured) / (last_arrival - (start + warmup)),
            "cpu_us_per_record": (
                (publisher_cpu + broker_cpu) / total + subscriber_cpu
            ) * 1e6,
            "harness.send_lag_p50_us": percentile(ordered_lags, 0.50) * 1e6,
            "harness.send_lag_p99_us": percentile(ordered_lags, 0.99) * 1e6,
            "events.backlog_max": after["backlog_max"],
            "drain_s": last_arrival - last_due,
            "growing": median(delays[-third:]) > 2.0 * median(delays[:third]),
            "stream.sender_busy_share": publisher_cpu / (last_due - start),
            "stream.receiver_busy_share": subscriber_busy,
            "events.broker_busy_share": broker_cpu / (after["t"] - before["t"]),
        })
        # The generator kept time if its lateness used under a tenth of
        # the latency budget.
        step["valid"] = step["harness.send_lag_p99_us"] <= SEND_LAG_LIMIT * LATENCY_LIMIT_US
        step["sustained"] = bool(
            step["valid"] and not step["failed"] and not step["growing"]
            and step["drain_s"] <= DRAIN_LIMIT_S
            and step["latency_p99_us"] <= LATENCY_LIMIT_US
        )
        return step

    def session(self, rounds: int, round_s: float, warmup_s: float, ladder: bool = False) -> dict:
        step_warmup = min(STEP_WARMUP_S, round_s / 4)
        if warmup_s:
            self._step(REFERENCE_RATE, warmup_s, warmup_s)
        steps = {
            REFERENCE_RATE: [
                self._step(REFERENCE_RATE, round_s, step_warmup) for _ in range(rounds)
            ]
        }
        if ladder:
            # Ascending, overload last: a subscriber the broker detaches
            # for falling behind cannot spoil a lower step.
            for rate in LADDER:
                if rate != REFERENCE_RATE:
                    steps[rate] = [self._step(rate, round_s, step_warmup)]
        reference = steps[REFERENCE_RATE]
        result = self._result(
            sum(step["attempted"] for step in reference),
            sum(step["failed"] for step in reference),
            [error for step in reference for error in step["errors"]],
            [kib for run in steps.values() for step in run for kib in step["peak_rss_kib"]],
        )
        sustained = [
            rate for rate, run in steps.items() if all(step["sustained"] for step in run)
        ]
        result["sustained_rate_per_s"] = float(max(sustained, default=0))
        result["ladder"] = {
            str(rate): [
                {key: value for key, value in step.items() if key not in ("converter", "window")}
                for step in run
            ]
            for rate, run in sorted(steps.items())
        }
        result["rounds"] = [
            {key: step[key] for key in _STEP_ROUND_KEYS}
            for step in reference if "latency_p50_us" in step
        ]
        if reference:
            result["converter"] = reference[-1]["converter"]
            result["window"] = reference[-1]["window"]
            result["operations"] = int(
                (result["window"][1] - result["window"][0]) * REFERENCE_RATE
            )
            self._reduce_trace(result)
        return result


class BrokerOpenAio(BrokerOpen):
    name = "broker_open_aio"
    aio = True


WORKLOADS = {
    workload.name: workload
    for workload in (StreamSmall, StreamBulk, RpcEcho, BrokerOpen, BrokerOpenAio, DiscoverCold)
}
