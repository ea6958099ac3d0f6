"""``WorkerPool``: N server processes on one port (PROTOCOL §15.3).

One Python process is one GIL; the pool escapes it by running N worker
processes that all serve the same metadata catalog on the same port:

- **reuseport mode** (default where available) — every worker binds the
  port with ``SO_REUSEPORT`` and the kernel shards ``accept`` across
  them, no userspace dispatcher on the hot path.  The parent holds a
  bound-but-not-listening reservation socket so the port stays stable
  across worker respawns (TCP reuseport groups only include *listening*
  sockets, so the reservation never receives traffic).
- **handoff mode** (fallback) — the parent owns the single listener and
  deals accepted sockets to workers round-robin over
  ``multiprocessing.reduction.send_handle``; workers serve them through
  a listener shim, so the serving code is identical in both modes.

Catalog coherence: the parent holds the authoritative static-document
snapshot.  Every publish — through :meth:`WorkerPool.publish_schema` or
a client ``POST /mp/publish`` on any worker — flows to the parent, which
re-broadcasts to every other worker over the control pipes.  Broadcasts
are numbered and acknowledged: a publish returns only once every live
worker has applied it, so the URL it hands back is servable by whichever
worker the kernel picks next.  A respawned
worker receives the full snapshot before it serves its first request, so
a crash loses no registered documents.

Supervision: a monitor thread respawns dead workers, relays publishes,
pushes pool health to workers (served at ``GET /mp/status`` and exported
through :mod:`repro.obs` gauges), and — when a
:class:`~repro.faults.plan.PoolFaultPlan` is attached — kills workers on
the plan's deterministic schedule to exercise exactly that path.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from itertools import count
from multiprocessing import connection, get_context
from multiprocessing.reduction import recv_handle, send_handle
from urllib.parse import parse_qs

from repro.errors import DiscoveryError, TransportError, TransportTimeoutError
from repro.schema.model import SchemaDocument
from repro.schema.writer import schema_to_xml

_CTX = get_context("spawn")  # the parent has threads; fork is not safe

#: How long readiness and publish convergence may take before they raise.
_CONVERGE_TIMEOUT = 10.0


def reuseport_available() -> bool:
    """Whether this platform supports ``SO_REUSEPORT`` accept sharding."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


@dataclass
class WorkerStatus:
    """One worker's health as the parent sees it."""

    index: int
    pid: int | None = None
    alive: bool = False
    ready: bool = False
    respawns: int = 0
    requests_served: int = 0
    plane: str = "threaded"

    def as_dict(self) -> dict:
        """JSON-ready form (one row of ``/mp/status``)."""
        return {
            "index": self.index,
            "pid": self.pid,
            "alive": self.alive,
            "ready": self.ready,
            "respawns": self.respawns,
            "requests_served": self.requests_served,
            "plane": self.plane,
        }


@dataclass
class PoolStatus:
    """The pool's aggregate health (``metaserve --status``, ``/mp/status``)."""

    mode: str
    host: str
    port: int
    workers: list[WorkerStatus] = field(default_factory=list)

    @property
    def total_respawns(self) -> int:
        return sum(worker.respawns for worker in self.workers)

    @property
    def alive(self) -> int:
        return sum(1 for worker in self.workers if worker.alive)

    def as_dict(self) -> dict:
        """JSON-ready form (the ``/mp/status`` body)."""
        return {
            "mode": self.mode,
            "host": self.host,
            "port": self.port,
            "alive": self.alive,
            "total_respawns": self.total_respawns,
            "workers": [worker.as_dict() for worker in self.workers],
        }


class _HandoffListener:
    """A listener shim fed accepted sockets over a pipe (fallback mode).

    Duck-types the :class:`~repro.transport.tcp.TCPListener` surface the
    threaded :class:`~repro.metaserver.server.MetadataServer` uses —
    ``accept(timeout)`` / ``address`` / ``close`` — so the serving code
    cannot tell kernel sharding from parent-dealt sockets.
    """

    def __init__(self, conn, address: tuple[str, int]) -> None:
        self._conn = conn
        self._address = address
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def accept(self, timeout: float | None = None):
        from repro.transport.tcp import TCPChannel

        if self._closed:
            raise TransportError("handoff listener closed")
        if not self._conn.poll(timeout):
            raise TransportTimeoutError(f"accept timed out after {timeout}s")
        try:
            fd = recv_handle(self._conn)
        except (EOFError, OSError) as exc:
            self._closed = True
            raise TransportError(f"handoff pipe closed: {exc}") from exc
        return TCPChannel(socket.socket(fileno=fd))

    def close(self) -> None:
        self._closed = True


def _worker_obs_tick(index: int, requests_served: int, status: dict | None) -> None:
    """Refresh this worker's pool-health gauges (served at /metrics)."""
    from repro.obs.metrics import get_registry

    registry = get_registry()
    if not registry.enabled:
        return
    label = str(index)
    registry.gauge(
        "mp_worker_requests_total",
        "requests served by this pool worker",
        ("worker",),
    ).labels(label).set(requests_served)
    if status is not None:
        up = registry.gauge(
            "mp_worker_up",
            "1 when the pool worker is alive, else 0",
            ("worker",),
        )
        respawns = registry.gauge(
            "mp_worker_respawns_total",
            "times the pool has respawned this worker",
            ("worker",),
        )
        for worker in status.get("workers", ()):
            peer = str(worker["index"])
            up.labels(peer).set(1.0 if worker["alive"] else 0.0)
            respawns.labels(peer).set(worker["respawns"])


def _mp_prefix_handler(index: int, catalog, control_send, status_ref, relays):
    """The ``/mp/*`` control surface each worker mounts on its catalog.

    ``relays`` maps a pending publish's request id to the ``[event,
    converged]`` pair its handler waits on; the worker's control loop
    fills it in when the parent reports the re-broadcast acknowledged.
    """
    from repro.metaserver.http import HTTPRequest, HTTPResponse

    _JSON = "application/json; charset=utf-8"
    request_ids = count(1)

    def handler(request: HTTPRequest) -> HTTPResponse:
        path, _, query = request.path.partition("?")
        if path == "/mp/worker":
            body = json.dumps({"worker": index, "pid": os.getpid()})
            return HTTPResponse(200, {"Content-Type": _JSON}, body.encode())
        if path == "/mp/status":
            body = json.dumps(status_ref[0])
            return HTTPResponse(200, {"Content-Type": _JSON}, body.encode())
        if path == "/mp/publish":
            if request.method != "POST":
                return HTTPResponse(405, body=b"publish is POST-only")
            target = parse_qs(query).get("path", [""])[0]
            if not target.startswith("/"):
                return HTTPResponse(400, body=b"publish needs ?path=/...")
            text = request.body.decode("utf-8")
            # Locally first (the answering worker is immediately
            # coherent), then upward: the parent re-broadcasts to every
            # *other* worker, making the registration pool-wide, and
            # answers once they have all acknowledged it.
            catalog.publish_schema(target, text)
            request_id = next(request_ids)
            relay = relays[request_id] = [threading.Event(), False]
            control_send(("publish", request_id, target, text))
            relay[0].wait(_CONVERGE_TIMEOUT)
            relays.pop(request_id, None)
            body = json.dumps({"published": True, "converged": relay[1]})
            return HTTPResponse(200, {"Content-Type": _JSON}, body.encode())
        return HTTPResponse(404, body=f"no pool endpoint at {path}".encode())

    return handler


def _worker_main(index, host, port, mode, plane, control, handoff) -> None:
    """One pool worker: serve the shared catalog until told to stop.

    Top-level (not a closure) so the spawn start method can pickle it.
    The first control message is always the catalog snapshot — the
    worker loads it *before* accepting, so a respawn never serves a
    window of missing documents.
    """
    from repro.metaserver.catalog import MetadataCatalog
    from repro.metaserver.server import MetadataServer
    from repro.transport.tcp import TCPListener

    catalog = MetadataCatalog()
    status_ref = [{}]
    relays: dict[int, list] = {}
    send_lock = threading.Lock()

    def control_send(message) -> None:
        with send_lock:
            try:
                control.send(message)
            except (OSError, BrokenPipeError):
                pass  # parent gone; the worker is about to exit anyway

    catalog.attach_prefix_handler(
        "/mp/", _mp_prefix_handler(index, catalog, control_send, status_ref, relays)
    )

    try:
        op, snapshot = control.recv()  # blocking: snapshot precedes serving
        if op == "catalog":
            catalog.load_snapshot(snapshot)
    except (EOFError, OSError):
        return

    loop = None
    if plane == "async" and mode == "reuseport":
        from repro.aio.metaserver import AsyncMetadataServer
        from repro.aio.runner import BackgroundLoop

        loop = BackgroundLoop()
        server = loop.run(
            AsyncMetadataServer(host, port, catalog=catalog, reuse_port=True).start()
        )
    else:
        # Handoff mode deals already-accepted sockets, which only the
        # threaded plane consumes — an async worker falls back.
        if mode == "reuseport":
            listener = TCPListener(host, port, reuse_port=True)
        else:
            listener = _HandoffListener(handoff, (host, port))
        server = MetadataServer(catalog=catalog, listener=listener).start()

    control_send(("ready", index, port, os.getpid()))
    try:
        while True:
            if control.poll(0.2):
                try:
                    message = control.recv()
                except (EOFError, OSError):
                    break  # parent died; exit with it
                op = message[0]
                if op == "stop":
                    break
                if op == "publish":
                    catalog.publish_schema(message[2], message[3])
                    control_send(("ack", message[1]))
                elif op == "unpublish":
                    catalog.unpublish(message[2])
                    control_send(("ack", message[1]))
                elif op == "converged":
                    relay = relays.get(message[1])
                    if relay is not None:
                        relay[1] = message[2]
                        relay[0].set()
                elif op == "catalog":
                    catalog.load_snapshot(message[1])
                elif op == "status":
                    status_ref[0] = message[1]
                    _worker_obs_tick(index, server.requests_served, message[1])
            control_send(("stats", index, {"requests_served": server.requests_served}))
    finally:
        if loop is not None:
            try:
                loop.run(server.stop())
            finally:
                loop.stop()
        else:
            server.stop()


class WorkerPool:
    """N metadata-server workers sharing one port and one catalog.

    Parameters
    ----------
    host, port:
        The serving address; port 0 picks a free port (resolved before
        workers spawn, so every worker binds the same concrete port).
    workers:
        Worker process count.
    plane:
        ``"threaded"`` or ``"async"`` — which serving plane each worker
        runs (async requires reuseport mode; handoff workers fall back
        to threaded).
    mode:
        ``"reuseport"``, ``"handoff"``, or ``None`` to auto-detect
        (reuseport where :func:`reuseport_available`, else handoff).
    fault_plan:
        An optional :class:`~repro.faults.plan.PoolFaultPlan`; each
        supervision tick may kill one worker (round-robin victim) to
        exercise respawn + catalog re-sync deterministically.
    respawn:
        Whether dead workers are restarted (chaos tests may disable).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        *,
        plane: str = "threaded",
        mode: str | None = None,
        fault_plan=None,
        respawn: bool = True,
        tick_seconds: float = 0.1,
    ) -> None:
        if workers < 1:
            raise DiscoveryError(f"worker pools need >= 1 worker, got {workers}")
        if plane not in ("threaded", "async"):
            raise DiscoveryError(f"plane must be 'threaded'/'async', got {plane!r}")
        if mode not in (None, "reuseport", "handoff"):
            raise DiscoveryError(f"mode must be 'reuseport'/'handoff', got {mode!r}")
        if mode is None:
            mode = "reuseport" if reuseport_available() else "handoff"
        if mode == "reuseport" and not reuseport_available():
            raise TransportError("SO_REUSEPORT unsupported on this platform")
        self.host = host
        self.mode = mode
        self.plane = plane
        self.fault_plan = fault_plan
        self._respawn = respawn
        self._tick = tick_seconds
        self._count = workers
        self._documents: dict[str, str] = {}
        self._documents_lock = threading.Lock()
        #: Broadcast numbering: ``_seq`` counts catalog changes (under
        #: the documents lock); ``_acked[i]`` is the newest change worker
        #: ``i`` is known to hold, by ack or by spawn-time snapshot.
        self._seq = 0
        self._acked = [0] * workers
        self._acks = threading.Condition()
        self._procs: list = [None] * workers
        self._controls: list = [None] * workers
        self._handoffs: list = [None] * workers
        self._status = [WorkerStatus(index=i, plane=plane) for i in range(workers)]
        self._control_lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._dealer: threading.Thread | None = None
        self._reserve: socket.socket | None = None
        self._listener = None
        self._started = False

        if mode == "reuseport":
            # Reserve the port without listening: the reservation keeps
            # the port ours across respawns but never receives traffic
            # (TCP reuseport groups only contain listening sockets).
            reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            try:
                reserve.bind((host, port))
            except OSError as exc:
                reserve.close()
                raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
            self._reserve = reserve
            self.port = reserve.getsockname()[1]
        else:
            from repro.transport.tcp import TCPListener

            self._listener = TCPListener(host, port)
            self.port = self._listener.address[1]

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def url_for(self, path: str) -> str:
        """Absolute URL of ``path`` on the pool's shared port."""
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "WorkerPool":
        """Spawn the workers and the supervision threads (fluent)."""
        if self._started:
            raise DiscoveryError("pool already started")
        self._started = True
        for index in range(self._count):
            self._spawn(index)
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
        self._monitor.start()
        if self.mode == "handoff":
            self._dealer = threading.Thread(target=self._dealer_loop, daemon=True)
            self._dealer.start()
        return self

    def wait_ready(self, timeout: float = _CONVERGE_TIMEOUT) -> None:
        """Block until every worker has bound and reported ready."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(worker.ready and worker.alive for worker in self._status):
                return
            time.sleep(0.01)
        raise TransportError(
            f"pool not ready within {timeout}s: {self.status().as_dict()}"
        )

    def stop(self) -> None:
        """Stop the workers and supervision threads; idempotent."""
        if self._stop.is_set():
            return
        self._stop.set()
        for conn in self._controls:
            self._send_control(conn, ("stop",))
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=3)
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
        if self._monitor is not None:
            self._monitor.join(timeout=2)
        if self._dealer is not None:
            self._dealer.join(timeout=2)
        if self._reserve is not None:
            self._reserve.close()
        if self._listener is not None:
            self._listener.close()
        for conn in self._controls:
            if conn is not None:
                conn.close()
        for conn in self._handoffs:
            if conn is not None:
                conn.close()

    def __enter__(self) -> "WorkerPool":
        pool = self.start()
        pool.wait_ready()
        return pool

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- publication (parent-side API, mirrored to every worker) ---------------

    def publish_schema(self, path: str, schema: "SchemaDocument | str") -> str:
        """Publish a static document on every worker; returns its URL.

        Returns once every live worker has acknowledged the document
        (a worker respawned meanwhile holds it from its snapshot);
        raises :class:`~repro.errors.TransportTimeoutError` if that
        takes longer than :meth:`wait_ready`'s default.
        """
        if not path.startswith("/"):
            raise DiscoveryError(f"paths must start with '/', got {path!r}")
        text = schema if isinstance(schema, str) else schema_to_xml(schema)
        self._converge("publish", path, text)
        return self.url_for(path)

    def unpublish(self, path: str) -> None:
        """Remove a document from every worker; missing paths are a no-op.

        Acknowledged like :meth:`publish_schema`: on return no worker
        serves the document.
        """
        self._converge("unpublish", path)

    def status(self) -> PoolStatus:
        """A point-in-time snapshot of pool and worker health."""
        return PoolStatus(
            mode=self.mode,
            host=self.host,
            port=self.port,
            workers=[WorkerStatus(**worker.as_dict()) for worker in self._status],
        )

    # -- internals -------------------------------------------------------------

    def _spawn(self, index: int) -> None:
        parent_control, child_control = _CTX.Pipe()
        if self.mode == "handoff":
            parent_handoff, child_handoff = _CTX.Pipe()
        else:
            parent_handoff = child_handoff = None
        proc = _CTX.Process(
            target=_worker_main,
            args=(
                index,
                self.host,
                self.port,
                self.mode,
                self.plane,
                child_control,
                child_handoff,
            ),
            daemon=True,
            name=f"repro-mp-worker-{index}",
        )
        proc.start()
        child_control.close()
        if child_handoff is not None:
            child_handoff.close()
        old_control = self._controls[index]
        old_handoff = self._handoffs[index]
        self._procs[index] = proc
        self._controls[index] = parent_control
        self._handoffs[index] = parent_handoff
        if old_control is not None:
            old_control.close()
        if old_handoff is not None:
            old_handoff.close()
        worker = self._status[index]
        worker.pid = proc.pid
        worker.alive = True
        worker.ready = False
        with self._documents_lock:
            snapshot = dict(self._documents)
            covered = self._seq
        # The snapshot is the worker's first message; it loads it before
        # binding, so a respawned worker never serves an empty catalog —
        # and counts as having acknowledged every change so far.
        self._send_control(parent_control, ("catalog", snapshot))
        self._record_ack(index, covered)

    def _send_control(self, conn, message) -> None:
        if conn is None:
            return
        with self._control_lock:
            try:
                conn.send(message)
            except (OSError, BrokenPipeError):
                pass  # dead worker; the monitor respawns it

    def _broadcast(self, message, *, skip: int | None = None) -> None:
        for index, conn in enumerate(self._controls):
            if index != skip:
                self._send_control(conn, message)

    def _converge(
        self, op: str, path: str, text: str | None = None, *, skip: int | None = None
    ) -> None:
        """Apply one catalog change pool-wide and wait for every ack.

        The change is numbered under the documents lock, so a snapshot
        taken for a respawn either holds it or predates its number.
        ``skip`` is the worker the change came from (it already has it).
        """
        with self._documents_lock:
            if op == "publish":
                self._documents[path] = text
            else:
                self._documents.pop(path, None)
            self._seq += 1
            seq = self._seq
        message = (op, seq, path) if text is None else (op, seq, path, text)
        self._broadcast(message, skip=skip)
        deadline = time.monotonic() + _CONVERGE_TIMEOUT
        with self._acks:
            while not self._stop.is_set():
                behind = [
                    worker.index
                    for worker in self._status
                    if worker.alive
                    and worker.index != skip
                    and self._acked[worker.index] < seq
                ]
                if not behind:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeoutError(
                        f"{op} of {path!r} not acknowledged by workers "
                        f"{behind} within {_CONVERGE_TIMEOUT}s"
                    )
                self._acks.wait(min(remaining, 0.1))

    def _record_ack(self, index: int, seq: int) -> None:
        with self._acks:
            self._acked[index] = max(self._acked[index], seq)
            self._acks.notify_all()

    def _relay(self, origin: int, request_id: int, path: str, text: str) -> None:
        """A worker's ``POST /mp/publish``: converge the others, then tell it."""
        try:
            self._converge("publish", path, text, skip=origin)
            converged = True
        except TransportTimeoutError:
            converged = False
        self._send_control(
            self._controls[origin], ("converged", request_id, converged)
        )

    def _monitor_loop(self) -> None:
        tick = 0
        last_status_push = 0.0
        next_tick = 0.0
        while not self._stop.is_set():
            # Worker messages (acks above all) are handled as they
            # arrive; reaping, fault injection and status pushes keep
            # their tick cadence.
            self._drain_workers()
            now = time.monotonic()
            if now >= next_tick:
                tick += 1
                next_tick = now + self._tick
                self._reap_and_respawn()
                if self.fault_plan is not None and self._fault_tick(tick):
                    continue  # let the kill land before the next drain
                if now - last_status_push >= 0.25:
                    last_status_push = now
                    self._push_status()
            connection.wait(
                [conn for conn in self._controls if conn is not None],
                timeout=max(0.0, next_tick - time.monotonic()),
            )

    def _drain_workers(self) -> None:
        for index, conn in enumerate(self._controls):
            if conn is None:
                continue
            try:
                while conn.poll(0):
                    message = conn.recv()
                    self._handle_worker_message(index, message)
            except (EOFError, OSError):
                # Dead worker: drop the pipe (it would read as ready
                # forever); the respawn pass installs a fresh one.
                self._controls[index] = None
                conn.close()

    def _handle_worker_message(self, index: int, message) -> None:
        op = message[0]
        worker = self._status[index]
        if op == "ready":
            worker.ready = True
            worker.pid = message[3]
        elif op == "stats":
            worker.requests_served = message[2].get("requests_served", 0)
        elif op == "ack":
            self._record_ack(index, message[1])
        elif op == "publish":
            # Waiting for acks here would stall the thread that reads
            # them; a short-lived relay thread does the waiting.
            threading.Thread(
                target=self._relay, args=(index, *message[1:]), daemon=True
            ).start()

    def _reap_and_respawn(self) -> None:
        for index, proc in enumerate(self._procs):
            if proc is None or proc.is_alive():
                continue
            worker = self._status[index]
            worker.alive = False
            worker.ready = False
            if self._respawn and not self._stop.is_set():
                worker.respawns += 1
                self._spawn(index)
            else:
                with self._acks:
                    self._acks.notify_all()  # nobody waits on the dead

    def _fault_tick(self, tick: int) -> bool:
        if self.fault_plan.decide() != "crash":
            return False
        victims = [
            index
            for index, proc in enumerate(self._procs)
            if proc is not None and proc.is_alive()
        ]
        if not victims:
            return False
        victim = victims[tick % len(victims)]
        self._procs[victim].kill()
        self._procs[victim].join(timeout=2)
        return True

    def _push_status(self) -> None:
        status = self.status().as_dict()
        self._parent_obs(status)
        self._broadcast(("status", status))

    def _parent_obs(self, status: dict) -> None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
        if not registry.enabled:
            return
        up = registry.gauge(
            "mp_worker_up",
            "1 when the pool worker is alive, else 0",
            ("worker",),
        )
        respawns = registry.gauge(
            "mp_worker_respawns_total",
            "times the pool has respawned this worker",
            ("worker",),
        )
        requests = registry.gauge(
            "mp_worker_requests_total",
            "requests served by this pool worker",
            ("worker",),
        )
        for worker in status["workers"]:
            label = str(worker["index"])
            up.labels(label).set(1.0 if worker["alive"] else 0.0)
            respawns.labels(label).set(worker["respawns"])
            requests.labels(label).set(worker["requests_served"])

    def _dealer_loop(self) -> None:
        """Handoff mode: deal accepted sockets to live workers round-robin."""
        turn = 0
        while not self._stop.is_set():
            try:
                channel = self._listener.accept(timeout=0.2)
            except TransportError:
                continue
            except Exception:
                return  # listener closed
            for _ in range(self._count):
                index = turn % self._count
                turn += 1
                proc = self._procs[index]
                conn = self._handoffs[index]
                if proc is None or conn is None or not proc.is_alive():
                    continue
                try:
                    send_handle(conn, channel._sock.fileno(), proc.pid)
                    break
                except (OSError, BrokenPipeError):
                    continue  # worker died mid-deal; try the next one
            # Close only the parent's fd copy — a plain close, never a
            # shutdown, which would tear down the worker's connection.
            # An undealt socket (no live worker) resets the client,
            # which retries within the PR-1 budget.
            channel._sock.close()
