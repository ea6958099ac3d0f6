"""Cached metric handles for the built-in instrumentation.

Hot paths must not pay a dict lookup chain (`registry → family →
series`) per operation, so each call site resolves its bound series
once and caches the handles:

- per-format pbio handles live on the :class:`IOFormat` instance
  itself (the same trick as ``fmt._encode_plan``), invalidated when the
  default registry is swapped;
- per-plane channel handles live in a WeakKeyDictionary keyed by
  registry, so test registries are collectable;
- a call site that serves one plane keeps its handles behind
  :func:`handle_memo`: one identity check per operation.

Durations on the *encode/decode* path are sampled 1 in
:data:`SAMPLE_EVERY` calls — two ``perf_counter`` calls cost ~0.3 µs,
which an A-record encode (~2 µs) cannot absorb every call within the
<5 % overhead budget the CI smoke enforces.  Counters are exact.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from time import perf_counter

from repro.obs.metrics import Registry, get_registry

#: pbio durations are timed once per this many operations.
SAMPLE_EVERY = 16
SAMPLE_MASK = SAMPLE_EVERY - 1


@dataclass(frozen=True)
class PbioHandles:
    """Bound *methods* for one format's encode/decode instrumentation.

    Holding ``Counter.inc`` / ``Histogram.observe`` directly (rather
    than the series objects) saves an attribute hop per operation — the
    difference between ~230 ns and ~150 ns per count on the encode hot
    path, which matters inside the 5 % budget.
    """

    registry: Registry
    encode_inc: object
    encode_observe: object
    decode_inc: object
    decode_observe: object


def pbio_handles(fmt, registry: Registry) -> PbioHandles:
    """The (cached) pbio series for ``fmt`` against ``registry``."""
    cached = getattr(fmt, "_obs_pbio", None)
    if cached is not None and cached.registry is registry:
        return cached
    name = fmt.name
    cached = PbioHandles(
        registry=registry,
        encode_inc=registry.counter(
            "pbio_encode_total", "records encoded", ("format",)
        ).labels(name).inc,
        encode_observe=registry.histogram(
            "pbio_encode_seconds",
            f"encode duration, sampled 1/{SAMPLE_EVERY}",
            ("format",),
        ).labels(name).observe,
        decode_inc=registry.counter(
            "pbio_decode_total", "data messages decoded", ("format",)
        ).labels(name).inc,
        decode_observe=registry.histogram(
            "pbio_decode_seconds",
            f"decode duration, sampled 1/{SAMPLE_EVERY}",
            ("format",),
        ).labels(name).observe,
    )
    fmt._obs_pbio = cached
    return cached


def timed_codegen(kind: str, build, *args, **kwargs):
    """Run ``build`` — one routine's generation and compilation — on a miss.

    Counts the build in ``pbio_codegen_total{kind, event="miss"}`` and
    times it into ``pbio_codegen_seconds{kind}``: registration compiles
    nothing, so this is where the first use of each encoder and converter
    shows.  Only the miss paths come here; a cached routine costs nothing.
    """
    registry = get_registry()
    if not registry.enabled:
        return build(*args, **kwargs)
    registry.counter(
        "pbio_codegen_total", "converter/encoder cache events", ("kind", "event")
    ).labels(kind, "miss").inc()
    started = perf_counter()
    built = build(*args, **kwargs)
    registry.histogram(
        "pbio_codegen_seconds", "generation + compile time of one routine", ("kind",)
    ).labels(kind).observe(perf_counter() - started)
    return built


def handle_memo(build):
    """A getter of ``build(registry)`` for the default registry.

    The returned callable answers None while the registry is disabled
    (the fast path: one attribute test), builds once per registry, and
    re-resolves when the default registry is swapped (tests).
    """
    _obs_memo = None

    def handles():
        nonlocal _obs_memo
        registry = get_registry()
        if not registry.enabled:
            return None
        cached = _obs_memo
        if cached is None or cached[0] is not registry:
            cached = _obs_memo = (registry, build(registry))
        return cached[1]

    return handles


@dataclass(frozen=True)
class ChannelHandles:
    """Bound series for one serving plane's channel instrumentation."""

    send_frames: object
    send_bytes: object
    send_seconds: object
    recv_frames: object
    recv_bytes: object
    recv_seconds: object
    #: Socket reads behind ``recv_frames``: frames per read is the share
    #: of receives a read-ahead buffer served without a syscall.
    recv_reads: object


_channel_cache: "weakref.WeakKeyDictionary[Registry, dict[str, ChannelHandles]]" = (
    weakref.WeakKeyDictionary()
)


def channel_handles(registry: Registry, plane: str) -> ChannelHandles:
    """The (cached) transport series for ``plane`` against ``registry``."""
    per_registry = _channel_cache.get(registry)
    if per_registry is None:
        per_registry = {}
        _channel_cache[registry] = per_registry
    handles = per_registry.get(plane)
    if handles is None:
        frames = registry.counter(
            "transport_frames_total", "frames moved", ("plane", "direction")
        )
        volume = registry.counter(
            "transport_bytes_total", "message bytes moved (sans length prefix)",
            ("plane", "direction"),
        )
        latency = registry.histogram(
            "transport_op_seconds", "send/recv operation duration",
            ("plane", "direction"),
        )
        handles = ChannelHandles(
            send_frames=frames.labels(plane, "send"),
            send_bytes=volume.labels(plane, "send"),
            send_seconds=latency.labels(plane, "send"),
            recv_frames=frames.labels(plane, "recv"),
            recv_bytes=volume.labels(plane, "recv"),
            recv_seconds=latency.labels(plane, "recv"),
            recv_reads=registry.counter(
                "transport_recv_reads_total",
                "socket reads made to receive frames", ("plane",),
            ).labels(plane),
        )
        per_registry[plane] = handles
    return handles
