"""IOContext: the per-endpoint state of the binary communication mechanism.

An :class:`IOContext` owns:

- the formats registered locally (the sender role);
- the wire formats learned from peers, format servers, or in-band
  metadata messages (the receiver role);
- the converter cache, so each (wire format, native format) pair pays
  code generation exactly once.

Message framing (all header integers big-endian, 16 bytes total)::

    u8   kind        1 = data record, 2 = format metadata, 3 = format
                     request, 4 = columnar batch
    u8   version     protocol version, currently 1
    u16  reserved    0
    u32  length      byte length of the body after the header
    u64  format id   content-addressed id (kinds 1, 3 and 4); zero for kind 2

A data message's body is the NDR payload; a metadata message's body is
the :meth:`IOFormat.to_wire_metadata` block; a request's body is empty;
a batch message's body is the columnar payload of PROTOCOL §14 (N
same-format records as per-field column blocks — see
:mod:`repro.pbio.columnar`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from time import perf_counter

from repro.arch.model import ArchitectureModel
from repro.arch.registry import NATIVE
from repro.errors import DecodeError, FormatRegistrationError, UnknownFormatError
from repro.obs import metrics as _metrics
from repro.obs.instr import SAMPLE_MASK, pbio_handles
from repro.pbio.decode import DEFAULT_CONVERTER_CAPACITY, ConverterCache
from repro.pbio.encode import encode_record, get_generated_encoder
from repro.pbio.field import IOField
from repro.pbio.fmserver import FormatServer
from repro.pbio.format import IOFormat

HEADER = struct.Struct(">BBHI8s")
HEADER_SIZE = HEADER.size

KIND_DATA = 1
KIND_FORMAT = 2
KIND_REQUEST = 3
KIND_BATCH = 4

PROTOCOL_VERSION = 1

_NULL_ID = b"\x00" * 8

# Sampling tick for decode-duration observations (see repro.obs.instr);
# racy updates only jitter the sampling phase, counters stay exact.
_decode_tick = [0]


@dataclass(frozen=True)
class DecodedRecord:
    """A decoded data message: format identity plus field values."""

    format_name: str
    values: dict
    wire_format: IOFormat

    def __getitem__(self, name: str):
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values


@dataclass(frozen=True)
class DecodedBatch:
    """A decoded batch message: format identity plus N records."""

    format_name: str
    records: list
    wire_format: IOFormat

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> dict:
        return self.records[index]


class IOContext:
    """Format registration, encoding and decoding for one endpoint.

    Parameters
    ----------
    arch:
        The "native" architecture this context encodes with.  Defaults
        to the model matching the running interpreter; tests and the
        heterogeneity benchmarks pass explicit models to put a simulated
        SPARC and a simulated x86 in one process.
    format_server:
        Optional shared :class:`~repro.pbio.fmserver.FormatServer` used
        to resolve unknown format ids out-of-band.
    converter_cache:
        Optional :class:`~repro.pbio.decode.ConverterCache` to use
        instead of a private one — pass the same instance to several
        contexts to share compiled (wire, native) pairs across
        connections (converters are pure functions, the cache is
        thread-safe).
    converter_capacity:
        LRU bound of the private converter cache (ignored when
        ``converter_cache`` is given).
    lineage:
        Optional :class:`~repro.pbio.evolution.FormatLineage`; every
        format this context registers or learns is recorded there,
        chaining versions by name in observation order.
    """

    def __init__(
        self,
        arch: ArchitectureModel = NATIVE,
        *,
        format_server: FormatServer | None = None,
        converter_cache: ConverterCache | None = None,
        converter_capacity: int = DEFAULT_CONVERTER_CAPACITY,
        lineage=None,
    ) -> None:
        self.arch = arch
        self._formats: dict[str, IOFormat] = {}
        self._by_id: dict[bytes, IOFormat] = {}
        self._wire_formats: dict[bytes, IOFormat] = {}
        self._converters = (
            converter_cache
            if converter_cache is not None
            else ConverterCache(converter_capacity)
        )
        self._format_server = format_server
        self.lineage = lineage

    # -- registration -------------------------------------------------------

    def register_format(
        self,
        name: str,
        fields: list[IOField],
        *,
        record_length: int | None = None,
    ) -> IOFormat:
        """Register a format against this context's architecture.

        Nested format references resolve against previously registered
        formats, mirroring PBIO's registration order requirement.
        """
        if name in self._formats:
            raise FormatRegistrationError(f"format {name!r} is already registered")
        fmt = IOFormat(
            name,
            fields,
            self.arch,
            record_length=record_length,
            catalog=self._formats,
        )
        self._adopt(fmt)
        return fmt

    def adopt_format(self, fmt: IOFormat) -> IOFormat:
        """Register an :class:`IOFormat` built elsewhere (e.g. by xml2wire).

        The format's nested dependencies are adopted too.  The format
        must have been built for this context's architecture.
        """
        if fmt.arch != self.arch:
            raise FormatRegistrationError(
                f"format {fmt.name!r} was built for {fmt.arch.name}, but this "
                f"context is {self.arch.name}"
            )
        for nested in fmt.nested_formats():
            if nested.name not in self._formats:
                self._adopt(nested)
        if fmt.name in self._formats:
            if self._formats[fmt.name].format_id != fmt.format_id:
                raise FormatRegistrationError(
                    f"format {fmt.name!r} is already registered with "
                    f"different metadata"
                )
            return self._formats[fmt.name]
        self._adopt(fmt)
        return fmt

    def _adopt(self, fmt: IOFormat) -> None:
        self._formats[fmt.name] = fmt
        self._by_id[fmt.format_id] = fmt
        # A context can always decode its own formats.
        self._wire_formats[fmt.format_id] = fmt
        if self._format_server is not None:
            self._format_server.register(fmt)
        if self.lineage is not None:
            self.lineage.register(fmt)

    def lookup_format(self, name: str) -> IOFormat:
        """Return a locally registered format by name."""
        try:
            return self._formats[name]
        except KeyError:
            known = ", ".join(self._formats) or "(none)"
            raise FormatRegistrationError(
                f"no format named {name!r} registered; known: {known}"
            ) from None

    def registered_format(self, format_id: bytes) -> IOFormat | None:
        """The locally registered format with this id, if any."""
        return self._by_id.get(format_id)

    def format_names(self) -> list[str]:
        """Names of every locally registered format."""
        return list(self._formats)

    # -- wire format learning -------------------------------------------------

    def learn_format(self, metadata: bytes) -> IOFormat:
        """Install a peer's format from a metadata block; returns it."""
        fmt = IOFormat.from_wire_metadata(metadata)
        self._wire_formats[fmt.format_id] = fmt
        if self.lineage is not None:
            self.lineage.register(fmt)
        return fmt

    def knows_format_id(self, format_id: bytes) -> bool:
        """True if a wire format with this id has been learned."""
        return format_id in self._wire_formats

    def wire_format(self, format_id: bytes) -> IOFormat:
        """Resolve a wire format id, consulting the format server if set."""
        fmt = self._wire_formats.get(format_id)
        if fmt is not None:
            return fmt
        if self._format_server is not None:
            fmt = self._format_server.resolve(format_id)
            self._wire_formats[format_id] = fmt
            return fmt
        raise UnknownFormatError(
            f"unknown format id {format_id.hex()}; no metadata received and "
            f"no format server attached",
            format_id,
        )

    # -- messages ----------------------------------------------------------------

    def encode(self, fmt: IOFormat | str, record: dict) -> bytes:
        """Encode ``record`` as a framed data message."""
        if isinstance(fmt, str):
            fmt = self.lookup_format(fmt)
        payload = encode_record(fmt, record)
        header = HEADER.pack(
            KIND_DATA, PROTOCOL_VERSION, 0, len(payload), fmt.format_id
        )
        return header + payload

    def encode_into(self, fmt: IOFormat | str, record: dict, buffer, offset: int = 0) -> int:
        """Encode ``record`` as a framed data message into ``buffer``.

        In-place counterpart of :meth:`encode`: header and NDR payload
        are written at ``offset`` via ``pack_into`` (byte-identical to
        :meth:`encode`'s output), and the total framed length is
        returned.  ``buffer`` is any writable buffer — in the
        allocation-free path, a pooled ``bytearray`` from
        :func:`repro.wire.bufpool.get_pool`.  Raises
        :class:`~repro.errors.EncodeError` (with ``.needed`` set to the
        payload size) if the buffer is too small.
        """
        if isinstance(fmt, str):
            fmt = self.lookup_format(fmt)
        length = get_generated_encoder(fmt, into=True)(
            record, buffer, offset + HEADER_SIZE
        )
        HEADER.pack_into(
            buffer, offset, KIND_DATA, PROTOCOL_VERSION, 0, length, fmt.format_id
        )
        return HEADER_SIZE + length

    def encode_batch(self, fmt: IOFormat | str, records) -> bytes:
        """Encode ``records`` as one framed columnar batch message.

        The batch rides a ``KIND_BATCH`` message whose body is the
        columnar payload of PROTOCOL §14; per-record data messages are
        untouched.  numpy, when installed, vectorizes the conversion;
        the bytes are the same without it.  Raises
        :class:`~repro.errors.EncodeError` for empty batches and for
        formats with nested fields (no columnar representation).
        """
        return b"".join(self.encode_batch_iov(fmt, records))

    def encode_batch_iov(self, fmt: IOFormat | str, records) -> list:
        """:meth:`encode_batch` as a list of buffer parts (header first).

        Hand the parts to a scatter-gather sender
        (:meth:`~repro.transport.tcp.TCPChannel.send_batch`) and the
        batch reaches the wire without a join copy.
        """
        from repro.pbio.columnar import get_columnar_plan

        if isinstance(fmt, str):
            fmt = self.lookup_format(fmt)
        parts = get_columnar_plan(fmt).encode_parts(records)
        length = sum(len(part) for part in parts)
        header = HEADER.pack(
            KIND_BATCH, PROTOCOL_VERSION, 0, length, fmt.format_id
        )
        self._batch_observe("encode", len(records))
        return [header, *parts]

    def decode_batch(self, message) -> DecodedBatch:
        """Decode a framed batch message to a :class:`DecodedBatch`.

        Records come back in the wire format's own shape, with the same
        value representation the per-record converters produce (NULL
        strings as ``None``, empty dynamic arrays as ``[]``, ...).
        """
        from repro.pbio.columnar import get_columnar_plan

        wire_format, payload = self._split(message, KIND_BATCH)
        records = get_columnar_plan(wire_format).decode_records(payload)
        self._batch_observe("decode", len(records))
        return DecodedBatch(
            format_name=wire_format.name,
            records=records,
            wire_format=wire_format,
        )

    def decode_batch_view(self, message):
        """Decode a batch message as a lazy zero-copy column view.

        Returns a :class:`~repro.pbio.columnar.ColumnBatchView` whose
        ``column(name)`` arrays alias ``message`` directly — the buffer
        ownership rules of PROTOCOL §12 apply (don't ``recv`` over it
        while the view is live).
        """
        from repro.pbio.columnar import ColumnBatchView

        return ColumnBatchView(*self._split(message, KIND_BATCH))

    def _split(self, message, expected_kind: int):
        """Split a framed message into (wire format, payload view).

        The one header/payload split behind :meth:`decode`,
        :meth:`decode_view` and the batch decoders: checks the message
        kind and that the body the header promises is all there.
        """
        kind, _, _, length, format_id = self.parse_header(message)
        if kind != expected_kind:
            wanted = "batch" if expected_kind == KIND_BATCH else "data"
            raise DecodeError(
                f"expected a {wanted} message, got message kind {kind}"
            )
        if isinstance(message, bytearray):
            message = memoryview(message)  # keep the payload slice zero-copy
        payload = message[HEADER_SIZE : HEADER_SIZE + length]
        if len(payload) != length:
            raise DecodeError(
                f"truncated message: header promises {length} bytes, "
                f"got {len(payload)}"
            )
        return self.wire_format(format_id), payload

    @staticmethod
    def _batch_observe(op: str, count: int) -> None:
        registry = _metrics._default_registry
        if not registry.enabled:
            return
        registry.counter(
            "pbio_batch_total", "columnar batch operations", ("op",)
        ).labels(op).inc()
        registry.counter(
            "pbio_batch_records_total", "records moved in columnar batches",
            ("op",),
        ).labels(op).inc(count)

    def format_message(self, fmt: IOFormat | str) -> bytes:
        """Frame ``fmt``'s metadata as a format message."""
        if isinstance(fmt, str):
            fmt = self.lookup_format(fmt)
        metadata = fmt.to_wire_metadata()
        return HEADER.pack(KIND_FORMAT, PROTOCOL_VERSION, 0, len(metadata), _NULL_ID) + metadata

    def request_message(self, format_id: bytes) -> bytes:
        """Frame a format request for ``format_id``."""
        return HEADER.pack(KIND_REQUEST, PROTOCOL_VERSION, 0, 0, format_id)

    def decode(self, message: bytes, *, expect: str | None = None) -> DecodedRecord:
        """Decode a framed data message.

        ``expect`` names a locally registered format to project the
        record onto (format-evolution tolerance); by default the record
        is returned in the wire format's own shape.
        """
        wire_format, payload = self._split(message, KIND_DATA)
        target = self.lookup_format(expect) if expect is not None else None
        converter = self._converters.lookup(wire_format, target)
        # Direct global read; get_registry()'s call overhead is real on
        # this path (see the obs overhead benchmark).
        registry = _metrics._default_registry
        handles = started = None
        if registry.enabled:
            # Inline fast path of pbio_handles: one getattr, no call.
            handles = getattr(wire_format, "_obs_pbio", None)
            if handles is None or handles.registry is not registry:
                handles = pbio_handles(wire_format, registry)
            _decode_tick[0] += 1
            if not _decode_tick[0] & SAMPLE_MASK:
                started = perf_counter()
        try:
            # Converters consume memoryviews directly — no bytes() round-trip.
            values = converter(payload)
        except (IndexError, ValueError, struct.error) as exc:
            raise DecodeError(
                f"corrupt payload for format {wire_format.name!r}: {exc}"
            ) from exc
        if handles is not None:
            if started is not None:
                handles.decode_observe(perf_counter() - started)
            handles.decode_inc()
        name = target.name if target is not None else wire_format.name
        return DecodedRecord(format_name=name, values=values, wire_format=wire_format)

    def decode_view(self, message: bytes):
        """Decode a data message as a lazy :class:`~repro.pbio.RecordView`.

        Nothing is converted until a field is accessed — PBIO's use-the-
        buffer-in-place receive path, ideal for consumers that touch a
        few fields of wide records.  The wire format resolves the same
        way :meth:`decode` resolves it (learned metadata or the format
        server).

        A ``memoryview`` message stays a view all the way into the
        :class:`~repro.pbio.RecordView` (zero-copy): the view must then
        outlive the record view per the ownership contract in
        PROTOCOL §12 — e.g. don't ``recv`` again on the channel that
        handed out the buffer while the record is still in use.
        """
        from repro.pbio.view import RecordView

        return RecordView(*self._split(message, KIND_DATA))

    @staticmethod
    def parse_header(message: bytes) -> tuple[int, int, int, int, bytes]:
        """Split a framed message's header; raises on short input."""
        if len(message) < HEADER_SIZE:
            raise DecodeError(
                f"message of {len(message)} bytes is shorter than the "
                f"{HEADER_SIZE}-byte header"
            )
        kind, version, reserved, length, format_id = HEADER.unpack_from(message, 0)
        if version != PROTOCOL_VERSION:
            raise DecodeError(f"unsupported protocol version {version}")
        return kind, version, reserved, length, format_id

    # -- introspection -------------------------------------------------------------

    @property
    def converter_builds(self) -> int:
        """How many converters this context has generated (amortization)."""
        return self._converters.builds

    @property
    def converter_cache_hits(self) -> int:
        """How many decodes reused a cached converter.

        Kept as a plain counter on the cache (not a registry series) so
        the per-decode hot path stays free of metrics work; the registry
        still records the rare ``converter``/``miss`` build events.
        """
        return self._converters.hits

    @property
    def converter_cache(self) -> ConverterCache:
        """The (possibly shared) bounded converter cache."""
        return self._converters

    def converter_cache_stats(self) -> dict:
        """LRU counters of the converter cache (PROTOCOL §16)."""
        return self._converters.stats()

    def encoded_size(self, fmt: IOFormat | str, record: dict) -> int:
        """Total framed size of ``record`` (header + NDR payload)."""
        return len(self.encode(fmt, record))
