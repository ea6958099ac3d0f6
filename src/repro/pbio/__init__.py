"""PBIO — the binary communication mechanism (substrate S4).

A reimplementation of the Georgia Tech PBIO library (Eisenhauer & Daley,
HCW 2000) that the paper uses as its wire engine.  The defining idea is
NDR — *Natural Data Representation*: a sender transmits records in its own
native memory layout (byte order, sizes, alignment and all), preceded once
per connection by compact format metadata.  Receivers interpret or convert
incoming records using routines *generated at run time* and specialized to
the exact (wire format, native format) pair, so:

- homogeneous exchanges degenerate to trivial unpacking of native bytes
  (the "move data directly out of memory onto the medium" case), and
- heterogeneous exchanges pay exactly one conversion, on the receiving
  side ("receiver makes right"), with no canonical intermediate format.

Public surface:

- :class:`~repro.pbio.field.IOField` — one field declaration, mirroring
  the paper's ``IOField`` C arrays (name, type string, size, offset).
- :class:`~repro.pbio.format.IOFormat` — a registered format bound to an
  architecture model; knows its own wire metadata representation.
- :class:`~repro.pbio.context.IOContext` — registration, encode, decode,
  format-id resolution and converter caching.
- :class:`~repro.pbio.context.DecodedRecord` — a decoded message.
- :mod:`~repro.pbio.codegen` — the one converter generator
  (:func:`~repro.pbio.codegen.make_converter`) and the generated
  encoders, all compiled at one site.
- :mod:`~repro.pbio.reference` — the interpreted reference decoder
  (:func:`~repro.pbio.reference.reference_decode`), the executable
  specification the generated converters are tested against.
- :mod:`~repro.pbio.evolution` — restricted format evolution (field
  addition/removal tolerance by name matching), the projection plan,
  the :class:`~repro.pbio.evolution.Compatibility` lattice and the
  :class:`~repro.pbio.evolution.FormatLineage` registry.
- :class:`~repro.pbio.view.RecordView` — lazy field access straight out
  of the wire buffer, with zero-copy ``ndarray`` views of numeric
  arrays (:meth:`~repro.pbio.view.RecordView.array`).
- :mod:`~repro.pbio.lru` — the shared bounded LRU behind the converter,
  format-server and metadata-client caches (PROTOCOL §16).
- :mod:`~repro.pbio.fmserver` — an in-process format server mapping
  format ids to metadata, PBIO's out-of-band resolution path.
- :mod:`~repro.pbio.columnar` — the columnar bulk batch codec
  (:class:`~repro.pbio.columnar.ColumnBatchView`,
  :class:`~repro.pbio.context.DecodedBatch`): N same-format records as
  per-field column blocks on one ``KIND_BATCH`` message.

No codec entry point takes an implementation switch: numpy is detected
(:data:`repro.pbio.types.numpy`), and every format, field and
length-field name must match ``[A-Za-z_][A-Za-z0-9_]*``.
"""

from repro.pbio.field import IOField
from repro.pbio.format import IOFormat, format_from_layout
from repro.pbio.columnar import ColumnBatchView, ColumnarPlan, get_columnar_plan
from repro.pbio.context import DecodedBatch, DecodedRecord, IOContext
from repro.pbio.decode import ConverterCache
from repro.pbio.evolution import (
    Compatibility,
    FormatLineage,
    compare_formats,
    formats_compatible,
)
from repro.pbio.fmserver import FormatServer
from repro.pbio.lru import BoundedLRU
from repro.pbio.reference import reference_decode
from repro.pbio.view import RecordView, view_message
from repro.pbio.iofile import IOFileReader, IOFileWriter, dump_records, load_records

__all__ = [
    "BoundedLRU",
    "Compatibility",
    "ConverterCache",
    "FormatLineage",
    "compare_formats",
    "formats_compatible",
    "reference_decode",
    "IOFileReader",
    "IOFileWriter",
    "dump_records",
    "load_records",
    "IOField",
    "IOFormat",
    "format_from_layout",
    "ColumnBatchView",
    "ColumnarPlan",
    "DecodedBatch",
    "DecodedRecord",
    "IOContext",
    "FormatServer",
    "RecordView",
    "get_columnar_plan",
    "view_message",
]
