"""Columnar bulk batches: N same-format records as per-field columns.

The per-record NDR path pays full encode/frame/dispatch per message.
For bulk streams the next order of magnitude comes from batching: one
batch message carries N same-format records laid out *by column*, so
each field of the whole batch is one contiguous block handled by one
vectorized operation (``struct.pack`` with a repeat count, or a single
numpy ``frombuffer``/``tobytes``), and a receiver that wants one column
touches only that block — the paper's "touch only the bytes you need",
amortized over a batch.

Batch payload layout (PROTOCOL §14)::

    u32  count      record count N (big-endian, like the message header)
    u32  heap_off   byte offset of the variable-data heap (big-endian)
    [ one column block per field, declaration order, each aligned ]
    [ heap: variable data (string bodies, dynamic-array rows)     ]

Column blocks and heap data are in the *sender's* byte order, exactly
like per-record NDR payloads.  Fixed-size fields (scalars, static
arrays, char buffers) occupy ``N * row_bytes`` packed element blocks.
Strings and dynamic arrays store one u32 heap offset per row (0 = NULL
string / empty array — offset 0 falls inside the prelude, so it is
reserved, mirroring the per-record pointer convention); their bodies
pack contiguously in the heap, one region per column, in column order.
Dynamic-array element counts come from the format's count field column.

Nested formats have no columnar representation (their fields would need
recursive column splitting); :func:`get_columnar_plan` rejects them with
a typed :class:`~repro.errors.EncodeError`.

numpy is an optional acceleration throughout, detected once
(:data:`repro.pbio.types.numpy`): every path has a pure-Python fallback
producing byte-identical output (property-tested in
``tests/property/test_columnar_properties.py``), and it is the only
path on hosts without numpy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from repro.arch.model import TypeKind
from repro.errors import DecodeError, EncodeError
from repro.pbio import types as _types
from repro.pbio.codegen import _read_string
from repro.pbio.encode import _align_up, _char_buffer, _char_byte, scalar_code
from repro.pbio.format import CompiledField, IOFormat
from repro.pbio.types import DTYPE_CHARS

#: Batch payload prelude, always big-endian: record count, heap offset.
PRELUDE = struct.Struct(">II")

_OFFSET_CODE = "I"  # heap offsets are u32 in the sender's byte order
_OFFSET_SIZE = 4

#: numpy dtype chars for kinds :data:`DTYPE_CHARS` leaves out.  They are
#: raw-width reads; the python-side value conversion (``bool()``, enum
#: ints) is applied after, identically to the pure path.
_EXTRA_CHARS: dict[tuple[TypeKind, int], str] = {
    (TypeKind.BOOLEAN, 1): "u1",
    (TypeKind.BOOLEAN, 4): "u4",
    (TypeKind.ENUMERATION, 4): "u4",
    (TypeKind.ENUMERATION, 8): "u8",
}


def _dtype_char(kind: TypeKind | None, size: int) -> str | None:
    char = DTYPE_CHARS.get((kind, size))
    if char is None:
        char = _EXTRA_CHARS.get((kind, size))
    return char


@dataclass(frozen=True)
class Column:
    """One field's column in the batch layout."""

    field: CompiledField
    name: str
    #: scalar | char | bool | array | chararray | count | string | dynamic
    #: (scalar covers enumerations: like the per-record encoder, enum
    #: scalars pack/unpack raw).
    role: str
    code: str  # struct code of one column element, no byte-order prefix
    elem_size: int  # bytes of one column element
    per_row: int  # column elements per record
    alignment: int  # block alignment within the payload
    dtype_char: str | None  # numpy dtype char for the block, if numeric
    # dynamic-array columns only:
    length_field: str | None = None
    heap_elem_code: str = ""
    heap_elem_size: int = 0
    heap_elem_kind: TypeKind | None = None
    heap_alignment: int = 1
    heap_dtype_char: str | None = None
    # count columns only: names of the dynamic fields this one measures
    measures: tuple[str, ...] = ()

    @property
    def row_bytes(self) -> int:
        return self.elem_size * self.per_row


class ColumnarPlan:
    """A compiled columnar batch codec for one :class:`IOFormat`.

    Cached on the format instance by :func:`get_columnar_plan`, like the
    per-record :class:`~repro.pbio.encode.EncodePlan`.
    """

    def __init__(self, fmt: IOFormat) -> None:
        self.format = fmt
        self.arch = fmt.arch
        self.order = "<" if fmt.arch.is_little_endian else ">"
        measured: dict[str, list[str]] = {}
        for cfield in fmt.compiled_fields:
            if cfield.type.is_dynamic_array:
                measured.setdefault(cfield.type.length_field, []).append(
                    cfield.name
                )
        columns: list[Column] = []
        for cfield in fmt.compiled_fields:
            columns.append(self._compile_column(cfield, measured))
        self.columns = columns
        self.by_name = {column.name: column for column in columns}
        self._getters = {column.name: itemgetter(column.name) for column in columns}
        self._layouts: dict[int, tuple[list[int], int]] = {}
        #: columns whose block is decodable without other columns
        self.fixed_columns = [c for c in columns if c.role != "dynamic"]
        self.dynamic_columns = [c for c in columns if c.role == "dynamic"]
        self.var_columns = [c for c in columns if c.role in ("string", "dynamic")]

    def _compile_column(
        self, cfield: CompiledField, measured: dict[str, list[str]]
    ) -> Column:
        fmt = self.format
        context = f"format {fmt.name!r}: field {cfield.name!r}"
        if cfield.nested is not None:
            raise EncodeError(
                f"{context}: columnar batches do not support nested formats"
            )
        if cfield.type.is_dynamic_array:
            return Column(
                field=cfield,
                name=cfield.name,
                role="dynamic",
                code=_OFFSET_CODE,
                elem_size=_OFFSET_SIZE,
                per_row=1,
                alignment=4,
                dtype_char="u4",
                length_field=cfield.type.length_field,
                heap_elem_code=scalar_code(cfield.kind, cfield.size, context=context),
                heap_elem_size=cfield.size,
                heap_elem_kind=cfield.kind,
                heap_alignment=min(cfield.size, 8),
                heap_dtype_char=_dtype_char(cfield.kind, cfield.size),
            )
        if cfield.is_string:
            return Column(
                field=cfield,
                name=cfield.name,
                role="string",
                code=_OFFSET_CODE,
                elem_size=_OFFSET_SIZE,
                per_row=cfield.static_count,
                alignment=4,
                dtype_char="u4",
                heap_alignment=1,
            )
        if cfield.name in fmt.length_field_names:
            return Column(
                field=cfield,
                name=cfield.name,
                role="count",
                code=scalar_code(cfield.kind, cfield.size, context=context),
                elem_size=cfield.size,
                per_row=1,
                alignment=min(cfield.size, 8),
                dtype_char=_dtype_char(cfield.kind, cfield.size),
                measures=tuple(measured.get(cfield.name, ())),
            )
        if cfield.kind == TypeKind.CHAR:
            if cfield.type.is_static_array:
                return Column(
                    field=cfield,
                    name=cfield.name,
                    role="chararray",
                    code=f"{cfield.static_count}s",
                    elem_size=cfield.static_count,
                    per_row=1,
                    alignment=1,
                    dtype_char=None,
                )
            return Column(
                field=cfield,
                name=cfield.name,
                role="char",
                code="c",
                elem_size=1,
                per_row=1,
                alignment=1,
                dtype_char=None,
            )
        code = scalar_code(cfield.kind, cfield.size, context=context)
        if cfield.type.is_static_array:
            return Column(
                field=cfield,
                name=cfield.name,
                role="array",
                code=code,
                elem_size=cfield.size,
                per_row=cfield.static_count,
                alignment=min(cfield.size, 8),
                dtype_char=_dtype_char(cfield.kind, cfield.size),
            )
        role = "bool" if cfield.kind == TypeKind.BOOLEAN else "scalar"
        return Column(
            field=cfield,
            name=cfield.name,
            role=role,
            code=code,
            elem_size=cfield.size,
            per_row=1,
            alignment=min(cfield.size, 8),
            dtype_char=_dtype_char(cfield.kind, cfield.size),
        )

    # -- layout -------------------------------------------------------------

    def layout(self, count: int) -> tuple[list[int], int]:
        """Column block start offsets and the fixed-region end, for N rows."""
        cached = self._layouts.get(count)
        if cached is not None:
            return cached
        starts: list[int] = []
        cursor = PRELUDE.size
        for column in self.columns:
            cursor = _align_up(cursor, column.alignment)
            starts.append(cursor)
            cursor += count * column.row_bytes
        if len(self._layouts) < 4096:  # bounded: batch sizes repeat
            self._layouts[count] = (starts, cursor)
        return starts, cursor

    # -- encoding -----------------------------------------------------------

    def encode_parts(self, records) -> list[bytes]:
        """Render a batch payload as a list of buffer parts.

        The parts concatenate to the full payload; returning them
        separately lets the transports scatter-gather them onto the wire
        without a join copy.  Raises :class:`~repro.errors.EncodeError`
        for empty batches, missing fields, or count inconsistencies.
        """
        records = records if isinstance(records, (list, tuple)) else list(records)
        count = len(records)
        fmt_name = self.format.name
        if count == 0:
            raise EncodeError(
                f"format {fmt_name!r}: a columnar batch needs at least one record"
            )
        numpy = _types.numpy
        starts, fixed_end = self.layout(count)

        # Pass 1: derive (and cross-check) dynamic-array counts per row.
        dyn_counts: dict[str, list[int]] = {}
        for column in self.dynamic_columns:
            dyn_counts[column.name] = self._dynamic_counts(column, records)
        self._check_counts(records, dyn_counts)

        # Pass 2: lay out the heap and collect per-row offsets for every
        # variable column.  Rows pack contiguously within a column.
        heap_parts: list[bytes] = []
        offsets: dict[str, list[int]] = {}
        cursor = fixed_end
        for column in self.var_columns:
            aligned = _align_up(cursor, column.heap_alignment)
            if aligned != cursor:
                heap_parts.append(b"\x00" * (aligned - cursor))
                cursor = aligned
            if column.role == "string":
                cursor = self._render_string_heap(
                    column, records, heap_parts, offsets, cursor
                )
            else:
                cursor = self._render_dynamic_heap(
                    column, records, dyn_counts[column.name],
                    heap_parts, offsets, cursor, numpy,
                )

        # Pass 3: the fixed region — prelude plus one packed block per
        # column, with alignment padding between blocks.
        parts: list[bytes] = [PRELUDE.pack(count, fixed_end)]
        cursor = PRELUDE.size
        for column, start in zip(self.columns, starts):
            if start != cursor:
                parts.append(b"\x00" * (start - cursor))
                cursor = start
            block = self._render_block(
                column, records, dyn_counts, offsets, numpy
            )
            parts.append(block)
            cursor += len(block)
        parts.extend(heap_parts)
        return parts

    def encode(self, records) -> bytes:
        """The batch payload as one bytes object (joins the parts)."""
        return b"".join(self.encode_parts(records))

    def _field_value(self, record: dict, name: str, row: int):
        try:
            return record[name]
        except (KeyError, TypeError):
            raise EncodeError(
                f"format {self.format.name!r}: batch record {row} is missing "
                f"field {name!r}"
            ) from None

    def _column_values(self, records, name: str) -> list:
        """Every record's value for ``name``, in row order.

        The C-level ``map(itemgetter, ...)`` is the hot path; on any
        lookup failure the per-row fallback re-walks the records to
        name the offending row in the error.
        """
        try:
            return list(map(self._getters[name], records))
        except (KeyError, TypeError):
            return [
                self._field_value(record, name, row)
                for row, record in enumerate(records)
            ]

    def _dynamic_counts(self, column: Column, records) -> list[int]:
        values = self._column_values(records, column.name)
        try:
            return list(map(len, values))
        except TypeError:
            return [
                self._dynamic_count(column, record, row)
                for row, record in enumerate(records)
            ]

    def _dynamic_count(self, column: Column, record: dict, row: int) -> int:
        value = self._field_value(record, column.name, row)
        if value is None:
            return 0
        try:
            return len(value)
        except TypeError:
            raise EncodeError(
                f"format {self.format.name!r}: batch record {row} field "
                f"{column.name!r} expects a sequence, got {type(value).__name__}"
            ) from None

    def _check_counts(self, records, dyn_counts: dict[str, list[int]]) -> None:
        """Mirror the per-record encoder's count-field cross-checks."""
        for column in self.columns:
            if column.role != "count" or not column.measures:
                continue
            first = dyn_counts[column.measures[0]]
            for other in column.measures[1:]:
                lengths = dyn_counts[other]
                if lengths != first:
                    row = next(
                        i for i, (a, b) in enumerate(zip(first, lengths))
                        if a != b
                    )
                    raise EncodeError(
                        f"format {self.format.name!r}: batch record {row}: "
                        f"arrays sharing count field {column.name!r} have "
                        f"differing lengths "
                        f"{[dyn_counts[name][row] for name in column.measures]}"
                    )
            name = column.name
            explicits = [record.get(name) for record in records]
            if explicits == first:  # the common case, one C-level compare
                continue
            for row, (explicit, length) in enumerate(zip(explicits, first)):
                if explicit is not None and explicit != length:
                    raise EncodeError(
                        f"format {self.format.name!r}: batch record {row}: "
                        f"count field {name!r} is {explicit} but the "
                        f"array has {length} elements"
                    )

    def _render_string_heap(
        self, column, records, heap_parts, offsets, cursor
    ) -> int:
        if column.per_row == 1:
            values = self._column_values(records, column.name)
            try:
                bodies = [
                    b"" if value is None else value.encode("utf-8") + b"\x00"
                    for value in values
                ]
            except AttributeError:
                bodies = None  # a non-string value: take the slow path
            if bodies is not None:
                column_offsets = []
                append = column_offsets.append
                for body in bodies:
                    if body:
                        append(cursor)
                        cursor += len(body)
                    else:
                        append(0)
                heap_parts.append(b"".join(bodies))
                offsets[column.name] = column_offsets
                return cursor
        column_offsets = []
        fmt_name = self.format.name
        for row, record in enumerate(records):
            value = self._field_value(record, column.name, row)
            elements = [value] if column.per_row == 1 else value
            if column.per_row > 1:
                if not isinstance(value, (list, tuple)) or len(value) != column.per_row:
                    raise EncodeError(
                        f"format {fmt_name!r}: batch record {row} field "
                        f"{column.name!r} expects {column.per_row} strings"
                    )
                elements = value
            for element in elements:
                if element is None:
                    column_offsets.append(0)
                    continue
                if not isinstance(element, str):
                    raise EncodeError(
                        f"format {fmt_name!r}: batch record {row} field "
                        f"{column.name!r} expects a string, got "
                        f"{type(element).__name__}"
                    )
                body = element.encode("utf-8") + b"\x00"
                column_offsets.append(cursor)
                heap_parts.append(body)
                cursor += len(body)
        offsets[column.name] = column_offsets
        return cursor

    def _render_dynamic_heap(
        self, column, records, counts, heap_parts, offsets, cursor, numpy
    ) -> int:
        values = self._column_values(records, column.name)
        elem_size = column.heap_elem_size
        first = counts[0]
        if first and counts.count(first) == len(counts):
            # Uniform batch (the common bulk-stream shape): the offsets
            # are an arithmetic progression, built at C speed.
            row_bytes = first * elem_size
            stop = cursor + row_bytes * len(counts)
            column_offsets = list(range(cursor, stop, row_bytes))
            cursor = stop
            flat = values
        else:
            column_offsets = []
            append = column_offsets.append
            flat = []
            keep = flat.append
            for n, value in zip(counts, values):
                if n == 0:
                    append(0)
                    continue
                append(cursor)
                cursor += n * elem_size
                keep(value)
        offsets[column.name] = column_offsets
        if not flat:
            return cursor
        if (
            numpy is not None
            and column.heap_dtype_char is not None
            and (
                # Float conversion is bit-exact from Python floats and
                # ndarrays alike; integer columns take the vectorized
                # route only for ndarray rows (list ints must go through
                # struct.pack so out-of-range values raise, not wrap).
                column.heap_elem_kind == TypeKind.FLOAT
                or all(hasattr(value, "dtype") for value in flat)
            )
        ):
            dtype = numpy.dtype(self.order + column.heap_dtype_char)
            try:
                stacked = (
                    flat[0] if len(flat) == 1 else numpy.concatenate(flat)
                )
                converted = numpy.ascontiguousarray(stacked).astype(
                    dtype, copy=False
                )
                # The buffer rides the iovec as-is — no tobytes copy.
                block = memoryview(converted).cast("B")
            except (TypeError, ValueError):
                block = None  # non-numeric element: the scalar path
                # below raises the typed error naming the column
            if block is not None:
                heap_parts.append(block)
                return cursor
        if column.heap_elem_kind in (
            TypeKind.CHAR, TypeKind.BOOLEAN, TypeKind.ENUMERATION
        ):
            converted = [
                self._convert_element(column, element)
                for value in flat
                for element in value
            ]
        else:
            # Plain numerics need no per-element conversion: struct.pack
            # validates the types itself.
            converted = list(chain.from_iterable(flat))
        try:
            heap_parts.append(
                struct.pack(
                    f"{self.order}{len(converted)}{column.heap_elem_code}",
                    *converted,
                )
            )
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: bad element in batch column "
                f"{column.name!r}: {exc}"
            ) from exc
        return cursor

    def _convert_element(self, column: Column, value):
        """Element conversion matching ``EncodePlan._convert_scalar``."""
        kind = column.heap_elem_kind
        if kind == TypeKind.CHAR:
            try:
                return _char_byte(value)
            except (TypeError, ValueError):
                raise EncodeError(
                    f"format {self.format.name!r}: char element in batch column "
                    f"{column.name!r} expects a 1-character string"
                ) from None
        if kind == TypeKind.BOOLEAN:
            return 1 if value else 0
        if kind == TypeKind.ENUMERATION:
            return int(value)
        return value

    def _render_block(
        self, column, records, dyn_counts, offsets, numpy
    ) -> bytes:
        fmt_name = self.format.name
        role = column.role
        if role in ("string", "dynamic"):
            return self._pack_numeric(column, offsets[column.name], numpy)
        if role == "count":
            if column.measures:
                values = dyn_counts[column.measures[0]]
            else:
                values = [
                    int(record.get(column.name) or 0) for record in records
                ]
            return self._pack_numeric(column, values, numpy)
        if role == "char":
            rendered = []
            for row, record in enumerate(records):
                value = self._field_value(record, column.name, row)
                try:
                    rendered.append(_char_byte(value))
                except (TypeError, ValueError):
                    raise EncodeError(
                        f"format {fmt_name!r}: batch record {row} char field "
                        f"{column.name!r} expects a 1-character string"
                    ) from None
            return b"".join(rendered)
        if role == "chararray":
            rendered = []
            width = column.elem_size
            for row, record in enumerate(records):
                value = self._field_value(record, column.name, row)
                try:
                    raw = _char_buffer(value, width)
                except TypeError:
                    raise EncodeError(
                        f"format {fmt_name!r}: batch record {row} char array "
                        f"{column.name!r} expects str or bytes"
                    ) from None
                rendered.append(raw.ljust(width, b"\x00"))
            return b"".join(rendered)
        if role == "array":
            per = column.per_row
            flat: list = []
            extend = flat.extend
            for row, value in enumerate(
                self._column_values(records, column.name)
            ):
                try:
                    length = len(value)
                except TypeError:
                    raise EncodeError(
                        f"format {fmt_name!r}: batch record {row} field "
                        f"{column.name!r} expects a sequence of {per}"
                    ) from None
                if length != per:
                    raise EncodeError(
                        f"format {fmt_name!r}: batch record {row} field "
                        f"{column.name!r} expects exactly {per} "
                        f"elements, got {length}"
                    )
                extend(value)
            return self._pack_numeric(column, flat, numpy)
        # scalar (including enumerations) and bool
        values = self._column_values(records, column.name)
        if role == "bool":
            values = [1 if value else 0 for value in values]
        return self._pack_numeric(column, values, numpy)

    def _pack_numeric(self, column: Column, values, numpy) -> bytes:
        # ndarray input converts vectorized; plain Python lists go
        # through struct.pack, which is both faster at batch sizes and
        # stricter (out-of-range or mistyped values raise instead of
        # wrapping), matching the per-record encoder.
        if (
            numpy is not None
            and column.dtype_char is not None
            and hasattr(values, "dtype")
        ):
            try:
                return numpy.ascontiguousarray(values).astype(
                    numpy.dtype(self.order + column.dtype_char), copy=False
                ).tobytes()
            except (OverflowError, TypeError, ValueError) as exc:
                raise EncodeError(
                    f"format {self.format.name!r}: cannot pack batch column "
                    f"{column.name!r}: {exc}"
                ) from exc
        try:
            return struct.pack(
                f"{self.order}{len(values)}{column.code}", *values
            )
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: cannot pack batch column "
                f"{column.name!r}: {exc}"
            ) from exc

    # -- decoding -----------------------------------------------------------

    def parse_prelude(self, payload) -> tuple[int, int, list[int]]:
        """Validate a batch payload's prelude; returns (N, heap_off, starts).

        Raises :class:`~repro.errors.DecodeError` with batch context for
        truncated or inconsistent payloads, before any column is read.
        """
        fmt_name = self.format.name
        if len(payload) < PRELUDE.size:
            raise DecodeError(
                f"columnar batch for format {fmt_name!r}: payload of "
                f"{len(payload)} bytes is shorter than the prelude"
            )
        count, heap_off = PRELUDE.unpack_from(payload, 0)
        if count == 0:
            raise DecodeError(
                f"columnar batch for format {fmt_name!r}: record count is zero"
            )
        # Bound N before computing the layout: a corrupt count must not
        # trigger a giant allocation downstream.
        min_row = sum(column.row_bytes for column in self.columns)
        if min_row and count > len(payload) // min_row + 1:
            raise DecodeError(
                f"columnar batch for format {fmt_name!r}: record count "
                f"{count} is impossible for a {len(payload)}-byte payload"
            )
        starts, fixed_end = self.layout(count)
        if heap_off != fixed_end:
            raise DecodeError(
                f"columnar batch for format {fmt_name!r}: heap offset "
                f"{heap_off} does not match the {count}-record fixed region "
                f"({fixed_end} bytes)"
            )
        if fixed_end > len(payload):
            raise DecodeError(
                f"columnar batch for format {fmt_name!r}: {count}-record "
                f"fixed region ({fixed_end} bytes) exceeds the "
                f"{len(payload)}-byte payload"
            )
        return count, heap_off, starts

    def decode_records(self, payload) -> list[dict]:
        """Decode a batch payload back to N record dicts.

        Value representation matches the per-record converters field for
        field: NULL strings decode to ``None``, empty dynamic arrays to
        ``[]``, chars to 1-character strings, booleans to ``bool``.
        """
        numpy = _types.numpy
        count, heap_off, starts = self.parse_prelude(payload)
        columns: dict[str, list] = {}
        raw_counts: dict[str, tuple] = {}
        for column, start in zip(self.columns, starts):
            if column.role == "dynamic":
                continue
            values, raw = self._decode_fixed_column(
                column, payload, start, count, heap_off, numpy
            )
            columns[column.name] = values
            if column.role == "count":
                raw_counts[column.name] = raw
        for column, start in zip(self.columns, starts):
            if column.role != "dynamic":
                continue
            columns[column.name] = self._decode_dynamic_column(
                column, payload, start, count, heap_off, raw_counts, numpy
            )
        names = [column.name for column in self.columns]
        rows: list[dict] = [{} for _ in range(count)]
        for name in names:
            values = columns[name]
            for row, value in zip(rows, values):
                row[name] = value
        return rows

    def _raw_numeric(self, column, payload, start, total, numpy):
        """The column block as ``total`` raw numeric python values."""
        if numpy is not None and column.dtype_char is not None:
            return numpy.frombuffer(
                payload,
                dtype=numpy.dtype(self.order + column.dtype_char),
                count=total,
                offset=start,
            ).tolist()
        return struct.unpack_from(
            f"{self.order}{total}{column.code}", payload, start
        )

    def _decode_fixed_column(
        self, column, payload, start, count, heap_off, numpy
    ):
        fmt_name = self.format.name
        role = column.role
        try:
            if role in ("scalar", "count"):
                raw = self._raw_numeric(column, payload, start, count, numpy)
                return list(raw), raw
            if role == "bool":
                raw = self._raw_numeric(column, payload, start, count, numpy)
                return [bool(value) for value in raw], raw
            if role == "array":
                total = count * column.per_row
                raw = self._raw_numeric(column, payload, start, total, numpy)
                per = column.per_row
                return (
                    [list(raw[i * per:(i + 1) * per]) for i in range(count)],
                    raw,
                )
            if role == "char":
                block = bytes(payload[start:start + count])
                if len(block) != count:
                    raise ValueError("char column extends past the payload")
                return (
                    [block[i:i + 1].decode("latin-1") for i in range(count)],
                    block,
                )
            if role == "chararray":
                width = column.elem_size
                block = bytes(payload[start:start + count * width])
                if len(block) != count * width:
                    raise ValueError("char-array column extends past the payload")
                return (
                    [
                        block[i * width:(i + 1) * width]
                        .split(b"\x00", 1)[0]
                        .decode("utf-8")
                        for i in range(count)
                    ],
                    block,
                )
            # strings: offsets into the heap, 0 = NULL
            total = count * column.per_row
            raw = self._raw_numeric(column, payload, start, total, numpy)
            strings = [
                self._decode_string(column, payload, offset, heap_off)
                for offset in raw
            ]
            if column.per_row == 1:
                return strings, raw
            per = column.per_row
            return (
                [strings[i * per:(i + 1) * per] for i in range(count)],
                raw,
            )
        except (struct.error, ValueError, IndexError) as exc:
            raise DecodeError(
                f"columnar batch for format {fmt_name!r}: corrupt column "
                f"{column.name!r}: {exc}"
            ) from exc

    def _decode_string(self, column, payload, offset, heap_off):
        if offset == 0:
            return None
        if offset < heap_off or offset >= len(payload):
            raise ValueError(
                f"string offset {offset} outside the heap "
                f"[{heap_off}, {len(payload)})"
            )
        return _read_string(payload, offset)

    def _decode_dynamic_column(
        self, column, payload, start, count, heap_off, raw_counts, numpy
    ):
        fmt_name = self.format.name
        try:
            offsets = self._raw_numeric(column, payload, start, count, numpy)
            counts = raw_counts.get(column.length_field)
            if counts is None:
                raise ValueError(
                    f"count field {column.length_field!r} missing from the batch"
                )
            size = column.heap_elem_size
            limit = len(payload)
            for row in range(count):
                offset, n = offsets[row], counts[row]
                if offset == 0:
                    if n != 0:
                        raise ValueError(
                            f"row {row}: count {n} with a NULL heap offset"
                        )
                    continue
                if n < 0 or offset < heap_off or offset + n * size > limit:
                    raise ValueError(
                        f"row {row}: {n} element(s) at offset {offset} "
                        f"escape the heap [{heap_off}, {limit})"
                    )
            if numpy is not None and column.heap_dtype_char is not None:
                vectorized = self._split_contiguous(
                    column, payload, offsets, counts, numpy
                )
                if vectorized is not None:
                    return vectorized
            order = self.order
            code = column.heap_elem_code
            return [
                list(
                    struct.unpack_from(
                        f"{order}{counts[row]}{code}", payload, offsets[row]
                    )
                )
                if offsets[row]
                else []
                for row in range(count)
            ]
        except (struct.error, ValueError, IndexError) as exc:
            raise DecodeError(
                f"columnar batch for format {fmt_name!r}: corrupt column "
                f"{column.name!r}: {exc}"
            ) from exc

    def _split_contiguous(self, column, payload, offsets, counts, numpy):
        """One ``frombuffer`` + list splits when the rows pack contiguously
        (which this encoder always produces); None forces the row-by-row
        fallback for payloads from other writers."""
        size = column.heap_elem_size
        region_start = None
        cursor = None
        total = 0
        for offset, n in zip(offsets, counts):
            if offset == 0:
                continue
            if region_start is None:
                region_start = cursor = offset
            if offset != cursor:
                return None
            cursor += n * size
            total += n
        if region_start is None:
            return [[] for _ in offsets]
        flat = numpy.frombuffer(
            payload,
            dtype=numpy.dtype(self.order + column.heap_dtype_char),
            count=total,
            offset=region_start,
        ).tolist()
        rows: list[list] = []
        position = 0
        for offset, n in zip(offsets, counts):
            if offset == 0:
                rows.append([])
            else:
                rows.append(flat[position:position + n])
                position += n
        return rows


def get_columnar_plan(fmt: IOFormat) -> ColumnarPlan:
    """Return (building if necessary) the cached columnar plan for ``fmt``."""
    plan = getattr(fmt, "_columnar_plan", None)
    if plan is None:
        plan = ColumnarPlan(fmt)
        fmt._columnar_plan = plan  # type: ignore[attr-defined]
    return plan


class ColumnBatchView:
    """Lazy, column-oriented access to one batch payload.

    The receive-side analogue of :class:`~repro.pbio.RecordView` for
    batches: nothing is materialized up front.  :meth:`column` hands out
    a zero-copy read-only ``ndarray`` aliasing the payload (numpy
    required — the sender's byte order rides in the dtype);
    :meth:`row` materializes one record on demand; iterating the view
    (or :meth:`materialize`) yields all records via the batch decoder.
    The payload buffer must outlive the view and every array it hands
    out (PROTOCOL §12 ownership rules apply to batch frames too).
    """

    def __init__(self, fmt: IOFormat, payload) -> None:
        self.format = fmt
        self.plan = get_columnar_plan(fmt)
        self._payload = payload
        count, heap_off, starts = self.plan.parse_prelude(payload)
        self._count = count
        self._heap_off = heap_off
        self._starts = dict(zip((c.name for c in self.plan.columns), starts))
        self._records: list[dict] | None = None

    @staticmethod
    def _require_numpy():
        """numpy, or the typed error column access raises without it."""
        numpy = _types.numpy
        if numpy is None:
            raise DecodeError(
                "column access needs numpy, which is not installed; "
                "use row access instead"
            )
        return numpy

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        """Records in the batch."""
        return self._count

    def column(self, name: str):
        """A zero-copy ``ndarray`` over a fixed-width numeric column.

        Shape is ``(N,)`` for scalars and ``(N, k)`` for static arrays;
        string and dynamic-array columns yield their u32 heap-offset
        blocks (use :meth:`strings` / :meth:`dynamic_column` for
        values).  Raises :class:`~repro.errors.DecodeError` for char
        columns (no numeric dtype) or when numpy is unavailable.
        """
        numpy = self._require_numpy()
        column = self._column(name)
        if column.dtype_char is None:
            raise DecodeError(
                f"column {name!r} of format {self.format.name!r} has no "
                f"numeric dtype; use row access instead"
            )
        array = numpy.frombuffer(
            self._payload,
            dtype=numpy.dtype(self.plan.order + column.dtype_char),
            count=self._count * column.per_row,
            offset=self._starts[name],
        )
        if column.per_row > 1:
            array = array.reshape(self._count, column.per_row)
        return array

    def strings(self, name: str) -> list:
        """All values of a string column (``None`` for NULL offsets)."""
        column = self._column(name)
        if column.role != "string":
            raise DecodeError(
                f"column {name!r} of format {self.format.name!r} is not a "
                f"string column"
            )
        values, _ = self.plan._decode_fixed_column(
            column, self._payload, self._starts[name], self._count,
            self._heap_off, None,
        )
        return values

    def dynamic_column(self, name: str):
        """(flat values ndarray, counts ndarray) for a dynamic-array column.

        Zero-copy over the column's packed heap region; requires numpy
        and a contiguously packed column (always true for batches this
        codec encoded).  Raises :class:`~repro.errors.DecodeError`
        otherwise.
        """
        numpy = self._require_numpy()
        column = self._column(name)
        if column.role != "dynamic":
            raise DecodeError(
                f"column {name!r} of format {self.format.name!r} is not a "
                f"dynamic-array column"
            )
        counts = self.column(column.length_field)
        offsets = self.column(name)
        total = int(counts.sum())
        size = column.heap_elem_size
        nonzero = offsets[offsets != 0]
        if len(nonzero) == 0:
            return (
                numpy.empty(
                    0, dtype=numpy.dtype(self.plan.order + column.heap_dtype_char)
                ),
                counts,
            )
        region_start = int(nonzero[0])
        if region_start + total * size > len(self._payload):
            raise DecodeError(
                f"columnar batch for format {self.format.name!r}: column "
                f"{name!r} heap region escapes the payload"
            )
        expected = region_start + numpy.concatenate(
            ([0], numpy.cumsum(counts.astype(numpy.int64)) * size)
        )[:-1]
        if not numpy.array_equal(
            offsets.astype(numpy.int64)[counts != 0], expected[counts != 0]
        ):
            raise DecodeError(
                f"columnar batch for format {self.format.name!r}: column "
                f"{name!r} is not contiguously packed; use row access"
            )
        flat = numpy.frombuffer(
            self._payload,
            dtype=numpy.dtype(self.plan.order + column.heap_dtype_char),
            count=total,
            offset=region_start,
        )
        return flat, counts

    def row(self, index: int) -> dict:
        """Materialize one record (lazily decodes the whole batch once)."""
        if not -self._count <= index < self._count:
            raise IndexError(index)
        return self.materialize()[index]

    def materialize(self) -> list[dict]:
        """All records, decoded once and cached on the view."""
        if self._records is None:
            self._records = self.plan.decode_records(self._payload)
        return self._records

    def __iter__(self):
        return iter(self.materialize())

    def __getitem__(self, index: int) -> dict:
        return self.row(index)

    def _column(self, name: str) -> Column:
        try:
            return self.plan.by_name[name]
        except KeyError:
            raise DecodeError(
                f"format {self.format.name!r} has no column {name!r}"
            ) from None
