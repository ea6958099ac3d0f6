"""Lazy record views: field access straight out of the wire buffer.

In C, PBIO's homogeneous receive path hands the application a pointer
*into the receive buffer* — no conversion, no copy, fields read in
place.  :class:`RecordView` is the Python analogue: a mapping over an
NDR payload that unpacks a field only when it is accessed, and unpacks
it directly from the buffer with the offsets and codes of the wire
format's encode plan.  :meth:`RecordView.array` goes one step further
for bulk numeric arrays — the paper's "scientific or engineering data":
the wire holds the sender's native array bytes, so numpy can alias them
in place, whatever the sender's byte order.

This matters for the paper's selective-consumer workloads (a display
point that reads two fields of a forty-field record): the eager
converter pays for every field; the view pays only for what is touched.
Views work for *any* wire architecture — access still byte-swaps when
needed — but shine when the consumer touches a small subset.

Views are read-only and valid as long as the underlying buffer is.  Use
:meth:`RecordView.materialize` to get an ordinary dict (equivalent to
the eager converter's output).
"""

from __future__ import annotations

import struct
from typing import Iterator, Mapping

from repro.errors import DecodeError
from repro.pbio import types as _types
from repro.pbio.codegen import _read_string
from repro.pbio.encode import _FixedLeaf, get_encode_plan
from repro.pbio.format import CompiledField, IOFormat
from repro.pbio.types import DTYPE_CHARS


class RecordView(Mapping):
    """A lazy, read-only mapping over one NDR payload."""

    __slots__ = ("_payload", "_format", "_plan", "_base", "_cache")

    def __init__(self, fmt: IOFormat, payload, *, base: int = 0) -> None:
        """``payload`` may be ``bytes``, ``bytearray``, or ``memoryview``.

        A view payload is read in place (zero-copy) and must stay valid
        — i.e. the channel buffer it aliases must not be overwritten by
        another ``recv`` — for the life of this record view
        (PROTOCOL §12).
        """
        if len(payload) < base + fmt.record_length:
            raise DecodeError(
                f"payload too short for a {fmt.name!r} view "
                f"({len(payload)} bytes, need {base + fmt.record_length})"
            )
        self._payload = payload
        self._format = fmt
        self._plan = get_encode_plan(fmt)
        self._base = base
        self._cache: dict[str, object] = {}

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, name: str):
        if name in self._cache:
            return self._cache[name]
        field = self._format.field(name)  # raises for unknown names
        try:
            value = self._read_field(field)
        except (struct.error, ValueError, IndexError) as exc:
            # A forged count or pointer must not leak struct.error.
            raise DecodeError(
                f"corrupt payload for format {self._format.name!r}: "
                f"field {name!r}: {exc}"
            ) from exc
        self._cache[name] = value
        return value

    def __iter__(self) -> Iterator[str]:
        return iter(self._format.field_names())

    def __len__(self) -> int:
        return len(self._format.fields)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._format.field_names()

    # -- value extraction ------------------------------------------------------

    def _unpack(self, leaf: _FixedLeaf) -> tuple:
        """The leaf's raw value(s), read with the plan's offset and code."""
        return struct.unpack_from(
            self._plan.order + leaf.code, self._payload, self._base + leaf.offset
        )

    def _read_field(self, field: CompiledField):
        leaves = self._plan.leaf_by_path
        path = (field.name,)
        if field.nested is not None:
            offset = self._base + field.offset
            stride = field.nested.record_length
            views = [
                RecordView(field.nested, self._payload, base=offset + i * stride)
                for i in range(field.static_count)
            ]
            return views[0] if field.static_count == 1 else views
        if field.is_string:
            if field.static_count == 1:
                return _read_string(self._payload, self._unpack(leaves[path])[0])
            return [
                _read_string(self._payload, self._unpack(leaves[path + (str(i),)])[0])
                for i in range(field.static_count)
            ]
        leaf = leaves[path]
        values = self._unpack(leaf)
        if leaf.role == "array":
            return list(values)
        (value,) = values
        if leaf.role == "dyn_ptr":
            if not value:
                return []
            (count,) = self._unpack(leaves[(field.type.length_field,)])
            code = self._plan.var_by_path[path].element_code
            return list(
                struct.unpack_from(
                    f"{self._plan.order}{count}{code}", self._payload, value
                )
            )
        if leaf.role == "chararray":
            return value.split(b"\x00", 1)[0].decode("utf-8")
        if leaf.role == "char":
            return value.decode("latin-1")
        if leaf.role == "bool":
            return bool(value)
        return value  # scalar or count

    def array(self, name: str):
        """A zero-copy, read-only ``ndarray`` over a numeric array field.

        Works for static arrays (in the base record) and dynamic arrays
        (via the pointer and count fields).  The array aliases the
        payload and keeps the sender's byte order in its dtype — numpy
        converts lazily per access, or once with ``astype``.  Raises
        :class:`~repro.errors.DecodeError` when the field is not a bulk
        numeric array, when it extends past the payload, or when numpy
        is not installed.
        """
        numpy = _types.numpy
        if numpy is None:
            raise DecodeError("RecordView.array needs numpy, which is not installed")
        field = self._format.field(name)
        leaf = self._plan.leaf_by_path.get((name,))
        char = DTYPE_CHARS.get((field.kind, field.size))
        if leaf is None or leaf.role not in ("array", "dyn_ptr") or char is None:
            raise DecodeError(f"field {name!r} is not a bulk numeric array")
        dtype = numpy.dtype(self._plan.order + char)
        try:
            if leaf.role == "array":
                count, offset = leaf.count, self._base + leaf.offset
            else:
                (offset,) = self._unpack(leaf)
                if offset == 0:
                    return numpy.empty(0, dtype=dtype)
                (count,) = self._unpack(
                    self._plan.leaf_by_path[(field.type.length_field,)]
                )
                if count < 0 or offset + count * field.size > len(self._payload):
                    raise ValueError("the array extends past the payload")
            array = numpy.frombuffer(
                self._payload, dtype=dtype, count=count, offset=offset
            )
        except (struct.error, ValueError) as exc:
            raise DecodeError(
                f"corrupt payload for format {self._format.name!r}: "
                f"field {name!r}: {exc}"
            ) from exc
        array.flags.writeable = False
        return array

    # -- conveniences ---------------------------------------------------------------

    def materialize(self) -> dict:
        """Read every field into an ordinary dict (recursively)."""
        result = {}
        for name in self:
            value = self[name]
            if isinstance(value, RecordView):
                value = value.materialize()
            elif isinstance(value, list) and value and isinstance(value[0], RecordView):
                value = [item.materialize() for item in value]
            result[name] = value
        return result

    @property
    def format(self) -> IOFormat:
        return self._format

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RecordView of {self._format.name!r}, {len(self)} fields>"


def view_message(fmt: IOFormat, message) -> RecordView:
    """View a framed data message (header + payload) without copying.

    Validates the header's format id against ``fmt``.  The message is
    wrapped in a ``memoryview`` so slicing off the header copies nothing
    regardless of the input type; the returned record view reads fields
    in place from the caller's buffer.
    """
    from repro.pbio.context import HEADER_SIZE, KIND_DATA, IOContext

    kind, _, _, length, format_id = IOContext.parse_header(message)
    if kind != KIND_DATA:
        raise DecodeError("can only view data messages")
    if format_id != fmt.format_id:
        raise DecodeError(
            f"message carries format {format_id.hex()}, not "
            f"{fmt.name!r} ({fmt.format_id.hex()})"
        )
    view = memoryview(message) if not isinstance(message, memoryview) else message
    return RecordView(fmt, view[HEADER_SIZE : HEADER_SIZE + length])
