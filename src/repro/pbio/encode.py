"""NDR encoding: records to wire payloads in the sender's native layout.

The payload produced for a record is:

.. code-block:: text

    [ base record: record_length bytes, the struct exactly as it would  ]
    [ sit in the sender's memory, with pointer slots holding offsets    ]
    [ variable section: string bodies and dynamic-array bodies,         ]
    [ each aligned, in field order                                      ]

Pointer slots hold byte offsets *from the start of the payload* (offset 0
would fall inside the base record, so 0 is reserved for NULL).  This is
PBIO's trick for making native data position-independent: on the sender
the "copy" from memory is the encode, on a homogeneous receiver the
payload can be used in place.

Encoding is driven by a precompiled :class:`EncodePlan`: one
:class:`struct.Struct` whose format string covers the entire fixed region
(pad bytes standing in for compiler padding), plus an ordered list of
variable-section items.  Compiling the plan once per format and packing
the whole base record in a single call is the sender-side analogue of
PBIO's "move data directly out of memory" — per-field interpretation is
paid once per format (by the first call that encodes or decodes it; see
:func:`get_encode_plan` and :func:`get_generated_encoder`), not per
message.  Registration builds metadata only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from time import perf_counter

from repro.arch.model import TypeKind
from repro.errors import EncodeError
from repro.obs import metrics as _metrics
from repro.obs.instr import SAMPLE_MASK, pbio_handles, timed_codegen
from repro.pbio import types as _types
from repro.pbio.format import IOFormat
from repro.pbio.types import DTYPE_CHARS


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


#: (kind, size) -> struct code, byte-order-free.
_CODES: dict[tuple[TypeKind, int], str] = {
    (TypeKind.SIGNED_INT, 1): "b",
    (TypeKind.SIGNED_INT, 2): "h",
    (TypeKind.SIGNED_INT, 4): "i",
    (TypeKind.SIGNED_INT, 8): "q",
    (TypeKind.UNSIGNED_INT, 1): "B",
    (TypeKind.UNSIGNED_INT, 2): "H",
    (TypeKind.UNSIGNED_INT, 4): "I",
    (TypeKind.UNSIGNED_INT, 8): "Q",
    (TypeKind.FLOAT, 4): "f",
    (TypeKind.FLOAT, 8): "d",
    (TypeKind.BOOLEAN, 1): "B",
    (TypeKind.BOOLEAN, 4): "I",
    (TypeKind.ENUMERATION, 4): "I",
    (TypeKind.ENUMERATION, 8): "Q",
    (TypeKind.CHAR, 1): "c",
}


def ndarray_wire_bytes(array, dtype_str: str) -> bytes:
    """Vectorized wire bytes for a numpy array (one conversion/copy).

    ``dtype_str`` is the wire dtype (byte order included).  Only reached
    for values that carry a ``dtype``, so numpy is necessarily present.
    """
    numpy = _types.numpy
    return numpy.asarray(array).astype(numpy.dtype(dtype_str), copy=False).tobytes()


def _char_byte(value) -> bytes:
    """One ``char`` as one byte; ``TypeError`` for anything but str/int/bytes.

    The single coercion behind the plan, the generated encoders and the
    columnar encoder; each caller adds its own field/row context.
    """
    if isinstance(value, str):
        return value.encode("utf-8")[:1] or b"\x00"
    if isinstance(value, int):
        return bytes([value])
    if isinstance(value, bytes):
        return value[:1] or b"\x00"
    raise TypeError(f"cannot encode {value!r} as a char")


def _char_buffer(value, count: int) -> bytes:
    """A fixed ``char[count]`` buffer's bytes (unpadded); ``TypeError`` otherwise."""
    if isinstance(value, str):
        return value.encode("utf-8")[:count]
    if isinstance(value, bytes):
        return value[:count]
    raise TypeError(f"cannot encode {value!r} as a char buffer")


def scalar_code(kind: TypeKind, size: int, *, context: str) -> str:
    """The struct-module code for a scalar, without byte-order prefix."""
    try:
        return _CODES[(kind, size)]
    except KeyError:
        raise EncodeError(
            f"{context}: no wire representation for {kind.value} of {size} bytes"
        ) from None


@dataclass
class _FixedLeaf:
    """One slot (or contiguous array of slots) in the base record.

    ``path`` addresses the value inside the (possibly nested) record
    dict; ``role`` selects the value extraction strategy.
    """

    path: tuple[str, ...]
    offset: int
    code: str  # struct code(s) for this leaf, no prefix
    role: str  # scalar | char | bool | array | chararray | string_ptr | dyn_ptr | count
    count: int = 1
    # for role == "count": paths of the arrays this field measures
    measures: tuple[tuple[str, ...], ...] = ()
    #: first index of this leaf's value(s) in the unpacked fixed tuple
    position: int = 0


@dataclass
class _VarItem:
    """One variable-section item: a string or a dynamic array."""

    path: tuple[str, ...]
    kind: str  # "string" | "array"
    element_code: str = ""
    element_size: int = 0
    element_kind: TypeKind | None = None
    alignment: int = 4
    #: unpack positions of the item's pointer slot and, for arrays, of
    #: the count field that measures it
    pointer_position: int = 0
    count_position: int = 0


class EncodePlan:
    """The lowered wire plan of one :class:`IOFormat`.

    ``leaves`` (role, offset, struct code, unpack position — in offset
    order) and ``var_items`` (strings and dynamic arrays with their
    pointer/count positions) are the single description of the wire
    layout: the plan-walking encoder below, the generated encoders and
    converters, the reference decoder and :class:`~repro.pbio.RecordView`
    all read it.  Plans are cached on the format instance by
    :func:`get_encode_plan`, which the first generator to need one calls;
    building one walks the format tree once.
    """

    def __init__(self, fmt: IOFormat) -> None:
        self.format = fmt
        self.arch = fmt.arch
        self.order = "<" if fmt.arch.is_little_endian else ">"
        leaves: list[_FixedLeaf] = []
        var_items: list[_VarItem] = []
        self._flatten(fmt, 0, (), leaves, var_items)
        leaves.sort(key=lambda leaf: leaf.offset)
        cursor = 0
        count_positions: dict[tuple[str, ...], int] = {}
        for leaf in leaves:
            leaf.position = cursor
            cursor += leaf.count if leaf.role == "array" else 1
            for measured in leaf.measures:
                count_positions[measured] = leaf.position
        self.leaves = leaves
        self.leaf_by_path = {leaf.path: leaf for leaf in leaves}
        for item in var_items:
            item.pointer_position = self.leaf_by_path[item.path].position
            item.count_position = count_positions.get(item.path, 0)
        self.var_items = var_items
        self.var_by_path = {item.path: item for item in var_items}
        self.fixed_struct = struct.Struct(self._build_format_string(leaves))

    # -- plan construction --------------------------------------------------

    def _flatten(
        self,
        fmt: IOFormat,
        base: int,
        prefix: tuple[str, ...],
        leaves: list[_FixedLeaf],
        var_items: list[_VarItem],
    ) -> None:
        # Map length-field name -> measured array paths, per instance.
        measured: dict[str, list[tuple[str, ...]]] = {}
        for field in fmt.compiled_fields:
            if field.type.is_dynamic_array:
                measured.setdefault(field.type.length_field, []).append(
                    prefix + (field.name,)
                )
        for field in fmt.compiled_fields:
            path = prefix + (field.name,)
            offset = base + field.offset
            if field.nested is not None:
                stride = field.nested.record_length
                for index in range(field.static_count):
                    element_path = path if field.static_count == 1 else path + (str(index),)
                    self._flatten(
                        field.nested, offset + index * stride, element_path,
                        leaves, var_items,
                    )
                continue
            if field.type.is_dynamic_array:
                code = self.arch.struct_code(TypeKind.POINTER, self.arch.pointer_size)[1:]
                leaves.append(_FixedLeaf(path, offset, code, "dyn_ptr"))
                var_items.append(
                    _VarItem(
                        path=path,
                        kind="array",
                        element_code=scalar_code(
                            field.kind, field.size, context=f"field {field.name}"
                        ),
                        element_size=field.size,
                        element_kind=field.kind,
                        alignment=min(field.size, 8),
                    )
                )
                continue
            if field.is_string:
                code = self.arch.struct_code(TypeKind.POINTER, self.arch.pointer_size)[1:]
                for index in range(field.static_count):
                    element_path = path if field.static_count == 1 else path + (str(index),)
                    leaves.append(
                        _FixedLeaf(
                            element_path,
                            offset + index * self.arch.pointer_size,
                            code,
                            "string_ptr",
                        )
                    )
                    var_items.append(
                        _VarItem(path=element_path, kind="string", alignment=4)
                    )
                continue
            # Primitive scalar or static primitive array.
            role = "scalar"
            if field.kind == TypeKind.CHAR:
                role = "char"
            elif field.kind == TypeKind.BOOLEAN:
                role = "bool"
            if field.name in fmt.length_field_names:
                leaves.append(
                    _FixedLeaf(
                        path,
                        offset,
                        scalar_code(field.kind, field.size, context=f"field {field.name}"),
                        "count",
                        measures=tuple(measured.get(field.name, ())),
                    )
                )
                continue
            if field.type.is_static_array:
                if field.kind == TypeKind.CHAR:
                    leaves.append(
                        _FixedLeaf(
                            path, offset, f"{field.static_count}s", "chararray",
                            count=field.static_count,
                        )
                    )
                else:
                    code = scalar_code(
                        field.kind, field.size, context=f"field {field.name}"
                    )
                    leaves.append(
                        _FixedLeaf(
                            path, offset, code * field.static_count, "array",
                            count=field.static_count,
                        )
                    )
                continue
            leaves.append(
                _FixedLeaf(
                    path,
                    offset,
                    scalar_code(field.kind, field.size, context=f"field {field.name}"),
                    role,
                )
            )

    def _build_format_string(self, leaves: list[_FixedLeaf]) -> str:
        prefix = self.order
        parts = [prefix]
        cursor = 0
        for leaf in leaves:
            if leaf.offset < cursor:
                raise EncodeError(
                    f"format {self.format.name!r}: overlapping fields at offset "
                    f"{leaf.offset} (field path {'.'.join(leaf.path)})"
                )
            if leaf.offset > cursor:
                parts.append(f"{leaf.offset - cursor}x")
            parts.append(leaf.code)
            cursor = leaf.offset + struct.calcsize(prefix + leaf.code)
        if cursor > self.format.record_length:
            raise EncodeError(
                f"format {self.format.name!r}: fields extend past record length"
            )
        if cursor < self.format.record_length:
            parts.append(f"{self.format.record_length - cursor}x")
        return "".join(parts)

    # -- encoding -------------------------------------------------------------

    def _layout_var(self, record: dict) -> tuple[dict, list[bytes], int]:
        """Render the variable section for ``record``.

        Returns each item's pointer value (0 = NULL) by path, the aligned
        parts that follow the base record, and the total payload size.
        """
        pointer_values: dict[tuple[str, ...], int] = {}
        var_parts: list[bytes] = []
        cursor = self.format.record_length
        for item in self.var_items:
            data, is_null = self._render_var_item(item, record)
            if is_null:
                pointer_values[item.path] = 0
                continue
            aligned = _align_up(cursor, item.alignment)
            if aligned != cursor:
                var_parts.append(b"\x00" * (aligned - cursor))
                cursor = aligned
            pointer_values[item.path] = cursor
            var_parts.append(data)
            cursor += len(data)
        return pointer_values, var_parts, cursor

    def _fixed_values(self, record: dict, pointer_values: dict) -> list:
        return [
            value
            for leaf in self.leaves
            for value in self._leaf_value(leaf, record, pointer_values)
        ]

    def encode(self, record: dict) -> bytes:
        """Encode ``record`` to an NDR payload.

        Raises :class:`~repro.errors.EncodeError` for missing fields,
        type mismatches, or count-field inconsistencies.
        """
        pointer_values, var_parts, _ = self._layout_var(record)
        try:
            fixed = self.fixed_struct.pack(*self._fixed_values(record, pointer_values))
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: cannot pack record: {exc}"
            ) from exc
        return fixed + b"".join(var_parts)

    def encode_into(self, record: dict, buffer, offset: int = 0) -> int:
        """Encode ``record`` into ``buffer`` at ``offset``; returns length.

        Byte-identical output to :meth:`encode`, written in place with
        ``pack_into`` on a caller-supplied writable buffer (typically a
        pooled ``bytearray`` — see :mod:`repro.wire.bufpool`), so the
        steady-state sender allocates no payload bytes.

        If the buffer cannot hold the payload an
        :class:`~repro.errors.EncodeError` is raised *before anything is
        written*, carrying the required size as its ``needed`` attribute
        so callers can re-acquire and retry.
        """
        pointer_values, var_parts, total = self._layout_var(record)
        if len(buffer) - offset < total:
            error = EncodeError(
                f"format {self.format.name!r}: buffer has "
                f"{len(buffer) - offset} bytes free, payload needs {total}"
            )
            error.needed = total  # type: ignore[attr-defined]
            raise error
        try:
            self.fixed_struct.pack_into(
                buffer, offset, *self._fixed_values(record, pointer_values)
            )
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: cannot pack record: {exc}"
            ) from exc
        position = offset + self.format.record_length
        # A memoryview assignment is a straight memcpy; bytearray slice
        # assignment would materialize a temporary copy of each part.
        target = memoryview(buffer)
        for part in var_parts:
            end = position + len(part)
            target[position:end] = part
            position = end
        return total

    def encoded_size(self, record: dict) -> int:
        """Size in bytes of the payload :meth:`encode` would produce."""
        return len(self.encode(record))

    # -- value extraction -------------------------------------------------------

    def _lookup(self, record: dict, path: tuple[str, ...]):
        value = record
        for part in path:
            if isinstance(value, dict):
                if part not in value:
                    raise EncodeError(
                        f"format {self.format.name!r}: record is missing field "
                        f"{'.'.join(path)!r}"
                    )
                value = value[part]
            elif isinstance(value, (list, tuple)) and part.isdigit():
                index = int(part)
                if index >= len(value):
                    raise EncodeError(
                        f"format {self.format.name!r}: array for "
                        f"{'.'.join(path)!r} is too short"
                    )
                value = value[index]
            else:
                raise EncodeError(
                    f"format {self.format.name!r}: expected a dict/list at "
                    f"{'.'.join(path)!r}"
                )
        return value

    def _render_var_item(self, item: _VarItem, record: dict) -> tuple[bytes, bool]:
        value = self._lookup(record, item.path)
        if item.kind == "string":
            if value is None:
                return b"", True
            if not isinstance(value, str):
                raise EncodeError(
                    f"format {self.format.name!r}: field {'.'.join(item.path)!r} "
                    f"expects a string, got {type(value).__name__}"
                )
            return value.encode("utf-8") + b"\x00", False
        # Dynamic array.
        if value is None or (hasattr(value, "__len__") and len(value) == 0):
            return b"", True
        try:
            count = len(value)
        except TypeError:
            raise EncodeError(
                f"format {self.format.name!r}: field {'.'.join(item.path)!r} "
                f"expects a sequence, got {type(value).__name__}"
            ) from None
        order = self.order
        if hasattr(value, "dtype"):
            # numpy fast path: one vectorized conversion, no per-element
            # Python work (the bulk scientific-data case).
            char = DTYPE_CHARS.get((item.element_kind, item.element_size))
            if char is not None:
                return ndarray_wire_bytes(value, order + char), False
        converted = [self._convert_scalar(item.element_kind, v, item.path) for v in value]
        try:
            return struct.pack(f"{order}{count}{item.element_code}", *converted), False
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: bad element in "
                f"{'.'.join(item.path)!r}: {exc}"
            ) from exc

    def _convert_scalar(self, kind: TypeKind | None, value, path: tuple[str, ...]):
        if kind == TypeKind.CHAR:
            try:
                return _char_byte(value)
            except (TypeError, ValueError):
                raise EncodeError(
                    f"format {self.format.name!r}: char field {'.'.join(path)!r} "
                    f"expects a 1-character string"
                ) from None
        if kind == TypeKind.BOOLEAN:
            return 1 if value else 0
        if kind == TypeKind.ENUMERATION:
            return int(value)
        return value

    def _leaf_value(
        self,
        leaf: _FixedLeaf,
        record: dict,
        pointers: dict[tuple[str, ...], int],
    ) -> tuple:
        if leaf.role in ("string_ptr", "dyn_ptr"):
            return (pointers[leaf.path],)
        if leaf.role == "count":
            return (self._count_value(leaf, record),)
        value = self._lookup(record, leaf.path)
        if leaf.role == "scalar":
            return (value,)
        if leaf.role == "char":
            return (self._convert_scalar(TypeKind.CHAR, value, leaf.path),)
        if leaf.role == "bool":
            return (1 if value else 0,)
        if leaf.role == "chararray":
            try:
                return (_char_buffer(value, leaf.count),)
            except TypeError:
                raise EncodeError(
                    f"format {self.format.name!r}: char array "
                    f"{'.'.join(leaf.path)!r} expects str or bytes"
                ) from None
        # role == "array": a static primitive array.
        if not isinstance(value, (list, tuple)):
            raise EncodeError(
                f"format {self.format.name!r}: field {'.'.join(leaf.path)!r} "
                f"expects a sequence of {leaf.count}"
            )
        if len(value) != leaf.count:
            raise EncodeError(
                f"format {self.format.name!r}: field {'.'.join(leaf.path)!r} "
                f"expects exactly {leaf.count} elements, got {len(value)}"
            )
        return tuple(value)

    def _count_value(self, leaf: _FixedLeaf, record: dict) -> int:
        """Derive (and cross-check) a dynamic-array count field's value."""
        lengths = []
        for array_path in leaf.measures:
            value = self._lookup(record, array_path)
            lengths.append(0 if value is None else len(value))
        explicit = None
        try:
            explicit = self._lookup(record, leaf.path)
        except EncodeError:
            pass  # counts may be omitted from records; they are derived
        if lengths and len(set(lengths)) > 1:
            raise EncodeError(
                f"format {self.format.name!r}: arrays sharing count field "
                f"{'.'.join(leaf.path)!r} have differing lengths {lengths}"
            )
        derived = lengths[0] if lengths else 0
        if explicit is not None and lengths and explicit != derived:
            raise EncodeError(
                f"format {self.format.name!r}: count field "
                f"{'.'.join(leaf.path)!r} is {explicit} but the array has "
                f"{derived} elements"
            )
        if not lengths:
            return int(explicit or 0)
        return derived


def get_encode_plan(fmt: IOFormat) -> EncodePlan:
    """Return (building if necessary) the cached plan for ``fmt``."""
    plan = getattr(fmt, "_encode_plan", None)
    if plan is None:
        plan = EncodePlan(fmt)
        fmt._encode_plan = plan  # type: ignore[attr-defined]
    return plan


def get_generated_encoder(fmt: IOFormat, *, into: bool = False):
    """Return (building if necessary) the cached generated encoder.

    The encoder is the sender-side analogue of the generated converter:
    specialized Python source compiled at first use (see
    :mod:`repro.pbio.codegen`) — registration does not call this, the
    first ``encode`` / ``encode_into`` does, and calling it yourself
    after registration is how to pre-warm.  It produces byte-identical output to
    :meth:`EncodePlan.encode` — or, with ``into=True``, to
    :meth:`EncodePlan.encode_into`, capacity :class:`EncodeError`
    carrying ``.needed`` included — and raises the same errors (by
    falling back to the plan for diagnostics).
    """
    attribute = "_generated_encode_into" if into else "_generated_encoder"
    encoder = getattr(fmt, attribute, None)
    if encoder is None:
        from repro.pbio.codegen import make_generated_encoder

        encoder = timed_codegen(
            "encode_into" if into else "encoder", make_generated_encoder, fmt, into=into
        )
        setattr(fmt, attribute, encoder)
    return encoder


# Shared sampling tick for encode-duration observations; racy updates
# only jitter the sampling phase, never the exact operation counters.
_encode_tick = [0]


def encode_record(fmt: IOFormat, record: dict) -> bytes:
    """Encode ``record`` per ``fmt`` with the generated encoder."""
    encoder = get_generated_encoder(fmt)
    # Read the default-registry global directly: the function call that
    # get_registry() costs is measurable inside the <5 % overhead budget.
    registry = _metrics._default_registry
    if not registry.enabled:
        return encoder(record)
    # Inline fast path of pbio_handles: one getattr, no call.
    handles = getattr(fmt, "_obs_pbio", None)
    if handles is None or handles.registry is not registry:
        handles = pbio_handles(fmt, registry)
    _encode_tick[0] += 1
    if _encode_tick[0] & SAMPLE_MASK:
        payload = encoder(record)
        handles.encode_inc()
        return payload
    started = perf_counter()
    payload = encoder(record)
    handles.encode_observe(perf_counter() - started)
    handles.encode_inc()
    return payload
