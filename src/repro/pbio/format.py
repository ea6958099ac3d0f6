"""Registered formats and their wire metadata representation.

An :class:`IOFormat` binds a set of :class:`~repro.pbio.field.IOField`
declarations to an :class:`~repro.arch.model.ArchitectureModel`, resolves
nested format references, and owns the two derived artifacts everything
else consumes:

- a *compiled* view of the fields (:class:`CompiledField`) with parsed
  types and resolved nesting, used by the encoder and the converter
  generator; and
- its *wire metadata*: a compact, architecture-neutral byte serialization
  of the format (name, architecture tag, record length, every field's
  name/type/size/offset, plus transitively nested formats).  This is what
  travels once per (connection, format) so receivers can interpret NDR
  payloads, and it is what the content-addressed 8-byte format id is
  derived from.

The wire metadata block layout (all multi-byte integers big-endian):

.. code-block:: text

    "PBF1"                      magic, 4 bytes
    u16  format_count           dependencies first, root format last
    per format:
      str  name                 (u16 length + UTF-8 bytes)
      str  arch_tag
      u32  record_length
      u16  field_count
      per field:
        str  name
        str  type
        u32  size
        u32  offset
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

from repro.arch.layout import StructLayout
from repro.arch.model import ArchitectureModel, TypeKind, make_types
from repro.arch.registry import all_architectures
from repro.errors import DecodeError, FormatRegistrationError
from repro.pbio.field import IOField
from repro.pbio.types import ParsedFieldType, is_identifier, kind_of

_MAGIC = b"PBF1"


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class CompiledField:
    """A fully resolved field: parsed type plus nesting resolution.

    ``kind`` is set for primitive fields; ``nested`` for fields whose
    base type names another format.  ``var_alignment`` is the alignment
    applied to this field's out-of-line data in the variable section.
    """

    name: str
    type: ParsedFieldType
    kind: TypeKind | None
    nested: "IOFormat | None"
    size: int
    offset: int

    @property
    def is_string(self) -> bool:
        return self.kind == TypeKind.POINTER

    @property
    def var_alignment(self) -> int:
        if self.is_string:
            return 4
        return min(self.size, 8) if self.size else 4

    @property
    def static_count(self) -> int:
        return self.type.count or 1


class IOFormat:
    """A registered message format bound to one architecture.

    Construct through :meth:`IOContext.register_format
    <repro.pbio.context.IOContext.register_format>` or
    :func:`format_from_layout`, which handle catalog wiring; direct
    construction requires passing any nested formats in ``catalog``.
    """

    def __init__(
        self,
        name: str,
        fields: list[IOField] | tuple[IOField, ...],
        arch: ArchitectureModel,
        *,
        record_length: int | None = None,
        catalog: dict[str, "IOFormat"] | None = None,
    ) -> None:
        if not fields:
            raise FormatRegistrationError(f"format {name!r} declares no fields")
        # Names end up inside run-time generated source; this is the
        # boundary (metadata from the wire is rebuilt through here too).
        for checked in (name, *(field.name for field in fields)):
            if not is_identifier(checked):
                raise FormatRegistrationError(
                    f"format {name!r}: {checked!r} is not a valid name "
                    f"(names must match [A-Za-z_][A-Za-z0-9_]*)"
                )
        self.name = name
        self.arch = arch
        self.fields: tuple[IOField, ...] = tuple(fields)
        self._compiled = self._compile(catalog or {})
        self.record_length = (
            record_length if record_length is not None else self._infer_record_length()
        )
        self._validate()

    # -- compilation -------------------------------------------------------

    def _compile(self, catalog: dict[str, "IOFormat"]) -> tuple[CompiledField, ...]:
        compiled: list[CompiledField] = []
        seen: set[str] = set()
        for field in self.fields:
            if field.name in seen:
                raise FormatRegistrationError(
                    f"format {self.name!r}: duplicate field {field.name!r}"
                )
            seen.add(field.name)
            parsed = field.parsed_type
            if parsed.is_primitive:
                compiled.append(
                    CompiledField(
                        name=field.name,
                        type=parsed,
                        kind=kind_of(parsed.base),
                        nested=None,
                        size=field.size,
                        offset=field.offset,
                    )
                )
            else:
                nested = catalog.get(parsed.base)
                if nested is None:
                    raise FormatRegistrationError(
                        f"format {self.name!r}: field {field.name!r} references "
                        f"unregistered format {parsed.base!r}"
                    )
                if nested.arch != self.arch:
                    raise FormatRegistrationError(
                        f"format {self.name!r}: nested format {parsed.base!r} was "
                        f"registered for {nested.arch.name}, not {self.arch.name}"
                    )
                compiled.append(
                    CompiledField(
                        name=field.name,
                        type=parsed,
                        kind=None,
                        nested=nested,
                        size=field.size,
                        offset=field.offset,
                    )
                )
        return tuple(compiled)

    def _infer_record_length(self) -> int:
        end = 0
        max_alignment = 1
        for field in self._compiled:
            end = max(end, field.offset + field.size * field.static_count)
            max_alignment = max(max_alignment, min(field.size, 8))
        return _align_up(end, max_alignment)

    def _validate(self) -> None:
        pointer_size = self.arch.pointer_size
        names = {field.name for field in self._compiled}
        for field in self._compiled:
            parsed = field.type
            if parsed.is_dynamic_array:
                if parsed.length_field not in names:
                    raise FormatRegistrationError(
                        f"format {self.name!r}: field {field.name!r} is sized by "
                        f"{parsed.length_field!r}, which is not a field"
                    )
                length = self.field(parsed.length_field)
                if length.kind not in (TypeKind.SIGNED_INT, TypeKind.UNSIGNED_INT):
                    raise FormatRegistrationError(
                        f"format {self.name!r}: length field "
                        f"{parsed.length_field!r} must be an integer"
                    )
                if not length.type.is_scalar:
                    raise FormatRegistrationError(
                        f"format {self.name!r}: length field "
                        f"{parsed.length_field!r} must be a scalar"
                    )
                if field.nested is not None or field.is_string:
                    raise FormatRegistrationError(
                        f"format {self.name!r}: dynamic arrays of "
                        f"{'strings' if field.is_string else 'nested formats'} "
                        f"are not supported (field {field.name!r})"
                    )
            if field.is_string or parsed.is_dynamic_array:
                # The in-record slot is a pointer on the declaring machine.
                declared = field.size
                if parsed.is_dynamic_array:
                    # For dynamic arrays the IOField carries the *element*
                    # size (paper Figure 8); the slot itself is a pointer.
                    continue
                if declared != pointer_size:
                    raise FormatRegistrationError(
                        f"format {self.name!r}: string field {field.name!r} must "
                        f"have pointer size {pointer_size}, got {declared}"
                    )
            end = field.offset + self._slot_size(field) * (
                field.static_count if not parsed.is_dynamic_array else 1
            )
            if end > self.record_length:
                raise FormatRegistrationError(
                    f"format {self.name!r}: field {field.name!r} extends to byte "
                    f"{end}, beyond the record length {self.record_length}"
                )

    def _slot_size(self, field: CompiledField) -> int:
        """Size of the in-record slot for one element of ``field``."""
        if field.type.is_dynamic_array or field.is_string:
            return self.arch.pointer_size
        return field.size

    # -- lookups -----------------------------------------------------------

    @property
    def compiled_fields(self) -> tuple[CompiledField, ...]:
        return self._compiled

    def field(self, name: str) -> CompiledField:
        """Return the compiled field named ``name``."""
        for field in self._compiled:
            if field.name == name:
                return field
        raise FormatRegistrationError(f"format {self.name!r} has no field {name!r}")

    def field_names(self) -> list[str]:
        """Field names in declaration order."""
        return [field.name for field in self._compiled]

    @cached_property
    def length_field_names(self) -> frozenset[str]:
        """Names of fields that serve as dynamic-array length counters."""
        return frozenset(
            field.type.length_field
            for field in self._compiled
            if field.type.is_dynamic_array
        )

    @cached_property
    def has_variable_data(self) -> bool:
        """True if any field (transitively) writes to the variable section."""
        return any(
            field.is_string
            or field.type.is_dynamic_array
            or (field.nested is not None and field.nested.has_variable_data)
            for field in self._compiled
        )

    def nested_formats(self) -> list["IOFormat"]:
        """Transitive nested dependencies, dependencies first, no dupes."""
        ordered: list[IOFormat] = []
        seen: set[str] = set()

        def visit(fmt: "IOFormat") -> None:
            for field in fmt.compiled_fields:
                if field.nested is not None and field.nested.name not in seen:
                    visit(field.nested)
                    seen.add(field.nested.name)
                    ordered.append(field.nested)

        visit(self)
        return ordered

    # -- wire metadata -------------------------------------------------------

    @cached_property
    def format_id(self) -> bytes:
        """8-byte content-addressed identifier of this format.

        Two formats with identical metadata (including architecture)
        produce the same id on any machine, so no central id authority
        is needed; the format server and the in-band handshake both key
        on this value.
        """
        return hashlib.sha1(self._own_block).digest()[:8]

    @cached_property
    def _own_block(self) -> bytes:
        out = bytearray()
        _put_str(out, self.name)
        _put_str(out, self.arch.tag())
        out += struct.pack(">I", self.record_length)
        out += struct.pack(">H", len(self.fields))
        for field in self.fields:
            _put_str(out, field.name)
            _put_str(out, field.type)
            out += struct.pack(">II", field.size, field.offset)
        return bytes(out)

    def to_wire_metadata(self) -> bytes:
        """Serialize this format and its nested dependencies."""
        blocks = [fmt._own_block for fmt in self.nested_formats()]
        blocks.append(self._own_block)
        return _MAGIC + struct.pack(">H", len(blocks)) + b"".join(blocks)

    @classmethod
    def from_wire_metadata(cls, data: bytes) -> "IOFormat":
        """Reconstruct a format (and nested dependencies) from metadata.

        Raises :class:`~repro.errors.DecodeError` on malformed input.
        """
        if data[:4] != _MAGIC:
            raise DecodeError("format metadata lacks PBF1 magic")
        try:
            (count,) = struct.unpack_from(">H", data, 4)
            cursor = 6
            catalog: dict[str, IOFormat] = {}
            last: IOFormat | None = None
            for _ in range(count):
                name, cursor = _get_str(data, cursor)
                tag, cursor = _get_str(data, cursor)
                (record_length,) = struct.unpack_from(">I", data, cursor)
                cursor += 4
                (field_count,) = struct.unpack_from(">H", data, cursor)
                cursor += 2
                fields: list[IOField] = []
                for _ in range(field_count):
                    field_name, cursor = _get_str(data, cursor)
                    field_type, cursor = _get_str(data, cursor)
                    size, offset = struct.unpack_from(">II", data, cursor)
                    cursor += 8
                    fields.append(IOField(field_name, field_type, size, offset))
                last = cls(
                    name,
                    fields,
                    arch_from_tag(tag),
                    record_length=record_length,
                    catalog=catalog,
                )
                catalog[name] = last
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise DecodeError(f"truncated or corrupt format metadata: {exc}") from exc
        if last is None:
            raise DecodeError("format metadata contains no formats")
        return last

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOFormat):
            return NotImplemented
        return self.format_id == other.format_id

    def __hash__(self) -> int:
        return hash(self.format_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IOFormat {self.name!r} on {self.arch.name}: "
            f"{len(self.fields)} fields, {self.record_length} bytes>"
        )


def _put_str(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    out += struct.pack(">H", len(encoded))
    out += encoded


def _get_str(data: bytes, cursor: int) -> tuple[str, int]:
    (length,) = struct.unpack_from(">H", data, cursor)
    cursor += 2
    raw = data[cursor : cursor + length]
    if len(raw) != length:
        raise DecodeError("truncated string in format metadata")
    return raw.decode("utf-8"), cursor + length


def arch_from_tag(tag: str) -> ArchitectureModel:
    """Reconstruct an architecture model from its wire tag.

    Known architectures resolve through the registry; unknown ones are
    rebuilt from the tag's encoded byte order, pointer width and integer
    sizes — which is all decoding needs, because field offsets travel
    explicitly in the metadata.
    """
    parts = tag.split(":")
    if len(parts) != 4:
        raise DecodeError(f"malformed architecture tag {tag!r}")
    name, order, pointer, sizes = parts
    for model in all_architectures():
        if model.tag() == tag:
            return model
    if order not in ("le", "be") or not pointer.startswith("p"):
        raise DecodeError(f"malformed architecture tag {tag!r}")
    if not pointer[1:].isdigit():
        raise DecodeError(f"malformed architecture tag {tag!r}")
    if not sizes.startswith("i") or len(sizes) != 5 or not sizes[1:].isdigit():
        raise DecodeError(f"malformed architecture tag {tag!r}")
    return ArchitectureModel(
        name=name,
        byte_order="little" if order == "le" else "big",
        pointer_size=int(pointer[1:]),
        types=make_types(
            short=int(sizes[1]),
            int_=int(sizes[2]),
            long=int(sizes[3]),
            long_long=int(sizes[4]),
        ),
    )


def format_from_layout(
    name: str,
    layout: StructLayout,
    field_types: dict[str, str],
    *,
    element_sizes: dict[str, int] | None = None,
    catalog: dict[str, IOFormat] | None = None,
) -> IOFormat:
    """Build an :class:`IOFormat` from a computed struct layout.

    ``field_types`` maps field names to PBIO type strings; sizes and
    offsets come from the layout (the run-time analogue of the paper's
    ``sizeof``/``IOOffset`` macros).  Dynamic-array fields occupy a
    pointer slot, so their *element* size cannot be read off the layout;
    supply it in ``element_sizes`` (keyed by field name), exactly as the
    paper's Figure 8 passes ``sizeof(unsigned long)`` for ``eta``.
    """
    from repro.pbio.types import parse_field_type

    element_sizes = element_sizes or {}
    fields: list[IOField] = []
    for slot in layout.slots:
        try:
            type_string = field_types[slot.name]
        except KeyError:
            raise FormatRegistrationError(
                f"format {name!r}: no type given for layout field {slot.name!r}"
            ) from None
        parsed = parse_field_type(type_string)
        if parsed.is_dynamic_array:
            try:
                size = element_sizes[slot.name]
            except KeyError:
                raise FormatRegistrationError(
                    f"format {name!r}: dynamic array field {slot.name!r} needs "
                    f"an entry in element_sizes (the pointer slot does not "
                    f"reveal the element size)"
                ) from None
        else:
            size = slot.element_size
        fields.append(IOField(slot.name, type_string, size, slot.offset))
    return IOFormat(
        name,
        fields,
        layout.arch,
        record_length=layout.size,
        catalog=catalog,
    )
