"""PBIO's primitive type vocabulary and field-type string grammar.

PBIO field types are strings like ``"integer"``, ``"string"``,
``"integer[5]"`` (static array) or ``"integer[eta_count]"`` (array sized
at run time by the ``eta_count`` field) — exactly the notation of the
paper's Figures 5, 8 and 11.  A type may also name another registered
format, giving composition by nesting.

PBIO deliberately separates field *type* (the marshaling technique) from
field *size* (supplied separately by the application, typically via
``sizeof``), so ``"integer"`` covers C ``short``/``int``/``long`` alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.arch.model import TypeKind
from repro.errors import FormatRegistrationError

#: PBIO base type names → marshaling kind.
PBIO_KINDS: dict[str, TypeKind] = {
    "integer": TypeKind.SIGNED_INT,
    "unsigned integer": TypeKind.UNSIGNED_INT,
    "unsigned": TypeKind.UNSIGNED_INT,
    "float": TypeKind.FLOAT,
    "double": TypeKind.FLOAT,
    "char": TypeKind.CHAR,
    "boolean": TypeKind.BOOLEAN,
    "enumeration": TypeKind.ENUMERATION,
    "string": TypeKind.POINTER,
}

_ARRAY_RE = re.compile(r"^(?P<base>[^\[\]]+?)\s*\[(?P<dim>[^\[\]]*)\]$")

#: numpy dtype characters for bulk numeric kinds (no byte-order prefix);
#: shared by :meth:`RecordView.array <repro.pbio.view.RecordView.array>`,
#: the columnar codec and the encoder's ndarray fast path.
DTYPE_CHARS: dict[tuple[TypeKind, int], str] = {
    (TypeKind.SIGNED_INT, 1): "i1",
    (TypeKind.SIGNED_INT, 2): "i2",
    (TypeKind.SIGNED_INT, 4): "i4",
    (TypeKind.SIGNED_INT, 8): "i8",
    (TypeKind.UNSIGNED_INT, 1): "u1",
    (TypeKind.UNSIGNED_INT, 2): "u2",
    (TypeKind.UNSIGNED_INT, 4): "u4",
    (TypeKind.UNSIGNED_INT, 8): "u8",
    (TypeKind.FLOAT, 4): "f4",
    (TypeKind.FLOAT, 8): "f8",
}


def __getattr__(name: str):
    """``numpy``: the module if installed, else ``None`` — detected once.

    Resolved on first use rather than at import: most processes never
    touch a batch or an array view, and numpy would add its import time
    and ~30 MiB to each of them.  Every numpy-or-pure decision in
    ``repro.pbio`` reads this one attribute (tests patch it to ``None``
    to run the pure-Python paths with numpy installed).
    """
    if name != "numpy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global numpy
    try:
        import numpy
    except ImportError:
        numpy = None
    return numpy


def is_identifier(name: str) -> bool:
    """True for names matching ``[A-Za-z_][A-Za-z0-9_]*``.

    The grammar of every format, field and length-field name: names end
    up inside run-time generated source, so nothing else is admitted.
    """
    return name.isascii() and name.isidentifier()


@dataclass(frozen=True)
class ParsedFieldType:
    """A decomposed PBIO field type string.

    Exactly one of the following shapes holds:

    - plain scalar: ``count`` and ``length_field`` are both ``None``;
    - static array: ``count`` is set;
    - dynamic array: ``length_field`` names the sibling count field.

    ``base`` is either a PBIO primitive name (present in
    :data:`PBIO_KINDS`) or the name of another registered format.
    """

    base: str
    count: int | None = None
    length_field: str | None = None

    @property
    def is_static_array(self) -> bool:
        return self.count is not None

    @property
    def is_dynamic_array(self) -> bool:
        return self.length_field is not None

    @property
    def is_scalar(self) -> bool:
        return self.count is None and self.length_field is None

    @property
    def is_string(self) -> bool:
        return self.base == "string"

    @property
    def is_primitive(self) -> bool:
        return self.base in PBIO_KINDS

    def render(self) -> str:
        """Reassemble the canonical type string."""
        if self.count is not None:
            return f"{self.base}[{self.count}]"
        if self.length_field is not None:
            return f"{self.base}[{self.length_field}]"
        return self.base


def parse_field_type(type_string: str) -> ParsedFieldType:
    """Parse a PBIO field type string.

    Raises :class:`~repro.errors.FormatRegistrationError` on malformed
    strings (empty dimensions, nested brackets, ...).
    """
    text = type_string.strip()
    if "[" not in text and "]" not in text:
        if not text:
            raise FormatRegistrationError("empty field type")
        return ParsedFieldType(base=text)
    match = _ARRAY_RE.match(text)
    if match is None:
        raise FormatRegistrationError(f"malformed field type {type_string!r}")
    base = match.group("base").strip()
    dim = match.group("dim").strip()
    if not base or not dim:
        raise FormatRegistrationError(f"malformed field type {type_string!r}")
    if dim.isdigit():
        count = int(dim)
        if count <= 0:
            raise FormatRegistrationError(
                f"static array size must be positive in {type_string!r}"
            )
        return ParsedFieldType(base=base, count=count)
    if not is_identifier(dim):
        raise FormatRegistrationError(
            f"array dimension {dim!r} is neither a size nor a field name"
        )
    return ParsedFieldType(base=base, length_field=dim)


def kind_of(base: str) -> TypeKind:
    """Marshaling kind of a PBIO primitive base type name."""
    try:
        return PBIO_KINDS[base]
    except KeyError:
        raise FormatRegistrationError(f"{base!r} is not a PBIO primitive type") from None
