"""The primitive XML Schema datatypes used for message metadata.

Each :class:`PrimitiveType` couples a schema-level name with:

- a *logical kind* (string / signed / unsigned / float / boolean / char),
  which is what drives the mapping to a BCM marshaling technique;
- a *default C type* — the language-level type xml2wire uses when sizing
  the native structure field (the paper: "Field size is determined by
  using the C sizeof operator on the native data type resulting from the
  Field Type mapping");
- lexical validation and text↔value conversion, used by the instance
  validator and by the text-XML wire baseline.

Both datatype vocabularies are registered: the paper's schema documents
are written against the 1999 working draft (namespace
``http://www.w3.org/1999/XMLSchema``, hyphenated names such as
``unsigned-long``), while the final 2001 recommendation uses
``http://www.w3.org/2001/XMLSchema`` and camelCase names
(``unsignedLong``).  Either vocabulary works with either namespace — the
distinction never mattered to xml2wire and tolerating both keeps old and
new metadata documents equally usable.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

from repro.errors import SchemaError


class LogicalKind(enum.Enum):
    """The marshaling category of a schema primitive."""

    STRING = "string"
    SIGNED = "integer"
    UNSIGNED = "unsigned"
    FLOAT = "float"
    BOOLEAN = "boolean"
    CHAR = "char"


#: Namespace URIs accepted as "the XML Schema namespace".
XSD_NAMESPACES = (
    "http://www.w3.org/1999/XMLSchema",
    "http://www.w3.org/2000/10/XMLSchema",
    "http://www.w3.org/2001/XMLSchema",
)


def is_xsd_namespace(uri: str | None) -> bool:
    """True if ``uri`` is one of the recognized XML Schema namespaces."""
    return uri in XSD_NAMESPACES


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$|^[+-]?INF$|^NaN$")


def _parse_int(text: str) -> int:
    try:
        if _INT_RE.match(text.strip()):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise SchemaError(f"{text!r} is not a valid integer literal")


def _parse_float(text: str) -> float:
    stripped = text.strip()
    if not _FLOAT_RE.match(stripped):
        raise SchemaError(f"{text!r} is not a valid float literal")
    if stripped in ("INF", "+INF"):
        return float("inf")
    if stripped == "-INF":
        return float("-inf")
    if stripped == "NaN":
        return float("nan")
    return float(stripped)


def _parse_boolean(text: str) -> bool:
    stripped = text.strip()
    if stripped in ("true", "1"):
        return True
    if stripped in ("false", "0"):
        return False
    raise SchemaError(f"{text!r} is not a valid boolean literal")


def _parse_string(text: str) -> str:
    return text


def _parse_char(text: str) -> str:
    if len(text) != 1:
        raise SchemaError(f"{text!r} is not a single character")
    return text


@dataclass(frozen=True)
class PrimitiveType:
    """One schema primitive datatype.

    ``c_type`` is the default language-level type used for native field
    sizing; ``min_value``/``max_value`` bound the value space for bounded
    integer types (checked by the validator).
    """

    name: str
    kind: LogicalKind
    c_type: str
    parse: Callable[[str], object]
    min_value: int | None = None
    max_value: int | None = None

    def validate_lexical(self, text: str) -> object:
        """Parse and range-check a lexical value; raise SchemaError if bad."""
        value = self.parse(text)
        if self.min_value is not None and isinstance(value, int) and value < self.min_value:
            raise SchemaError(f"{text!r} below minimum for {self.name}")
        if self.max_value is not None and isinstance(value, int) and value > self.max_value:
            raise SchemaError(f"{text!r} above maximum for {self.name}")
        return value

    def format_value(self, value: object) -> str:
        """Render a Python value to its canonical lexical form."""
        if self.kind == LogicalKind.BOOLEAN:
            return "true" if value else "false"
        if self.kind == LogicalKind.FLOAT:
            return repr(float(value))
        if self.kind in (LogicalKind.STRING, LogicalKind.CHAR):
            return str(value)
        return str(int(value))


def _signed(name: str, c_type: str, bits: int | None) -> PrimitiveType:
    if bits is None:
        return PrimitiveType(name, LogicalKind.SIGNED, c_type, _parse_int)
    bound = 1 << (bits - 1)
    return PrimitiveType(name, LogicalKind.SIGNED, c_type, _parse_int, -bound, bound - 1)


def _unsigned(name: str, c_type: str, bits: int | None) -> PrimitiveType:
    top = None if bits is None else (1 << bits) - 1
    return PrimitiveType(name, LogicalKind.UNSIGNED, c_type, _parse_int, 0, top)


#: The 1999 working-draft vocabulary — the paper's Figures 6/9/12 dialect.
_DRAFT_1999 = [
    PrimitiveType("string", LogicalKind.STRING, "char*", _parse_string),
    _signed("integer", "int", None),
    _signed("int", "int", 32),
    _signed("long", "long", None),
    _signed("short", "short", 16),
    _signed("byte", "signed char", 8),
    _unsigned("unsigned-long", "unsigned long", None),
    _unsigned("unsigned-int", "unsigned int", 32),
    _unsigned("unsigned-short", "unsigned short", 16),
    _unsigned("unsigned-byte", "unsigned char", 8),
    _unsigned("non-negative-integer", "unsigned long", None),
    PrimitiveType("float", LogicalKind.FLOAT, "float", _parse_float),
    PrimitiveType("double", LogicalKind.FLOAT, "double", _parse_float),
    PrimitiveType("real", LogicalKind.FLOAT, "double", _parse_float),
    PrimitiveType("boolean", LogicalKind.BOOLEAN, "_Bool", _parse_boolean),
    PrimitiveType("char", LogicalKind.CHAR, "char", _parse_char),
]

#: The 2001 recommendation vocabulary (camelCase spellings).
_REC_2001 = [
    _unsigned("unsignedLong", "unsigned long", None),
    _unsigned("unsignedInt", "unsigned int", 32),
    _unsigned("unsignedShort", "unsigned short", 16),
    _unsigned("unsignedByte", "unsigned char", 8),
    _unsigned("nonNegativeInteger", "unsigned long", None),
]

_BY_NAME: dict[str, PrimitiveType] = {}
for _t in _DRAFT_1999 + _REC_2001:
    _BY_NAME[_t.name] = _t


def lookup_primitive(local_name: str) -> PrimitiveType:
    """Return the primitive datatype with schema-local name ``local_name``.

    Raises :class:`~repro.errors.SchemaError` for unknown names, listing
    a few close spellings when possible.
    """
    try:
        return _BY_NAME[local_name]
    except KeyError:
        candidates = [n for n in _BY_NAME if n.lower() == local_name.lower()]
        hint = f" (did you mean {candidates[0]!r}?)" if candidates else ""
        raise SchemaError(f"unknown XML Schema datatype {local_name!r}{hint}") from None


def all_primitives() -> list[PrimitiveType]:
    """Every registered primitive (both vocabularies)."""
    return list(_BY_NAME.values())
