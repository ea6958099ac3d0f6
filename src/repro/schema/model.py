"""Object model for the schema subset.

A parsed schema document becomes a :class:`SchemaDocument` holding
:class:`ComplexType` definitions (the message formats) and
:class:`SimpleType` definitions (restrictions/enumerations of
primitives).  :class:`ElementDecl` is one field of a message, and
:class:`Occurs` captures the paper's three array forms:

- ``Occurs.scalar()`` — a plain field;
- ``Occurs.fixed(n)`` — a static array (``maxOccurs`` numeric);
- ``Occurs.dynamic(length_field)`` — a dynamically allocated array whose
  run-time length lives in an integer field.  ``maxOccurs="*"`` (or the
  recommendation's ``"unbounded"``) implies a synthesized
  ``<name>_count`` length field; ``maxOccurs="someField"`` names an
  explicit one (both styles appear in the paper §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.schema.datatypes import PrimitiveType


@dataclass(frozen=True)
class Occurs:
    """Occurrence constraints of an element: scalar, fixed or dynamic array.

    ``count`` is set for fixed arrays; ``length_field`` for dynamic
    arrays; both are ``None`` for scalars.  ``synthesized_length`` marks
    length fields invented by the parser (``maxOccurs="*"``) rather than
    declared in the document — these become implicit native fields.
    """

    count: int | None = None
    length_field: str | None = None
    synthesized_length: bool = False
    min_occurs: int = 1

    @classmethod
    def scalar(cls) -> "Occurs":
        return _SCALAR  # immutable, so one instance serves every scalar

    @classmethod
    def fixed(cls, count: int, min_occurs: int | None = None) -> "Occurs":
        if count <= 0:
            raise SchemaError("fixed array size must be positive")
        return cls(count=count, min_occurs=count if min_occurs is None else min_occurs)

    @classmethod
    def dynamic(
        cls, length_field: str, *, synthesized: bool = False, min_occurs: int = 0
    ) -> "Occurs":
        if not length_field:
            raise SchemaError("dynamic arrays require a length field name")
        return cls(
            length_field=length_field,
            synthesized_length=synthesized,
            min_occurs=min_occurs,
        )

    @property
    def is_scalar(self) -> bool:
        return self.count is None and self.length_field is None

    @property
    def is_fixed_array(self) -> bool:
        return self.count is not None

    @property
    def is_dynamic_array(self) -> bool:
        return self.length_field is not None


_SCALAR = Occurs()


@dataclass(frozen=True)
class ElementDecl:
    """One ``<xsd:element>`` inside a complex type.

    ``type_namespace``/``type_name`` hold the resolved QName of the
    element's type: an XSD namespace means a primitive, ``None``
    namespace means a user-defined type in this document.
    """

    name: str
    type_namespace: str | None
    type_name: str
    occurs: Occurs = field(default_factory=Occurs.scalar)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("element declarations require a name")
        if not self.type_name:
            raise SchemaError(f"element {self.name!r} has an empty type")


@dataclass(frozen=True)
class SimpleType:
    """A named restriction of a primitive, possibly enumerated.

    Supports the facet set the paper's footnote 1 alludes to:
    enumeration values plus inclusive numeric bounds.
    """

    name: str
    base: PrimitiveType
    enumeration: tuple[str, ...] = ()
    min_inclusive: int | float | None = None
    max_inclusive: int | float | None = None

    def validate_lexical(self, text: str) -> object:
        """Parse and facet-check a lexical value against this type."""
        value = self.base.validate_lexical(text)
        if self.enumeration and text not in self.enumeration:
            raise SchemaError(
                f"{text!r} is not among the enumerated values of {self.name!r}"
            )
        if self.min_inclusive is not None and value < self.min_inclusive:
            raise SchemaError(f"{text!r} below minInclusive of {self.name!r}")
        if self.max_inclusive is not None and value > self.max_inclusive:
            raise SchemaError(f"{text!r} above maxInclusive of {self.name!r}")
        return value


@dataclass(frozen=True)
class ComplexType:
    """A named message format: an ordered sequence of element decls."""

    name: str
    elements: tuple[ElementDecl, ...]
    documentation: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("complex types require a name")
        if not self.elements:
            raise SchemaError(f"complex type {self.name!r} declares no elements")
        seen: set[str] = set()
        for element in self.elements:
            if element.name in seen:
                raise SchemaError(
                    f"complex type {self.name!r}: duplicate element {element.name!r}"
                )
            seen.add(element.name)

    def element(self, name: str) -> ElementDecl:
        """Return the element declaration named ``name``."""
        for candidate in self.elements:
            if candidate.name == name:
                return candidate
        raise SchemaError(f"complex type {self.name!r} has no element {name!r}")

    def element_names(self) -> list[str]:
        """Element names in declaration order."""
        return [element.name for element in self.elements]


@dataclass
class SchemaDocument:
    """A parsed schema: target namespace plus its type definitions.

    ``complex_types`` and ``simple_types`` preserve document order, which
    matters because user types may only reference earlier definitions
    (exactly the constraint xml2wire's single-pass Catalog construction
    imposes).
    """

    target_namespace: str | None = None
    complex_types: dict[str, ComplexType] = field(default_factory=dict)
    simple_types: dict[str, SimpleType] = field(default_factory=dict)
    documentation: str = ""

    def complex_type(self, name: str) -> ComplexType:
        """Return the complex type named ``name`` (raises SchemaError)."""
        try:
            return self.complex_types[name]
        except KeyError:
            known = ", ".join(self.complex_types) or "(none)"
            raise SchemaError(
                f"schema defines no complex type {name!r}; defined: {known}"
            ) from None

    def simple_type(self, name: str) -> SimpleType:
        """Return the simple type named ``name`` (raises SchemaError)."""
        try:
            return self.simple_types[name]
        except KeyError:
            raise SchemaError(f"schema defines no simple type {name!r}") from None

    def type_names(self) -> list[str]:
        """Complex-type names in declaration order."""
        return list(self.complex_types)
