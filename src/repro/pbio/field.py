"""Field declarations, mirroring PBIO's ``IOField`` arrays.

An :class:`IOField` is what application code (or xml2wire) hands to
format registration: name, type string, per-element size, and byte offset
within the native structure — the exact quadruple of the paper's C
``IOField`` initializers:

.. code-block:: c

    { "fltNum", "integer", sizeof(int), IOOffset(asdOffptr, fltNum) }

Sizes and offsets describe the *declared* architecture's layout; they are
supplied by the caller because in C only the compiler knows them.  When
formats are built from a :class:`~repro.arch.layout.StructLayout` (as
xml2wire does), they are computed rather than hand-written, but the
registration interface is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FormatRegistrationError
from repro.pbio.types import ParsedFieldType, parse_field_type


@dataclass(frozen=True)
class IOField:
    """One field of a message format declaration.

    Parameters
    ----------
    name:
        Field name (must be unique within the format).
    type:
        PBIO type string: ``"integer"``, ``"string"``, ``"float[3]"``,
        ``"integer[eta_count]"``, or the name of a previously registered
        format for nesting.
    size:
        Per-element size in bytes on the declaring architecture
        (``sizeof`` of the element type).  For strings and dynamic
        arrays, the size of the *pointer*.
    offset:
        Byte offset of the field within the native structure
        (``offsetof``).

    ``parsed_type`` is the decomposed ``type`` string, parsed (and so
    validated) once, at construction.
    """

    name: str
    type: str
    size: int
    offset: int
    parsed_type: ParsedFieldType = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise FormatRegistrationError("field name may not be empty")
        if self.size <= 0:
            raise FormatRegistrationError(
                f"field {self.name!r}: size must be positive, got {self.size}"
            )
        if self.offset < 0:
            raise FormatRegistrationError(
                f"field {self.name!r}: offset must be non-negative, got {self.offset}"
            )
        object.__setattr__(self, "parsed_type", parse_field_type(self.type))
