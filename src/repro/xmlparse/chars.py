"""Character classes from the XML 1.0 specification.

Only the classification the parser actually needs is implemented: name
start characters, name characters, whitespace, and the set of characters
legal in XML content.  The Unicode ranges follow the Fifth Edition
productions [4], [4a] and [2].

The range tables are the specification; :func:`char_class` renders them
as a regular-expression bracket expression, which is how the parser's
scanner patterns are built from them (once, at import).
"""

from __future__ import annotations

import re

#: XML whitespace (production [3] S).
WHITESPACE = " \t\r\n"

_NAME_START_RANGES = (
    (ord(":"), ord(":")),
    (ord("A"), ord("Z")),
    (ord("_"), ord("_")),
    (ord("a"), ord("z")),
    (0xC0, 0xD6),
    (0xD8, 0xF6),
    (0xF8, 0x2FF),
    (0x370, 0x37D),
    (0x37F, 0x1FFF),
    (0x200C, 0x200D),
    (0x2070, 0x218F),
    (0x2C00, 0x2FEF),
    (0x3001, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD),
    (0x10000, 0xEFFFF),
)

_NAME_EXTRA_RANGES = (
    (ord("-"), ord("-")),
    (ord("."), ord(".")),
    (ord("0"), ord("9")),
    (0xB7, 0xB7),
    (0x300, 0x36F),
    (0x203F, 0x2040),
)


_CHAR_RANGES = (
    (0x9, 0xA),
    (0xD, 0xD),
    (0x20, 0xD7FF),
    (0xE000, 0xFFFD),
    (0x10000, 0x10FFFF),
)


def char_class(*tables: tuple[tuple[int, int], ...], matching: bool = True) -> str:
    """A regex bracket expression for exactly the code points in ``tables``
    (with ``matching=False``: for exactly the others).

    Written through the gaps between the ranges: ``re`` compiles a class
    in time proportional to the BMP code points it lists, and the XML
    classes list most of the BMP.
    """
    gaps, following = [], 0
    for low, high in sorted(pair for table in tables for pair in table):
        if low > following:
            gaps.append((following, low - 1))
        following = max(following, high + 1)
    gaps.append((following, 0x10FFFF))
    listed = "".join(f"\\U{low:08x}-\\U{high:08x}" for low, high in gaps if low <= high)
    return f"[{'^' if matching else ''}{listed}]"


#: ``find_illegal_char(text)``: a match on the first character of ``text``
#: outside production [2], or ``None``.
find_illegal_char = re.compile(char_class(_CHAR_RANGES, matching=False)).search


def _in_ranges(code: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    return any(low <= code <= high for low, high in ranges)


def is_name_start(ch: str) -> bool:
    """True if ``ch`` may start an XML Name (production [4])."""
    return _in_ranges(ord(ch), _NAME_START_RANGES)


def is_name_char(ch: str) -> bool:
    """True if ``ch`` may continue an XML Name (production [4a])."""
    code = ord(ch)
    return _in_ranges(code, _NAME_START_RANGES) or _in_ranges(code, _NAME_EXTRA_RANGES)


def is_xml_char(ch: str) -> bool:
    """True if ``ch`` is legal anywhere in an XML document (production [2])."""
    return _in_ranges(ord(ch), _CHAR_RANGES)


def is_valid_name(name: str) -> bool:
    """True if ``name`` is a legal XML Name."""
    if not name:
        return False
    if not is_name_start(name[0]):
        return False
    return all(is_name_char(ch) for ch in name[1:])
