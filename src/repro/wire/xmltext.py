"""The text-XML wire format — the paper's order-of-magnitude baseline.

"Systems using XML as a wire format" (paper §6, XML-RPC [10]) transmit
every record as an ASCII XML document: each field becomes an element,
every number is converted binary→decimal-text on send and text→binary on
receive, and the markup itself inflates the message 6–8× over the binary
original.  This codec reproduces that cost structure faithfully:

- encoding renders a full document (via this repo's XML writer);
- decoding runs the full XML parser and converts every value back;
- repeated elements express arrays (one element per item, as XML does);
- nested formats nest elements;
- NULL strings are distinguished from empty ones with a ``nil="true"``
  attribute (XML Schema Instance convention).

The codec shares record shapes with PBIO/XDR, so the three wire formats
are interchangeable behind the same workloads in the benchmark harness.
"""

from __future__ import annotations

from io import StringIO

from repro.arch.model import TypeKind
from repro.errors import WireError, XMLError
from repro.pbio.format import CompiledField, IOFormat
from repro.xmlparse import chars as _xml_chars
from repro.xmlparse.tree import Element, parse_document
from repro.xmlparse.writer import escape_text


def _xml_safe(text: str, field_name: str) -> str:
    """Escape ``text``, rejecting characters XML 1.0 cannot carry.

    This is a genuine limitation of text-XML as a wire format: control
    characters that are perfectly legal in binary strings (NDR and XDR
    transmit them untouched) have no XML representation at all.
    """
    illegal = _xml_chars.find_illegal_char(text)
    if illegal is not None:
        raise WireError(
            f"XML: field {field_name!r} contains U+{ord(illegal[0]):04X}, which "
            f"has no XML 1.0 representation (binary wire formats carry "
            f"it; text XML cannot)"
        )
    return escape_text(text)


class XMLTextCodec:
    """Encode/decode records of one format as XML text documents."""

    def __init__(self, fmt: IOFormat, *, encoding: str = "utf-8") -> None:
        self.format = fmt
        self.encoding = encoding

    # -- encoding --------------------------------------------------------------

    def encode(self, record: dict) -> bytes:
        """Render ``record`` as an XML document, returned as bytes."""
        out = StringIO()
        out.write('<?xml version="1.0"?>')
        self._write_record(out, self.format, record)
        return out.getvalue().encode(self.encoding)

    def _write_record(self, out: StringIO, fmt: IOFormat, record: dict) -> None:
        out.write(f"<{fmt.name}>")
        for field in fmt.compiled_fields:
            try:
                value = record[field.name]
            except (KeyError, TypeError):
                raise WireError(
                    f"XML: record for {fmt.name!r} is missing field {field.name!r}"
                ) from None
            self._write_field(out, field, value)
        out.write(f"</{fmt.name}>")

    def _write_field(self, out: StringIO, field: CompiledField, value) -> None:
        name = field.name
        if field.nested is not None:
            elements = [value] if field.static_count == 1 else value
            for element in elements:
                out.write(f"<{name}>")
                for inner in field.nested.compiled_fields:
                    self._write_field(out, inner, element[inner.name])
                out.write(f"</{name}>")
            return
        if field.type.is_dynamic_array:
            for element in value or []:
                out.write(f"<{name}>{self._scalar_text(field, element)}</{name}>")
            return
        if field.is_string:
            strings = [value] if field.static_count == 1 else value
            for text in strings:
                if text is None:
                    out.write(f'<{name} nil="true"/>')
                else:
                    out.write(f"<{name}>{_xml_safe(text, name)}</{name}>")
            return
        if field.kind == TypeKind.CHAR and field.type.is_static_array:
            out.write(f"<{name}>{_xml_safe(str(value), name)}</{name}>")
            return
        if field.type.is_static_array:
            for element in value:
                out.write(f"<{name}>{self._scalar_text(field, element)}</{name}>")
            return
        out.write(f"<{name}>{self._scalar_text(field, value)}</{name}>")

    def _scalar_text(self, field: CompiledField, value) -> str:
        if field.kind == TypeKind.FLOAT:
            return repr(float(value))
        if field.kind == TypeKind.BOOLEAN:
            return "true" if value else "false"
        if field.kind == TypeKind.CHAR:
            return _xml_safe(value if isinstance(value, str) else chr(value), field.name)
        return str(int(value))

    # -- decoding --------------------------------------------------------------

    def decode(self, data: bytes) -> dict:
        """Parse an XML document back into a record dict."""
        try:
            root = parse_document(data.decode(self.encoding))
        except (XMLError, UnicodeDecodeError) as exc:
            raise WireError(f"XML: cannot parse message: {exc}") from exc
        if root.tag != self.format.name:
            raise WireError(
                f"XML: expected <{self.format.name}> message, got <{root.tag}>"
            )
        return self._read_record(self.format, root)

    def _read_record(self, fmt: IOFormat, node: Element) -> dict:
        record: dict = {}
        children = list(node.children)
        index = 0
        for field in fmt.compiled_fields:
            matches: list[Element] = []
            while index < len(children) and children[index].tag == field.name:
                matches.append(children[index])
                index += 1
            record[field.name] = self._read_field(fmt, field, matches)
        if index != len(children):
            raise WireError(
                f"XML: unexpected element <{children[index].tag}> in "
                f"{fmt.name!r} message"
            )
        return record

    def _read_field(self, fmt: IOFormat, field: CompiledField, matches: list[Element]):
        if field.nested is not None:
            if len(matches) != field.static_count:
                raise WireError(
                    f"XML: field {field.name!r} expects {field.static_count} "
                    f"element(s), found {len(matches)}"
                )
            records = [self._read_record(field.nested, match) for match in matches]
            return records[0] if field.static_count == 1 else records
        if field.type.is_dynamic_array:
            return [self._scalar_value(field, match.text) for match in matches]
        if field.is_string:
            if len(matches) != field.static_count:
                raise WireError(
                    f"XML: field {field.name!r} expects {field.static_count} "
                    f"element(s), found {len(matches)}"
                )
            strings = [
                None if match.get("nil") == "true" else match.text for match in matches
            ]
            return strings[0] if field.static_count == 1 else strings
        if field.kind == TypeKind.CHAR and field.type.is_static_array:
            if len(matches) != 1:
                raise WireError(f"XML: field {field.name!r} expects one element")
            return matches[0].text
        if field.type.is_static_array:
            if len(matches) != field.static_count:
                raise WireError(
                    f"XML: field {field.name!r} expects {field.static_count} "
                    f"elements, found {len(matches)}"
                )
            return [self._scalar_value(field, match.text) for match in matches]
        if len(matches) != 1:
            raise WireError(
                f"XML: field {field.name!r} expects one element, found {len(matches)}"
            )
        return self._scalar_value(field, matches[0].text)

    def _scalar_value(self, field: CompiledField, text: str):
        try:
            if field.kind == TypeKind.FLOAT:
                return float(text)
            if field.kind == TypeKind.BOOLEAN:
                if text not in ("true", "false", "0", "1"):
                    raise ValueError(text)
                return text in ("true", "1")
            if field.kind == TypeKind.CHAR:
                if len(text) != 1:
                    raise ValueError(text)
                return text
            return int(text)
        except ValueError as exc:
            raise WireError(
                f"XML: bad value {text!r} for field {field.name!r}"
            ) from exc


def xml_encoded_size(fmt: IOFormat, record: dict) -> int:
    """Size in bytes of the XML text encoding of ``record``."""
    return len(XMLTextCodec(fmt).encode(record))
