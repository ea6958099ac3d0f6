"""The character-at-a-time XML parser: the scanner's test oracle.

This is the parser ``repro.xmlparse`` shipped before its scanner became
regex-driven, kept as the executable specification the differential suite
(``test_scanner_equivalence.py``) compares the shipped parser with: same
events, same ``XMLSyntaxError`` text, same line and column.  It carries the
two behaviour fixes that landed with the new scanner, written the obvious
slow way: one leading byte-order mark is dropped, and production [2]
``Char`` is checked over the whole document before anything else.

:class:`ReferenceParser` consumes a complete document string and yields
:mod:`~repro.xmlparse.events` in document order.  It enforces
well-formedness (matching tags, single root, unique attribute names, legal
name characters, legal content characters) and resolves the predefined
entities and numeric character references.  A DOCTYPE declaration, if
present, is tolerated and skipped — external and internal DTD subsets are
explicitly out of scope (the paper itself dismisses DTDs as insufficient
for typed metadata and moves to XML Schema).

Line endings are normalized (``\\r\\n`` and ``\\r`` become ``\\n``) before
parsing, as required by the XML specification, so reported line numbers
and attribute values are identical regardless of the producing platform.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xmlparse import chars
from repro.xmlparse.events import (
    CDataEvent,
    CharactersEvent,
    CommentEvent,
    EndElementEvent,
    Event,
    ProcessingInstructionEvent,
    StartElementEvent,
    XMLDeclEvent,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


class ReferenceParser:
    """Parse one XML document, yielding events via :meth:`events`.

    The parser is single-use: construct one instance per document.

    Parameters
    ----------
    source:
        The complete document text.  Callers reading from files or
        sockets should decode to ``str`` first (UTF-8 is assumed by all
        repro components).
    """

    def __init__(self, source: str) -> None:
        if source[:1] == "\ufeff":
            source = source[1:]
        self._text = source.replace("\r\n", "\n").replace("\r", "\n")
        self._pos = 0
        self._line = 1
        self._column = 1
        self._open_elements: list[str] = []
        self._seen_root = False
        self._exhausted = False

    # -- public API -------------------------------------------------------

    def events(self) -> Iterator[Event]:
        """Yield every event in the document, checking well-formedness.

        Raises :class:`~repro.errors.XMLSyntaxError` on the first
        violation.
        """
        if self._exhausted:
            raise XMLSyntaxError("PullParser instances are single-use")
        self._exhausted = True

        for offset, ch in enumerate(self._text):
            if not chars.is_xml_char(ch):
                before = self._text[:offset]
                raise XMLSyntaxError(
                    f"illegal character U+{ord(ch):04X}",
                    before.count("\n") + 1,
                    offset - before.rfind("\n"),
                )
        decl = self._parse_xml_decl()
        if decl is not None:
            yield decl
        yield from self._parse_misc()
        self._skip_doctype()
        yield from self._parse_misc()
        if self._at_end():
            self._error("document has no root element")
        yield from self._parse_element()
        yield from self._parse_misc()
        if not self._at_end():
            self._error("content after document root element")

    # -- low-level cursor -------------------------------------------------

    def _at_end(self) -> bool:
        return self._pos >= len(self._text)

    def _peek(self, length: int = 1) -> str:
        return self._text[self._pos : self._pos + length]

    def _advance(self, length: int) -> str:
        """Consume ``length`` characters, maintaining line/column."""
        chunk = self._text[self._pos : self._pos + length]
        newlines = chunk.count("\n")
        if newlines:
            self._line += newlines
            self._column = length - chunk.rfind("\n")
        else:
            self._column += length
        self._pos += length
        return chunk

    def _error(self, message: str) -> None:
        raise XMLSyntaxError(message, self._line, self._column)

    def _expect(self, literal: str) -> None:
        if not self._text.startswith(literal, self._pos):
            self._error(f"expected {literal!r}")
        self._advance(len(literal))

    def _skip_whitespace(self, required: bool = False) -> None:
        start = self._pos
        while not self._at_end() and self._text[self._pos] in chars.WHITESPACE:
            self._advance(1)
        if required and self._pos == start:
            self._error("expected whitespace")

    def _scan_until(self, terminator: str, context: str) -> str:
        """Consume and return text up to (not including) ``terminator``."""
        index = self._text.find(terminator, self._pos)
        if index < 0:
            self._error(f"unterminated {context}: missing {terminator!r}")
        return self._advance(index - self._pos)

    def _parse_name(self) -> str:
        if self._at_end() or not chars.is_name_start(self._text[self._pos]):
            self._error("expected an XML name")
        start = self._pos
        end = start + 1
        text = self._text
        while end < len(text) and chars.is_name_char(text[end]):
            end += 1
        return self._advance(end - start)

    # -- prolog -----------------------------------------------------------

    def _parse_xml_decl(self) -> XMLDeclEvent | None:
        if not self._text.startswith("<?xml", self._pos):
            return None
        # Distinguish the declaration from a PI whose target merely starts
        # with "xml" (illegal anyway, but give the right error later).
        after = self._text[self._pos + 5 : self._pos + 6]
        if after and chars.is_name_char(after):
            return None
        line, column = self._line, self._column
        self._advance(5)
        params: dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._peek(2) == "?>":
                self._advance(2)
                break
            name = self._parse_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            params[name] = self._parse_quoted()
        version = params.get("version")
        if version is None:
            self._error("XML declaration missing version")
        return XMLDeclEvent(
            line=line,
            column=column,
            version=version,
            encoding=params.get("encoding"),
            standalone=params.get("standalone"),
        )

    def _skip_doctype(self) -> None:
        if not self._text.startswith("<!DOCTYPE", self._pos):
            return
        self._advance(len("<!DOCTYPE"))
        depth = 0
        while not self._at_end():
            ch = self._text[self._pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth == 0:
                self._advance(1)
                return
            self._advance(1)
        self._error("unterminated DOCTYPE declaration")

    def _parse_misc(self) -> Iterator[Event]:
        """Comments, PIs and whitespace outside the root element."""
        while True:
            self._skip_whitespace()
            if self._text.startswith("<!--", self._pos):
                yield self._parse_comment()
            elif self._text.startswith("<?", self._pos):
                yield self._parse_pi()
            else:
                return

    # -- markup -----------------------------------------------------------

    def _parse_comment(self) -> CommentEvent:
        line, column = self._line, self._column
        self._expect("<!--")
        body = self._scan_until("--", "comment")
        self._expect("--")
        if self._peek() != ">":
            self._error("'--' is not allowed inside comments")
        self._advance(1)
        return CommentEvent(line=line, column=column, text=body)

    def _parse_pi(self) -> ProcessingInstructionEvent:
        line, column = self._line, self._column
        self._expect("<?")
        target = self._parse_name()
        if target.lower() == "xml":
            self._error("processing instruction target may not be 'xml'")
        data = ""
        if self._peek() not in ("?",):
            self._skip_whitespace(required=True)
            data = self._scan_until("?>", "processing instruction")
        self._expect("?>")
        return ProcessingInstructionEvent(line=line, column=column, target=target, data=data)

    def _parse_quoted(self) -> str:
        quote = self._peek()
        if quote not in ("'", '"'):
            self._error("expected a quoted value")
        self._advance(1)
        raw = self._scan_until(quote, "quoted value")
        self._advance(1)
        if "<" in raw:
            self._error("'<' is not allowed in attribute values")
        # Attribute-value normalization: whitespace chars become spaces.
        normalized = raw.replace("\t", " ").replace("\n", " ")
        return self._resolve_entities(normalized)

    def _resolve_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        parts: list[str] = []
        index = 0
        while True:
            amp = raw.find("&", index)
            if amp < 0:
                parts.append(raw[index:])
                break
            parts.append(raw[index:amp])
            semi = raw.find(";", amp + 1)
            if semi < 0:
                self._error("unterminated entity reference")
            entity = raw[amp + 1 : semi]
            parts.append(self._expand_entity(entity))
            index = semi + 1
        return "".join(parts)

    def _expand_entity(self, entity: str) -> str:
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        if entity.startswith("#x") or entity.startswith("#X"):
            body, base = entity[2:], 16
        elif entity.startswith("#"):
            body, base = entity[1:], 10
        else:
            self._error(f"undefined entity &{entity};")
        try:
            code = int(body, base)
            ch = chr(code)
        except (ValueError, OverflowError):
            self._error(f"invalid character reference &{entity};")
        if not chars.is_xml_char(ch):
            self._error(f"character reference &{entity}; is not a legal XML character")
        return ch

    # -- element content ---------------------------------------------------

    def _parse_element(self) -> Iterator[Event]:
        """Parse one element (the root); iterative to handle deep trees."""
        first = self._parse_start_tag()
        yield first
        if first.empty:
            yield EndElementEvent(line=first.line, column=first.column, name=first.name)
            return
        self._open_elements.append(first.name)
        while self._open_elements:
            if self._at_end():
                self._error(f"unexpected end of document inside <{self._open_elements[-1]}>")
            if self._text.startswith("<!--", self._pos):
                yield self._parse_comment()
            elif self._text.startswith("<![CDATA[", self._pos):
                yield self._parse_cdata()
            elif self._text.startswith("</", self._pos):
                yield self._parse_end_tag()
            elif self._text.startswith("<?", self._pos):
                yield self._parse_pi()
            elif self._text.startswith("<!", self._pos):
                self._error("unexpected markup declaration in content")
            elif self._peek() == "<":
                start = self._parse_start_tag()
                yield start
                if start.empty:
                    yield EndElementEvent(
                        line=start.line, column=start.column, name=start.name
                    )
                else:
                    self._open_elements.append(start.name)
            else:
                event = self._parse_characters()
                if event is not None:
                    yield event

    def _parse_start_tag(self) -> StartElementEvent:
        line, column = self._line, self._column
        self._expect("<")
        name = self._parse_name()
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            had_space = self._peek() in chars.WHITESPACE
            self._skip_whitespace()
            if self._peek(2) == "/>":
                self._advance(2)
                return StartElementEvent(
                    line=line, column=column, name=name,
                    attributes=tuple(attributes), empty=True,
                )
            if self._peek() == ">":
                self._advance(1)
                return StartElementEvent(
                    line=line, column=column, name=name,
                    attributes=tuple(attributes), empty=False,
                )
            if not had_space:
                self._error(f"expected whitespace before attribute in <{name}>")
            attr_name = self._parse_name()
            if attr_name in seen:
                self._error(f"duplicate attribute {attr_name!r} in <{name}>")
            seen.add(attr_name)
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            attributes.append((attr_name, self._parse_quoted()))

    def _parse_end_tag(self) -> EndElementEvent:
        line, column = self._line, self._column
        self._expect("</")
        name = self._parse_name()
        self._skip_whitespace()
        self._expect(">")
        if not self._open_elements:
            self._error(f"unmatched end tag </{name}>")
        expected = self._open_elements.pop()
        if name != expected:
            self._error(f"mismatched end tag: expected </{expected}>, found </{name}>")
        return EndElementEvent(line=line, column=column, name=name)

    def _parse_cdata(self) -> CDataEvent:
        line, column = self._line, self._column
        self._expect("<![CDATA[")
        body = self._scan_until("]]>", "CDATA section")
        self._expect("]]>")
        return CDataEvent(line=line, column=column, text=body)

    def _parse_characters(self) -> CharactersEvent | None:
        line, column = self._line, self._column
        index = self._text.find("<", self._pos)
        if index < 0:
            index = len(self._text)
        raw = self._advance(index - self._pos)
        if "]]>" in raw:
            self._error("']]>' is not allowed in character data")
        text = self._resolve_entities(raw)
        if not text:
            return None
        return CharactersEvent(line=line, column=column, text=text)


def reference_events(source: str) -> list[Event]:
    """Parse ``source`` eagerly with the reference parser."""
    return list(ReferenceParser(source).events())
