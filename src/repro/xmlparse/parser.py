"""A streaming pull parser for XML 1.0.

:class:`PullParser` consumes a complete document string and yields
:mod:`~repro.xmlparse.events` in document order.  It enforces
well-formedness (matching tags, single root, unique attribute names, legal
name characters, legal characters everywhere in the document) and resolves
the predefined entities and numeric character references.  A DOCTYPE
declaration, if present, is tolerated and skipped — external and internal
DTD subsets are explicitly out of scope (the paper itself dismisses DTDs as
insufficient for typed metadata and moves to XML Schema).

Line endings are normalized (``\\r\\n`` and ``\\r`` become ``\\n``) before
parsing, as required by the XML specification, so reported line numbers
and attribute values are identical regardless of the producing platform.
A single leading byte-order mark is dropped.

The scanner is driven by regular expressions compiled once, at import,
from the range tables in :mod:`~repro.xmlparse.chars`: a ``Name``, a run
of whitespace, a whole attribute.  Each pattern is a sequence of
quantified character classes that cannot match each other's input (no
nested quantifiers), so scanning is linear in the document.  Where the
whole-attribute pattern does not match, the tag is re-read one step at a
time to say exactly what is wrong and where; line and column are derived
from offsets when an event or error is produced.
"""

from __future__ import annotations

import re
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

_S = "[ \t\n]"  # production [3]; "\r" is gone after line-end normalization
_NAME = (
    chars.char_class(chars._NAME_START_RANGES)
    + chars.char_class(chars._NAME_START_RANGES, chars._NAME_EXTRA_RANGES)
    + "*"
)
_match_space = re.compile(f"{_S}*").match  # never fails
_match_name = re.compile(_NAME).match
#: ``S Name Eq AttValue`` with no ``<`` in the value: groups name, "value", 'value'.
_match_attribute = re.compile(
    f"{_S}+({_NAME}){_S}*={_S}*(?:\"([^<\"]*)\"|'([^<']*)')"
).match
_find_doctype_delimiters = re.compile(r"[\[\]>]").finditer
_entity_reference = re.compile("&([^;]*)(;?)")


class PullParser:
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
        if source.startswith("\ufeff"):
            source = source[1:]
        self._text = source.replace("\r\n", "\n").replace("\r", "\n")
        # Line/column of the last located offset (see _locate).
        self._mark = 0
        self._line = 1
        self._line_start = 0
        self._exhausted = False

    # -- public API -------------------------------------------------------

    def events(self) -> Iterator[Event]:
        """Yield every event in the document, checking well-formedness.

        Raises :class:`~repro.errors.XMLSyntaxError` on the first
        violation.
        """
        for kind, pos, fields in self._scan():
            yield kind(*self._locate(pos), *fields)

    def _scan(self) -> Iterator[tuple[type[Event], int, tuple]]:
        """The scanner proper: ``(event class, offset, other fields)``.

        :meth:`events` turns each item into an event; the tree builder
        reads the items directly and locates only what it keeps.
        """
        if self._exhausted:
            raise XMLSyntaxError("PullParser instances are single-use")
        self._exhausted = True
        text = self._text
        illegal = chars.find_illegal_char(text)
        if illegal is not None:
            self._error(f"illegal character U+{ord(illegal[0]):04X}", illegal.start())
        pos = 0
        # A PI whose target merely starts with "xml" is not the declaration.
        if text.startswith("<?xml") and _match_name(text, 2).end() == 5:
            decl, pos = self._parse_xml_decl()
            yield decl
        pos = yield from self._parse_misc(pos)
        pos = yield from self._parse_misc(self._skip_doctype(pos))
        if pos == len(text):
            self._error("document has no root element", pos)
        pos = yield from self._parse_element(pos)
        pos = yield from self._parse_misc(pos)
        if pos != len(text):
            self._error("content after document root element", pos)

    # -- positions and shared steps ------------------------------------------

    def _locate(self, pos: int) -> tuple[int, int]:
        """1-based (line, column) of offset ``pos``.

        Offsets only ever ascend — items are located in document order,
        and an error lies at or after the last item scanned — so newlines
        are counted from the previously located offset: one pass over the
        text in total.
        """
        newlines = self._text.count("\n", self._mark, pos)
        if newlines:
            self._line += newlines
            self._line_start = self._text.rfind("\n", self._mark, pos) + 1
        self._mark = pos
        return self._line, pos - self._line_start + 1

    def _error(self, message: str, pos: int) -> None:
        raise XMLSyntaxError(message, *self._locate(pos))

    def _name(self, pos: int) -> str:
        match = _match_name(self._text, pos)
        if match is None:
            self._error("expected an XML name", pos)
        return match[0]

    def _eq_value(self, pos: int) -> tuple[str, int]:
        """``Eq AttValue`` at ``pos``, one diagnosed step at a time."""
        text = self._text
        pos = _match_space(text, pos).end()
        if not text.startswith("=", pos):
            self._error("expected '='", pos)
        pos = _match_space(text, pos + 1).end()
        quote = text[pos : pos + 1]
        if quote not in ("'", '"'):
            self._error("expected a quoted value", pos)
        end = text.find(quote, pos + 1)
        if end < 0:
            self._error(f"unterminated quoted value: missing {quote!r}", pos + 1)
        raw = text[pos + 1 : end]
        if "<" in raw:
            self._error("'<' is not allowed in attribute values", end + 1)
        return self._attribute_value(raw, end + 1), end + 1

    def _attribute_value(self, raw: str, pos: int) -> str:
        # Attribute-value normalization: whitespace chars become spaces.
        return self._resolve_entities(raw.replace("\t", " ").replace("\n", " "), pos)

    def _resolve_entities(self, raw: str, pos: int) -> str:
        if "&" not in raw:
            return raw
        return _entity_reference.sub(lambda match: self._expand_entity(match, pos), raw)

    def _expand_entity(self, match: re.Match, pos: int) -> str:
        entity, semicolon = match.groups()
        if not semicolon:
            self._error("unterminated entity reference", pos)
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        if entity.startswith("#x") or entity.startswith("#X"):
            body, base = entity[2:], 16
        elif entity.startswith("#"):
            body, base = entity[1:], 10
        else:
            self._error(f"undefined entity &{entity};", pos)
        try:
            ch = chr(int(body, base))
        except (ValueError, OverflowError):
            self._error(f"invalid character reference &{entity};", pos)
        if not chars.is_xml_char(ch):
            self._error(f"character reference &{entity}; is not a legal XML character", pos)
        return ch

    # -- prolog -----------------------------------------------------------

    def _parse_xml_decl(self):
        text = self._text
        params: dict[str, str] = {}
        pos = 5
        while True:
            pos = _match_space(text, pos).end()
            if text.startswith("?>", pos):
                pos += 2
                break
            name = self._name(pos)
            params[name], pos = self._eq_value(pos + len(name))
        version = params.get("version")
        if version is None:
            self._error("XML declaration missing version", pos)
        fields = (version, params.get("encoding"), params.get("standalone"))
        return (XMLDeclEvent, 0, fields), pos

    def _skip_doctype(self, pos: int) -> int:
        if not self._text.startswith("<!DOCTYPE", pos):
            return pos
        depth = 0
        for delimiter in _find_doctype_delimiters(self._text, pos + len("<!DOCTYPE")):
            if delimiter[0] == "[":
                depth += 1
            elif delimiter[0] == "]":
                depth -= 1
            elif depth == 0:
                return delimiter.end()
        self._error("unterminated DOCTYPE declaration", len(self._text))

    def _parse_misc(self, pos: int):
        """Comments, PIs and whitespace outside the root element."""
        text = self._text
        while True:
            pos = _match_space(text, pos).end()
            if text.startswith("<!--", pos):
                item, pos = self._parse_comment(pos)
            elif text.startswith("<?", pos):
                item, pos = self._parse_pi(pos)
            else:
                return pos
            yield item

    # -- markup -----------------------------------------------------------

    def _parse_comment(self, pos: int):
        text = self._text
        end = text.find("--", pos + 4)
        if end < 0:
            self._error("unterminated comment: missing '--'", pos + 4)
        if not text.startswith(">", end + 2):
            self._error("'--' is not allowed inside comments", end + 2)
        return (CommentEvent, pos, (text[pos + 4 : end],)), end + 3

    def _parse_pi(self, pos: int):
        text = self._text
        target = self._name(pos + 2)
        cursor = pos + 2 + len(target)
        if target.lower() == "xml":
            self._error("processing instruction target may not be 'xml'", cursor)
        data = ""
        if not text.startswith("?", cursor):
            start = _match_space(text, cursor).end()
            if start == cursor:
                self._error("expected whitespace", cursor)
            cursor = text.find("?>", start)
            if cursor < 0:
                self._error("unterminated processing instruction: missing '?>'", start)
            data = text[start:cursor]
        if not text.startswith("?>", cursor):
            self._error("expected '?>'", cursor)
        return (ProcessingInstructionEvent, pos, (target, data)), cursor + 2

    def _parse_cdata(self, pos: int):
        start = pos + len("<![CDATA[")
        end = self._text.find("]]>", start)
        if end < 0:
            self._error("unterminated CDATA section: missing ']]>'", start)
        return (CDataEvent, pos, (self._text[start:end],)), end + 3

    # -- element content ---------------------------------------------------

    def _parse_element(self, pos: int):
        """Parse one element (the root); iterative to handle deep trees."""
        text = self._text
        length = len(text)
        open_elements: list[str] = []
        at_root = True  # whatever stands here has to be the root's start tag
        while at_root or open_elements:
            if pos >= length:
                self._error(f"unexpected end of document inside <{open_elements[-1]}>", pos)
            following = text[pos + 1 : pos + 2]
            if at_root or (text[pos] == "<" and following not in ("/", "!", "?")):
                at_root = False
                fields, end = self._parse_start_tag(pos)
                yield StartElementEvent, pos, fields
                if fields[2]:  # <empty/>: its end tag, at the same place
                    yield EndElementEvent, pos, fields[:1]
                else:
                    open_elements.append(fields[0])
                pos = end
            elif text[pos] != "<":
                end = text.find("<", pos)
                if end < 0:
                    end = length
                raw = text[pos:end]
                if "]]>" in raw:
                    self._error("']]>' is not allowed in character data", end)
                yield CharactersEvent, pos, (self._resolve_entities(raw, end),)
                pos = end
            elif following == "/":
                name = self._name(pos + 2)
                close = _match_space(text, pos + 2 + len(name)).end()
                if not text.startswith(">", close):
                    self._error("expected '>'", close)
                expected = open_elements.pop()
                if name != expected:
                    self._error(
                        f"mismatched end tag: expected </{expected}>, found </{name}>",
                        close + 1,
                    )
                yield EndElementEvent, pos, (name,)
                pos = close + 1
            elif following == "?":
                item, pos = self._parse_pi(pos)
                yield item
            elif text.startswith("<!--", pos):
                item, pos = self._parse_comment(pos)
                yield item
            elif text.startswith("<![CDATA[", pos):
                item, pos = self._parse_cdata(pos)
                yield item
            else:
                self._error("unexpected markup declaration in content", pos)
        return pos

    def _parse_start_tag(self, pos: int) -> tuple[tuple, int]:
        """``(name, attributes, empty)`` of the tag at ``pos``, and its end."""
        text = self._text
        if not text.startswith("<", pos):
            self._error("expected '<'", pos)
        name = self._name(pos + 1)
        cursor = pos + 1 + len(name)
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            match = _match_attribute(text, cursor)
            if match is not None:
                attr_name, name_end = match[1], match.end(1)
            else:
                # Not a whole attribute: the end of the tag, or an error.
                space = _match_space(text, cursor).end()
                empty = text.startswith("/>", space)
                if empty or text.startswith(">", space):
                    return (name, tuple(attributes), empty), space + (2 if empty else 1)
                if space == cursor < len(text):
                    self._error(f"expected whitespace before attribute in <{name}>", space)
                attr_name = self._name(space)
                name_end = space + len(attr_name)
            if attr_name in seen:
                self._error(f"duplicate attribute {attr_name!r} in <{name}>", name_end)
            seen.add(attr_name)
            if match is None:
                value, cursor = self._eq_value(name_end)
            else:
                value, cursor = match[match.lastindex], match.end()
                if "&" in value or "\t" in value or "\n" in value:
                    value = self._attribute_value(value, cursor)
            attributes.append((attr_name, value))


def parse_events(source: str) -> list[Event]:
    """Parse ``source`` eagerly and return the full event list."""
    return list(PullParser(source).events())
