"""A lightweight element tree over the pull parser.

:class:`Element` is deliberately small: tag, attributes, text, children,
plus the namespace context captured where the element appeared — the last
part being what the XML Schema parser needs to resolve prefix-qualified
``type`` attribute *values* like ``xsd:integer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import XMLError
from repro.xmlparse.events import (
    CDataEvent,
    CharactersEvent,
    EndElementEvent,
    StartElementEvent,
)
from repro.xmlparse.namespaces import NamespaceScope, split_qname
from repro.xmlparse.parser import PullParser


@dataclass
class Element:
    """One element of a parsed document.

    Attributes
    ----------
    tag:
        Raw qualified name as written in the document (``xsd:element``).
    attributes:
        Attribute mapping in document order (raw names).
    children:
        Child elements in document order.
    text:
        Concatenated character data directly inside this element
        (both plain text and CDATA), stripped of nothing.
    namespace:
        Resolved namespace URI of the element itself (or ``None``).
    local:
        Local part of the tag name.
    scope:
        Snapshot of prefix→URI bindings in scope at this element; used to
        resolve qualified names appearing in attribute values.
    line, column:
        Start position in the source document.
    """

    tag: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["Element"] = field(default_factory=list)
    text: str = ""
    namespace: str | None = None
    local: str = ""
    scope: dict[str | None, str | None] = field(default_factory=dict)
    line: int = 0
    column: int = 0

    # -- attribute access --------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return an attribute value by raw name."""
        return self.attributes.get(name, default)

    def require(self, name: str) -> str:
        """Return an attribute value, raising if absent."""
        try:
            return self.attributes[name]
        except KeyError:
            raise XMLError(
                f"<{self.tag}> at line {self.line} is missing required "
                f"attribute {name!r}"
            ) from None

    def resolve_value_qname(self, value: str) -> tuple[str | None, str]:
        """Resolve a prefix-qualified name found in an attribute value.

        ``type="xsd:integer"`` resolves against the bindings in scope at
        this element.  Unprefixed values resolve to ``(None, value)`` —
        attribute-value names do not pick up the default namespace in the
        schema dialect we accept (matching the paper's examples, which
        leave user types unprefixed).
        """
        prefix, local = split_qname(value)
        if prefix is None:
            return None, local
        if prefix not in self.scope or self.scope[prefix] is None:
            raise XMLError(
                f"prefix {prefix!r} in attribute value {value!r} is not bound "
                f"at line {self.line}"
            )
        return self.scope[prefix], local

    # -- tree navigation ---------------------------------------------------

    def find(self, local: str, namespace: str | None = "*") -> "Element | None":
        """First direct child with local name ``local`` (any namespace by
        default), or ``None``."""
        for child in self.children:
            if child.local == local and namespace in ("*", child.namespace):
                return child
        return None

    def findall(self, local: str, namespace: str | None = "*") -> list["Element"]:
        """All direct children with local name ``local``."""
        return [
            child
            for child in self.children
            if child.local == local and namespace in ("*", child.namespace)
        ]

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __iter__(self) -> Iterator["Element"]:
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Element {self.tag} at line {self.line} with {len(self.children)} children>"


def parse_document(source: str) -> Element:
    """Parse ``source`` into an element tree and return the root.

    Namespace declarations are processed; each element records its
    resolved namespace and a snapshot of the bindings in scope.
    """
    scope = NamespaceScope()
    root: Element | None = None
    stack: list[Element] = []
    parser = PullParser(source)
    for kind, pos, fields in parser._scan():
        if kind is StartElementEvent:
            tag, attributes, _ = fields
            scope.push(attributes)
            namespace, local = scope.resolve_qname(tag)
            line, column = parser._locate(pos)
            element = Element(
                tag=tag,
                attributes=dict(attributes),
                namespace=namespace,
                local=local,
                scope=scope.bindings(),
                line=line,
                column=column,
            )
            # Attribute names with prefixes must resolve too (check only;
            # raw names stay the lookup keys, matching the paper's usage).
            for attr_name in element.attributes:
                if ":" in attr_name and not attr_name.startswith("xmlns"):
                    scope.resolve_qname(attr_name, use_default=False)
            if stack:
                stack[-1].children.append(element)
            elif root is None:
                root = element
            stack.append(element)
        elif kind is EndElementEvent:
            stack.pop()
            scope.pop()
        elif kind is CharactersEvent or kind is CDataEvent:
            stack[-1].text += fields[0]
    if root is None:
        raise XMLError("document has no root element")
    return root


def parse_fragment(source: str) -> Element:
    """Parse a fragment that may lack an XML declaration.

    Identical to :func:`parse_document`; provided for call sites that
    semantically handle fragments (e.g. schema snippets in tests).
    """
    return parse_document(source)
