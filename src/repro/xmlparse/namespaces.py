"""Namespace processing per the *Namespaces in XML* recommendation.

xml2wire metadata leans on namespaces: schema documents bind the XML
Schema namespace to a prefix (conventionally ``xsd``) and reference the
primitive datatypes through it, and ``type`` attribute *values* are
themselves prefix-qualified names that must be resolved against the
declarations in scope.  :class:`NamespaceScope` provides exactly that
resolution as a persistent stack of bindings.
"""

from __future__ import annotations

from repro.errors import XMLError

#: Reserved bindings that are always in scope (Namespaces in XML §3).
XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"
XMLNS_NAMESPACE = "http://www.w3.org/2000/xmlns/"


def split_qname(qname: str) -> tuple[str | None, str]:
    """Split ``prefix:local`` into ``(prefix, local)``.

    Returns ``(None, qname)`` for unprefixed names.  Raises
    :class:`~repro.errors.XMLError` for names with empty halves or more
    than one colon, which namespaces forbid.
    """
    if ":" not in qname:
        return None, qname
    prefix, _, local = qname.partition(":")
    if not prefix or not local or ":" in local:
        raise XMLError(f"{qname!r} is not a valid qualified name")
    return prefix, local


class NamespaceScope:
    """A stack of namespace bindings tracking element nesting.

    Call :meth:`push` with each element's attributes on entry and
    :meth:`pop` on exit.  :meth:`resolve` maps a prefix (or ``None`` for
    the default namespace) to a URI.
    """

    def __init__(self) -> None:
        # One flattened prefix -> URI mapping per open element; an element
        # that declares nothing shares its parent's.
        self._stack: list[dict[str | None, str | None]] = [
            {"xml": XML_NAMESPACE, "xmlns": XMLNS_NAMESPACE, None: None}
        ]

    def push(self, attributes: tuple[tuple[str, str], ...]) -> None:
        """Enter an element, recording any ``xmlns`` declarations."""
        frame: dict[str | None, str | None] = {}
        for name, value in attributes:
            if name == "xmlns":
                frame[None] = value or None
            elif name.startswith("xmlns:"):
                prefix = name[len("xmlns:"):]
                if not prefix:
                    raise XMLError("empty namespace prefix declaration")
                if prefix in ("xml", "xmlns") and value not in (
                    XML_NAMESPACE,
                    XMLNS_NAMESPACE,
                ):
                    raise XMLError(f"prefix {prefix!r} may not be rebound")
                if not value:
                    raise XMLError(
                        f"prefix {prefix!r} may not be bound to the empty namespace"
                    )
                frame[prefix] = value
        inherited = self._stack[-1]
        self._stack.append({**inherited, **frame} if frame else inherited)

    def pop(self) -> None:
        """Leave an element, dropping its declarations."""
        if len(self._stack) <= 1:
            raise XMLError("namespace scope underflow")
        self._stack.pop()

    def resolve(self, prefix: str | None) -> str | None:
        """Return the URI bound to ``prefix``, or raise if unbound.

        ``resolve(None)`` returns the default namespace, which may
        legitimately be ``None`` (no default declared).
        """
        try:
            return self._stack[-1][prefix]
        except KeyError:
            raise XMLError(f"namespace prefix {prefix!r} is not bound") from None

    def resolve_qname(self, qname: str, *, use_default: bool = True) -> tuple[str | None, str]:
        """Resolve ``prefix:local`` to ``(namespace_uri, local)``.

        ``use_default`` controls whether unprefixed names pick up the
        default namespace — true for element names, false for attribute
        names (which never do, per the recommendation).
        """
        prefix, local = split_qname(qname)
        if prefix is None and not use_default:
            return None, local
        return self.resolve(prefix), local

    def bindings(self) -> dict[str | None, str | None]:
        """Every binding currently in scope, flattened.

        Elements that declare nothing share one mapping: read it, do not
        modify it.
        """
        return self._stack[-1]
