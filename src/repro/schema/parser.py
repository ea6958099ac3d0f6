"""Parse XML Schema documents into the object model.

The accepted dialect is the paper's (Figures 6, 9, 12): an ``xsd:schema``
root containing ``xsd:annotation``, ``xsd:complexType`` and
``xsd:simpleType`` children, with complex types composing ``xsd:element``
declarations either directly (as the paper writes them) or inside an
``xsd:sequence`` wrapper (as the final recommendation requires).  Both the
1999 and 2001 schema namespaces are accepted.

Strictness policy: unknown constructs raise
:class:`~repro.errors.SchemaError` rather than being skipped.  Metadata
drives binary marshaling — silently ignoring part of a format description
would produce corrupt wire data, the worst possible failure mode.
"""

from __future__ import annotations

import os

from repro.errors import SchemaError
from repro.schema.datatypes import is_xsd_namespace, lookup_primitive
from repro.schema.model import (
    ComplexType,
    ElementDecl,
    Occurs,
    SchemaDocument,
    SimpleType,
)
from repro.xmlparse.tree import Element, parse_document


def parse_schema(source: str) -> SchemaDocument:
    """Parse a schema document from XML text."""
    return _build_schema(parse_document(source))


def parse_schema_file(path: str | os.PathLike) -> SchemaDocument:
    """Parse a schema document from a file (UTF-8).

    I/O failures surface as :class:`~repro.errors.SchemaError` so
    callers handle one exception family for "could not get metadata".
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_schema(handle.read())
    except OSError as exc:
        raise SchemaError(f"cannot read schema document {os.fspath(path)!r}: {exc}") from exc


def _build_schema(root: Element) -> SchemaDocument:
    if root.local != "schema" or not is_xsd_namespace(root.namespace):
        raise SchemaError(
            f"expected an xsd:schema root element, found <{root.tag}> "
            f"in namespace {root.namespace!r}"
        )
    schema = SchemaDocument(target_namespace=root.get("targetNamespace"))
    for child in root.children:
        if not is_xsd_namespace(child.namespace):
            raise SchemaError(
                f"unexpected non-schema element <{child.tag}> at line {child.line}"
            )
        if child.local == "annotation":
            schema.documentation += _annotation_text(child)
        elif child.local == "complexType":
            complex_type = _build_complex_type(child, schema)
            if complex_type.name in schema.complex_types:
                raise SchemaError(f"duplicate complex type {complex_type.name!r}")
            schema.complex_types[complex_type.name] = complex_type
        elif child.local == "simpleType":
            simple_type = _build_simple_type(child)
            if simple_type.name in schema.simple_types:
                raise SchemaError(f"duplicate simple type {simple_type.name!r}")
            schema.simple_types[simple_type.name] = simple_type
        else:
            raise SchemaError(
                f"unsupported schema construct <{child.tag}> at line {child.line}"
            )
    if not schema.complex_types and not schema.simple_types:
        raise SchemaError("schema defines no types")
    return schema


def _annotation_text(annotation: Element) -> str:
    parts = [doc.text.strip() for doc in annotation.findall("documentation")]
    return "\n".join(part for part in parts if part)


def _require_name(node: Element, attribute: str = "name") -> str:
    """A type, element or length-field name; ``[A-Za-z_][A-Za-z0-9_]*`` only.

    Schema names become format and field names, which end up inside
    run-time generated source — and a schema may come from a URL.
    """
    name = node.require(attribute)
    if not (name.isascii() and name.isidentifier()):
        raise SchemaError(
            f"<{node.tag}> at line {node.line}: {attribute} {name!r} is not "
            f"a valid name (names must match [A-Za-z_][A-Za-z0-9_]*)"
        )
    return name


def _build_complex_type(node: Element, schema: SchemaDocument) -> ComplexType:
    name = _require_name(node)
    documentation = ""
    element_nodes: list[Element] = []
    for child in node.children:
        if child.local == "annotation":
            documentation += _annotation_text(child)
        elif child.local == "sequence":
            element_nodes.extend(
                grand for grand in child.children if grand.local != "annotation"
            )
        elif child.local == "element":
            element_nodes.append(child)
        else:
            raise SchemaError(
                f"complex type {name!r}: unsupported construct <{child.tag}> "
                f"at line {child.line}"
            )
    declared: list[ElementDecl] = []
    for element_node in element_nodes:
        if element_node.local != "element":
            raise SchemaError(
                f"complex type {name!r}: unsupported construct "
                f"<{element_node.tag}> at line {element_node.line}"
            )
        declared.append(_build_element(element_node, name))
    elements = _resolve_dynamic_lengths(name, declared)
    complex_type = ComplexType(
        name=name, elements=tuple(elements), documentation=documentation
    )
    _check_type_references(complex_type, schema)
    return complex_type


def _build_element(node: Element, owner: str) -> ElementDecl:
    name = _require_name(node)
    type_attr = node.require("type")
    type_namespace, type_name = node.resolve_value_qname(type_attr)
    min_occurs = node.get("minOccurs")
    min_occurs = (
        1 if min_occurs is None else _parse_occurs(min_occurs, "minOccurs", owner, name)
    )
    max_occurs = node.get("maxOccurs")
    if max_occurs is None or max_occurs == "1":
        occurs = Occurs.scalar() if min_occurs == 1 else Occurs(min_occurs=min_occurs)
    elif max_occurs.isdigit():
        occurs = Occurs.fixed(
            _parse_occurs(max_occurs, "maxOccurs", owner, name), min_occurs=min_occurs
        )
    elif max_occurs in ("*", "unbounded"):
        occurs = Occurs.dynamic(f"{name}_count", synthesized=True, min_occurs=min_occurs)
    else:
        occurs = Occurs.dynamic(
            _require_name(node, "maxOccurs"), min_occurs=min_occurs
        )
    return ElementDecl(
        name=name,
        type_namespace=type_namespace,
        type_name=type_name,
        occurs=occurs,
    )


def _parse_occurs(raw: str, attribute: str, owner: str, name: str) -> int:
    try:
        if raw.isdigit():
            return int(raw)
    except ValueError:  # digits int() does not take, or too many of them
        pass
    raise SchemaError(
        f"complex type {owner!r}, element {name!r}: {attribute} must be "
        f"a non-negative integer, got {raw!r}"
    )


def _resolve_dynamic_lengths(
    owner: str, declared: list[ElementDecl]
) -> list[ElementDecl]:
    """Check explicit length-field references and absorb declared ones.

    A ``maxOccurs="fieldName"`` reference must name an integer element of
    the same complex type (the paper: "an element of type xsd:integer
    with an identical name attribute must be present").  A synthesized
    ``<name>_count`` that collides with a declared element simply adopts
    the declared element as its length field.
    """
    by_name = {element.name: element for element in declared}
    for element in declared:
        occurs = element.occurs
        if not occurs.is_dynamic_array:
            continue
        length_name = occurs.length_field
        target = by_name.get(length_name)
        if target is None:
            if occurs.synthesized_length:
                continue  # stays synthesized: an implicit native field
            raise SchemaError(
                f"complex type {owner!r}: element {element.name!r} sizes its "
                f"array with {length_name!r}, but no such element is declared"
            )
        if not is_xsd_namespace(target.type_namespace) or lookup_primitive(
            target.type_name
        ).kind.value not in ("integer", "unsigned"):
            raise SchemaError(
                f"complex type {owner!r}: array length field {length_name!r} "
                f"must be an integer type, found {target.type_name!r}"
            )
        if not target.occurs.is_scalar:
            raise SchemaError(
                f"complex type {owner!r}: array length field {length_name!r} "
                f"must be a scalar"
            )
        if occurs.synthesized_length:
            # maxOccurs="*" and a declared <name>_count: use the declared one.
            by_name[element.name] = ElementDecl(
                name=element.name,
                type_namespace=element.type_namespace,
                type_name=element.type_name,
                occurs=Occurs.dynamic(length_name, min_occurs=occurs.min_occurs),
            )
    return [by_name[element.name] for element in declared]


def _build_simple_type(node: Element) -> SimpleType:
    name = _require_name(node)
    restriction = node.find("restriction")
    if restriction is None:
        raise SchemaError(
            f"simple type {name!r}: only restriction-based definitions are "
            f"supported (line {node.line})"
        )
    base_namespace, base_name = restriction.resolve_value_qname(
        restriction.require("base")
    )
    if not is_xsd_namespace(base_namespace):
        raise SchemaError(
            f"simple type {name!r}: restriction base must be a primitive "
            f"xsd type, got {restriction.get('base')!r}"
        )
    base = lookup_primitive(base_name)
    enumeration: list[str] = []
    min_inclusive: int | float | None = None
    max_inclusive: int | float | None = None
    for facet in restriction.children:
        if facet.local == "enumeration":
            enumeration.append(facet.require("value"))
        elif facet.local == "minInclusive":
            min_inclusive = base.validate_lexical(facet.require("value"))
        elif facet.local == "maxInclusive":
            max_inclusive = base.validate_lexical(facet.require("value"))
        elif facet.local == "annotation":
            continue
        else:
            raise SchemaError(
                f"simple type {name!r}: unsupported facet <{facet.tag}> "
                f"at line {facet.line}"
            )
    return SimpleType(
        name=name,
        base=base,
        enumeration=tuple(enumeration),
        min_inclusive=min_inclusive,
        max_inclusive=max_inclusive,
    )


def _check_type_references(complex_type: ComplexType, schema: SchemaDocument) -> None:
    """Every element type must be a primitive or an earlier user type."""
    for element in complex_type.elements:
        if is_xsd_namespace(element.type_namespace):
            lookup_primitive(element.type_name)  # raises if unknown
            continue
        if element.type_namespace not in (None, schema.target_namespace):
            raise SchemaError(
                f"complex type {complex_type.name!r}: element {element.name!r} "
                f"references foreign namespace {element.type_namespace!r}"
            )
        if (
            element.type_name not in schema.complex_types
            and element.type_name not in schema.simple_types
        ):
            raise SchemaError(
                f"complex type {complex_type.name!r}: element {element.name!r} "
                f"references undefined type {element.type_name!r} (user types "
                f"must be defined before use)"
            )
