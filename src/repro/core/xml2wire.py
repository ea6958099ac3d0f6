"""XML2Wire: parse XML Schema metadata and register it with the BCM.

The registration pipeline for each complex type (paper §4.2.2):

1. **Field Type** — map the element's ``type`` attribute to a PBIO type
   (primitives via :mod:`~repro.core.mapping`; previously defined names
   via the :class:`~repro.core.catalog.Catalog`).
2. **Field Size** — ``sizeof`` the mapped C type *on the target
   architecture* (the layout engine plays the role of the C compiler, so
   "the platform-dependent calculations are carried out ... on the same
   machine which will actually perform the PBIO calls").
3. **Field Offset** — computed with full padding awareness by the layout
   engine; the naive sum-of-sizes the paper warns about is demonstrably
   wrong on these structures (see ``tests/arch``).

Dynamic arrays follow the paper's three ``maxOccurs`` forms; a wildcard
array synthesizes the ``<name>_count`` integer field that Figure 8's
PBIO metadata shows but Figure 9's XML omits.

xml2wire performs no marshaling: the produced
:class:`~repro.pbio.IOFormat` objects are handed to the programmer (and
registered with the supplied context) "for later use".
"""

from __future__ import annotations

import os

from repro.arch.layout import FieldDecl, layout_struct
from repro.core.catalog import Catalog, CatalogEntry
from repro.core.mapping import map_primitive
from repro.errors import SchemaError
from repro.pbio.context import IOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.schema.datatypes import is_xsd_namespace, lookup_primitive
from repro.schema.model import ComplexType, ElementDecl, SchemaDocument
from repro.schema.parser import parse_schema, parse_schema_file


class XML2Wire:
    """The metadata tool: schema documents in, registered formats out.

    Parameters
    ----------
    context:
        The BCM endpoint to register formats with.  The context's
        architecture model determines all sizes and offsets, exactly as
        running the original tool on that machine would.
    """

    def __init__(self, context: IOContext) -> None:
        self.context = context
        self.catalog = Catalog()

    # -- registration entry points -----------------------------------------

    def register_schema(self, schema: SchemaDocument | str) -> list[IOFormat]:
        """Register every complex type of a schema document.

        ``schema`` may be a parsed document or XML text.  Returns the
        registered formats in definition order.  Complex types already
        in the catalog with identical metadata are skipped idempotently.
        """
        if isinstance(schema, str):
            schema = parse_schema(schema)
        registered: list[IOFormat] = []
        for complex_type in schema.complex_types.values():
            registered.append(self._register_complex_type(complex_type, schema))
        return registered

    def register_file(self, path: str | os.PathLike) -> list[IOFormat]:
        """Register formats from a schema document on the file system."""
        return self.register_schema(parse_schema_file(path))

    def register_url(self, url: str, client) -> list[IOFormat]:
        """Register formats from a remote schema document.

        ``client`` is a :class:`~repro.metaserver.MetadataClient` (or
        anything with a ``get_schema(url)`` method).
        """
        return self.register_schema(client.get_schema(url))

    def lookup(self, name: str) -> IOFormat:
        """Return a previously registered format by name."""
        return self.catalog.get(name).io_format

    # -- the Figure 2 pipeline ------------------------------------------------

    def _register_complex_type(
        self, complex_type: ComplexType, schema: SchemaDocument
    ) -> IOFormat:
        if complex_type.name in self.catalog:
            return self.catalog.get(complex_type.name).io_format
        members = self._members(complex_type, schema)
        layout = layout_struct(
            self.context.arch, complex_type.name, [decl for decl, _, _ in members]
        )
        # Slots come back in declaration order, one per member.
        io_fields = [
            IOField(
                slot.name,
                pbio_type,
                slot.element_size if size is None else size,
                slot.offset,
            )
            for (_, pbio_type, size), slot in zip(members, layout.slots)
        ]
        io_format = IOFormat(
            complex_type.name,
            io_fields,
            self.context.arch,
            record_length=layout.size,
            catalog=self.catalog.formats(),
        )
        io_format = self.context.adopt_format(io_format)
        self.catalog.add(
            CatalogEntry(
                name=complex_type.name,
                layout=layout,
                io_fields=tuple(io_fields),
                io_format=io_format,
            )
        )
        return io_format

    def _members(
        self, complex_type: ComplexType, schema: SchemaDocument
    ) -> list[tuple[FieldDecl, str, int | None]]:
        """Every native structure member the elements give rise to.

        One ``(C declaration, PBIO type string, field size)`` per member,
        in order; the size is ``None`` where it is the laid-out member's
        own element size (Field Size), and given where the member is a
        pointer to elements of that size or a nested structure.
        """
        arch = self.context.arch
        declared = set(complex_type.element_names())
        members: list[tuple[FieldDecl, str, int | None]] = []
        for element in complex_type.elements:
            name, occurs = element.name, element.occurs
            if not (
                is_xsd_namespace(element.type_namespace)
                or element.type_name in schema.simple_types
            ):
                # Composition by nesting: a previously defined complex type.
                if occurs.is_dynamic_array:
                    raise SchemaError(
                        f"complex type {complex_type.name!r}: dynamic arrays of "
                        f"nested types are not supported by the BCM (element {name!r})"
                    )
                nested = self.catalog.get(element.type_name)
                pbio_type = element.type_name
                if occurs.is_fixed_array:
                    pbio_type += f"[{occurs.count}]"
                decl = FieldDecl(name, nested.layout, occurs.count)
                members.append((decl, pbio_type, nested.structure_size))
                continue
            mapping = self._mapping_for(element, schema)
            if occurs.is_dynamic_array:
                if mapping.is_string:
                    raise SchemaError(
                        f"complex type {complex_type.name!r}: dynamic arrays of "
                        f"strings are not supported by the BCM (element {name!r})"
                    )
                length_field = occurs.length_field
                members.append(
                    (
                        FieldDecl(name, mapping.c_type + "*"),
                        f"{mapping.pbio_type}[{length_field}]",
                        arch.sizeof(mapping.c_type),
                    )
                )
                if occurs.synthesized_length and length_field not in declared:
                    members.append((FieldDecl(length_field, "int"), "integer", None))
                    declared.add(length_field)
            elif occurs.is_fixed_array:
                c_type = "char*" if mapping.is_string else mapping.c_type
                members.append(
                    (
                        FieldDecl(name, c_type, occurs.count),
                        f"{mapping.pbio_type}[{occurs.count}]",
                        None,
                    )
                )
            else:
                members.append((FieldDecl(name, mapping.c_type), mapping.pbio_type, None))
        return members

    def _mapping_for(self, element: ElementDecl, schema: SchemaDocument):
        if is_xsd_namespace(element.type_namespace):
            return map_primitive(lookup_primitive(element.type_name))
        simple = schema.simple_types.get(element.type_name)
        if simple is None:
            raise SchemaError(
                f"element {element.name!r} references unknown type "
                f"{element.type_name!r}"
            )
        return map_primitive(simple.base)
