"""Unit tests for the xml2wire tool — the paper's Figures 5/8/11 anchor.

The gold standard here is the paper itself: feeding the Appendix A
schema documents (Figures 6, 9, 12) through xml2wire must produce the
PBIO metadata printed in Figures 5, 8 and 11, with sizes and offsets
matching a SPARC compiler's layout of Figure 7/10's C structs.
"""

import pytest

from repro.arch import SPARC_32, X86_32, X86_64
from repro.core import XML2Wire
from repro.errors import FormatRegistrationError, SchemaError
from repro.pbio import IOContext

from tests.schema.conftest import FIGURE_6, FIGURE_9, FIGURE_12


def tool_on(arch):
    return XML2Wire(IOContext(arch))


class TestFigure5FromFigure6:
    """Structure A: no arrays, no nesting."""

    def test_structure_size_matches_table1(self):
        fmt = tool_on(SPARC_32).register_schema(FIGURE_6)[0]
        assert fmt.record_length == 32

    def test_field_metadata_matches_figure5(self):
        fmt = tool_on(SPARC_32).register_schema(FIGURE_6)[0]
        expected = [
            ("cntrID", "string", 4, 0),
            ("arln", "string", 4, 4),
            ("fltNum", "integer", 4, 8),
            ("equip", "string", 4, 12),
            ("org", "string", 4, 16),
            ("dest", "string", 4, 20),
            ("off", "unsigned integer", 4, 24),
            ("eta", "unsigned integer", 4, 28),
        ]
        actual = [(f.name, f.type, f.size, f.offset) for f in fmt.fields]
        assert actual == expected

    def test_sizes_adapt_to_architecture(self):
        """Run-time sizing: the same XML registers different native sizes
        on an LP64 machine — the architecture independence the paper
        claims for XML metadata."""
        fmt64 = tool_on(X86_64).register_schema(FIGURE_6)[0]
        assert fmt64.field("cntrID").size == 8  # char* on LP64
        assert fmt64.field("off").size == 8  # unsigned long on LP64
        assert fmt64.record_length == 64


class TestFigure8FromFigure9:
    """Structure B: static and dynamically-allocated arrays."""

    def test_structure_size_matches_table1(self):
        fmt = tool_on(SPARC_32).register_schema(FIGURE_9)[0]
        assert fmt.record_length == 52

    def test_field_metadata_matches_figure8(self):
        fmt = tool_on(SPARC_32).register_schema(FIGURE_9)[0]
        expected = [
            ("cntrID", "string", 4, 0),
            ("arln", "string", 4, 4),
            ("fltNum", "integer", 4, 8),
            ("equip", "string", 4, 12),
            ("org", "string", 4, 16),
            ("dest", "string", 4, 20),
            ("off", "unsigned integer[5]", 4, 24),
            ("eta", "unsigned integer[eta_count]", 4, 44),
            ("eta_count", "integer", 4, 48),
        ]
        actual = [(f.name, f.type, f.size, f.offset) for f in fmt.fields]
        assert actual == expected

    def test_synthesized_count_field_appended(self):
        """Figure 9's XML has no eta_count element, but Figure 8's PBIO
        metadata does: xml2wire synthesizes it."""
        fmt = tool_on(SPARC_32).register_schema(FIGURE_9)[0]
        assert fmt.field_names()[-1] == "eta_count"


class TestFigure11FromFigure12:
    """Structures C and D: composition by nesting."""

    def test_structure_size_matches_table1(self):
        formats = tool_on(SPARC_32).register_schema(FIGURE_12)
        outer = formats[1]
        assert outer.name == "threeASDOffs"
        # sizeof == 184 with tail padding; the paper's 180 is the
        # offset past the last member (see tests/arch/test_layout.py).
        assert outer.record_length == 184
        layout = tool_on(SPARC_32).catalog  # fresh tool for the entry
        assert outer.field("three").offset + outer.field("three").size == 180

    def test_nested_field_metadata_matches_figure11(self):
        formats = tool_on(SPARC_32).register_schema(FIGURE_12)
        outer = formats[1]
        names_types = [(f.name, f.type) for f in outer.fields]
        assert names_types == [
            ("one", "ASDOffEvent"),
            ("bart", "double"),
            ("two", "ASDOffEvent"),
            ("lisa", "double"),
            ("three", "ASDOffEvent"),
        ]
        assert outer.field("one").size == 52
        assert outer.field("bart").offset == 56  # double aligned to 8

    def test_nested_format_resolves_to_registered_inner(self):
        tool = tool_on(SPARC_32)
        inner, outer = tool.register_schema(FIGURE_12)
        assert outer.field("one").nested is inner


class TestEndToEnd:
    RECORD = {
        "cntrID": "ZTL", "arln": "DL", "fltNum": 1204, "equip": "B757",
        "org": "ATL", "dest": "LAX", "off": [1, 2, 3, 4, 5],
        "eta": [10, 20], "eta_count": 2,
    }

    def test_xml2wire_formats_are_immediately_usable(self):
        tool = tool_on(SPARC_32)
        tool.register_schema(FIGURE_9)
        message = tool.context.encode("ASDOffEvent", self.RECORD)
        receiver = IOContext(X86_64)
        receiver.learn_format(tool.lookup("ASDOffEvent").to_wire_metadata())
        assert receiver.decode(message).values == self.RECORD

    def test_same_schema_both_endpoints_different_architectures(self):
        """The paper's deployment: every participant runs xml2wire
        against the same document on its own machine."""
        sender_tool = tool_on(SPARC_32)
        receiver_tool = tool_on(X86_32)
        sender_tool.register_schema(FIGURE_9)
        receiver_tool.register_schema(FIGURE_9)
        message = sender_tool.context.encode("ASDOffEvent", self.RECORD)
        receiver_tool.context.learn_format(
            sender_tool.lookup("ASDOffEvent").to_wire_metadata()
        )
        decoded = receiver_tool.context.decode(message, expect="ASDOffEvent")
        assert decoded.values == self.RECORD

    def test_registration_is_idempotent(self):
        tool = tool_on(SPARC_32)
        first = tool.register_schema(FIGURE_9)
        second = tool.register_schema(FIGURE_9)
        assert first[0] is second[0]

    def test_lookup_unknown_raises(self):
        with pytest.raises(SchemaError, match="no format named"):
            tool_on(SPARC_32).lookup("nope")


class TestTypeCoverage:
    def wrap(self, body):
        return (
            '<?xml version="1.0"?>'
            '<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">'
            f"{body}</xsd:schema>"
        )

    def test_all_primitive_kinds_map(self):
        schema = self.wrap(
            '<xsd:complexType name="T">'
            '<xsd:element name="s" type="xsd:string"/>'
            '<xsd:element name="i" type="xsd:int"/>'
            '<xsd:element name="u" type="xsd:unsigned-int"/>'
            '<xsd:element name="f" type="xsd:float"/>'
            '<xsd:element name="d" type="xsd:double"/>'
            '<xsd:element name="b" type="xsd:boolean"/>'
            '<xsd:element name="c" type="xsd:char"/>'
            '<xsd:element name="sh" type="xsd:short"/>'
            "</xsd:complexType>"
        )
        fmt = tool_on(X86_64).register_schema(schema)[0]
        by_name = {f.name: f for f in fmt.fields}
        assert by_name["s"].type == "string"
        assert by_name["i"].type == "integer" and by_name["i"].size == 4
        assert by_name["u"].type == "unsigned integer"
        assert by_name["f"].type == "float" and by_name["f"].size == 4
        assert by_name["d"].type == "double" and by_name["d"].size == 8
        assert by_name["b"].type == "boolean"
        assert by_name["c"].type == "char" and by_name["c"].size == 1
        assert by_name["sh"].size == 2

    def test_simple_type_maps_through_base(self):
        schema = self.wrap(
            '<xsd:simpleType name="Airline">'
            '<xsd:restriction base="xsd:string">'
            '<xsd:enumeration value="DL"/></xsd:restriction></xsd:simpleType>'
            '<xsd:complexType name="T"><xsd:element name="a" type="Airline"/></xsd:complexType>'
        )
        fmt = tool_on(X86_64).register_schema(schema)[0]
        assert fmt.field("a").is_string

    def test_char_fixed_array_is_buffer(self):
        schema = self.wrap(
            '<xsd:complexType name="T">'
            '<xsd:element name="tag" type="xsd:char" minOccurs="8" maxOccurs="8"/>'
            "</xsd:complexType>"
        )
        fmt = tool_on(X86_64).register_schema(schema)[0]
        assert fmt.field("tag").type.render() == "char[8]"
        assert fmt.record_length == 8

    def test_explicit_length_field_not_duplicated(self):
        schema = self.wrap(
            '<xsd:complexType name="T">'
            '<xsd:element name="n" type="xsd:integer"/>'
            '<xsd:element name="data" type="xsd:double" maxOccurs="n"/>'
            "</xsd:complexType>"
        )
        fmt = tool_on(X86_64).register_schema(schema)[0]
        assert fmt.field_names() == ["n", "data"]
        assert fmt.field("data").type.length_field == "n"

    def test_dynamic_array_of_strings_rejected(self):
        schema = self.wrap(
            '<xsd:complexType name="T">'
            '<xsd:element name="names" type="xsd:string" maxOccurs="*"/>'
            "</xsd:complexType>"
        )
        with pytest.raises(SchemaError, match="dynamic arrays of\\s+strings"):
            tool_on(X86_64).register_schema(schema)

    def test_dynamic_array_of_nested_rejected(self):
        schema = self.wrap(
            '<xsd:complexType name="Inner"><xsd:element name="v" type="xsd:int"/></xsd:complexType>'
            '<xsd:complexType name="T">'
            '<xsd:element name="items" type="Inner" maxOccurs="*"/>'
            "</xsd:complexType>"
        )
        with pytest.raises(SchemaError, match="nested"):
            tool_on(X86_64).register_schema(schema)

    def test_fixed_array_of_nested_supported(self):
        schema = self.wrap(
            '<xsd:complexType name="Inner"><xsd:element name="v" type="xsd:int"/></xsd:complexType>'
            '<xsd:complexType name="T">'
            '<xsd:element name="items" type="Inner" minOccurs="3" maxOccurs="3"/>'
            "</xsd:complexType>"
        )
        fmt = tool_on(X86_64).register_schema(schema)[1]
        assert fmt.field("items").type.render() == "Inner[3]"
        assert fmt.record_length == 12


class TestFileRegistration:
    def test_register_from_file(self, tmp_path):
        path = tmp_path / "asdoff.xsd"
        path.write_text(FIGURE_9, encoding="utf-8")
        fmt = tool_on(SPARC_32).register_file(path)[0]
        assert fmt.record_length == 52


class TestHostileSchemaNames:
    """A schema fetched from a metadata URL must not run code in the client."""

    INJECTION = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name='x" + str(__import__("builtins").print("INJECTED")) + "'>
    <xsd:sequence>
      <xsd:element name="n" type="xsd:int"/>
      <xsd:element name="arr" type="xsd:float" maxOccurs="n"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>"""

    def test_injection_through_type_name_rejected(self, capsys, monkeypatch):
        def compiled(*args, **kwargs):
            raise AssertionError("a rejected schema must never reach compile")

        monkeypatch.setattr("repro.pbio.codegen._compile", compiled)
        context = IOContext(X86_64)
        with pytest.raises(SchemaError, match="not a valid name"):
            XML2Wire(context).register_schema(self.INJECTION)
        assert context.format_names() == []
        assert "INJECTED" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "attribute, value",
        [("name", "x; import os"), ("name", 'x"y'), ("maxOccurs", "n; x")],
    )
    def test_element_and_length_names_rejected(self, attribute, value):
        element = {"name": "arr", "maxOccurs": "n"}
        element[attribute] = value
        schema = (
            '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
            '<xsd:complexType name="T"><xsd:sequence>'
            '<xsd:element name="n" type="xsd:int"/>'
            f"<xsd:element name='{element['name']}' type='xsd:float' "
            f"maxOccurs='{element['maxOccurs']}'/>"
            "</xsd:sequence></xsd:complexType></xsd:schema>"
        )
        with pytest.raises(SchemaError, match="not a valid name"):
            XML2Wire(IOContext(X86_64)).register_schema(schema)
