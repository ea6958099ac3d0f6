"""Unit tests for the XML pull parser (repro.xmlparse.parser)."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlparse import (
    CDataEvent,
    CharactersEvent,
    CommentEvent,
    EndElementEvent,
    ProcessingInstructionEvent,
    StartElementEvent,
    XMLDeclEvent,
    PullParser,
    parse_events,
)


def events_of_type(source, cls):
    return [e for e in parse_events(source) if isinstance(e, cls)]


class TestBasicDocuments:
    def test_minimal_document(self):
        events = parse_events("<a/>")
        assert isinstance(events[0], StartElementEvent)
        assert events[0].name == "a"
        assert events[0].empty
        assert isinstance(events[1], EndElementEvent)

    def test_xml_declaration(self):
        events = parse_events('<?xml version="1.0" encoding="UTF-8"?><a/>')
        decl = events[0]
        assert isinstance(decl, XMLDeclEvent)
        assert decl.version == "1.0"
        assert decl.encoding == "UTF-8"

    def test_declaration_missing_version_rejected(self):
        with pytest.raises(XMLSyntaxError, match="version"):
            parse_events('<?xml encoding="UTF-8"?><a/>')

    def test_nested_elements_in_order(self):
        events = parse_events("<a><b><c/></b><d/></a>")
        names = [e.name for e in events if isinstance(e, StartElementEvent)]
        assert names == ["a", "b", "c", "d"]

    def test_character_data(self):
        (chars,) = events_of_type("<a>hello world</a>", CharactersEvent)
        assert chars.text == "hello world"

    def test_attributes_preserve_order(self):
        (start,) = events_of_type('<a z="1" y="2" x="3"/>', StartElementEvent)
        assert start.attributes == (("z", "1"), ("y", "2"), ("x", "3"))

    def test_single_quoted_attributes(self):
        (start,) = events_of_type("<a x='v'/>", StartElementEvent)
        assert start.attributes == (("x", "v"),)

    def test_whitespace_inside_tags_tolerated(self):
        events = parse_events('<a  x = "1"  ></a >')
        assert events[0].attributes == (("x", "1"),)


class TestEntities:
    def test_predefined_entities_in_text(self):
        (chars,) = events_of_type("<a>&lt;&gt;&amp;&apos;&quot;</a>", CharactersEvent)
        assert chars.text == "<>&'\""

    def test_decimal_character_reference(self):
        (chars,) = events_of_type("<a>&#65;</a>", CharactersEvent)
        assert chars.text == "A"

    def test_hex_character_reference(self):
        (chars,) = events_of_type("<a>&#x41;&#x1F600;</a>", CharactersEvent)
        assert chars.text == "A\U0001F600"

    def test_entities_in_attribute_values(self):
        (start,) = events_of_type('<a x="a&amp;b&#33;"/>', StartElementEvent)
        assert start.attributes == (("x", "a&b!"),)

    def test_undefined_entity_rejected(self):
        with pytest.raises(XMLSyntaxError, match="undefined entity"):
            parse_events("<a>&nbsp;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLSyntaxError, match="unterminated entity"):
            parse_events("<a>&amp</a>")

    def test_illegal_character_reference_rejected(self):
        with pytest.raises(XMLSyntaxError, match="not a legal XML character"):
            parse_events("<a>&#0;</a>")

    def test_malformed_character_reference_rejected(self):
        with pytest.raises(XMLSyntaxError, match="invalid character reference"):
            parse_events("<a>&#xZZ;</a>")


class TestStructuralChecks:
    def test_mismatched_tags_rejected(self):
        with pytest.raises(XMLSyntaxError, match="mismatched end tag"):
            parse_events("<a><b></a></b>")

    def test_unclosed_root_rejected(self):
        with pytest.raises(XMLSyntaxError, match="unexpected end"):
            parse_events("<a><b></b>")

    def test_content_after_root_rejected(self):
        with pytest.raises(XMLSyntaxError, match="after document root"):
            parse_events("<a/><b/>")

    def test_text_before_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse_events("stray text <a/>")

    def test_empty_document_rejected(self):
        with pytest.raises(XMLSyntaxError, match="no root element"):
            parse_events("   ")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(XMLSyntaxError, match="duplicate attribute"):
            parse_events('<a x="1" x="2"/>')

    def test_angle_bracket_in_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError, match="not allowed in attribute"):
            parse_events('<a x="a<b"/>')

    def test_cdata_end_in_text_rejected(self):
        with pytest.raises(XMLSyntaxError, match="]]>"):
            parse_events("<a>bad ]]> text</a>")

    def test_missing_attribute_space_rejected(self):
        with pytest.raises(XMLSyntaxError, match="whitespace"):
            parse_events('<a x="1"y="2"/>')

    def test_parser_is_single_use(self):
        parser = PullParser("<a/>")
        list(parser.events())
        with pytest.raises(XMLSyntaxError, match="single-use"):
            list(parser.events())


class TestCommentsPIsCData:
    def test_comment_text(self):
        (comment,) = events_of_type("<a><!-- hi there --></a>", CommentEvent)
        assert comment.text == " hi there "

    def test_comment_before_root(self):
        events = parse_events("<!-- prolog --><a/>")
        assert isinstance(events[0], CommentEvent)

    def test_double_hyphen_in_comment_rejected(self):
        with pytest.raises(XMLSyntaxError, match="--"):
            parse_events("<a><!-- bad -- comment --></a>")

    def test_processing_instruction(self):
        (pi,) = events_of_type('<a><?proc some data?></a>', ProcessingInstructionEvent)
        assert pi.target == "proc"
        assert pi.data == "some data"

    def test_pi_target_xml_rejected(self):
        with pytest.raises(XMLSyntaxError, match="may not be 'xml'"):
            parse_events("<a><?xml bad?></a>")

    def test_cdata_passes_markup_verbatim(self):
        (cdata,) = events_of_type("<a><![CDATA[<not> &markup;]]></a>", CDataEvent)
        assert cdata.text == "<not> &markup;"

    def test_doctype_is_skipped(self):
        events = parse_events('<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>')
        assert isinstance(events[0], StartElementEvent)


class TestPositions:
    def test_line_and_column_tracking(self):
        source = "<a>\n  <b/>\n</a>"
        starts = events_of_type(source, StartElementEvent)
        assert (starts[0].line, starts[0].column) == (1, 1)
        assert (starts[1].line, starts[1].column) == (2, 3)

    def test_error_carries_position(self):
        try:
            parse_events("<a>\n<b></c></a>")
        except XMLSyntaxError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected XMLSyntaxError")

    def test_crlf_normalized(self):
        (chars,) = events_of_type("<a>x\r\ny</a>", CharactersEvent)
        assert chars.text == "x\ny"

    def test_attribute_value_newlines_normalized_to_spaces(self):
        (start,) = events_of_type('<a x="one\ntwo"/>', StartElementEvent)
        assert start.attributes == (("x", "one two"),)


class TestLegalCharactersEverywhere:
    """Production [2] holds for the whole document, not just content."""

    @pytest.mark.parametrize(
        "document, code, line, column",
        [
            ('<a b="\x01"/>', "U+0001", 1, 7),
            ("<a>\n<!-- \x01 --></a>", "U+0001", 2, 6),
            ("<a><![CDATA[\x00]]></a>", "U+0000", 1, 13),
            ("<a>ok</a><?p \x0b?>", "U+000B", 1, 14),
            ("<a>\ufffe</a>", "U+FFFE", 1, 4),
            ("<a\ud800/>", "U+D800", 1, 3),
        ],
    )
    def test_illegal_character_rejected_where_it_sits(self, document, code, line, column):
        with pytest.raises(XMLSyntaxError, match=f"illegal character {code.replace('+', '.')}") as caught:
            parse_events(document)
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_tab_newline_and_astral_characters_are_legal(self):
        (chars,) = events_of_type("<a>\t\n\U0001F600\ufffd</a>", CharactersEvent)
        assert chars.text == "\t\n\U0001F600\ufffd"


class TestByteOrderMark:
    def test_one_leading_bom_is_dropped(self):
        events = parse_events('\ufeff<?xml version="1.0"?>\n<a/>')
        assert isinstance(events[0], XMLDeclEvent)
        assert (events[1].line, events[1].column) == (2, 1)

    def test_bom_elsewhere_is_ordinary_content(self):
        (chars,) = events_of_type("<a>\ufeff</a>", CharactersEvent)
        assert chars.text == "\ufeff"
        with pytest.raises(XMLSyntaxError, match="expected '<' at line 1, column 1"):
            parse_events("\ufeff\ufeff<a/>")


class TestPaperSchemaDocument:
    """The paper's own Figure 6 schema must parse cleanly."""

    FIGURE_6 = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/pmw/schemas">
  <xsd:annotation>
    <xsd:documentation>
      ASDOff
    </xsd:documentation>
  </xsd:annotation>
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" />
    <xsd:element name="eta" type="xsd:unsigned-long" />
  </xsd:complexType>
</xsd:schema>
"""

    def test_parses(self):
        starts = events_of_type(self.FIGURE_6, StartElementEvent)
        names = [s.name for s in starts]
        assert names[0] == "xsd:schema"
        assert names.count("xsd:element") == 8

    def test_element_attributes(self):
        starts = events_of_type(self.FIGURE_6, StartElementEvent)
        first_field = [s for s in starts if s.name == "xsd:element"][0]
        assert dict(first_field.attributes) == {"name": "cntrID", "type": "xsd:string"}
