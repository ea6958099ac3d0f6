"""The regex-driven scanner against the character-at-a-time reference.

Same events (names, attributes, text, line, column) or the same
``XMLSyntaxError`` text and position, on generated documents and on
seeded mutations of the schema documents the repo actually reads; the
compiled character classes against the range tables they were built from;
nothing but typed errors out of ``parse_schema``; and a linear-time guard
on pathological input.
"""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError, XMLError, XMLSyntaxError
from repro.schema import parse_schema
from repro.workloads import ASDOFF_A_SCHEMA, ASDOFF_B_SCHEMA, ASDOFF_CD_SCHEMA
from repro.workloads.synthetic import make_synthetic_schema
from repro.workloads.weather import WEATHER_SCHEMA
from repro.xmlparse import chars, parse_events
from repro.xmlparse import parser as scanner

from tests.xmlparse.reference_parser import reference_events

DETERMINISTIC = settings(max_examples=300, deadline=None, derandomize=True)


def outcome(parse, text):
    """What a parser makes of ``text``, in a form two parsers can share."""
    try:
        return parse(text)
    except XMLSyntaxError as exc:
        return (str(exc), exc.line, exc.column)


def assert_same(text):
    assert outcome(parse_events, text) == outcome(reference_events, text), repr(text)


def benchmark_corpus():
    """The 64 documents of the ``discover_cold`` workload, rebuilt here."""
    documents = [ASDOFF_A_SCHEMA, ASDOFF_B_SCHEMA, ASDOFF_CD_SCHEMA]
    for index in range(61):
        fields = 8 + round(index * (64 - 8) / 60)
        documents.append(make_synthetic_schema(fields, type_name=f"Synthetic{index:02d}"))
    return documents


FULL_DOCUMENT = (
    '<?xml version="1.0" encoding="utf-8" standalone="yes"?>\r\n'
    "<!DOCTYPE a [<!ELEMENT a ANY>]>\n<!-- prolog --><?pi data?>\n"
    "<a x=\"1\" y='2 &lt; 3'>text &amp; more<![CDATA[ <raw> ]]><b/>&#65;&#x42;"
    "<?p?><!-- in -->\n  <c:d xmlns:c='urn:c' c:e='f'>\ttab\n</c:d></a>\n<!-- after -->\n"
)

#: What the mutator splices in: every delimiter the scanner dispatches on,
#: characters on both sides of the Name and Char productions, and a BOM.
FRAGMENTS = list("<>/=\"'&;#!?-[]: \t\n\rxa1_.") + [
    "\x01", "\ufeff", "\u00e9", "\u0300", "\u00b7", "\ud800", "\ufffe", "\U00010000",
    "]]>", "--", "<!--", "<?", "?>", "<![CDATA[", "&amp;", "&#", "&#x41;", "<!DOCTYPE", "xml",
]


def mutate(rng, text):
    if len(text) > 400 and rng.random() < 0.5:
        middle = rng.randrange(len(text))
        text = text[max(0, middle - 150) : middle + 150]
    for _ in range(rng.choice((1, 1, 1, 2, 3, 5))):
        kind, at = rng.random(), rng.randrange(len(text) + 1)
        if kind < 0.4:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif kind < 0.7:
            text = text[:at] + text[at + rng.choice((1, 1, 2, 5)) :]
        elif kind < 0.9:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at + 1 :]
        else:
            text = text[:at]
    return text


class TestSameEventsOrSameError:
    @pytest.mark.parametrize("document", benchmark_corpus() + [WEATHER_SCHEMA, FULL_DOCUMENT])
    def test_documents_the_repo_reads(self, document):
        events = parse_events(document)
        assert events == reference_events(document)
        assert events  # and it is not two parsers agreeing on nothing

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_character_mutations(self, seed):
        rng = random.Random(seed)
        documents = benchmark_corpus() + [WEATHER_SCHEMA, FULL_DOCUMENT]
        for _ in range(1000):
            assert_same(mutate(rng, rng.choice(documents)))

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_byte_mutations(self, seed):
        """Flip, drop and insert bytes of the UTF-8 form; what still
        decodes goes through both parsers."""
        rng = random.Random(1000 + seed)
        documents = [doc.encode("utf-8") for doc in benchmark_corpus() + [FULL_DOCUMENT]]
        compared = 0
        for _ in range(1000):
            data = bytearray(rng.choice(documents))
            for _ in range(rng.choice((1, 2, 4))):
                at = rng.randrange(len(data))
                action = rng.random()
                if action < 0.5:
                    data[at] ^= 1 << rng.randrange(8)
                elif action < 0.75:
                    del data[at]
                else:
                    data.insert(at, rng.randrange(256))
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                continue
            assert_same(text)
            compared += 1
        assert compared > 300

    @DETERMINISTIC
    @given(st.lists(st.sampled_from(FRAGMENTS + ["<a", "</a>", "<b x='1'", "/>", " y=\"2\"", "text"]), max_size=24))
    def test_generated_fragment_soup(self, pieces):
        assert_same("".join(pieces))

    @DETERMINISTIC
    @given(st.text(alphabet=st.sampled_from(list("<>/='\"&;!?-[] \n\tab:")), max_size=40))
    def test_generated_markup_characters(self, text):
        assert_same(text)
        assert_same("<r>" + text + "</r>")
        assert_same("<r " + text + ">")

    @pytest.mark.parametrize(
        "document, message, line, column",
        [
            ('<a x="1" x="2"/>', "duplicate attribute 'x' in <a>", 1, 11),
            ('<a x="1"\n   x="a<b"/>', "duplicate attribute 'x' in <a>", 2, 5),
            ("<a>\n  <b>\n</a>", "mismatched end tag: expected </b>, found </a>", 3, 5),
            ('<a b="1"c="2"/>', "expected whitespace before attribute in <a>", 1, 9),
            ("<a><?xml v?></a>", "processing instruction target may not be 'xml'", 1, 9),
            ("<a>&#xD800;</a>", "character reference &#xD800; is not a legal XML character", 1, 12),
            ("<a b=\"&#9999999999;\"/>", "invalid character reference &#9999999999;", 1, 21),
        ],
    )
    def test_named_diagnostics(self, document, message, line, column):
        with pytest.raises(XMLSyntaxError) as caught:
            parse_events(document)
        assert (str(caught.value), caught.value.line, caught.value.column) == (
            f"{message} at line {line}, column {column}", line, column,
        )
        assert_same(document)


class TestCompiledClassesMatchTheTables:
    def boundary_code_points(self):
        points = set()
        for low, high in chars._NAME_START_RANGES + chars._NAME_EXTRA_RANGES + chars._CHAR_RANGES:
            points.update((low - 1, low, low + 1, high - 1, high, high + 1))
        return sorted(p for p in points if 0 <= p <= 0x10FFFF)

    def test_name_classes_at_every_range_boundary(self):
        for code in self.boundary_code_points():
            ch = chr(code)
            starts = scanner._match_name(ch) is not None
            continues = scanner._match_name("a" + ch).end() == 2
            assert starts == chars.is_name_start(ch), hex(code)
            assert continues == chars.is_name_char(ch), hex(code)

    def test_char_class_at_every_range_boundary(self):
        for code in self.boundary_code_points():
            ch = chr(code)
            assert (chars.find_illegal_char(ch) is None) == chars.is_xml_char(ch), hex(code)

    def test_classes_over_the_whole_bmp(self):
        start = re.compile(chars.char_class(chars._NAME_START_RANGES)).fullmatch
        for code in range(0x10000):
            assert (start(chr(code)) is not None) == chars.is_name_start(chr(code)), hex(code)

    def test_attribute_pattern_leaves_no_whitespace_class_behind(self):
        # "\r" is not in the scanner's S: normalization removes it first.
        assert parse_events("<a\rb\r=\r'1'\r/>") == reference_events("<a\rb\r=\r'1'\r/>")


class TestOnlyTypedErrorsEscapeParseSchema:
    def check(self, text):
        try:
            parse_schema(text)
        except (XMLError, SchemaError):
            pass

    @pytest.mark.parametrize("seed", range(2))
    def test_mutated_schemas(self, seed):
        rng = random.Random(2000 + seed)
        documents = benchmark_corpus() + [WEATHER_SCHEMA]
        values = ["\u00b2", "\u0663", "9" * 5000, "-1", "*", "unbounded", "xsd:nope", "q:x", ""]
        for _ in range(1200):
            text = mutate(rng, rng.choice(documents))
            if rng.random() < 0.3:  # aim at the attribute values too
                text = re.sub(r'"[^"]*"', lambda m: f'"{rng.choice(values)}"', text, count=1)
            self.check(text)

    @DETERMINISTIC
    @given(
        st.sampled_from(["minOccurs", "maxOccurs", "name", "type"]),
        st.text(max_size=12) | st.sampled_from(["\u00b2", "\u0663", "9" * 5000, "\ufeff"]),
    )
    def test_hostile_attribute_values(self, attribute, value):
        value = value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        base = {"name": "f", "type": "xsd:integer"}
        base[attribute] = value
        body = " ".join(f'{key}="{text}"' for key, text in base.items())
        self.check(
            '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
            f'<xsd:complexType name="T"><xsd:element {body}/>'
            '<xsd:element name="g" type="xsd:int"/></xsd:complexType></xsd:schema>'
        )


class TestLinearTime:
    """256 KiB of each pathology costs a small constant times what 256 KiB
    of small well-formed elements cost; a quadratic scan is ~1000x."""

    SIZE = 256 * 1024

    def seconds(self, text):
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            try:
                parse_schema(text)
            except (XMLError, SchemaError):
                pass
            best = min(best, time.perf_counter() - started)
        return best

    def test_pathological_inputs(self):
        size = self.SIZE
        well_formed = "<r>" + "<e a='1'/>\n" * (size // 11) + "</r>"
        budget = 8 * self.seconds(well_formed) + 0.05
        pathologies = {
            "spaces in a tag": "<a" + " " * size,
            "spaces before =": "<a b" + " " * size + "=",
            "spaces in an end tag": "<a></a" + " " * size,
            "unterminated attributes": "<a" + ' b="1' * (size // 5),
            "unterminated value": '<a b="' + "x" * size + "<",
            "deep nesting": "<a>" * (size // 3),
            "deep nesting with declarations": "<a xmlns:p='u'>" * (size // 15),
            "& runs": "<a>" + "&" * size + "</a>",
            "& runs in a value": '<a b="' + "&" * size + '"/>',
            "entity runs": "<a>" + "&amp;" * (size // 5) + "</a>",
            "one long name": "<" + "a" * size,
            "comment dashes": "<a><!--" + "- " * (size // 2),
            "CDATA brackets": "<a><![CDATA[" + "]]" * (size // 2),
            "PI question marks": "<a><?p " + "?" * size,
            "DOCTYPE brackets": "<!DOCTYPE a [" + "[]" * (size // 2),
            "many lines": "<a>" + "\n<b/>" * (size // 5) + "</a>",
        }
        for name, text in pathologies.items():
            assert self.seconds(text) < budget, name
