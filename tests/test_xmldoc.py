"""The XML subset: document model validation, parser, canonical serializer."""
import pickle
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbase.xmldoc import (
    Element,
    ParseError,
    Text,
    iter_elements,
    xml_parse,
    xml_serialize,
)


class TestModelValidation:
    def test_minimal_element(self):
        el = Element("a")
        assert el.attributes == () and el.children == ()

    def test_rejects_bad_element_names(self):
        for bad in ("", "1a", "-a", ".a", "a b", "a<", "a&"):
            with pytest.raises(ValueError):
                Element(bad)

    def test_accepts_name_charset(self):
        for good in ("a", "_a", ":a", "a-b", "a.b", "a:b", "A9", "x-ref"):
            Element(good)

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(ValueError):
            Element("a", (("x", "1"), ("x", "2")))

    def test_rejects_bad_attribute_names(self):
        with pytest.raises(ValueError):
            Element("a", (("1x", "v"),))

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Text("")

    def test_rejects_adjacent_text_children(self):
        with pytest.raises(ValueError):
            Element("a", (), (Text("x"), Text("y")))

    def test_rejects_surrogates(self):
        with pytest.raises(ValueError):
            Text("\ud800")
        with pytest.raises(ValueError):
            Element("a", (("x", "\udfff"),))

    def test_normalizes_list_inputs(self):
        el = Element("a", [("x", "1")], [Text("t")])
        assert el == Element("a", (("x", "1"),), (Text("t"),))

    def test_helpers(self):
        el = Element("a", (("x", "1"),), (Text("t"), Element("b"), Text("u")))
        assert el.attr("x") == "1" and el.attr("y") is None
        assert el.attr("y", "d") == "d"
        assert el.has_attr("x") and not el.has_attr("y")
        assert el.child_elements() == [Element("b")]
        assert el.text() == "tu"


class TestParser:
    def test_smallest_document(self):
        assert xml_parse(b"<a/>") == Element("a")

    def test_attributes_and_text(self):
        assert xml_parse(b'<a x="1">hi</a>') == Element("a", (("x", "1"),), (Text("hi"),))

    def test_single_quoted_attributes(self):
        assert xml_parse(b"<a x='1'/>") == Element("a", (("x", "1"),))

    def test_mismatched_tag_offset(self):
        with pytest.raises(ParseError) as info:
            xml_parse(b"<a><b></a>")
        assert info.value.offset == 6  # points at "</a>"

    def test_all_five_entities(self):
        doc = xml_parse(b"<a>&amp;&lt;&gt;&quot;&apos;</a>")
        assert doc.children == (Text("&<>\"'"),)

    def test_numeric_character_references(self):
        doc = xml_parse(b"<a>&#65;&#x42;&#x1F600;</a>")
        assert doc.children == (Text("AB\U0001F600"),)

    def test_undefined_entity(self):
        with pytest.raises(ParseError):
            xml_parse(b"<a>&nbsp;</a>")

    def test_bad_character_references(self):
        for bad in (
            b"<a>&#;</a>",
            b"<a>&#x;</a>",
            b"<a>&#xD800;</a>",
            b"<a>&#1114112;</a>",
            b"<a>&# 65;</a>",
            b"<a>&#+6_5;</a>",
            b"<a>&#x 41;</a>",
            b"<a>&#X41;</a>",
            "<a>&#\u0661\u0662;</a>".encode("utf-8"),
        ):
            with pytest.raises(ParseError):
                xml_parse(bad)

    def test_entities_in_attribute_values(self):
        doc = xml_parse(b'<a x="&lt;&#33;"/>')
        assert doc.attr("x") == "<!"

    def test_comments_are_discarded_without_splitting_text(self):
        doc = xml_parse(b"<a>one<!-- gone -->two</a>")
        assert doc.children == (Text("onetwo"),)

    def test_comment_before_and_after_root(self):
        assert xml_parse(b"<!-- x --><a/><!-- y -->") == Element("a")

    def test_xml_declaration_is_discarded(self):
        assert xml_parse(b'<?xml version="1.0" encoding="UTF-8"?><a/>') == Element("a")

    def test_whitespace_only_text_is_preserved(self):
        doc = xml_parse(b"<a> <b/> </a>")
        assert doc.children == (Text(" "), Element("b"), Text(" "))

    def test_rejected_constructs(self):
        for bad in (
            b"<!DOCTYPE a><a/>",
            b"<a><![CDATA[x]]></a>",
            b"<a><?pi data?></a>",
            b"<?pi?><a/>",
        ):
            with pytest.raises(ParseError):
                xml_parse(bad)

    def test_invalid_utf8_reports_byte_offset(self):
        with pytest.raises(ParseError) as info:
            xml_parse(b"<a>\xff</a>")
        assert info.value.offset == 3

    def test_offsets_count_bytes_not_characters(self):
        # "é" is two bytes, so the stray close tag sits at byte 5
        with pytest.raises(ParseError) as info:
            xml_parse("<a>é</b>".encode("utf-8"))
        assert info.value.offset == 5

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ParseError):
            xml_parse(b'<a x="1" x="2"/>')

    def test_raw_angle_in_attribute_rejected(self):
        with pytest.raises(ParseError):
            xml_parse(b'<a x="<"/>')

    def test_content_outside_root(self):
        for bad in (b"<a/>junk", b"junk<a/>", b"<a/><b/>", b""):
            with pytest.raises(ParseError):
                xml_parse(bad)

    def test_unterminated_structures(self):
        for bad in (b"<a>", b"<a", b'<a x="1', b"<a><!-- ", b"<a>&amp"):
            with pytest.raises(ParseError):
                xml_parse(bad)

    def test_missing_space_between_attributes(self):
        with pytest.raises(ParseError):
            xml_parse(b'<a x="1"y="2"/>')

    def test_whitespace_tolerance_in_tags(self):
        doc = xml_parse(b'<a  x = "1"\n></a >')
        assert doc == Element("a", (("x", "1"),))

    def test_accepts_str_input(self):
        assert xml_parse("<a/>") == Element("a")


def test_negative_character_reference_is_parse_error():
    for bad in (b"<a>&#-1;</a>", b'<a x="&#x-41;"/>'):
        with pytest.raises(ParseError):
            xml_parse(bad)


def test_str_input_with_surrogates_raises_value_error():
    with pytest.raises(ValueError, match="text content contains unpaired surrogates"):
        xml_parse("<a>x\ud800</a>")
    with pytest.raises(ValueError, match="attribute 'x' contains unpaired surrogates"):
        xml_parse('<a x="\udfff"/>')


DEEP = 5000


def _deep_document() -> bytes:
    return b"<a>" * DEEP + b"x" + b"</a>" * DEEP


def _nesting_depth(element: Element) -> int:
    # walked by hand: == and repr on a tree this deep would recurse
    depth = 1
    while isinstance(element.children[0], Element):
        element = element.children[0]
        depth += 1
    assert element.children == (Text("x"),)
    return depth


def test_deep_nesting_parses():
    assert _nesting_depth(xml_parse(_deep_document())) == DEEP


def test_deep_nesting_survives_serialize_and_parse():
    data = _deep_document()
    again = xml_parse(xml_serialize(xml_parse(data)))
    assert _nesting_depth(again) == DEEP
    assert xml_serialize(again) == data


class TestSerializer:
    def test_childless_is_self_closing(self):
        assert xml_serialize(Element("a")) == b"<a/>"

    def test_text_escaping(self):
        assert xml_serialize(Element("a", (), (Text("a<b&c>d"),))) == b"<a>a&lt;b&amp;c&gt;d</a>"

    def test_attribute_escaping(self):
        out = xml_serialize(Element("a", (('x', 'say "hi" & <go>'),)))
        assert out == b'<a x="say &quot;hi&quot; &amp; &lt;go&gt;"/>'
        assert xml_parse(out).attr("x") == 'say "hi" & <go>'

    def test_apostrophe_not_escaped(self):
        assert xml_serialize(Element("a", (("x", "it's"),))) == b"<a x=\"it's\"/>"

    def test_attribute_order_preserved(self):
        el = Element("a", (("b", "1"), ("a", "2")))
        assert xml_serialize(el) == b'<a b="1" a="2"/>'

    def test_unicode(self):
        el = Element("a", (), (Text("héllo \U0001F600"),))
        assert xml_parse(xml_serialize(el)) == el


def test_iter_elements_document_order():
    doc = xml_parse(b"<r><a><b/></a><c/></r>")
    assert [e.name for e in iter_elements(doc)] == ["r", "a", "b", "c"]


_name_st = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,6}", fullmatch=True)
_value_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
)
_text_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)


def test_deep_trees_compare_hash_and_repr():
    data = _deep_document()
    one, two = xml_parse(data), xml_parse(data)
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert repr(one) == repr(two)
    assert repr(one).startswith("Element(name='a', attributes=(), children=(Element(name='a'")
    assert repr(one).count("Element(") == DEEP
    other = xml_parse(data.replace(b">x<", b">y<"))
    assert one != other
    assert len({one, two, other}) == 2


# The same fields with the methods dataclass generates, for comparison.
_Generated = make_dataclass(
    "Element", [("name", str), ("attributes", tuple), ("children", tuple)], frozen=True
)


def _generated(node):
    if isinstance(node, Text):
        return node
    return _Generated(node.name, node.attributes, tuple(map(_generated, node.children)))


def _merge_adjacent_text(children):
    merged = []
    for child in children:
        if isinstance(child, Text) and merged and isinstance(merged[-1], Text):
            merged[-1] = Text(merged[-1].content + child.content)
        else:
            merged.append(child)
    return tuple(merged)


@st.composite
def _elements(draw, depth=0):
    name = draw(_name_st)
    attr_names = draw(st.lists(_name_st, max_size=3, unique=True))
    attrs = tuple((a, draw(_value_st)) for a in attr_names)
    children = ()
    if depth < 3:
        raw = draw(
            st.lists(
                st.one_of(_text_st.map(Text), _elements(depth=depth + 1)),
                max_size=4,
            )
        )
        children = _merge_adjacent_text(raw)
    return Element(name, attrs, children)


@settings(max_examples=150, deadline=None)
@given(_elements())
def test_parse_serialize_fixpoint(element):
    assert xml_parse(xml_serialize(element)) == element


@settings(max_examples=150, deadline=None)
@given(_elements(), _elements())
def test_eq_hash_repr_match_the_generated_methods(first, second):
    assert repr(first) == repr(_generated(first))
    assert hash(first) == hash(_generated(first))
    copy = xml_parse(xml_serialize(first))
    assert (copy == first) is True and hash(copy) == hash(first)
    assert (first == second) == (_generated(first) == _generated(second))
    assert (first != second) == (_generated(first) != _generated(second))
    assert first.__eq__("x") is NotImplemented


def test_pickle_leaves_the_hash_cache_out():
    element = xml_parse(b"<a><b>x</b><c/></a>")
    hash(element)
    again = pickle.loads(pickle.dumps(element))
    assert "_hash" not in again.__dict__
    assert again == element and hash(again) == hash(element)


_edit_bytes = st.one_of(
    st.binary(min_size=1, max_size=3),
    st.lists(st.sampled_from(list(b"<>/!?&#;x-='\" a1")), min_size=1, max_size=4).map(bytes),
)
_edits = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "replace")), st.integers(0, 10**6), _edit_bytes),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_elements(), _edits)
def test_mutated_documents_parse_or_raise_parse_error(element, edits):
    data = bytearray(xml_serialize(element))
    for op, at, chunk in edits:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = chunk
        elif op == "delete":
            del data[at : at + len(chunk)]
        else:
            data[at : at + len(chunk)] = chunk
    try:
        parsed = xml_parse(bytes(data))
    except ParseError:
        return
    assert isinstance(parsed, Element)
    once = xml_serialize(parsed)
    assert xml_serialize(xml_parse(once)) == once
