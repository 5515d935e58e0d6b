"""Fragmentation: schema parsing, splitting documents, reassembly."""
import hashlib
import operator
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbase import xmlfrag
from xbase.core import InvalidRepresentationError, Key, Name, StoreID, UnknownKeyError
from xbase.namer import MemoryNamer
from xbase.netstore import ProxyStore
from xbase.stores import MemoryStore
from xbase.xmldoc import Element, ParseError, Text, iter_elements, xml_parse, xml_serialize
from xbase.xmlfrag import (
    AmbiguousNameError,
    CycleDetectedError,
    FragSchema,
    ReservedElementError,
    SchemaError,
    SchemaMismatchError,
    SchemaNode,
    WILDCARD,
    UnresolvedReferenceError,
    defragment,
    fragment,
    fully_collapsed_schema,
    fully_expanded_schema,
)

LIBRARY = xml_parse(b"<library><book><t>A</t></book><book><t>B</t></book></library>")
LIBRARY_SCHEMA = FragSchema.from_xml(b"<library><book/></library>")


class TestSchemaParsing:
    def test_basic_tree(self):
        schema = FragSchema.from_xml(b"<a><b/><c frag:collapse='true'/></a>")
        assert schema.root == SchemaNode(
            "a", False, (SchemaNode("b"), SchemaNode("c", True))
        )

    def test_wildcard(self):
        schema = FragSchema.from_xml(b"<a><frag:any/></a>")
        assert schema.root.children == (SchemaNode("*"),)

    def test_collapse_false_is_explicit_expand(self):
        schema = FragSchema.from_xml(b'<a frag:collapse="false"><b/></a>')
        assert not schema.root.collapse and len(schema.root.children) == 1

    def test_collapsed_children_are_dropped(self):
        schema = FragSchema.from_xml(b'<a frag:collapse="true"><b/></a>')
        assert schema.root == SchemaNode("a", True, ())

    def test_duplicate_named_child_rejected(self):
        with pytest.raises(SchemaError):
            FragSchema.from_xml(b"<a><b/><b/></a>")

    def test_duplicate_wildcard_rejected(self):
        with pytest.raises(SchemaError):
            FragSchema.from_xml(b"<a><frag:any/><frag:any/></a>")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            FragSchema.from_xml(b'<a split="yes"/>')

    def test_bad_collapse_value_rejected(self):
        with pytest.raises(SchemaError):
            FragSchema.from_xml(b'<a frag:collapse="yes"/>')

    def test_text_in_schema_rejected(self):
        with pytest.raises(SchemaError):
            FragSchema.from_xml(b"<a>words</a>")

    def test_whitespace_in_schema_tolerated(self):
        schema = FragSchema.from_xml(b"<a>\n  <b/>\n</a>")
        assert schema.root.children == (SchemaNode("b"),)

    def test_match_child_prefers_named_over_wildcard(self):
        node = FragSchema.from_xml(
            b'<r><frag:any frag:collapse="true"/><a/></r>'
        ).root
        assert node.match_child("a") == SchemaNode("a")
        assert node.match_child("zzz") == SchemaNode("*", True)

    def test_helper_constructors(self):
        assert fully_collapsed_schema().root == SchemaNode("*", True)
        deep = fully_expanded_schema(3).root
        assert deep == SchemaNode("*", False, (SchemaNode("*", False, (SchemaNode("*"),)),))
        with pytest.raises(ValueError):
            fully_expanded_schema(0)


class TestFragmentLibraryExample:
    """Hand-walked: two books become fragments, titles stay inline."""

    def test_exact_fragment_bytes(self):
        store = MemoryStore(policy="sequence")
        root_key = fragment(LIBRARY, LIBRARY_SCHEMA, store)
        bodies = [v for _, v in store.bindings()]
        assert bodies == [
            b"<book><t>A</t></book>",
            b"<book><t>B</t></book>",
            b'<library><x-ref mode="key" k="0000000000000001"/>'
            b'<x-ref mode="key" k="0000000000000002"/></library>',
        ]
        assert root_key.raw == (3).to_bytes(8, "big")

    def test_round_trip(self):
        store = MemoryStore(policy="sequence")
        root_key = fragment(LIBRARY, LIBRARY_SCHEMA, store)
        assert defragment(root_key, store) == LIBRARY

    def test_name_mode_paths(self):
        store = MemoryStore(policy="random")
        namer = MemoryNamer()
        ref = fragment(
            LIBRARY, LIBRARY_SCHEMA, store, mode="name", namer=namer, name_prefix="doc"
        )
        assert ref == Name("doc/library.1")
        bound = {name.text for name, _ in namer.bindings()}
        assert bound == {"doc/library.1", "doc/library.1/book.1", "doc/library.1/book.2"}
        assert defragment(ref, store, namer=namer) == LIBRARY

    def test_self_mode_refs_carry_store_id(self):
        store = MemoryStore(policy="sequence")
        root_key = fragment(LIBRARY, LIBRARY_SCHEMA, store, mode="self")
        root_doc = xml_parse(store.get(root_key))
        refs = root_doc.child_elements()
        sid = store.get_store_id().hex
        for ref in refs:
            assert ref.attr("mode") == "self"
            assert ref.attr("store-id") == sid
            assert Key.from_hex(ref.attr("k"))
        assert defragment(root_key, store) == LIBRARY

    def test_fully_expanded_puts_every_element_in_own_fragment(self):
        store = MemoryStore(policy="sequence")
        key = fragment(LIBRARY, fully_expanded_schema(3), store)
        assert len(store) == 5  # library, 2 books, 2 titles
        assert defragment(key, store) == LIBRARY

    def test_fully_collapsed_is_single_fragment(self):
        store = MemoryStore(policy="sequence")
        key = fragment(LIBRARY, fully_collapsed_schema(), store)
        assert len(store) == 1
        assert store.get(key) == xml_serialize(LIBRARY)
        assert defragment(key, store) == LIBRARY


class TestFragmentBehavior:
    def test_unmatched_children_stay_inline(self):
        doc = xml_parse(b"<r><keep><x/></keep><cut><y/></cut></r>")
        schema = FragSchema.from_xml(b"<r><cut/></r>")
        store = MemoryStore(policy="sequence")
        fragment(doc, schema, store)
        bodies = [v for _, v in store.bindings()]
        assert bodies[0] == b"<cut><y/></cut>"
        assert b"<keep><x/></keep>" in bodies[1]
        assert len(store) == 2

    def test_collapsed_match_is_stored_whole(self):
        doc = xml_parse(b"<r><a><deep><deeper/></deep></a></r>")
        schema = FragSchema.from_xml(b'<r><a frag:collapse="true"/></r>')
        store = MemoryStore(policy="sequence")
        key = fragment(doc, schema, store)
        assert [v for _, v in store.bindings()][0] == b"<a><deep><deeper/></deep></a>"
        assert defragment(key, store) == doc

    def test_attributes_and_text_preserved(self):
        doc = xml_parse(b'<r id="9">pre<a x="1">body</a>post</r>')
        schema = FragSchema.from_xml(b"<r><a/></r>")
        store = MemoryStore(policy="sequence")
        key = fragment(doc, schema, store)
        shell = xml_parse(store.get(key))
        assert shell.attr("id") == "9"
        assert shell.children[0] == Text("pre") and shell.children[2] == Text("post")
        assert defragment(key, store) == doc

    def test_sibling_ordinals_count_per_name(self):
        doc = xml_parse(b"<r><a/><b/><a/></r>")
        namer = MemoryNamer()
        store = MemoryStore(policy="random")
        fragment(
            doc, fully_expanded_schema(2), store, mode="name", namer=namer, name_prefix="p"
        )
        bound = {name.text for name, _ in namer.bindings()}
        assert bound == {"p/r.1", "p/r.1/a.1", "p/r.1/b.1", "p/r.1/a.2"}

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatchError):
            fragment(Element("other"), LIBRARY_SCHEMA, MemoryStore(policy="random"))

    def test_reserved_element_rejected_anywhere(self):
        doc = Element("r", (), (Element("a", (), (Element("x-ref"),)),))
        with pytest.raises(ReservedElementError):
            fragment(doc, fully_collapsed_schema(), MemoryStore(policy="random"))

    def test_mode_validation(self):
        store = MemoryStore(policy="random")
        with pytest.raises(ValueError):
            fragment(Element("a"), fully_collapsed_schema(), store, mode="weird")
        with pytest.raises(ValueError):
            fragment(Element("a"), fully_collapsed_schema(), store, mode="name")
        with pytest.raises(ValueError):
            fragment(
                Element("a"), fully_collapsed_schema(), store,
                mode="name", namer=MemoryNamer(), name_prefix="",
            )


class TestNameModeRebinding:
    def test_rebinding_changes_reassembled_document(self):
        store = MemoryStore(policy="random")
        namer = MemoryNamer()
        ref = fragment(
            LIBRARY, LIBRARY_SCHEMA, store, mode="name", namer=namer, name_prefix="doc"
        )
        book2 = Name("doc/library.1/book.2")
        (old_key,) = namer.lookup(book2)
        new_key = store.put(b"<book><t>B2</t></book>")
        namer.bind(book2, new_key)
        namer.unbind(book2, old_key)
        updated = defragment(ref, store, namer=namer)
        assert updated == xml_parse(
            b"<library><book><t>A</t></book><book><t>B2</t></book></library>"
        )
        # the untouched sibling still reads through the old binding
        assert updated.child_elements()[0] == LIBRARY.child_elements()[0]

    def test_key_mode_refs_are_immutable(self):
        store = MemoryStore(policy="sequence")
        key = fragment(LIBRARY, LIBRARY_SCHEMA, store)
        store.put(b"<book><t>B2</t></book>")  # extra data cannot intrude
        assert defragment(key, store) == LIBRARY

    def test_unbound_name_is_ambiguous(self):
        store = MemoryStore(policy="random")
        with pytest.raises(AmbiguousNameError):
            defragment(Name("doc/missing"), store, namer=MemoryNamer())

    def test_doubly_bound_name_is_ambiguous(self):
        store = MemoryStore(policy="random")
        namer = MemoryNamer()
        ref = fragment(
            LIBRARY, LIBRARY_SCHEMA, store, mode="name", namer=namer, name_prefix="doc"
        )
        namer.bind(Name("doc/library.1/book.1"), store.put(b"<book/>"))
        with pytest.raises(AmbiguousNameError):
            defragment(ref, store, namer=namer)

    def test_name_ref_without_namer(self):
        with pytest.raises(ValueError):
            defragment(Name("doc/x"), MemoryStore(policy="random"))


class TestDefragmentEdgeCases:
    def test_direct_cycle_detected(self):
        store = MemoryStore(policy="random")
        key = Key(b"\x01" * 8)
        store.put_with_key(
            b'<a><x-ref mode="key" k="0101010101010101"/></a>', key
        )
        with pytest.raises(CycleDetectedError):
            defragment(key, store)

    def test_indirect_cycle_detected(self):
        store = MemoryStore(policy="random")
        k1, k2 = Key(b"\x01" * 8), Key(b"\x02" * 8)
        store.put_with_key(f'<a><x-ref mode="key" k="{k2.hex}"/></a>'.encode(), k1)
        store.put_with_key(f'<b><x-ref mode="key" k="{k1.hex}"/></b>'.encode(), k2)
        with pytest.raises(CycleDetectedError):
            defragment(k1, store)

    def test_diamond_sharing_is_not_a_cycle(self):
        store = MemoryStore(policy="random")
        leaf = store.put(b"<leaf/>")
        ref = f'<x-ref mode="key" k="{leaf.hex}"/>'
        root = store.put(f"<r>{ref}{ref}</r>".encode())
        assert defragment(root, store) == xml_parse(b"<r><leaf/><leaf/></r>")

    def test_self_mode_across_stores_via_resolver(self):
        near = MemoryStore(policy="random")
        far = MemoryStore(policy="random")
        far_key = far.put(b"<leaf/>")
        far_id = far.get_store_id()
        root = near.put(
            f'<r><x-ref mode="self" k="{far_key.hex}" '
            f'store-id="{far_id.hex}"/></r>'.encode()
        )
        resolver = lambda sid: far if sid == far_id else None
        doc = defragment(root, near, store_resolver=resolver)
        assert doc == xml_parse(b"<r><leaf/></r>")

    def test_self_mode_unknown_store(self):
        near = MemoryStore(policy="random")
        root = near.put(
            f'<r><x-ref mode="self" k="ab" store-id="{"00" * 16}"/></r>'.encode()
        )
        with pytest.raises(UnresolvedReferenceError):
            defragment(root, near)
        with pytest.raises(UnresolvedReferenceError):
            defragment(root, near, store_resolver=lambda sid: None)

    def test_mixed_modes_in_one_document(self):
        store = MemoryStore(policy="random")
        namer = MemoryNamer()
        k1 = store.put(b"<one/>")
        k2 = store.put(b"<two/>")
        namer.bind(Name("m/two"), k2)
        root = store.put(
            f'<r><x-ref mode="key" k="{k1.hex}"/>'
            f'<x-ref mode="name" n="m/two"/></r>'.encode()
        )
        assert defragment(root, store, namer=namer) == xml_parse(b"<r><one/><two/></r>")

    def test_malformed_refs(self):
        store = MemoryStore(policy="random")
        bad_bodies = [
            b'<r><x-ref mode="key"/></r>',  # missing k
            b'<r><x-ref mode="key" k="zz"/></r>',  # bad hex
            b'<r><x-ref mode="name"/></r>',  # missing n
            b'<r><x-ref mode="self" k="ab"/></r>',  # missing store-id
            b'<r><x-ref mode="warp" k="ab"/></r>',  # unknown mode
            b'<r><x-ref/></r>',  # no mode at all
            b'<r><x-ref mode="key" k="ab"><x/></x-ref></r>',  # not empty
        ]
        for body in bad_bodies:
            key = store.put(body)
            with pytest.raises(InvalidRepresentationError):
                defragment(key, store, namer=MemoryNamer())

    def test_root_ref_type_checked(self):
        with pytest.raises(TypeError):
            defragment("not-a-ref", MemoryStore(policy="random"))


_name_st = st.from_regex(r"[a-z][a-z0-9]{0,4}", fullmatch=True).filter(
    lambda s: s != "x-ref"
)
_text_st = st.text(alphabet="abc <&>'\"", min_size=1, max_size=6)


def _merge(children):
    out = []
    for child in children:
        if isinstance(child, Text) and out and isinstance(out[-1], Text):
            out[-1] = Text(out[-1].content + child.content)
        else:
            out.append(child)
    return tuple(out)


@st.composite
def _docs(draw, depth=0):
    name = draw(_name_st)
    attrs = tuple(
        (a, draw(_text_st))
        for a in draw(st.lists(_name_st, max_size=2, unique=True))
    )
    children = ()
    if depth < 3:
        children = _merge(
            draw(
                st.lists(
                    st.one_of(_text_st.map(Text), _docs(depth=depth + 1)), max_size=3
                )
            )
        )
    return Element(name, attrs, children)


@settings(max_examples=80, deadline=None)
@given(
    doc=_docs(),
    depth=st.integers(1, 4),
    mode=st.sampled_from(["key", "name", "self"]),
)
def test_fragment_defragment_identity(doc, depth, mode):
    store = MemoryStore(policy="sequence")
    namer = MemoryNamer()
    ref = fragment(
        doc, fully_expanded_schema(depth), store, mode=mode, namer=namer, name_prefix="t"
    )
    assert defragment(ref, store, namer=namer) == doc
    # fragment wrote its bodies through to the memo; without them, the
    # stored bytes themselves must read back
    xmlfrag._memo = {}
    assert defragment(ref, store, namer=namer) == doc
    # every fragment is itself a well-formed document
    for _, body in store.bindings():
        xml_parse(body)


# ---------------------------------------------------------------- level order
#
# fragment writes one put_many per tree level and defragment fetches one
# level at a time; what they write, read and raise is checked against the
# recursive, one-fragment-at-a-time definition below.

_small_name_st = st.sampled_from(["a", "b", "c"])


@st.composite
def _small_docs(draw, depth=0):
    children = ()
    if depth < 3:
        children = _merge(draw(st.lists(
            st.one_of(_text_st.map(Text), _small_docs(depth=depth + 1)), max_size=4)))
    return Element(draw(_small_name_st), (), children)


def _schema_node_st(name, depth):
    return st.builds(
        lambda collapse, children: SchemaNode(name, collapse, () if collapse else children),
        st.booleans(),
        st.lists(st.sampled_from(["a", "b", "c", "*"]), max_size=3, unique=True).flatmap(
            lambda names: st.tuples(*(_schema_node_st(n, depth + 1) for n in names))
        ) if depth < 3 else st.just(()),
    )


def _schema_xml(node: SchemaNode) -> str:
    tag = "frag:any" if node.element_name == "*" else node.element_name
    collapse = ' frag:collapse="true"' if node.collapse else ""
    inner = "".join(_schema_xml(child) for child in node.children)
    return f"<{tag}{collapse}>{inner}</{tag}>"


def _reference_fragment(element, snode, path, mode, prefix, sid_hex, bodies, names):
    """Post-order, recursive fragmentation with content-hash keys: fills
    bodies (key -> bytes) and names, and returns the x-ref for element."""
    body = element
    if not snode.collapse:
        out, ordinals = [], {}
        for child in element.children:
            if isinstance(child, Text):
                out.append(child)
                continue
            ordinal = ordinals[child.name] = ordinals.get(child.name, 0) + 1
            match = snode.match_child(child.name)
            if match is None:
                out.append(child)
                continue
            out.append(_reference_fragment(child, match, f"{path}/{child.name}.{ordinal}",
                                           mode, prefix, sid_hex, bodies, names))
        body = Element(element.name, element.attributes, tuple(out))
    data = xml_serialize(body)
    key = Key(hashlib.sha256(data).digest())
    bodies[key] = data
    if mode == "name":
        names.add((prefix + "/" + path, key))
        return Element("x-ref", (("mode", "name"), ("n", prefix + "/" + path)))
    if mode == "self":
        return Element("x-ref", (("mode", "self"), ("k", key.hex), ("store-id", sid_hex)))
    return Element("x-ref", (("mode", "key"), ("k", key.hex)))


@settings(max_examples=120, deadline=None)
@given(
    doc=_small_docs(),
    schema_root=st.booleans().flatmap(
        lambda wild: _schema_node_st("*" if wild else "a", 0)),
    mode=st.sampled_from(["key", "name", "self"]),
)
def test_random_schemas_round_trip_and_write_the_reference_records(doc, schema_root, mode):
    schema = FragSchema.from_xml(_schema_xml(schema_root).encode())
    assert schema.root == schema_root
    if schema_root.element_name not in ("*", doc.name):
        with pytest.raises(SchemaMismatchError):
            fragment(doc, schema, MemoryStore(policy="content-hash"))
        return
    store = MemoryStore(policy="content-hash")
    namer = MemoryNamer()
    ref = fragment(doc, schema, store, mode=mode, namer=namer, name_prefix="t")
    assert defragment(ref, store, namer=namer) == doc
    bodies, names = {}, set()
    _reference_fragment(doc, schema_root, f"{doc.name}.1", mode, "t",
                        store.get_store_id().hex, bodies, names)
    assert dict(store.bindings()) == bodies
    assert {(name.text, key) for name, key in namer.bindings()} == names


class _CountingStore(MemoryStore):
    """Counts every key asked for, through get and get_many."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked: list[Key] = []
        self.batches = 0

    def get(self, key):
        self.asked.append(key)
        return super().get(key)

    def get_many(self, keys):
        self.batches += 1
        keys = list(keys)
        self.asked.extend(keys)
        return {key: value for key, value in zip(keys, map(super().get, keys))}


def _xref(key: Key) -> str:
    return f'<x-ref mode="key" k="{key.hex}"/>'


class TestFetchOncePerLevel:
    def test_shared_fragment_is_fetched_once(self):
        store = _CountingStore(policy="content-hash")
        shared = store.put(b"<chapter>shared</chapter>")
        book = store.put(f"<book>{_xref(shared)}{_xref(shared)}</book>".encode())
        other = store.put(f"<book>{_xref(shared)}<t>x</t></book>".encode())
        root = store.put(f"<lib>{_xref(book)}{_xref(other)}{_xref(shared)}</lib>".encode())
        expected = xml_parse(
            b"<lib><book><chapter>shared</chapter><chapter>shared</chapter></book>"
            b"<book><chapter>shared</chapter><t>x</t></book><chapter>shared</chapter></lib>")
        assert defragment(root, store) == expected
        assert sorted(k.raw for k in store.asked) == sorted(
            k.raw for k in (root, book, other, shared))
        assert store.batches == 2  # the root, then the books and the chapter at once

    def test_each_level_is_one_batch(self):
        store = _CountingStore(policy="sequence")
        doc = xml_parse(b"<r>" + b"<b><c>1</c><c>2</c></b>" * 5 + b"</r>")
        key = fragment(doc, fully_expanded_schema(3), store)
        assert defragment(key, store) == doc
        assert store.batches == 3 and len(store.asked) == 1 + 5 + 10


    def test_each_xref_is_resolved_once(self, monkeypatch):
        calls = []
        ref_key = xmlfrag._ref_key
        monkeypatch.setattr(xmlfrag, "_ref_key",
                            lambda xref, what: calls.append(xref) or ref_key(xref, what))
        store = MemoryStore(policy="sequence")
        doc = xml_parse(b"<r>" + b"<b><c>1</c><c>2</c></b>" * 5 + b"</r>")
        key = fragment(doc, fully_expanded_schema(3), store)
        assert defragment(key, store) == doc
        assert len(calls) == 5 + 10

    def test_a_shared_xref_resolves_in_the_store_it_was_read_from(self):
        """Identical fragment bytes in two stores parse to one tree, whose
        x-ref means a different fragment in each store."""
        near, far = MemoryStore(policy="sequence"), MemoryStore(policy="sequence")
        inner = Key(b"\x07" * 8)
        near.put_with_key(b"<near/>", inner)
        far.put_with_key(b"<far/>", inner)
        shared = f"<c>{_xref(inner)}</c>".encode()
        in_near, in_far = near.put(shared), far.put(shared)
        root = near.put((f"<r>{_xref(in_near)}<x-ref mode=\"self\" "
                         f"store-id=\"{far.get_store_id().hex}\" k=\"{in_far.hex}\"/></r>").encode())
        expected = xml_parse(b"<r><c><near/></c><c><far/></c></r>")
        for _ in range(2):  # an empty memo, then a warm one
            assert defragment(root, near, store_resolver=lambda sid: far) == expected


class TestDefragmentErrorsAsBefore:
    """Every fault raises the type and message that one-at-a-time,
    depth-first resolution raises, at the first fault in document order."""

    def _raises(self, exc_type, message, root, store, **kwargs):
        """The fault raises alike with an empty memo and with the memo the
        first call warmed."""
        for _ in range(2):
            with pytest.raises(exc_type) as info:
                defragment(root, store, **kwargs)
            assert str(info.value) == message
        return info.value

    def test_unknown_key(self):
        store = MemoryStore(policy="sequence")
        root = store.put(("<r>" + _xref(Key(b"\x09" * 8)) + "</r>").encode())
        self._raises(UnknownKeyError, "0909090909090909", root, store)

    def test_unknown_key_through_a_proxy_keeps_its_trace(self):
        local, target = MemoryStore(policy="sequence"), MemoryStore(policy="sequence")
        proxy = ProxyStore(local=local)
        proxy.add_target(target)
        root = target.put(("<r>" + _xref(Key(b"\x09" * 8)) + "</r>").encode())
        exc = self._raises(UnknownKeyError, "0909090909090909", root, proxy)
        assert [p.outcome for p in exc.trace] == ["miss", "miss"]

    def test_unbound_and_ambiguous_names(self):
        store = MemoryStore(policy="random")
        namer = MemoryNamer()
        namer.bind(Name("m/two"), store.put(b"<a/>"))
        namer.bind(Name("m/two"), store.put(b"<b/>"))
        root = store.put(b'<r><x-ref mode="name" n="m/none"/></r>')
        self._raises(AmbiguousNameError, "'m/none' resolves to 0 keys, need exactly 1",
                     root, store, namer=namer)
        root = store.put(b'<r><x-ref mode="name" n="m/two"/></r>')
        self._raises(AmbiguousNameError, "'m/two' resolves to 2 keys, need exactly 1",
                     root, store, namer=namer)
        self._raises(ValueError, "name references require a namer", root, store)
        root = store.put(b'<r><x-ref mode="name" n=""/></r>')
        self._raises(ValueError, "name must be nonempty", root, store, namer=namer)

    def test_cycle(self):
        store = MemoryStore(policy="random")
        k1, k2 = Key(b"\x01" * 8), Key(b"\x02" * 8)
        store.put_with_key(f"<a>{_xref(k2)}</a>".encode(), k1)
        store.put_with_key(f"<b><c>{_xref(k1)}</c></b>".encode(), k2)
        self._raises(CycleDetectedError, "fragment 0101010101010101 references itself",
                     k1, store)
        self._raises(CycleDetectedError, "fragment 0202020202020202 references itself",
                     k2, store)

    @pytest.mark.parametrize("xref, message", [
        ('<x-ref mode="key"/>', "x-ref lacks attribute 'k'"),
        ('<x-ref mode="key" k="zz"/>', "bad x-ref key: invalid key hex: 'zz'"),
        ('<x-ref mode="key" k=""/>', "bad x-ref key: key must be nonempty"),
        ('<x-ref mode="name"/>', "name-mode x-ref lacks attribute 'n'"),
        ('<x-ref mode="self" k="ab"/>', "self-mode x-ref lacks attribute 'store-id'"),
        ('<x-ref mode="self" k="ab" store-id="abc"/>',
         "bad store-id: invalid store id hex: 'abc'"),
        ('<x-ref mode="warp" k="ab"/>', "unknown x-ref mode 'warp'"),
        ("<x-ref/>", "unknown x-ref mode None"),
        ('<x-ref mode="key" k="ab"><x/></x-ref>', "x-ref elements must be empty"),
    ])
    def test_malformed_xref(self, xref, message):
        store = MemoryStore(policy="random")
        root = store.put(f"<r><s>{xref}</s></r>".encode())
        self._raises(InvalidRepresentationError, message, root, store, namer=MemoryNamer())

    def test_unresolvable_store_id(self):
        near = MemoryStore(policy="random")
        sid = "00" * 16
        root = near.put(f'<r><x-ref mode="self" k="ab" store-id="{sid}"/></r>'.encode())
        message = f"no reachable store with id {sid}"
        self._raises(UnresolvedReferenceError, message, root, near)
        self._raises(UnresolvedReferenceError, message, root, near,
                     store_resolver=lambda s: None)

    def test_unparsable_fragment(self):
        store = MemoryStore(policy="random")
        bad = store.put(b"<a><b></a>")
        root = store.put(f"<r>{_xref(bad)}</r>".encode())
        self._raises(ParseError, "offset 6: mismatched tag: expected </b>, got </a>",
                     root, store)
        self._raises(ParseError, "offset 6: mismatched tag: expected </b>, got </a>",
                     bad, store)

    def test_first_fault_in_document_order_wins(self):
        """A fault deep under the first reference beats a fault one level
        below the root under the second, and the other way round."""
        store = MemoryStore(policy="random")
        missing = Key(b"\x09" * 8)
        deep = store.put(f"<d>{_xref(missing)}</d>".encode())
        mid = store.put(f"<m>{_xref(deep)}</m>".encode())
        root = store.put(f'<r>{_xref(mid)}<x-ref mode="warp"/></r>'.encode())
        self._raises(UnknownKeyError, missing.hex, root, store)
        root = store.put(f'<r><x-ref mode="warp"/>{_xref(mid)}</r>'.encode())
        self._raises(InvalidRepresentationError, "unknown x-ref mode 'warp'", root, store)

    def _raises_as_one_at_a_time(self, exc_type, message, root, store, **kwargs):
        """The fault raises as _raises checks, and as it does when the fetch
        is skipped and assembly reads each fragment on its own."""
        self._raises(exc_type, message, root, store, **kwargs)
        with mock.patch.object(xmlfrag._Defrag, "fetch", lambda self, key, store: None):
            self._raises(exc_type, message, root, store, **kwargs)

    def test_a_batch_that_raises_during_the_fetch(self):
        """get_many raises for any batch holding an unreadable key; the
        first unreadable key in document order raises its own get's error."""

        class Unreadable(MemoryStore):
            bad: set = set()

            def get(self, key):
                if key in self.bad:
                    raise OSError(f"cannot read {key.hex}")
                return super().get(key)

            def get_many(self, keys):
                keys = list(keys)
                if self.bad.intersection(keys):
                    raise OSError("the batch failed")
                return super().get_many(keys)

        store = Unreadable(policy="random")
        near, deep_bad = store.put(b"<n/>"), store.put(b"<d/>")
        shallow_bad = store.put(b"<s/>")
        store.bad = {deep_bad, shallow_bad}
        deep = store.put(f"<d>{_xref(near)}{_xref(deep_bad)}</d>".encode())
        mid = store.put(f"<m>{_xref(deep)}</m>".encode())
        root = store.put(f"<r>{_xref(mid)}{_xref(shallow_bad)}</r>".encode())
        self._raises_as_one_at_a_time(OSError, f"cannot read {deep_bad.hex}", root, store)
        root = store.put(f"<r>{_xref(shallow_bad)}{_xref(mid)}</r>".encode())
        self._raises_as_one_at_a_time(OSError, f"cannot read {shallow_bad.hex}", root, store)

    def test_a_store_id_that_raises_during_the_fetch(self):
        """A self-mode reference to a store whose get_store_id raises: its
        error comes at its place in document order."""

        class Down(MemoryStore):
            def get_store_id(self):
                raise OSError("far is down")

        near, far = MemoryStore(policy="random"), Down(policy="random")
        missing = Key(b"\x09" * 8)
        far_ref = f'<x-ref mode="self" k="{far.put(b"<f/>").hex}" store-id="{"00" * 16}"/>'
        resolver = {"store_resolver": lambda sid: far}
        root = near.put(f"<r><a>{far_ref}</a>{_xref(missing)}</r>".encode())
        self._raises_as_one_at_a_time(OSError, "far is down", root, near, **resolver)
        root = near.put(f"<r>{_xref(missing)}<a>{far_ref}</a></r>".encode())
        self._raises_as_one_at_a_time(UnknownKeyError, missing.hex, root, near, **resolver)


# ---------------------------------------------------------------- the memo
#
# the memo holds what the latest fragment call wrote, keyed by its bytes,
# in the form defragment reads; defragment adds nothing to it. A warm memo
# and an empty one must read the same documents and raise the same errors.

def _replaced(element, path, swaps):
    """element with each subtree whose name path is in swaps replaced, the
    outermost first; a reference, recursive reading of rebound names."""
    if path in swaps:
        return swaps[path]
    out, ordinals = [], {}
    for child in element.children:
        if isinstance(child, Element):
            ordinal = ordinals[child.name] = ordinals.get(child.name, 0) + 1
            child = _replaced(child, f"{path}/{child.name}.{ordinal}", swaps)
        out.append(child)
    return Element(element.name, element.attributes, tuple(out))


@settings(max_examples=150, deadline=None)
@given(
    doc=_small_docs(),
    schema_root=st.booleans().flatmap(
        lambda wild: _schema_node_st("*" if wild else "a", 0)),
    mode=st.sampled_from(["key", "name", "self"]),
    rebinds=st.lists(st.tuples(st.integers(0, 99), _small_docs(), st.booleans()), max_size=3),
)
def test_warm_and_cold_memo_read_alike(doc, schema_root, mode, rebinds):
    if schema_root.element_name not in ("*", doc.name):
        return
    store = MemoryStore(policy="content-hash")
    namer = MemoryNamer()
    ref = fragment(doc, FragSchema(schema_root), store, mode=mode, namer=namer, name_prefix="t")

    def read(expected):
        canonical = xml_parse(xml_serialize(expected))
        warm = defragment(ref, store, namer=namer)
        xmlfrag._memo = {}
        cold = defragment(ref, store, namer=namer)
        assert warm == expected == canonical
        assert cold == expected == canonical

    read(doc)
    if mode != "name":
        return
    names = sorted(name.text for name, _ in namer.bindings())
    swaps = {}
    for pick, new, through in rebinds:
        name = Name(names[pick % len(names)])
        # a fragment written through the memo, or bytes it has never seen
        key = fragment(new, fully_collapsed_schema(), store) if through else store.put(
            xml_serialize(new))
        for old in namer.lookup(name):
            namer.unbind(name, old)
        namer.bind(name, key)
        swaps[name.text[len("t/"):]] = new
        read(_replaced(doc, f"{doc.name}.1", swaps))


class _CountingParse:
    """Stands in for xmlfrag.xml_parse and counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, data):
        self.calls += 1
        return xml_parse(data)


def _parts(node):
    """The elements, attributes and text nodes of a tree; a reference,
    recursive count."""
    if isinstance(node, Text):
        return 1
    return 1 + len(node.attributes) + sum(map(_parts, node.children))


# four books, three of them alike: five bodies, three distinct
REPEATS = xml_parse(b"<library>" + b"<book><t>A</t></book>" * 3
                    + b"<book><t>B</t></book></library>")


class TestMemo:
    def test_written_and_read_fragments_are_not_parsed_again(self, monkeypatch):
        """Within both budgets the memo holds each distinct fragment the call
        wrote, and the document reads back, again and again, with no parse;
        bytes it did not write are parsed on every call, and the memo is
        left as it was."""
        parse = _CountingParse()
        monkeypatch.setattr(xmlfrag, "xml_parse", parse)
        store = MemoryStore(policy="sequence")
        key = fragment(REPEATS, LIBRARY_SCHEMA, store)
        written = xmlfrag._memo
        assert len(store) == 5 and len(written) == 3
        assert set(written) == {value for _, value in store.bindings()}
        for _ in range(2):
            assert defragment(key, store) == REPEATS
        assert parse.calls == 0
        books = [store.put(b"<book><t>%d</t></book>" % i) for i in range(2)]
        root = store.put(f"<library>{_xref(books[0])}{_xref(books[1])}</library>".encode())
        for calls in (3, 6):
            assert defragment(root, store) == xml_parse(
                b"<library><book><t>0</t></book><book><t>1</t></book></library>")
            assert parse.calls == calls
            assert xmlfrag._memo is written and len(written) == 3

    def test_a_written_fragment_carries_what_a_parse_finds(self):
        """fragment records each body's x-refs as it places them; a parse
        of the stored bytes finds the same tree, x-refs and holders."""
        store = MemoryStore(policy="sequence")
        doc = xml_parse(b"<r><b><c>1</c>t<c>2</c><d/></b><e/><b>u</b></r>")
        fragment(doc, FragSchema.from_xml(b"<r><b><c/></b><e/></r>"), store)
        written = xmlfrag._memo
        assert len(written) == 6
        xmlfrag._memo = {}
        for data, kept in written.items():
            parsed = xmlfrag._read(data)
            assert kept.root == parsed.root
            assert list(kept.refs) == parsed.refs
            children = list(map(id, kept.root.children))
            assert all(id(ref) in children for ref in kept.refs)
            assert (id(kept.root) in kept.holders) == (id(parsed.root) in parsed.holders)
            assert len(kept.holders) == len(parsed.holders)
        assert xmlfrag._memo == {}

    def test_unparsable_fragment_is_not_kept(self):
        store = MemoryStore(policy="random")
        fragment(LIBRARY, LIBRARY_SCHEMA, store)
        written = xmlfrag._memo
        bad = b"<a><b></a>"
        root = store.put(f"<r>{_xref(store.put(bad))}</r>".encode())
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                defragment(root, store)
            assert str(info.value) == "offset 6: mismatched tag: expected </b>, got </a>"
            assert xmlfrag._memo is written and len(written) == 3

    def test_a_later_call_replaces_the_earlier_calls_fragments(self, monkeypatch):
        store = MemoryStore(policy="sequence")
        a = fragment(xml_parse(b"<a>1</a>"), fully_collapsed_schema(), store)
        assert list(xmlfrag._memo) == [b"<a>1</a>"]
        fragment(xml_parse(b"<b>1</b>"), fully_collapsed_schema(), store)
        assert list(xmlfrag._memo) == [b"<b>1</b>"]
        parse = _CountingParse()
        monkeypatch.setattr(xmlfrag, "xml_parse", parse)
        assert defragment(a, store) == xml_parse(b"<a>1</a>")
        assert parse.calls == 1 and list(xmlfrag._memo) == [b"<b>1</b>"]

    def test_a_call_that_raises_publishes_nothing(self):
        class FailsOnTheRoot(MemoryStore):
            def put_many(self, values):
                if any(value.startswith(b"<library>") for value in values):
                    raise OSError("the store failed")
                return super().put_many(values)

        store = MemoryStore(policy="sequence")
        fragment(LIBRARY, LIBRARY_SCHEMA, store)
        written = xmlfrag._memo
        with pytest.raises(OSError):
            fragment(REPEATS, LIBRARY_SCHEMA, FailsOnTheRoot(policy="sequence"))
        assert xmlfrag._memo is written

    @staticmethod
    def _fragment_within(monkeypatch, budget, less):
        """Set budget to what fragmenting REPEATS needs of it, less less;
        fragment a one-element document, then REPEATS, through one store.
        Returns the distinct bodies REPEATS writes, all five of them, and
        what it needs. Bytes count each distinct body once; parts count
        the elements, attributes and text nodes of every body written."""
        counted = MemoryStore(policy="sequence")  # keeps a body written twice twice
        fragment(REPEATS, LIBRARY_SCHEMA, counted)
        bodies = [value for _, value in counted.bindings()]
        store = MemoryStore(policy="content-hash")
        key = fragment(REPEATS, LIBRARY_SCHEMA, store)
        distinct = {value for _, value in store.bindings()}
        need = (sum(map(len, distinct)) if budget == "_MEMO_BYTES"
                else sum(_parts(xml_parse(body)) for body in bodies))
        monkeypatch.setattr(xmlfrag, budget, need - less)
        fragment(Element("s"), fully_collapsed_schema(), store)
        assert list(xmlfrag._memo) == [b"<s/>"]
        assert fragment(REPEATS, LIBRARY_SCHEMA, store) == key
        assert defragment(key, store) == REPEATS
        return distinct, bodies, need

    def test_bytes_stay_within_the_budget(self, monkeypatch):
        """A call whose distinct bodies fill the byte budget exactly keeps
        them all; a body written twice counts once."""
        distinct, bodies, _ = self._fragment_within(monkeypatch, "_MEMO_BYTES", 0)
        assert set(xmlfrag._memo) == distinct
        assert len(distinct) == 3 and len(bodies) == 5

    def test_a_fragment_over_the_budget_is_not_kept(self, monkeypatch):
        """One byte over the budget, the call keeps nothing, and replaces
        the earlier call's fragments all the same."""
        self._fragment_within(monkeypatch, "_MEMO_BYTES", 1)
        assert xmlfrag._memo == {}

    def test_parts_stay_within_their_budget(self, monkeypatch):
        distinct, _, need = self._fragment_within(monkeypatch, "_MEMO_PARTS", 0)
        assert set(xmlfrag._memo) == distinct
        # four books of three parts, and a library holding four x-refs of three
        assert need == 4 * 3 + 1 + 4 * 3

    def test_a_fragment_over_the_part_budget_is_not_kept(self, monkeypatch):
        self._fragment_within(monkeypatch, "_MEMO_PARTS", 1)
        assert xmlfrag._memo == {}

    @settings(max_examples=100, deadline=None)
    @given(
        doc=_docs(),
        schema_root=st.booleans().flatmap(
            lambda wild: _schema_node_st("*" if wild else "a", 0)),
        mode=st.sampled_from(["key", "name", "self"]),
    )
    def test_parts_count_every_element_attribute_and_text(self, doc, schema_root, mode):
        """Over random documents, schemas and modes, a part budget equal to
        the parts of every body the call wrote, x-refs included, keeps its
        distinct fragments, and one less keeps nothing."""
        if schema_root.element_name not in ("*", doc.name):
            return
        schema = FragSchema(schema_root)
        counted = MemoryStore(policy="sequence")
        fragment(doc, schema, counted, mode=mode, namer=MemoryNamer(), name_prefix="t")
        parts = sum(_parts(xml_parse(body)) for _, body in counted.bindings())
        for limit in (parts, parts - 1):
            store = MemoryStore(policy="content-hash")
            with mock.patch.object(xmlfrag, "_MEMO_PARTS", limit):
                fragment(doc, schema, store, mode=mode, namer=MemoryNamer(), name_prefix="t")
            expected = {body for _, body in store.bindings()} if limit == parts else set()
            assert set(xmlfrag._memo) == expected

    def test_subclassed_nodes_read_back_as_plain_ones(self):
        class MyElement(Element):
            pass

        class MyText(Text):
            pass

        store = MemoryStore(policy="sequence")
        for doc in (
            Element("library", (), (MyElement("book", (("n", "1"),), (Text("x"),)),)),
            Element("library", (), (Element("book", (), (MyText("x"),)),)),
            MyElement("library", (), (Element("book"),)),
        ):
            fragment(LIBRARY, LIBRARY_SCHEMA, store)
            assert xmlfrag._memo
            key = fragment(doc, LIBRARY_SCHEMA, store)
            assert xmlfrag._memo == {}
            out = defragment(key, store)
            assert out == xml_parse(xml_serialize(doc))
            for element in iter_elements(out):
                assert type(element) is Element
                assert all(type(c) in (Element, Text) for c in element.children)


def test_threads_share_the_memo(monkeypatch):
    """Four threads fragment and defragment shared and distinct documents
    through one store. Each call replaces the memo the others read, and
    self-mode calls on a thread's own document are over the part budget,
    so the memo is often empty."""
    monkeypatch.setattr(xmlfrag, "_MEMO_PARTS", 40)
    store = MemoryStore(policy="content-hash")
    namer = MemoryNamer()
    shared = [xml_parse(b"<library><book><t>shared %d</t></book><book>x</book></library>" % i)
              for i in range(3)]
    errors = []

    def work(n):
        try:
            # 19 parts and six x-refs of 3 parts each, or 4 in self mode
            own = xml_parse(b"<library>" + b"".join(
                b"<book><t>%d/%d</t></book>" % (n, i) for i in range(6)) + b"</library>")
            for i in range(40):
                doc = own if i % 2 else shared[i % 3]
                mode = ("key", "name", "self")[i % 3]
                ref = fragment(doc, LIBRARY_SCHEMA, store, mode=mode, namer=namer,
                               name_prefix=f"t{n}/{i}")
                if defragment(ref, store, namer=namer) != doc:
                    errors.append(f"thread {n} round {i}: wrong document")
        except Exception as exc:  # reported by the main thread
            errors.append(f"thread {n}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for data, kept in xmlfrag._memo.items():
        assert kept.root == xml_parse(data)


def _without_recursion(fn, *args, **kwargs):
    """fn(*args, **kwargs), failing at once on RecursionError: pytest would
    spend minutes comparing the deep trees held by thousands of frames."""
    try:
        return fn(*args, **kwargs)
    except RecursionError:
        pass
    pytest.fail(f"{fn.__name__} recursed once per level")


class TestDeepInput:
    DEPTH = 5000

    def _chain(self):
        return xml_parse(b"<a>" * (self.DEPTH - 1) + b"<a/>" + b"</a>" * (self.DEPTH - 1))

    def test_defragment_of_a_deep_fragmented_document(self):
        store = MemoryStore(policy="sequence")
        key = store.put(b"<a/>")
        for _ in range(self.DEPTH - 1):
            key = store.put(f"<a>{_xref(key)}</a>".encode())
        assert _without_recursion(defragment, key, store) == self._chain()

    def test_fragment_with_a_deep_expanded_schema(self):
        store = MemoryStore(policy="sequence")
        doc = self._chain()
        key = _without_recursion(fragment, doc, fully_expanded_schema(self.DEPTH), store)
        assert len(store) == self.DEPTH
        assert defragment(key, store) == doc

    def test_deep_schema_nodes_compare_hash_and_repr(self):
        one = fully_expanded_schema(self.DEPTH).root
        two = fully_expanded_schema(self.DEPTH).root
        other = SchemaNode(WILDCARD, collapse=True)
        for _ in range(self.DEPTH - 1):
            other = SchemaNode(WILDCARD, False, (other,))
        assert _without_recursion(operator.eq, one, two) is True
        assert _without_recursion(operator.ne, one, other) is True
        assert _without_recursion(hash, one) == hash(two)
        text = _without_recursion(repr, one)
        assert text.startswith("SchemaNode(element_name='*', collapse=False, "
                               "children=(SchemaNode(element_name='*'")
        assert text.count("SchemaNode(") == self.DEPTH
        assert len({one, two, other}) == 2

    def test_schema_from_deep_xml(self):
        schema = _without_recursion(
            FragSchema.from_xml, b"<a>" * self.DEPTH + b"</a>" * self.DEPTH)
        node, depth = schema.root, 1
        while node.children:
            (node,) = node.children
            depth += 1
        assert depth == self.DEPTH and node == SchemaNode("a")
