"""Casters: typed values to XML bytes and back."""
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbase.casters import (
    NamerCaster,
    PersonCaster,
    PersonRecord,
    StoreCaster,
    namer_reflect,
    namer_reify,
    person_reflect,
    person_reify,
    store_reflect,
    store_reify,
)
from xbase.core import InvalidRepresentationError, Key, KeyGenerationError, Name, StoreID
from xbase.namer import MemoryNamer
from xbase.stores import MemoryStore, SequenceKeys
from xbase.xmldoc import xml_parse

FIXED_ID = StoreID(bytes(range(16)))
FIXED_HEX = FIXED_ID.hex


class TestPersonCaster:
    def test_golden_bytes(self):
        rec = PersonRecord(name="Graham", age=37)
        assert person_reify(rec) == b'<person name="Graham" age="37"/>'

    def test_round_trip(self):
        rec = PersonRecord(name="Ada Lovelace", age=36)
        assert person_reflect(person_reify(rec)) == rec

    def test_escaping_round_trip(self):
        rec = PersonRecord(name='O"Brien <&> \'', age=0)
        assert person_reflect(person_reify(rec)) == rec

    def test_record_validation(self):
        with pytest.raises(ValueError):
            PersonRecord(name="", age=1)
        with pytest.raises(ValueError):
            PersonRecord(name="x", age=-1)
        with pytest.raises(ValueError):
            PersonRecord(name="x", age=2**32)
        with pytest.raises(ValueError):
            PersonRecord(name="x", age=True)
        PersonRecord(name="x", age=2**32 - 1)

    def test_reflect_rejections(self):
        bad = [
            b"",
            b"not xml at all",
            b'<dog name="Rex" age="3"/>',  # wrong element
            b'<person name="A"/>',  # missing age
            b'<person age="3"/>',  # missing name
            b'<person name="A" age="abc"/>',  # non-numeric age
            b'<person name="A" age=""/>',
            b'<person name="A" age="-1"/>',
            b'<person name="A" age="4294967296"/>',  # out of range
            b'<person name="" age="3"/>',  # empty name
            b'<person name="A" age="3" extra="x"/>',  # unexpected attribute
            b'<person name="A" age="3">hi</person>',  # content not allowed
            '<person name="A" age="٣"/>'.encode("utf-8"),  # non-ASCII digits
        ]
        for raw in bad:
            with pytest.raises(InvalidRepresentationError):
                person_reflect(raw)

    def test_age_boundary(self):
        raw = b'<person name="A" age="4294967295"/>'
        assert person_reflect(raw).age == 2**32 - 1

    def test_determinism(self):
        rec = PersonRecord(name="B", age=9)
        assert person_reify(rec) == person_reify(rec)


class TestStoreCaster:
    def test_empty_sequence_store_golden(self):
        store = MemoryStore(policy="sequence", store_id=FIXED_ID)
        expected = f'<store id="{FIXED_HEX}" policy="sequence" seq-next="1"/>'
        assert store_reify(store) == expected.encode()

    def test_empty_random_store_has_no_seq_attr(self):
        store = MemoryStore(policy="random", store_id=FIXED_ID)
        assert store_reify(store) == f'<store id="{FIXED_HEX}" policy="random"/>'.encode()

    def test_entries_in_insertion_order(self):
        store = MemoryStore(policy="sequence", store_id=FIXED_ID)
        store.put(b"\xaa")
        store.put(b"")
        store.put(b"\xbb\xcc")
        expected = (
            f'<store id="{FIXED_HEX}" policy="sequence" seq-next="4">'
            '<entry key="0000000000000001">aa</entry>'
            '<entry key="0000000000000002"/>'
            '<entry key="0000000000000003">bbcc</entry>'
            "</store>"
        )
        assert store_reify(store) == expected.encode()

    def test_round_trip_preserves_everything(self):
        store = MemoryStore(policy="content-hash", store_id=FIXED_ID)
        keys = [store.put(os.urandom(n)) for n in (0, 1, 7, 300)]
        copy = store_reflect(store_reify(store))
        assert copy.get_store_id() == FIXED_ID  # identity survives
        assert type(copy.policy).__name__ == "ContentHashKeys"
        assert dict(copy.bindings()) == dict(store.bindings())
        for k in keys:
            assert copy.get(k) == store.get(k)

    def test_sequence_counter_continues_after_reflect(self):
        store = MemoryStore(policy="sequence")
        for _ in range(4):
            store.put(b"x")
        copy = store_reflect(store_reify(store))
        key = copy.put(b"new")
        assert key.raw == (5).to_bytes(8, "big")

    def test_recursive_store_of_stores(self):
        inner = MemoryStore(policy="sequence", store_id=FIXED_ID)
        inner.put(b"payload")
        outer = MemoryStore(policy="content-hash")
        k = outer.put(store_reify(inner))
        inner_again = store_reflect(store_reflect(store_reify(outer)).get(k))
        assert inner_again.get_store_id() == FIXED_ID
        assert dict(inner_again.bindings()) == dict(inner.bindings())

    def test_whitespace_between_entries_tolerated(self):
        raw = (
            f'<store id="{FIXED_HEX}" policy="random">\n'
            '  <entry key="ab">cd</entry>\n'
            "</store>"
        ).encode()
        copy = store_reflect(raw)
        assert copy.get(Key(b"\xab")) == b"\xcd"

    def test_reflect_rejections(self):
        ok_id = FIXED_HEX
        bad = [
            b"<store/>",  # missing attrs
            f'<store id="zz" policy="random"/>'.encode(),  # bad id hex
            f'<store id="{ok_id[:-2]}" policy="random"/>'.encode(),  # short id
            f'<store id="{ok_id}" policy="fancy"/>'.encode(),  # unknown policy
            f'<store id="{ok_id}" policy="sequence"/>'.encode(),  # missing seq-next
            f'<store id="{ok_id}" policy="sequence" seq-next="x"/>'.encode(),
            f'<store id="{ok_id}" policy="random" seq-next="1"/>'.encode(),  # seq attr on non-seq
            f'<store id="{ok_id}" policy="random"><entry>ab</entry></store>'.encode(),
            f'<store id="{ok_id}" policy="random"><entry key="xx">ab</entry></store>'.encode(),
            f'<store id="{ok_id}" policy="random"><entry key="ab">odd</entry></store>'.encode(),
            f'<store id="{ok_id}" policy="random"><other key="ab"/></store>'.encode(),
            f'<store id="{ok_id}" policy="random">text</store>'.encode(),
            f'<wrong id="{ok_id}" policy="random"/>'.encode(),
            f'<store id="{ok_id}" policy="random" extra="1"/>'.encode(),
            # nested markup inside an entry
            f'<store id="{ok_id}" policy="random"><entry key="ab"><b/></entry></store>'.encode(),
        ]
        for raw in bad:
            with pytest.raises(InvalidRepresentationError):
                store_reflect(raw)

    def test_seq_next_past_the_key_space_rejected(self):
        # a counter reaches 2**64 (exhausted) but never more
        for seq_next in ("0", str(2**64 + 1), "99999999999999999999999"):
            image = f'<store id="{FIXED_HEX}" policy="sequence" seq-next="{seq_next}"/>'
            with pytest.raises(InvalidRepresentationError, match="bad seq-next"):
                store_reflect(image.encode())

    def test_exhausted_sequence_store_round_trips(self):
        store = MemoryStore(policy=SequenceKeys(next_seq=2**64 - 1), store_id=FIXED_ID)
        store.put(b"last")
        image = store_reify(store)
        assert f'seq-next="{2**64}"'.encode() in image
        copy = store_reflect(image)
        assert store_reify(copy) == image
        with pytest.raises(KeyGenerationError):
            copy.put(b"more")

    def test_duplicate_entry_keys_rejected(self):
        raw = (
            f'<store id="{FIXED_HEX}" policy="random">'
            '<entry key="ab">01</entry><entry key="ab">02</entry></store>'
        ).encode()
        with pytest.raises(InvalidRepresentationError):
            store_reflect(raw)

    def test_content_hash_image_with_wrong_digest_rejected(self):
        raw = (
            f'<store id="{FIXED_HEX}" policy="content-hash">'
            '<entry key="00">aa</entry></store>'
        ).encode()
        with pytest.raises(InvalidRepresentationError):
            store_reflect(raw)

    def test_image_is_well_formed_xml(self):
        store = MemoryStore(policy="random", store_id=FIXED_ID)
        store.put(b"\x01\x02")
        doc = xml_parse(store_reify(store))
        assert doc.name == "store"
        entries = doc.child_elements()
        assert len(entries) == 1 and entries[0].name == "entry"


class TestNamerCaster:
    def test_empty_golden(self):
        namer = MemoryNamer(namer_id=FIXED_ID)
        assert namer_reify(namer) == f'<namer id="{FIXED_HEX}"/>'.encode()

    def test_bindings_sorted_by_name_then_key(self):
        namer = MemoryNamer(namer_id=FIXED_ID)
        namer.bind(Name("zeta"), Key(b"\x01"))
        namer.bind(Name("alpha"), Key(b"\x02"))
        namer.bind(Name("alpha"), Key(b"\x01"))
        expected = (
            f'<namer id="{FIXED_HEX}">'
            '<binding name="alpha" key="01"/>'
            '<binding name="alpha" key="02"/>'
            '<binding name="zeta" key="01"/>'
            "</namer>"
        )
        assert namer_reify(namer) == expected.encode()

    def test_round_trip(self):
        namer = MemoryNamer(namer_id=FIXED_ID)
        namer.bind(Name("a b <&>"), Key(b"\xff\x00"))
        namer.bind(Name("plain"), Key(b"\x01"))
        copy = namer_reflect(namer_reify(namer))
        assert copy.namer_id == FIXED_ID
        assert copy.bindings() == namer.bindings()

    def test_image_reflects_current_state_only(self):
        namer = MemoryNamer(namer_id=FIXED_ID)
        n, k1, k2 = Name("n"), Key(b"\x01"), Key(b"\x02")
        namer.bind(n, k1)
        namer.bind(n, k2)
        namer.unbind(n, k1)
        copy = namer_reflect(namer_reify(namer))
        assert copy.lookup(n) == {k2}
        assert copy.bindings() == [(n, k2)]

    def test_reflect_rejections(self):
        ok = FIXED_HEX
        bad = [
            b"<namer/>",
            f'<wrong id="{ok}"/>'.encode(),
            f'<namer id="short"/>'.encode(),
            f'<namer id="{ok}"><binding name="n"/></namer>'.encode(),
            f'<namer id="{ok}"><binding key="ab"/></namer>'.encode(),
            f'<namer id="{ok}"><binding name="n" key="zz"/></namer>'.encode(),
            f'<namer id="{ok}"><other/></namer>'.encode(),
            f'<namer id="{ok}">text</namer>'.encode(),
            f'<namer id="{ok}"><binding name="n" key="ab">x</binding></namer>'.encode(),
        ]
        for raw in bad:
            with pytest.raises(InvalidRepresentationError):
                namer_reflect(raw)

    def test_duplicate_binding_tolerated_as_set(self):
        raw = (
            f'<namer id="{FIXED_HEX}">'
            '<binding name="n" key="ab"/><binding name="n" key="ab"/></namer>'
        ).encode()
        copy = namer_reflect(raw)
        assert copy.lookup(Name("n")) == {Key(b"\xab")}


def test_reflect_fuzz_raises_only_invalid_representation():
    rng = random.Random(0xCA57)
    reflectors = (person_reflect, store_reflect, namer_reflect)
    for _ in range(300):
        raw = rng.randbytes(rng.randrange(0, 120))
        for reflect in reflectors:
            with pytest.raises(InvalidRepresentationError):
                reflect(raw)


def test_deeply_nested_store_image_is_invalid_representation():
    deep = b"<a>" * 5000 + b"</a>" * 5000
    head = f'<store id="{FIXED_HEX}" policy="random">'.encode()
    for body in (deep, b'<entry key="00">' + deep + b"</entry>"):
        with pytest.raises(InvalidRepresentationError):
            store_reflect(head + body + b"</store>")


def test_caster_instances_share_module_functions():
    rec = PersonRecord(name="X", age=1)
    assert PersonCaster().reify(rec) == person_reify(rec)
    store = MemoryStore(policy="random", store_id=FIXED_ID)
    assert StoreCaster().reify(store) == store_reify(store)
    namer = MemoryNamer(namer_id=FIXED_ID)
    assert NamerCaster().reify(namer) == namer_reify(namer)


_name_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)


@settings(max_examples=100, deadline=None)
@given(name=_name_text, age=st.integers(0, 2**32 - 1))
def test_person_round_trip_property(name, age):
    rec = PersonRecord(name=name, age=age)
    assert person_reflect(person_reify(rec)) == rec


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.binary(max_size=40), max_size=8),
    policy=st.sampled_from(["random", "sequence", "content-hash"]),
)
def test_store_round_trip_property(values, policy):
    store = MemoryStore(policy=policy)
    for v in values:
        store.put(v)
    copy = store_reflect(store_reify(store))
    assert copy.get_store_id() == store.get_store_id()
    assert dict(copy.bindings()) == dict(store.bindings())
