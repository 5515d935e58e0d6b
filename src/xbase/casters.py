"""Concrete reify/reflect pairs over the XML document model.

Three casters live here: a fixed-shape person record, whole stores, and
whole namers. The latter two turn a component into a single XML
bit-string, so a store can be stored inside another store and later
rebuilt, recursively if desired.

Image shapes (canonical serialization, binary payloads as lowercase hex):

    <person name="..." age="..."/>
    <store id="..." policy="..." [seq-next="..."]><entry key="...">hex</entry>...</store>
    <namer id="..."><binding name="..." key="..."/>...</namer>

seq-next appears only for sequence-policy stores and carries the next
counter value, so a reflected store keeps issuing fresh keys. Reflected
stores and namers keep the original instance id: a round trip is an
identity, not a copy with a new identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .core import (
    BitString,
    Caster,
    InvalidRepresentationError,
    Key,
    Name,
    StoreID,
    XbaseError,
)
from .namer import MemoryNamer
from .stores import MemoryStore, SequenceKeys, make_policy
from .xmldoc import Element, ParseError, Text, xml_parse, xml_serialize


@dataclass(frozen=True)
class PersonRecord:
    name: str
    age: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("name must be a nonempty string")
        if not isinstance(self.age, int) or isinstance(self.age, bool):
            raise ValueError("age must be an integer")
        if not 0 <= self.age < 2**32:
            raise ValueError("age must fit in an unsigned 32-bit integer")


def _parse_image(data: BitString, root_name: str) -> Element:
    try:
        root = xml_parse(data)
    except ParseError as exc:
        raise InvalidRepresentationError(f"not well-formed XML: {exc}") from None
    if root.name != root_name:
        raise InvalidRepresentationError(
            f"expected a <{root_name}> document, got <{root.name}>"
        )
    return root


def _require_attrs(root: Element, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    present = [name for name, _ in root.attributes]
    for name in required:
        if name not in present:
            raise InvalidRepresentationError(f"<{root.name}> is missing attribute {name!r}")
    for name in present:
        if name not in required and name not in optional:
            raise InvalidRepresentationError(f"<{root.name}> has unexpected attribute {name!r}")


class PersonCaster(Caster[PersonRecord]):
    """reify: person record -> one-element XML document, and back."""

    def reify(self, entity: PersonRecord) -> BitString:
        if not isinstance(entity, PersonRecord):
            raise TypeError("expected a PersonRecord")
        element = Element(
            "person", (("name", entity.name), ("age", str(entity.age)))
        )
        return xml_serialize(element)

    def reflect(self, data: BitString) -> PersonRecord:
        root = _parse_image(data, "person")
        _require_attrs(root, ("name", "age"))
        if root.children:
            raise InvalidRepresentationError("<person> must be empty")
        age_text = root.attr("age")
        if not (age_text.isascii() and age_text.isdigit()):
            raise InvalidRepresentationError(f"non-numeric age {age_text!r}")
        try:
            return PersonRecord(root.attr("name"), int(age_text))
        except ValueError as exc:
            raise InvalidRepresentationError(str(exc)) from None


def _hex_id(value: str, what: str) -> StoreID:
    try:
        return StoreID.from_hex(value)
    except ValueError as exc:
        raise InvalidRepresentationError(f"bad {what}: {exc}") from None


def _hex_bytes(value: str, what: str) -> bytes:
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise InvalidRepresentationError(f"{what} is not valid hex") from None


class StoreCaster(Caster[MemoryStore]):
    """Reifies a local store's complete state; reflects to an in-memory store.

    The source must expose bindings(), policy, and get_store_id(), which all
    local store layouts do. Entry order in the image is the store's own
    iteration order: insertion order in memory, log order in an append log,
    and hex order of the keys in a file-per-key directory, which records no
    insertion order.
    """

    def reify(self, entity) -> BitString:
        policy = entity.policy
        attributes = [
            ("id", entity.get_store_id().hex),
            ("policy", policy.kind),
        ]
        if isinstance(policy, SequenceKeys):
            attributes.append(("seq-next", str(policy.next_seq)))
        entries = []
        for key, value in entity.bindings():
            children = (Text(value.hex()),) if value else ()
            entries.append(Element("entry", (("key", key.hex),), children))
        return xml_serialize(Element("store", tuple(attributes), tuple(entries)))

    def reflect(self, data: BitString) -> MemoryStore:
        root = _parse_image(data, "store")
        _require_attrs(root, ("id", "policy"), optional=("seq-next",))
        store_id = _hex_id(root.attr("id"), "store id")
        kind = root.attr("policy")
        try:
            policy = make_policy(kind)
        except ValueError as exc:
            raise InvalidRepresentationError(str(exc)) from None

        seq_next = root.attr("seq-next")
        if isinstance(policy, SequenceKeys):
            if seq_next is None:
                raise InvalidRepresentationError("sequence store image lacks seq-next")
            try:
                if not (seq_next.isascii() and seq_next.isdigit()):
                    raise ValueError
                policy = SequenceKeys(int(seq_next))
            except ValueError:
                raise InvalidRepresentationError(f"bad seq-next {seq_next!r}") from None
        elif seq_next is not None:
            raise InvalidRepresentationError(
                f"seq-next is only valid for sequence stores, not {kind!r}"
            )

        store = MemoryStore(policy=policy, store_id=store_id)
        seen: set[bytes] = set()
        for child in root.children:
            if isinstance(child, Text):
                if child.content.strip():
                    raise InvalidRepresentationError("stray text inside <store>")
                continue
            if child.name != "entry":
                raise InvalidRepresentationError(f"unexpected element <{child.name}>")
            _require_attrs(child, ("key",))
            if child.child_elements():
                raise InvalidRepresentationError("<entry> must contain only hex text")
            key_bytes = _hex_bytes(child.attr("key"), "entry key")
            if not key_bytes:
                raise InvalidRepresentationError("empty entry key")
            if key_bytes in seen:
                raise InvalidRepresentationError(
                    f"duplicate entry key {key_bytes.hex()}"
                )
            seen.add(key_bytes)
            value = _hex_bytes(child.text(), "entry value")
            try:
                store.put_with_key(value, Key(key_bytes))
            except XbaseError as exc:
                raise InvalidRepresentationError(str(exc)) from None
        return store


class NamerCaster(Caster[MemoryNamer]):
    """Snapshots a namer's current binding set (not its history)."""

    def reify(self, entity) -> BitString:
        children = tuple(
            Element("binding", (("name", name.text), ("key", key.hex)))
            for name, key in entity.bindings()
        )
        return xml_serialize(
            Element("namer", (("id", entity.namer_id.hex),), children)
        )

    def reflect(self, data: BitString) -> MemoryNamer:
        root = _parse_image(data, "namer")
        _require_attrs(root, ("id",))
        namer = MemoryNamer(namer_id=_hex_id(root.attr("id"), "namer id"))
        for child in root.children:
            if isinstance(child, Text):
                if child.content.strip():
                    raise InvalidRepresentationError("stray text inside <namer>")
                continue
            if child.name != "binding":
                raise InvalidRepresentationError(f"unexpected element <{child.name}>")
            _require_attrs(child, ("name", "key"))
            if child.children:
                raise InvalidRepresentationError("<binding> must be empty")
            key_bytes = _hex_bytes(child.attr("key"), "binding key")
            try:
                namer.bind(Name(child.attr("name")), Key(key_bytes))
            except ValueError as exc:
                raise InvalidRepresentationError(str(exc)) from None
        return namer


_reify_reflect = attrgetter("reify", "reflect")

person_reify, person_reflect = _reify_reflect(PersonCaster())
store_reify, store_reflect = _reify_reflect(StoreCaster())
namer_reify, namer_reflect = _reify_reflect(NamerCaster())
