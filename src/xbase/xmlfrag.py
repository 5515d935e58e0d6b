"""Schema-driven fragmentation of XML documents into store-resident pieces.

A fragmentation schema is a tree mirroring the document: each node names
an element (or the wildcard), and is either expanded or collapsed. An
expanded element becomes a fragment of its own whose matched children are
replaced by x-ref placeholder elements; a collapsed or unmatched element
stays in one piece. Fragments are written child-first, so every reference
points at a fragment that already exists and the fragment graph is acyclic
by construction.

References come in three modes:

    key   <x-ref mode="key" k="<hex>"/>          immutable
    name  <x-ref mode="name" n="<symbolic>"/>    rebindable through a namer
    self  <x-ref mode="self" k="<hex>" store-id="<hex>"/>

Name-mode fragments are bound under prefix + "/" + a slash path of
element names with 1-based same-named sibling ordinals, e.g.
"doc/library.1/book.2". Rebinding such a name to an edited fragment
changes the reassembled document; key-mode documents cannot change.

Schema files are XML: element names mirror the document, frag:collapse="true"
marks a collapsed subtree, and <frag:any> is the wildcard. Named schema
children take precedence over the wildcard when matching.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import (
    InvalidRepresentationError,
    Key,
    Name,
    Namer,
    Store,
    StoreID,
    XbaseError,
)
from .xmldoc import Element, Text, XmlNode, _trusted, iter_elements, xml_parse, xml_serialize

XREF_NAME = "x-ref"
WILDCARD = "*"
SCHEMA_ANY = "frag:any"
SCHEMA_COLLAPSE_ATTR = "frag:collapse"

MODE_KEY = "key"
MODE_NAME = "name"
MODE_SELF = "self"
_MODES = (MODE_KEY, MODE_NAME, MODE_SELF)


class SchemaError(XbaseError):
    """The schema document itself is invalid."""


class SchemaMismatchError(XbaseError):
    """Document root does not match the schema root."""


class ReservedElementError(XbaseError):
    """Input document uses the reserved x-ref element name."""


class AmbiguousNameError(XbaseError):
    """A name-mode reference resolved to zero or several keys."""


class CycleDetectedError(XbaseError):
    """Reference resolution revisited a fragment on the current path."""


class UnresolvedReferenceError(XbaseError):
    """A self-describing reference names a store we cannot reach."""


@dataclass(frozen=True)
class SchemaNode:
    element_name: str
    collapse: bool = False
    children: tuple["SchemaNode", ...] = ()

    def match_child(self, name: str) -> "SchemaNode | None":
        wildcard = None
        for child in self.children:
            if child.element_name == name:
                return child
            if child.element_name == WILDCARD and wildcard is None:
                wildcard = child
        return wildcard


@dataclass(frozen=True)
class FragSchema:
    root: SchemaNode

    @classmethod
    def from_xml(cls, data: bytes | str | Element) -> "FragSchema":
        root = data if isinstance(data, Element) else xml_parse(data)
        return cls(_schema_node(root))


def _schema_node(element: Element) -> SchemaNode:
    name = WILDCARD if element.name == SCHEMA_ANY else element.name
    collapse = False
    for attr_name, value in element.attributes:
        if attr_name != SCHEMA_COLLAPSE_ATTR:
            raise SchemaError(f"unexpected schema attribute {attr_name!r}")
        if value == "true":
            collapse = True
        elif value == "false":
            collapse = False
        else:
            raise SchemaError(f"{SCHEMA_COLLAPSE_ATTR} must be true or false, got {value!r}")
    for child in element.children:
        if isinstance(child, Text) and child.content.strip():
            raise SchemaError("schema elements must not contain text")
    if collapse:
        return SchemaNode(name, True, ())  # children are ignored once collapsed
    children = []
    seen: set[str] = set()
    for child in element.child_elements():
        node = _schema_node(child)
        if node.element_name in seen:
            label = "wildcard" if node.element_name == WILDCARD else repr(node.element_name)
            raise SchemaError(f"duplicate schema child {label} under {name!r}")
        seen.add(node.element_name)
        children.append(node)
    return SchemaNode(name, False, tuple(children))


def fully_collapsed_schema() -> FragSchema:
    """Matches any root and keeps the whole document in one fragment."""
    return FragSchema(SchemaNode(WILDCARD, collapse=True))


def fully_expanded_schema(depth: int) -> FragSchema:
    """Wildcard schema of the given depth with every node expanded, so each
    element down to that depth becomes its own fragment."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    node = SchemaNode(WILDCARD)
    for _ in range(depth - 1):
        node = SchemaNode(WILDCARD, False, (node,))
    return FragSchema(node)


@dataclass
class _FragContext:
    store: Store
    mode: str
    namer: Namer | None
    prefix: str | None
    store_id_hex: str = field(default="", init=False)

    def __post_init__(self):
        if self.mode == MODE_SELF:
            self.store_id_hex = self.store.get_store_id().hex

    def emit(self, body: Element, path: tuple[str, ...]) -> tuple[Key, Element]:
        """Store one fragment; return its key and the x-ref pointing at it."""
        key = self.store.put(xml_serialize(body))
        if self.mode == MODE_NAME:
            name = Name(self.prefix + "/" + "/".join(path))
            self.namer.bind(name, key)
            ref = Element(XREF_NAME, (("mode", MODE_NAME), ("n", name.text)))
        elif self.mode == MODE_SELF:
            ref = Element(
                XREF_NAME,
                (("mode", MODE_SELF), ("k", key.hex), ("store-id", self.store_id_hex)),
            )
        else:
            ref = Element(XREF_NAME, (("mode", MODE_KEY), ("k", key.hex)))
        return key, ref


def _fragment_body(element: Element, snode: SchemaNode, path: tuple[str, ...], ctx: _FragContext) -> Element:
    """Fragment body for an expanded element: matched children turn into
    x-refs (their fragments emitted first), everything else stays inline."""
    out: list[XmlNode] = []
    ordinals: dict[str, int] = {}
    for child in element.children:
        if isinstance(child, Text):
            out.append(child)
            continue
        ordinal = ordinals[child.name] = ordinals.get(child.name, 0) + 1
        child_snode = snode.match_child(child.name)
        if child_snode is None:
            out.append(child)
            continue
        child_path = path + (f"{child.name}.{ordinal}",)
        if child_snode.collapse:
            body = child
        else:
            body = _fragment_body(child, child_snode, child_path, ctx)
        _, ref = ctx.emit(body, child_path)
        out.append(ref)
    return Element(element.name, element.attributes, tuple(out))


def fragment(
    doc: Element,
    schema: FragSchema,
    store: Store,
    mode: str = MODE_KEY,
    namer: Namer | None = None,
    name_prefix: str | None = None,
) -> Key | Name:
    """Split doc into fragments in store; returns the root fragment's key,
    or its bound name in name mode."""
    if mode not in _MODES:
        raise ValueError(f"unknown reference mode {mode!r}")
    if mode == MODE_NAME and (namer is None or not name_prefix):
        raise ValueError("name mode requires a namer and a name prefix")
    if not isinstance(doc, Element):
        raise TypeError("document root must be an element")
    for element in iter_elements(doc):
        if element.name == XREF_NAME:
            raise ReservedElementError(
                f"input documents must not contain <{XREF_NAME}> elements"
            )
    root_snode = schema.root
    if root_snode.element_name not in (WILDCARD, doc.name):
        raise SchemaMismatchError(
            f"document root <{doc.name}> does not match schema root "
            f"<{root_snode.element_name}>"
        )
    ctx = _FragContext(store, mode, namer, name_prefix)
    path = (f"{doc.name}.1",)
    if root_snode.collapse:
        body = doc
    else:
        body = _fragment_body(doc, root_snode, path, ctx)
    key, _ = ctx.emit(body, path)
    if mode == MODE_NAME:
        return Name(name_prefix + "/" + path[0])
    return key


StoreResolver = Callable[[StoreID], Store]


@dataclass
class _DefragContext:
    namer: Namer | None
    store_resolver: StoreResolver | None

    def resolve_store(self, sid: StoreID, current: Store) -> Store:
        if current.get_store_id().raw == sid.raw:
            return current
        if self.store_resolver is not None:
            resolved = self.store_resolver(sid)
            if resolved is not None:
                return resolved
        raise UnresolvedReferenceError(f"no reachable store with id {sid.hex}")


def _lookup_single(namer: Namer | None, name: Name) -> Key:
    if namer is None:
        raise ValueError("name references require a namer")
    keys = namer.lookup(name)
    if len(keys) != 1:
        raise AmbiguousNameError(
            f"{name.text!r} resolves to {len(keys)} keys, need exactly 1"
        )
    return next(iter(keys))


def _ref_key(xref: Element, what: str) -> Key:
    value = xref.attr(what)
    if value is None:
        raise InvalidRepresentationError(f"x-ref lacks attribute {what!r}")
    try:
        return Key.from_hex(value)
    except ValueError as exc:
        raise InvalidRepresentationError(f"bad x-ref key: {exc}") from None


def _resolve_ref(xref: Element, store: Store, ctx: _DefragContext, on_path: set) -> Element:
    if xref.children:
        raise InvalidRepresentationError("x-ref elements must be empty")
    mode = xref.attr("mode")
    if mode == MODE_KEY:
        key, target = _ref_key(xref, "k"), store
    elif mode == MODE_NAME:
        name_text = xref.attr("n")
        if name_text is None:
            raise InvalidRepresentationError("name-mode x-ref lacks attribute 'n'")
        key, target = _lookup_single(ctx.namer, Name(name_text)), store
    elif mode == MODE_SELF:
        sid_hex = xref.attr("store-id")
        if sid_hex is None:
            raise InvalidRepresentationError("self-mode x-ref lacks attribute 'store-id'")
        try:
            sid = StoreID.from_hex(sid_hex)
        except ValueError as exc:
            raise InvalidRepresentationError(f"bad store-id: {exc}") from None
        target = ctx.resolve_store(sid, store)
        key = _ref_key(xref, "k")
    else:
        raise InvalidRepresentationError(f"unknown x-ref mode {mode!r}")
    return _load_fragment(key, target, ctx, on_path)


def _resolve_children(element: Element, store: Store, ctx: _DefragContext, on_path: set) -> Element:
    out: list[XmlNode] = []
    for child in element.children:
        if isinstance(child, Element):
            if child.name == XREF_NAME:
                out.append(_resolve_ref(child, store, ctx, on_path))
            else:
                out.append(_resolve_children(child, store, ctx, on_path))
        else:
            out.append(child)
    # every child was valid and each x-ref became an element, so the
    # rebuilt node needs no second validation
    return _trusted(Element, name=element.name, attributes=element.attributes, children=tuple(out))


def _load_fragment(key: Key, store: Store, ctx: _DefragContext, on_path: set) -> Element:
    node_id = (store.get_store_id().raw, key.raw)
    if node_id in on_path:
        raise CycleDetectedError(f"fragment {key.hex} references itself")
    root = xml_parse(store.get(key))
    on_path.add(node_id)
    try:
        return _resolve_children(root, store, ctx, on_path)
    finally:
        on_path.discard(node_id)


def defragment(
    root_ref: Key | Name,
    store: Store,
    namer: Namer | None = None,
    store_resolver: StoreResolver | None = None,
) -> Element:
    """Reassemble a fragmented document; the result has no x-ref elements."""
    ctx = _DefragContext(namer, store_resolver)
    if isinstance(root_ref, Name):
        key = _lookup_single(namer, root_ref)
    elif isinstance(root_ref, Key):
        key = root_ref
    else:
        raise TypeError("root_ref must be a Key or a Name")
    return _load_fragment(key, store, ctx, set())
