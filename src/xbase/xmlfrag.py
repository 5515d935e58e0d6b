"""Schema-driven fragmentation of XML documents into store-resident pieces.

A fragmentation schema is a tree mirroring the document: each node names
an element (or the wildcard), and is either expanded or collapsed. An
expanded element becomes a fragment of its own whose matched children are
replaced by x-ref placeholder elements; a collapsed or unmatched element
stays in one piece. Fragments are written child-first, one put_many per
tree level from the deepest up (level order), so every reference points at
a fragment that already exists and the fragment graph is acyclic by
construction. Reading fetches level by level too, one get_many per store;
each distinct fragment is fetched once per call, and parsed once per call
unless the memo holds it. Neither direction recurses, so nesting depth is
limited only by memory.

The memo holds what the latest fragment call wrote: each distinct
fragment's bytes, mapped to the tree fragment built for them, in the form
defragment reads. The call builds it as it writes and publishes it, by one
assignment, when it returns; a published memo is never changed, so threads
read it without a lock. As parse(serialize(node)) == node, it needs no
store identity and sees every edit, since each call still fetches every
fragment and looks up every name. A call that wrote over 512 KiB of
distinct fragment bytes or 16 384 parts (the document's elements,
attributes and text nodes, plus the x-refs it placed), or whose document
holds a subclass of Element or Text, publishes an empty memo; a call that
raises leaves the memo as it was. defragment adds nothing, so a process
that fragments A, then B, then reads A parses A, and bytes this process
did not write, such as those xbase defrag reads after xbase frag ran in
another process, are parsed on every call. A defragmented document may
share immutable subtrees with earlier results and with the document
passed to fragment.

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

from dataclasses import dataclass
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

from .core import (
    InvalidRepresentationError,
    Key,
    Name,
    Namer,
    Store,
    StoreID,
    XbaseError,
)
from .xmldoc import (Element, Text, XmlNode, _trusted, _Tree, iter_elements, xml_parse,
                     xml_serialize)

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


@dataclass(frozen=True, eq=False, repr=False)
class SchemaNode(_Tree):
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


def _schema_head(element: Element) -> tuple[str, bool]:
    """An element's schema name and collapse flag, after checking its own
    attributes and text."""
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
    return name, collapse


def _schema_node(root: Element) -> SchemaNode:
    """The schema tree of a schema document, built over an explicit stack.
    A child's whole subtree is checked before it is compared with its
    earlier siblings, so errors come in depth-first order."""
    # one frame per open expanded element: (name, child elements, built nodes, names seen)
    stack: list[tuple[str, Iterator[Element], list[SchemaNode], set[str]]] = []
    element: Element | None = root
    while True:
        if element is not None:
            name, collapse = _schema_head(element)
            if not collapse:  # children are ignored once collapsed
                stack.append((name, iter(element.child_elements()), [], set()))
                element = next(stack[-1][1], None)
                continue
            node = SchemaNode(name, True, ())
        else:
            name, _, children, _ = stack.pop()
            node = SchemaNode(name, False, tuple(children))
        if not stack:
            return node
        parent, rest, children, seen = stack[-1]
        if node.element_name in seen:
            label = "wildcard" if node.element_name == WILDCARD else repr(node.element_name)
            raise SchemaError(f"duplicate schema child {label} under {parent!r}")
        seen.add(node.element_name)
        children.append(node)
        element = next(rest, None)


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


@dataclass(slots=True, eq=False)
class _Piece:
    """One fragment being written: its element, its schema node, its name
    path, and where its x-ref goes in the parent's body."""

    element: Element
    snode: SchemaNode
    path: str  # "doc.1/book.2"; only name mode uses it
    parent: "_Piece | None"
    slot: int
    body: list[XmlNode] | None = None  # children, None while collapsed
    refs: list[Element] | None = None  # the x-refs placed in body, in order


def _split_levels(doc: Element, root_snode: SchemaNode, name_paths: bool) -> list[list[_Piece]]:
    """The fragments of doc, one list per tree level in document order.
    An expanded piece's body keeps unmatched children inline and leaves a
    slot (None) for each matched child, whose piece is on the next level."""
    level = [_Piece(doc, root_snode, f"{doc.name}.1", None, 0)]
    levels = []
    while level:
        levels.append(level)
        below: list[_Piece] = []
        for piece in level:
            if piece.snode.collapse:
                continue
            body: list[XmlNode] = []
            ordinals: dict[str, int] = {}
            for child in piece.element.children:
                if isinstance(child, Text):
                    body.append(child)
                    continue
                ordinal = ordinals[child.name] = ordinals.get(child.name, 0) + 1
                child_snode = piece.snode.match_child(child.name)
                if child_snode is None:
                    body.append(child)
                    continue
                path = f"{piece.path}/{child.name}.{ordinal}" if name_paths else ""
                below.append(_Piece(child, child_snode, path, piece, len(body)))
                body.append(None)
            piece.body = body
            piece.refs = []
        level = below
    return levels


def fragment(
    doc: Element,
    schema: FragSchema,
    store: Store,
    mode: str = MODE_KEY,
    namer: Namer | None = None,
    name_prefix: str | None = None,
) -> Key | Name:
    """Split doc into fragments in store; returns the root fragment's key,
    or its bound name in name mode. Fragments go in one put_many per tree
    level, deepest first, so every x-ref points at a stored fragment."""
    if mode not in _MODES:
        raise ValueError(f"unknown reference mode {mode!r}")
    if mode == MODE_NAME and (namer is None or not name_prefix):
        raise ValueError("name mode requires a namer and a name prefix")
    if not isinstance(doc, Element):
        raise TypeError("document root must be an element")
    node_types = {type(doc)}
    parts = 1  # the root, then each element's attributes and children
    for element in iter_elements(doc):
        if element.name == XREF_NAME:
            raise ReservedElementError(
                f"input documents must not contain <{XREF_NAME}> elements"
            )
        parts += len(element.attributes) + len(element.children)
        node_types.update(map(type, element.children))
    # a subclass need not survive the round trip, so only plain nodes go to the memo
    memo: dict[bytes, _Fragment] | None = (
        {} if node_types <= {Element, Text} and parts <= _MEMO_PARTS else None)
    size = 0
    root_snode = schema.root
    if root_snode.element_name not in (WILDCARD, doc.name):
        raise SchemaMismatchError(
            f"document root <{doc.name}> does not match schema root "
            f"<{root_snode.element_name}>"
        )
    store_id_hex = store.get_store_id().hex if mode == MODE_SELF else ""
    # Every part of a body and an x-ref is already checked: names and
    # attributes come from valid elements or are hex and Name text, and an
    # x-ref takes the place of an element, so no two text nodes meet.
    for level in reversed(_split_levels(doc, root_snode, mode == MODE_NAME)):
        bodies = [
            piece.element if piece.body is None else
            _trusted(Element, name=piece.element.name, attributes=piece.element.attributes,
                     children=tuple(piece.body))
            for piece in level
        ]
        data = [xml_serialize(body) for body in bodies]
        keys = store.put_many(data)
        if memo is not None:
            # x-refs sit only in an expanded body's own children
            for piece, body, value in zip(level, bodies, data):
                if value not in memo:
                    size += len(value)
                    refs = piece.refs or ()
                    memo[value] = _Fragment(body, refs, (id(body),) if refs else ())
            if size > _MEMO_BYTES:
                memo = None
        for piece, key in zip(level, keys):
            if mode == MODE_NAME:
                name = Name(name_prefix + "/" + piece.path)
                namer.bind(name, key)
                attributes = (("mode", MODE_NAME), ("n", name.text))
            elif mode == MODE_SELF:
                attributes = (("mode", MODE_SELF), ("k", key.hex), ("store-id", store_id_hex))
            else:
                attributes = (("mode", MODE_KEY), ("k", key.hex))
            if piece.parent is not None:
                xref = _trusted(Element, name=XREF_NAME, attributes=attributes, children=())
                piece.parent.body[piece.slot] = xref
                piece.parent.refs.append(xref)
                parts += 1 + len(attributes)
    global _memo
    _memo = memo if memo is not None and parts <= _MEMO_PARTS else {}
    return name if mode == MODE_NAME else key


StoreResolver = Callable[[StoreID], Store]


class _Fragment(NamedTuple):
    """A parsed fragment, the x-refs assembly resolves, and the ids of its
    elements that hold one (the only ones assembly has to rebuild)."""

    root: Element
    refs: Sequence[Element]
    holders: Collection[int]


# What the latest fragment call wrote, by its bytes, or {} if it was over
# either budget: a part takes 100 to 300 bytes once parsed, so the bytes
# alone would let fragments dense in elements or attributes hold over 60
# times their size.
_MEMO_BYTES = 512 << 10
_MEMO_PARTS = 16 << 10
_memo: dict[bytes, _Fragment] = {}


def _read(data: bytes) -> _Fragment:
    """The fragment of data: the one the latest fragment call wrote, from
    the memo, or else parsed through xml_parse; an error is raised afresh on
    every call."""
    fragment = _memo.get(data)
    if fragment is not None:
        return fragment
    root = xml_parse(data)
    refs: list[Element] = []
    holders: set[int] = set()
    pending: list[tuple[Element, tuple | None]] = [(root, None)]
    while pending:
        element, up = pending.pop()
        link = (id(element), up)  # this element and its ancestors
        for child in element.children:
            if not isinstance(child, Element):
                continue
            if child.name != XREF_NAME:
                pending.append((child, link))
                continue
            refs.append(child)
            holder = link
            while holder is not None and holder[0] not in holders:
                holders.add(holder[0])
                holder = holder[1]
    return _Fragment(root, refs, holders)


class _Defrag:
    """One defragment call: resolves references, memoizes names, resolved
    stores, resolved x-refs and parsed fragments, and assembles the
    document."""

    def __init__(self, namer: Namer | None, store_resolver: StoreResolver | None):
        self.namer = namer
        self.store_resolver = store_resolver
        self.names: dict[str, Key] = {}
        self.stores: dict[bytes, Store] = {}
        self.fragments: dict[tuple[bytes, bytes], _Fragment] = {}
        # (id of an x-ref, id of the store its fragment was read from) ->
        # (what it resolved to, the x-ref, the store); the memo may share one
        # x-ref between stores. Holding both keeps their ids theirs.
        self.refs: dict[tuple[int, int], tuple[tuple[Key, Store], Element, Store]] = {}

    def lookup(self, name: Name) -> Key:
        key = self.names.get(name.text)
        if key is None:
            key = self.names[name.text] = _lookup_single(self.namer, name)
        return key

    def resolve_store(self, sid: StoreID, current: Store) -> Store:
        if current.get_store_id().raw == sid.raw:
            return current
        store = self.stores.get(sid.raw)
        if store is None and self.store_resolver is not None:
            store = self.store_resolver(sid)
            if store is not None:
                self.stores[sid.raw] = store
        if store is None:
            raise UnresolvedReferenceError(f"no reachable store with id {sid.hex}")
        return store

    def resolve_ref(self, xref: Element, store: Store) -> tuple[Key, Store]:
        """The key and store that xref, in a fragment read from store, refers
        to. Only a success is kept, so a failure raises again in assembly."""
        ref = (id(xref), id(store))
        kept = self.refs.get(ref)
        if kept is None:
            kept = self.refs[ref] = (self._resolve_ref(xref, store), xref, store)
        return kept[0]

    def _resolve_ref(self, xref: Element, store: Store) -> tuple[Key, Store]:
        if xref.children:
            raise InvalidRepresentationError("x-ref elements must be empty")
        mode = xref.attr("mode")
        if mode == MODE_KEY:
            return _ref_key(xref, "k"), store
        if mode == MODE_NAME:
            name_text = xref.attr("n")
            if name_text is None:
                raise InvalidRepresentationError("name-mode x-ref lacks attribute 'n'")
            return self.lookup(Name(name_text)), store
        if mode == MODE_SELF:
            sid_hex = xref.attr("store-id")
            if sid_hex is None:
                raise InvalidRepresentationError("self-mode x-ref lacks attribute 'store-id'")
            try:
                sid = StoreID.from_hex(sid_hex)
            except ValueError as exc:
                raise InvalidRepresentationError(f"bad store-id: {exc}") from None
            target = self.resolve_store(sid, store)
            return _ref_key(xref, "k"), target
        raise InvalidRepresentationError(f"unknown x-ref mode {mode!r}")

    def fetch(self, key: Key, store: Store) -> None:
        """Read every fragment reachable from key into the call's fragments,
        one level at a time with one get_many per store. Whatever fails here
        is left out; assembly repeats it and raises the error in document
        order."""
        level = [(key, store)]
        while level:
            wanted: dict[int, tuple[Store, bytes, dict[Key, None]]] = {}
            for key, store in level:
                try:
                    sid = store.get_store_id().raw
                except Exception:
                    continue
                if (sid, key.raw) not in self.fragments:
                    wanted.setdefault(id(store), (store, sid, {}))[2][key] = None
            level = []
            for store, sid, keys in wanted.values():
                try:
                    values = store.get_many(keys)
                except Exception:
                    continue
                for key, value in values.items():
                    try:
                        fragment = _read(value)
                    except Exception:
                        continue
                    self.fragments[(sid, key.raw)] = fragment
                    for xref in fragment.refs:
                        try:
                            level.append(self.resolve_ref(xref, store))
                        except Exception:
                            continue

    def open(self, key: Key, store: Store, on_path: set) -> Element | tuple:
        """Open a fragment for assembly: its cycle check, then the call's
        fragments, or a get and a read if the fetch left it out. A fragment
        without x-refs is returned whole; any other comes back as a new
        stack frame."""
        node_id = (store.get_store_id().raw, key.raw)
        if node_id in on_path:
            raise CycleDetectedError(f"fragment {key.hex} references itself")
        fragment = self.fragments.get(node_id)
        if fragment is None:
            fragment = self.fragments[node_id] = _read(store.get(key))
        root = fragment.root
        if id(root) not in fragment.holders:
            return root
        on_path.add(node_id)
        return (root, store, fragment.holders, node_id, [], iter(root.children))

    def assemble(self, key: Key, store: Store) -> Element:
        """Build the document from the memo over an explicit stack, in
        document order. A frame is an element being rebuilt: (element, its
        store, its fragment's holders, the fragment's node id if the element
        is the fragment's root, the children built so far, the rest)."""
        on_path: set = set()
        opened = self.open(key, store, on_path)
        if isinstance(opened, Element):
            return opened
        stack = [opened]
        while True:
            element, store, holders, node_id, out, rest = stack[-1]
            for child in rest:
                if isinstance(child, Element):
                    if child.name == XREF_NAME:
                        child = self.open(*self.resolve_ref(child, store), on_path)
                    elif id(child) in holders:
                        child = (child, store, holders, None, [], iter(child.children))
                    if isinstance(child, tuple):
                        stack.append(child)
                        break
                out.append(child)
            else:
                stack.pop()
                if node_id is not None:
                    on_path.discard(node_id)
                # every child was valid and each x-ref became an element, so
                # the rebuilt node needs no second validation
                built = _trusted(Element, name=element.name, attributes=element.attributes,
                                 children=tuple(out))
                if not stack:
                    return built
                stack[-1][4].append(built)


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


def defragment(
    root_ref: Key | Name,
    store: Store,
    namer: Namer | None = None,
    store_resolver: StoreResolver | None = None,
) -> Element:
    """Reassemble a fragmented document; the result has no x-ref elements.

    Fragments are fetched breadth-first, one get_many per store and level,
    and each distinct fragment is fetched once per call and, unless the
    latest fragment call in this process wrote it, parsed once per call;
    nothing read is added to the memo. The document is then assembled
    without recursion, so depth is limited only by memory. The result may
    share immutable subtrees with earlier results."""
    if isinstance(root_ref, Name):
        key = _lookup_single(namer, root_ref)
    elif isinstance(root_ref, Key):
        key = root_ref
    else:
        raise TypeError("root_ref must be a Key or a Name")
    call = _Defrag(namer, store_resolver)
    call.fetch(key, store)
    return call.assemble(key, store)
