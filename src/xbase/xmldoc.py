"""Small XML document model with a matching parser and canonical serializer.

Supported subset: UTF-8 input, one root element, attributes in single or
double quotes, character data, self-closing tags, the five predefined
entities plus numeric character references, comments, and an XML
declaration (both discarded). DTDs, processing instructions, and CDATA
sections are rejected. The parser scans text, names, attribute values and
whitespace a run at a time and keeps open elements on an explicit stack, so
nesting depth is limited only by memory. Stdlib expat would break the round
trip below: it rejects raw and referenced U+0000/U+0001, turns \r into \n in
text, and turns tab and newline into spaces in attribute values.

The serializer emits one canonical form: attributes in stored order with
double quotes, minimal escaping (& < > in text; & < > " in attribute
values), self-closing tags for childless elements, and no inserted
whitespace. parse(serialize(node)) reproduces node exactly, which is why
the model refuses empty and adjacent text nodes: they could not survive
the trip.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter

from .core import XbaseError

_NAME_RUN = re.compile(r"[A-Za-z_:][A-Za-z0-9_.:\-]*")
NAME_RE = re.compile(_NAME_RUN.pattern + r"\Z")
_SPACE_RUN = re.compile(r"[ \t\r\n]*")
_TEXT_RUN = re.compile(r"[^<&]+")
_VALUE_RUNS = {'"': re.compile(r'[^"<&]*'), "'": re.compile(r"[^'<&]*")}
_PLAIN_ATTRIBUTE = re.compile(  # name="value" in one match, when it holds no reference
    f"({_NAME_RUN.pattern})" + r"""[ \t\r\n]*=[ \t\r\n]*(?:"([^"<&]*)"|'([^'<&]*)')"""
)

_CHAR_REF = re.compile(r"#(?:([0-9]+)|x([0-9A-Fa-f]+))")  # the body of &#...;, ASCII only
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


class ParseError(XbaseError):
    """Malformed document; offset is a byte position into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


def _check_char_data(text: str, what: str) -> None:
    if not isinstance(text, str):
        raise TypeError(f"{what} must be str, got {type(text).__name__}")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} contains unpaired surrogates") from None


@cache
def _getters(cls: type) -> tuple[attrgetter, attrgetter, tuple[str, ...]]:
    """For a _Tree dataclass: getters of its fields before children and of
    all its fields, and the names before children."""
    names = tuple(f.name for f in fields(cls))
    return attrgetter(*names[:-1]), attrgetter(*names), names[:-1]


class _Tree:
    """Base of a frozen dataclass whose last field, children, may hold nodes
    of its kind; the dataclass passes eq=False and repr=False. ==, hash()
    and repr() give what the dataclass-generated methods would, over an
    explicit stack, so any depth works. Each node caches its hash; pickling
    and copying leave the cache out, as str hashes differ between processes."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            head = _getters(a.__class__)[0]
            if head(a) != head(b) or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if x is y:
                    continue
                if isinstance(x, _Tree) and y.__class__ is x.__class__:
                    pending.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        pending = [self]
        while pending:
            node = pending[-1]
            unhashed = [c for c in node.children
                        if isinstance(c, _Tree) and "_hash" not in c.__dict__]
            if unhashed:
                pending.extend(unhashed)
                continue
            pending.pop()
            if "_hash" not in node.__dict__:
                # every child node's hash is cached, so this does not recurse
                object.__setattr__(node, "_hash", hash(_getters(node.__class__)[1](node)))
        return self.__dict__["_hash"]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __repr__(self):
        parts: list[str] = []
        pending: list = [self]  # nodes still to write, and closing text (str)
        while pending:
            node = pending.pop()
            if isinstance(node, str):
                parts.append(node)
            elif not isinstance(node, _Tree):
                parts.append(repr(node))
            else:
                parts.append(f"{node.__class__.__qualname__}(")
                for name in _getters(node.__class__)[2]:
                    parts.append(f"{name}={getattr(node, name)!r}, ")
                parts.append("children=(")
                pending.append(",))" if len(node.children) == 1 else "))")
                for i in range(len(node.children) - 1, -1, -1):
                    pending.append(node.children[i])
                    if i:
                        pending.append(", ")
        return "".join(parts)


@dataclass(frozen=True)
class Text:
    """Character data; never empty so documents have one canonical shape."""

    content: str

    def __post_init__(self):
        _check_char_data(self.content, "text content")
        if not self.content:
            raise ValueError("text node must be nonempty")


@dataclass(frozen=True, eq=False, repr=False)
class Element(_Tree):
    name: str
    attributes: tuple[tuple[str, str], ...] = ()
    children: tuple["Element | Text", ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not NAME_RE.match(self.name):
            raise ValueError(f"invalid element name {self.name!r}")
        object.__setattr__(self, "attributes", tuple(tuple(a) for a in self.attributes))
        object.__setattr__(self, "children", tuple(self.children))
        seen = set()
        for pair in self.attributes:
            if len(pair) != 2:
                raise ValueError("attributes must be (name, value) pairs")
            attr_name, attr_value = pair
            if not isinstance(attr_name, str) or not NAME_RE.match(attr_name):
                raise ValueError(f"invalid attribute name {attr_name!r}")
            if attr_name in seen:
                raise ValueError(f"duplicate attribute {attr_name!r}")
            seen.add(attr_name)
            _check_char_data(attr_value, f"attribute {attr_name!r}")
        previous_was_text = False
        for child in self.children:
            if isinstance(child, Text):
                if previous_was_text:
                    raise ValueError("adjacent text nodes are not allowed")
                previous_was_text = True
            elif isinstance(child, Element):
                previous_was_text = False
            else:
                raise TypeError(f"bad child {type(child).__name__}")

    def attr(self, name: str, default: str | None = None) -> str | None:
        for attr_name, value in self.attributes:
            if attr_name == name:
                return value
        return default

    def has_attr(self, name: str) -> bool:
        return any(attr_name == name for attr_name, _ in self.attributes)

    def child_elements(self) -> list["Element"]:
        return [c for c in self.children if isinstance(c, Element)]

    def text(self) -> str:
        """Concatenated direct text content."""
        return "".join(c.content for c in self.children if isinstance(c, Text))


XmlNode = Element | Text


class _Parser:
    """Run-at-a-time scanner with an explicit element stack. Positions are in
    characters; errors report byte offsets. node(cls, **fields) builds each
    Element and Text from fields the scanner has already checked."""

    def __init__(self, text: str, node):
        self.text = text
        self.node = node

    def fail(self, message: str, pos: int):
        raise ParseError(message, len(self.text[:pos].encode("utf-8")))

    def skip_past(self, terminator: str, start: int, skip: int, message: str) -> int:
        end = self.text.find(terminator, start + skip)
        if end < 0:
            self.fail(message, start)
        return end + len(terminator)

    def skip_misc(self, pos: int, allow_decl: bool) -> int:
        # whitespace, comments, and (at the very start) the XML declaration
        while True:
            pos = _SPACE_RUN.match(self.text, pos).end()
            if self.text.startswith("<!--", pos):
                pos = self.skip_past("-->", pos, 4, "unterminated comment")
            elif allow_decl and self.text.startswith("<?xml", pos):
                pos = self.skip_past("?>", pos, 5, "unterminated XML declaration")
                allow_decl = False
            else:
                return pos

    def name(self, pos: int) -> tuple[str, int]:
        match = _NAME_RUN.match(self.text, pos)
        if match is None:
            self.fail("expected a name", pos)
        return match.group(), match.end()

    def reference(self, start: int) -> tuple[str, int]:
        # start is on '&'
        end = self.text.find(";", start + 1)
        if end < 0 or end - start > 12:
            self.fail("unterminated entity reference", start)
        body = self.text[start + 1 : end]
        if body.startswith("#"):
            digits = _CHAR_REF.fullmatch(body)
            if digits is None:
                self.fail(f"bad character reference &{body};", start)
            code = int(digits[1]) if digits[1] else int(digits[2], 16)
            if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                self.fail(f"character reference out of range &{body};", start)
            return chr(code), end + 1
        if body in _ENTITIES:
            return _ENTITIES[body], end + 1
        self.fail(f"undefined entity &{body};", start)

    def attr_value(self, pos: int) -> tuple[str, int]:
        text = self.text
        quote = text[pos : pos + 1]
        if quote not in ("'", '"'):
            self.fail("expected quoted attribute value", pos)
        run = _VALUE_RUNS[quote]
        parts: list[str] = []
        pos += 1
        while True:
            end = run.match(text, pos).end()
            parts.append(text[pos:end])
            if end >= len(text):
                self.fail("unterminated attribute value", end)
            if text[end] == quote:
                return "".join(parts), end + 1
            if text[end] == "<":
                self.fail("'<' in attribute value", end)
            value, pos = self.reference(end)
            parts.append(value)

    def open_element(self, pos: int, stack: list) -> int:
        """Scan the start tag at pos (on '<'). A self-closed element joins
        the children of stack[-1]; an open one is pushed as a new frame."""
        text = self.text
        name, pos = self.name(pos + 1)
        attributes: dict[str, str] = {}
        while True:
            end = _SPACE_RUN.match(text, pos).end()
            if text.startswith(">", end):
                stack.append((name, tuple(attributes.items()), [], []))
                return end + 1
            if text.startswith("/>", end):
                pairs = tuple(attributes.items())
                stack[-1][2].append(self.node(Element, name=name, attributes=pairs, children=()))
                return end + 2
            if end == pos:
                self.fail("expected whitespace before attribute", pos)
            plain = _PLAIN_ATTRIBUTE.match(text, end)
            attr_name, pos = (plain[1], plain.end()) if plain else self.name(end)
            if attr_name in attributes:
                self.fail(f"duplicate attribute {attr_name!r}", end)
            if plain:
                attributes[attr_name] = plain[plain.lastindex]
                continue
            pos = _SPACE_RUN.match(text, pos).end()
            if not text.startswith("=", pos):
                self.fail("expected '=' after attribute name", pos)
            attributes[attr_name], pos = self.attr_value(_SPACE_RUN.match(text, pos + 1).end())

    def reject_markup(self, pos: int) -> None:
        if self.text.startswith("<![CDATA[", pos):
            self.fail("CDATA sections are not supported", pos)
        if self.text.startswith("<?", pos):
            self.fail("processing instructions are not supported", pos)
        self.fail("DTD constructs are not supported", pos)

    def parse_document(self) -> Element:
        text, node, text_run = self.text, self.node, _TEXT_RUN.match
        pos = self.skip_misc(1 if text.startswith("\ufeff") else 0, allow_decl=True)
        if pos >= len(text):
            self.fail("expected a root element", pos)
        if text[pos] != "<":
            self.fail("content outside the root element", pos)
        if text.startswith(("<!", "<?"), pos):
            self.reject_markup(pos)
        # open elements, innermost last: (name, attributes, children, text runs)
        stack: list = [("", (), [], [])]  # the bottom frame collects the root
        pos = self.open_element(pos, stack)
        name, attributes, children, parts = stack[-1]
        while len(stack) > 1:
            match = text_run(text, pos)
            if match is not None:
                parts.append(match.group())
                pos = match.end()
            if pos >= len(text):
                self.fail(f"unclosed element <{name}>", pos)
            markup = text[pos : pos + 2]
            if markup[0] == "&":
                value, pos = self.reference(pos)
                parts.append(value)
                continue
            if markup == "</":
                end = pos + len(name) + 3
                if text[pos:end] != f"</{name}>":  # space before '>', or an error
                    close_name, end = self.name(pos + 2)
                    if close_name != name:
                        self.fail(f"mismatched tag: expected </{name}>, got </{close_name}>", pos)
                    end = _SPACE_RUN.match(text, end).end()
                    if not text.startswith(">", end):
                        self.fail("expected '>' in closing tag", end)
                    end += 1
                pos = end
                if parts:
                    children.append(node(Text, content="".join(parts)))
                element = node(Element, name=name, attributes=attributes, children=tuple(children))
                stack.pop()
                stack[-1][2].append(element)
            elif markup in ("<!", "<?"):
                if not text.startswith("<!--", pos):
                    self.reject_markup(pos)
                # a comment does not split the text around it
                pos = self.skip_past("-->", pos, 4, "unterminated comment")
            else:
                if parts:
                    children.append(node(Text, content="".join(parts)))
                    parts.clear()
                pos = self.open_element(pos, stack)
            name, attributes, children, parts = stack[-1]
        pos = self.skip_misc(pos, allow_decl=False)
        if pos < len(text):
            self.fail("content after the root element", pos)
        return stack[0][2][0]


def _trusted(cls, **fields):
    """Build a node from fields its caller has already validated, skipping
    __post_init__. Only the parser and xmlfrag use it."""
    node = object.__new__(cls)
    node.__dict__.update(fields)
    return node


def xml_parse(data: bytes | str) -> Element:
    """Parse one document and return its root element."""
    node = _trusted
    if isinstance(data, (bytes, bytearray, memoryview)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc.reason}", exc.start) from None
    elif isinstance(data, str):
        text = data
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            # the validating constructors name the text or attribute at fault
            node = lambda cls, **fields: cls(**fields)
    else:
        raise TypeError(f"document must be bytes or str, got {type(data).__name__}")
    return _Parser(text, node).parse_document()


def escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(value: str) -> str:
    return escape_text(value).replace('"', "&quot;")


def xml_serialize(node: XmlNode) -> bytes:
    """Canonical UTF-8 serialization; inverse of xml_parse on its image."""
    parts: list[str] = []
    pending: list = [node]  # nodes still to write, and closing tags (str)
    while pending:
        node = pending.pop()
        if isinstance(node, Text):
            parts.append(escape_text(node.content))
        elif isinstance(node, str):
            parts.append(node)
        else:
            parts.append(f"<{node.name}")
            for attr_name, value in node.attributes:
                parts.append(f' {attr_name}="{escape_attr(value)}"')
            if node.children:
                parts.append(">")
                pending.append(f"</{node.name}>")
                pending.extend(reversed(node.children))
            else:
                parts.append("/>")
    return "".join(parts).encode("utf-8")


def iter_elements(root: Element):
    """Yield root and every descendant element, document order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.child_elements()))
