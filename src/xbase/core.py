"""Core value types and the four component contracts.

The universal currency of the toolkit is the bit-string: an uninterpreted,
finite byte sequence, represented as plain ``bytes``. Around it sit three
small value types (Key, Name, StoreID) and the four contracts everything
else implements or consumes: Store, Caster, Interpreter and Namer.

Value types validate at construction and are immutable afterwards, so they
can be shared freely across threads. Invalid input is rejected, never
silently normalized. Canonical textual encodings used by the CLI, logs and
XML images: Key and StoreID as lowercase hex, two digits per byte, no
separators; Name as UTF-8 text.
"""
from __future__ import annotations

import abc
import secrets
from dataclasses import dataclass
from typing import Generic, Iterable, TypeVar

# A bit-string is plain bytes; the alias marks intent in signatures.
BitString = bytes

MAX_KEY_LEN = 1024
MAX_NAME_UTF8_LEN = 4096
MAX_VALUE_LEN = 2**32 - 1
STORE_ID_LEN = 16


class XbaseError(Exception):
    """Base class for every error raised by this package."""


class UnknownKeyError(XbaseError):
    """A store was asked for a key it has never bound."""


class KeyConflictError(XbaseError):
    """put_with_key would rebind an existing key to a different value."""


class KeyMismatchError(XbaseError):
    """An explicit key this store cannot take: not the digest its key policy
    requires, or too long for a file-per-key store's file name."""


class KeyGenerationError(XbaseError):
    """Key generation exhausted its retry budget or its key space."""


class CorruptionError(XbaseError):
    """A persistent layout failed validation (bad magic, bad CRC, bad replay)."""


class LogLockedError(XbaseError):
    """A log file is already open, in this process or another; one opener at a time."""


class PolicyMismatchError(XbaseError):
    """The requested key policy differs from the one recorded in the header."""


class NotBoundError(XbaseError):
    """unbind was asked to remove a (name, key) pair that is not bound."""


class SeqOutOfRangeError(XbaseError):
    """Historical lookup past the end of the binding log."""


class MalformedInputError(XbaseError):
    """An interpreter's inverse direction was fed bytes outside its format."""


class StoreClosedError(XbaseError, ValueError):
    """An operation reached a store that has been closed."""


class InvalidRepresentationError(XbaseError):
    """reflect was fed a bit-string that does not represent the entity type."""


@dataclass(frozen=True)
class Key:
    """Opaque identifier bound to a stored bit-string.

    Consumers never parse key contents; keys only travel between a store
    and its callers. Nonempty, at most MAX_KEY_LEN bytes.
    """

    raw: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.raw, bytes):
            raise TypeError(f"key bytes must be bytes, got {type(self.raw).__name__}")
        if not self.raw:
            raise ValueError("key must be nonempty")
        if len(self.raw) > MAX_KEY_LEN:
            raise ValueError(f"key exceeds {MAX_KEY_LEN} bytes: {len(self.raw)}")

    @classmethod
    def from_hex(cls, text: str) -> Key:
        try:
            raw = bytes.fromhex(text)
        except ValueError:
            raise ValueError(f"invalid key hex: {text!r}") from None
        return cls(raw)

    @property
    def hex(self) -> str:
        return self.raw.hex()

    def __repr__(self) -> str:
        return f"Key({self.raw.hex()})"


@dataclass(frozen=True)
class Name:
    """Human-readable symbolic identifier managed by namers.

    Nonempty Unicode text without NUL, at most MAX_NAME_UTF8_LEN bytes when
    UTF-8 encoded.
    """

    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"name must be str, got {type(self.text).__name__}")
        if not self.text:
            raise ValueError("name must be nonempty")
        if "\x00" in self.text:
            raise ValueError("name must not contain NUL")
        try:
            encoded = self.text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("name is not UTF-8 encodable") from None
        if len(encoded) > MAX_NAME_UTF8_LEN:
            raise ValueError(
                f"name exceeds {MAX_NAME_UTF8_LEN} UTF-8 bytes: {len(encoded)}"
            )

    def __repr__(self) -> str:
        return f"Name({self.text!r})"


@dataclass(frozen=True)
class StoreID:
    """16-byte identifier unique (with overwhelming probability) per instance.

    Generated once from a high-entropy source; persistent stores record it
    in their header. Collisions are treated as astronomically unlikely, not
    as an error condition.
    """

    raw: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.raw, bytes):
            raise TypeError(f"store id must be bytes, got {type(self.raw).__name__}")
        if len(self.raw) != STORE_ID_LEN:
            raise ValueError(f"store id must be exactly {STORE_ID_LEN} bytes")

    @classmethod
    def generate(cls) -> StoreID:
        return cls(secrets.token_bytes(STORE_ID_LEN))

    @classmethod
    def from_hex(cls, text: str) -> StoreID:
        try:
            raw = bytes.fromhex(text)
        except ValueError:
            raise ValueError(f"invalid store id hex: {text!r}") from None
        return cls(raw)

    @property
    def hex(self) -> str:
        return self.raw.hex()

    def __repr__(self) -> str:
        return f"StoreID({self.raw.hex()})"


class _Closeable:
    """close() releases what an instance holds; ``with`` closes on exit."""

    def close(self) -> None:
        """Release what this instance holds; a no-op unless it holds something."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Store(_Closeable, abc.ABC):
    """Append-only map from keys to bit-strings.

    The binding set only ever grows: there are no update or deletion
    operations, so every key ever issued stays retrievable with its
    original value. Update semantics, where needed, are layered on top by
    namers. Every store supports close() and ``with``.
    """

    @abc.abstractmethod
    def put(self, value: BitString) -> Key:
        """Insert a bit-string; return the key it is now bound to."""

    @abc.abstractmethod
    def get(self, key: Key) -> BitString:
        """Return the bit-string bound to key.

        Raises UnknownKeyError for a key this store has never bound.
        """

    @abc.abstractmethod
    def put_with_key(self, value: BitString, key: Key) -> None:
        """Bind value under a caller-supplied key.

        A no-op if the identical binding already exists; raises
        KeyConflictError if the key is bound to a different value.
        """

    @abc.abstractmethod
    def get_store_id(self) -> StoreID:
        """Return the identifier of this store instance, stable for its lifetime."""

    def get_many(self, keys: Iterable[Key]) -> dict[Key, BitString]:
        """Return the bit-string bound to each key; keys this store has never
        bound are left out, and any other error raises. A store that can
        fetch several values at once (over one connection, say) overrides
        this loop."""
        found: dict[Key, BitString] = {}
        for key in dict.fromkeys(keys):
            try:
                found[key] = self.get(key)
            except UnknownKeyError:
                pass
        return found

    def put_many(self, values: Iterable[BitString]) -> list[Key]:
        """Insert each bit-string in turn; return their keys in input order."""
        return [self.put(value) for value in values]


T = TypeVar("T")


class Caster(abc.ABC, Generic[T]):
    """Translates entities of one type to and from bit-string form.

    reflect(reify(e)) is equivalent to e under the entity type's own
    equality; reify is deterministic.
    """

    @abc.abstractmethod
    def reify(self, entity: T) -> BitString:
        """Flatten an entity into its bit-string representation."""

    @abc.abstractmethod
    def reflect(self, data: BitString) -> T:
        """Recreate an entity from its representation.

        Raises InvalidRepresentationError for bytes that are intrinsically
        invalid or represent something of the wrong type.
        """


class Interpreter(abc.ABC):
    """Maps one bit-string to another, deterministically per configuration."""

    @abc.abstractmethod
    def interpret(self, data: BitString) -> BitString: ...


class Namer(_Closeable, abc.ABC):
    """Modifiable many-to-many mapping between symbolic names and keys.

    A name may be bound to several keys and a key to several names. This is
    the only locus of update semantics: rebinding a name (unbind then bind)
    changes what it resolves to while nothing in any store is discarded.
    Every namer supports close() and ``with``.
    """

    @abc.abstractmethod
    def bind(self, name: Name, key: Key) -> None:
        """Establish the (name, key) binding; a no-op if it already exists."""

    @abc.abstractmethod
    def unbind(self, name: Name, key: Key) -> None:
        """Remove the (name, key) binding; NotBoundError if it is not bound."""

    @abc.abstractmethod
    def lookup(self, name: Name) -> set[Key]:
        """Return exactly the keys currently bound to name; possibly empty."""


def check_value(value: BitString) -> None:
    """Validate a bit-string heading into a store."""
    if not isinstance(value, bytes):
        raise TypeError(f"value must be bytes, got {type(value).__name__}")
    if len(value) > MAX_VALUE_LEN:
        raise ValueError(f"value exceeds {MAX_VALUE_LEN} bytes")


def check_key(key: Key) -> None:
    if not isinstance(key, Key):
        raise TypeError(f"expected Key, got {type(key).__name__}")


def check_name(name: Name) -> None:
    if not isinstance(name, Name):
        raise TypeError(f"expected Name, got {type(name).__name__}")
