"""Value type invariants and the abstract contracts."""
import pytest

from xbase.core import (
    Caster,
    CorruptionError,
    Interpreter,
    InvalidRepresentationError,
    Key,
    KeyConflictError,
    KeyGenerationError,
    KeyMismatchError,
    MalformedInputError,
    Name,
    Namer,
    NotBoundError,
    PolicyMismatchError,
    SeqOutOfRangeError,
    Store,
    StoreID,
    UnknownKeyError,
    XbaseError,
)


class TestKey:
    def test_round_trips_hex(self):
        key = Key(b"\x00\xff\x10")
        assert key.hex == "00ff10"
        assert Key.from_hex("00ff10") == key

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Key(b"")

    def test_rejects_oversize(self):
        Key(b"x" * 1024)  # limit itself is fine
        with pytest.raises(ValueError):
            Key(b"x" * 1025)

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            Key("abcd")

    def test_rejects_bad_hex(self):
        with pytest.raises(ValueError):
            Key.from_hex("zz")
        with pytest.raises(ValueError):
            Key.from_hex("abc")  # odd digit count

    def test_hashable_and_eq(self):
        assert Key(b"\x01") == Key(b"\x01")
        assert len({Key(b"\x01"), Key(b"\x01"), Key(b"\x02")}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Key(b"\x01").raw = b"\x02"


class TestName:
    def test_basic(self):
        assert Name("doc/a.1").text == "doc/a.1"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Name("")

    def test_rejects_nul(self):
        with pytest.raises(ValueError):
            Name("a\x00b")

    def test_utf8_length_limit(self):
        Name("a" * 4096)
        with pytest.raises(ValueError):
            Name("a" * 4097)
        # multibyte characters count in encoded bytes, not code points
        Name("é" * 2048)  # 4096 bytes
        with pytest.raises(ValueError):
            Name("é" * 2049)

    def test_rejects_non_str(self):
        with pytest.raises(TypeError):
            Name(b"bytes")


class TestStoreID:
    def test_exactly_16_bytes(self):
        StoreID(b"\x00" * 16)
        for n in (0, 15, 17):
            with pytest.raises(ValueError):
                StoreID(b"\x00" * n)

    def test_generate_is_unique(self):
        ids = {StoreID.generate().raw for _ in range(64)}
        assert len(ids) == 64

    def test_hex_round_trip(self):
        sid = StoreID.generate()
        assert StoreID.from_hex(sid.hex) == sid
        assert len(sid.hex) == 32


def test_error_hierarchy():
    for exc_type in (
        UnknownKeyError,
        KeyConflictError,
        KeyMismatchError,
        KeyGenerationError,
        CorruptionError,
        PolicyMismatchError,
        NotBoundError,
        SeqOutOfRangeError,
        MalformedInputError,
        InvalidRepresentationError,
    ):
        assert issubclass(exc_type, XbaseError)
        assert issubclass(exc_type, Exception)


def test_contracts_are_abstract():
    for contract in (Store, Namer, Caster, Interpreter):
        with pytest.raises(TypeError):
            contract()


def test_public_surface_is_pinned():
    """The names `from xbase import *` exports change only on purpose; a
    change goes in CHANGES.md. Submodules are not exported, so adding a
    module does not change the list."""
    import xbase

    assert sorted(xbase.__all__) == [
        "AllTargetsUnreachableError", "AmbiguousNameError", "AppendLogStore",
        "BitString", "Caster", "ContentHashKeys", "CorruptionError",
        "CycleDetectedError", "DuplicateTargetError", "Element",
        "FilePerKeyStore", "FragSchema", "IdentityInterpreter", "Interpreter",
        "InvalidRepresentationError", "Key", "KeyConflictError",
        "KeyGenerationError", "KeyMismatchError", "LogLockedError", "LogNamer",
        "MalformedInputError", "MalformedMessageError", "MemoryNamer",
        "MemoryStore", "Name", "Namer", "NamerCaster", "NoWritableTargetError",
        "NotBoundError", "ParseError", "PersonCaster", "PersonRecord",
        "Pipeline", "PolicyMismatchError", "ProxyStore", "RandomKeys",
        "RemoteError", "RemoteStore", "ReservedElementError", "RleCompressor",
        "RleExpander", "SchemaError", "SchemaMismatchError",
        "SeqOutOfRangeError", "SequenceKeys", "Store", "StoreCaster",
        "StoreID", "StoreServer", "Text", "UnknownKeyError",
        "UnknownTargetError", "UnreachableError", "UnresolvedReferenceError",
        "XbaseError", "XorCipher", "compose", "defragment", "fragment",
        "fully_collapsed_schema", "fully_expanded_schema", "get_root_namer",
        "get_root_store", "namer_reflect", "namer_reify", "open_namer",
        "open_store", "person_reflect", "person_reify", "serve",
        "store_reflect", "store_reify", "xbase_home", "xml_parse",
        "xml_serialize",
    ]
