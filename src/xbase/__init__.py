"""Append-only storage with pluggable key policies, plus the layers built
on top of it: name binding, casters, interpreters, XML fragmentation,
remote access, and a proxy store.

Typical use:

    from xbase import get_root_store

    store = get_root_store()
    key = store.put(b"some bytes")
    assert store.get(key) == b"some bytes"
"""
from types import ModuleType as _ModuleType

from .core import (
    BitString,
    Caster,
    CorruptionError,
    Interpreter,
    InvalidRepresentationError,
    Key,
    KeyConflictError,
    KeyGenerationError,
    KeyMismatchError,
    LogLockedError,
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
from .home import xbase_home
from .stores import (
    AppendLogStore,
    ContentHashKeys,
    FilePerKeyStore,
    MemoryStore,
    RandomKeys,
    SequenceKeys,
    get_root_store,
    open_store,
)
from .namer import LogNamer, MemoryNamer, get_root_namer, open_namer
from .interpreters import (
    IdentityInterpreter,
    Pipeline,
    RleCompressor,
    RleExpander,
    XorCipher,
    compose,
)
from .casters import (
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
from .xmldoc import Element, ParseError, Text, xml_parse, xml_serialize
from .xmlfrag import (
    AmbiguousNameError,
    CycleDetectedError,
    FragSchema,
    ReservedElementError,
    SchemaError,
    SchemaMismatchError,
    UnresolvedReferenceError,
    defragment,
    fragment,
    fully_collapsed_schema,
    fully_expanded_schema,
)
from .netstore import (
    AllTargetsUnreachableError,
    DuplicateTargetError,
    MalformedMessageError,
    NoWritableTargetError,
    ProxyStore,
    RemoteError,
    RemoteStore,
    StoreServer,
    UnknownTargetError,
    UnreachableError,
    serve,
)

__version__ = "0.1.0"

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
