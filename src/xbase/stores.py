"""Local store implementations parameterized by a key-generation policy.

Three layouts share one put/get engine:

* MemoryStore    - transient, bindings held solely in memory
* AppendLogStore - one append-only log file (see framedlog.py for its
                   framing, torn-tail recovery, locking and hint; the hint
                   keeps the keydir in buckets decoded on first use); the
                   keydir maps each key to one int, offset << 32 | length
* FilePerKeyStore - one value file per binding, named by the key's hex form,
                    written to a temporary name and linked into place, so
                    the first writer of a key wins in any process; the
                    directory is the only index

Key policies: random (CSPRNG bytes), sequence (8-byte big-endian counter),
content-hash (SHA-256 of the value, which deduplicates and lets independent
stores issue identical keys for identical values). Each policy carries its
own rules, which the engine calls without knowing the policy. POLICIES and
LAYOUTS name every policy and layout.

Append-log record format, after a 22-byte header (magic "XLG1", format
version 0x01, 16-byte store id, 1-byte policy tag):

    [key_len u32 BE][key][val_len u32 BE][value][crc32 u32 BE]

crc32 covers key + value bytes (polynomial 0xEDB88320 reflected, init and
final xor 0xFFFFFFFF, i.e. plain zlib.crc32).
"""
from __future__ import annotations

import errno
import hashlib
import os
import secrets
import struct
import threading
import zlib
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .core import (
    MAX_KEY_LEN,
    MAX_VALUE_LEN,
    BitString,
    CorruptionError,
    Key,
    KeyConflictError,
    KeyGenerationError,
    KeyMismatchError,
    PolicyMismatchError,
    Store,
    StoreClosedError,
    StoreID,
    UnknownKeyError,
    check_key,
    check_value,
)
from .framedlog import FramedLog, LogFormat, all_packed, pack
from .home import ROOT_STORE_FILENAME, open_root

LOG_MAGIC = b"XLG1"
FORMAT_VERSION = 0x01
META_FILENAME = "store.meta"
HEADER_LEN = 4 + 1 + 16 + 1
STORE_LOG = LogFormat(
    magic=LOG_MAGIC,
    version=FORMAT_VERSION,
    header_len=HEADER_LEN,
    prefix=struct.Struct(""),
    fields=(("key", 1, MAX_KEY_LEN), ("value", 0, MAX_VALUE_LEN)),
    crc_whole_record=False,
)

POLICY_TAG_RANDOM = 0x01
POLICY_TAG_SEQUENCE = 0x02
POLICY_TAG_CONTENT_HASH = 0x03

MAX_RANDOM_RETRIES = 8
_U64_MAX = 2**64 - 1

KEYDIR_BUCKETS = 256  # an append log's hint packs its keydir in this many buckets


class KeyPolicy:
    """How a store mints, checks and resumes keys, under its lock. Subclasses
    set tag and kind and implement mint; check and resume default to no-ops."""

    tag: int
    kind: str
    # True if every key the policy mints is bound only to the value it was
    # minted from, so a put that finds its key bound need not read it back
    certifies = False

    def mint(self, value: bytes, locate: Callable[[bytes], Any],
             read: Callable[[bytes, Any], bytes]) -> bytes:
        """The key for a put of value. locate(key) is where the store holds
        key's value, None if key is unbound, and read(key, locator) that
        value; a policy reads only what it must compare. A bound key is not
        written again."""
        raise NotImplementedError

    def check(self, key: Key, value: bytes) -> None:
        """Raise KeyMismatchError if a put_with_key of value may not use key."""

    def resume(self, top: bytes) -> None:
        """Continue past top, the highest 8-byte key of an opened store (b"" if none)."""


class RandomKeys(KeyPolicy):
    """16-byte keys drawn from a cryptographically secure source.

    A draw that collides with an existing binding for a different value is
    regenerated, up to MAX_RANDOM_RETRIES attempts.
    """

    tag = POLICY_TAG_RANDOM
    kind = "random"

    def mint(self, value, locate, read):
        for _ in range(MAX_RANDOM_RETRIES):
            key_bytes = secrets.token_bytes(16)
            locator = locate(key_bytes)
            if locator is None or read(key_bytes, locator) == value:
                return key_bytes  # unused, or collided with an identical binding
        raise KeyGenerationError(f"no unused random key after {MAX_RANDOM_RETRIES} attempts")


class SequenceKeys(KeyPolicy):
    """Keys are the 8-byte big-endian encoding of a counter starting at 1.

    The counter strictly increases per put, skipping keys bound by
    put_with_key; keys issued never repeat. next_seq 2**64 is exhausted.
    """

    tag = POLICY_TAG_SEQUENCE
    kind = "sequence"

    def __init__(self, next_seq: int = 1):
        if not 1 <= next_seq <= _U64_MAX + 1:
            raise ValueError("next_seq must be an unsigned 64-bit value >= 1")
        self.next_seq = next_seq

    def mint(self, value, locate, read):
        while self.next_seq <= _U64_MAX:
            key_bytes = struct.pack(">Q", self.next_seq)
            self.next_seq += 1
            if locate(key_bytes) is None:  # a bound key is skipped unread
                return key_bytes
        raise KeyGenerationError("sequence key space exhausted")

    def resume(self, top):
        # big-endian keys of one length sort as their numbers do; b"" reads as 0
        self.next_seq = max(self.next_seq, int.from_bytes(top, "big") + 1)


class ContentHashKeys(KeyPolicy):
    """Keys are the SHA-256 digest of the stored value (32 bytes exactly).

    Putting an already-present value returns the existing key and writes
    nothing, and any two stores with this policy issue identical keys for
    identical values.
    """

    tag = POLICY_TAG_CONTENT_HASH
    kind = "content-hash"
    certifies = True

    @staticmethod
    def digest(value: bytes) -> bytes:
        return hashlib.sha256(value).digest()

    def mint(self, value, locate, read):
        return self.digest(value)

    def check(self, key, value):
        expected = self.digest(value)
        if key.raw != expected:
            raise KeyMismatchError(f"key {key.hex} is not the content digest {expected.hex()}")


# kind -> policy class, and header tag -> policy class
POLICIES = {cls.kind: cls for cls in (RandomKeys, SequenceKeys, ContentHashKeys)}
_POLICY_TAGS = {cls.tag: cls for cls in POLICIES.values()}


def make_policy(policy: KeyPolicy | str | None) -> KeyPolicy:
    """Coerce a policy argument: an instance, a kind string, or None (random)."""
    if policy is None:
        return RandomKeys()
    if isinstance(policy, KeyPolicy):
        return policy
    if isinstance(policy, str):
        cls = POLICIES.get(policy)
        if cls is None:
            raise ValueError(f"unknown key policy {policy!r}; expected one of {sorted(POLICIES)}")
        return cls()
    raise TypeError(f"policy must be KeyPolicy or str, got {type(policy).__name__}")


class LocalStore(Store):
    """Shared engine over a key index; subclasses persist.

    Subclasses implement _write(key_bytes, value) -> bool, which binds
    key_bytes to value and records the binding, or returns False if
    another writer bound key_bytes first, and _read(key_bytes, locator) ->
    value. The engine reaches the index only through _locate (one key) and
    _entries (all of them), which a subclass may override to load the
    index lazily or to read it from disk. All operations are linearizable:
    a single lock serializes writes and index updates.
    """

    def __init__(self, store_id: StoreID, policy: KeyPolicy):
        self._id = store_id
        self._policy = policy
        self._index: dict[bytes, Any] = {}
        self._lock = threading.RLock()
        self._closed = False

    # subclass hooks
    def _write(self, key_bytes: bytes, value: bytes) -> bool:
        raise NotImplementedError

    def _read(self, key_bytes: bytes, locator: Any) -> bytes:
        raise NotImplementedError

    def put(self, value: BitString) -> Key:
        check_value(value)
        with self._lock:
            self._check_open()
            while True:  # again only if another writer bound the key since mint
                key_bytes = self._policy.mint(value, self._locate, self._read)
                locator = self._locate(key_bytes)
                if locator is None:
                    if self._write(key_bytes, value):
                        return Key(key_bytes)
                elif self._policy.certifies or self._read(key_bytes, locator) == value:
                    return Key(key_bytes)

    def get(self, key: Key) -> BitString:
        check_key(key)
        with self._lock:
            self._check_open()
            locator = self._locate(key.raw)
            if locator is None:
                raise UnknownKeyError(key.hex)
        return self._read(key.raw, locator)

    def get_many(self, keys: Iterable[Key]) -> dict[Key, BitString]:
        """Store.get_many under one lock, raising nothing for an unbound key:
        the keys are located in order, and the first that get would raise
        for (a key of the wrong type, or any key of a closed store) raises
        the same. Values are read outside the lock, as get reads them."""
        located = []
        with self._lock:
            for key in dict.fromkeys(keys):
                check_key(key)
                self._check_open()
                locator = self._locate(key.raw)
                if locator is not None:
                    located.append((key, locator))
        return {key: self._read(key.raw, locator) for key, locator in located}

    def put_with_key(self, value: BitString, key: Key) -> None:
        check_value(value)
        check_key(key)
        with self._lock:
            self._check_open()
            self._policy.check(key, value)
            locator = self._locate(key.raw)
            if locator is None:
                if self._write(key.raw, value):
                    return
                bound = self._bound(key.raw)  # another writer bound it first
            else:
                bound = self._read(key.raw, locator)
            if bound != value:
                raise KeyConflictError(f"key {key.hex} is bound to a different value")

    def get_store_id(self) -> StoreID:
        with self._lock:
            self._check_open()
        return self._id

    @property
    def policy(self) -> KeyPolicy:
        return self._policy

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark the store closed; every later operation raises StoreClosedError."""
        with self._lock:
            self._closed = True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries())

    def __contains__(self, key: Key) -> bool:
        check_key(key)
        with self._lock:
            return self._locate(key.raw) is not None

    def keys(self) -> list[Key]:
        """Snapshot of all bound keys in iteration order."""
        with self._lock:
            return [Key(kb) for kb in self._entries()]

    def bindings(self) -> Iterator[tuple[Key, bytes]]:
        """Snapshot of every (key, value) binding in iteration order.

        The key list is captured atomically; values are stable once bound,
        so the result is a consistent view as of the snapshot point.
        """
        with self._lock:
            self._check_open()
            entries = list(self._entries().items())
        for key_bytes, locator in entries:
            yield Key(key_bytes), self._read(key_bytes, locator)

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    def _bound(self, key_bytes: bytes) -> bytes | None:
        locator = self._locate(key_bytes)
        return None if locator is None else self._read(key_bytes, locator)

    # the only two ways to the index
    def _locate(self, key_bytes: bytes) -> Any:
        """The locator key_bytes is bound to, None if unbound."""
        return self._index.get(key_bytes)

    def _entries(self) -> dict[bytes, Any]:
        """The whole index, key -> locator, in iteration order."""
        return self._index


class MemoryStore(LocalStore):
    """Transient store; the locator is the value itself."""

    def __init__(self, policy: KeyPolicy | str | None = None, store_id: StoreID | None = None):
        super().__init__(store_id or StoreID.generate(), make_policy(policy))

    def _write(self, key_bytes: bytes, value: bytes) -> bool:
        self._index[key_bytes] = value
        return True

    def _read(self, key_bytes: bytes, locator: bytes) -> bytes:
        return locator


def _header_policy(requested, extra: bytes, header: str, store: str) -> KeyPolicy:
    """The policy of the tag in extra, read from header, checked against the
    one requested for the store at store (None: the header's)."""
    cls = _POLICY_TAGS.get(extra[0])
    if cls is None:
        raise CorruptionError(f"{header}: unknown policy tag {extra[0]:#04x}")
    if requested is None:
        return cls()
    policy = make_policy(requested)
    if policy.tag != cls.tag:
        raise PolicyMismatchError(
            f"{store}: header records {cls.kind!r} but {policy.kind!r} was requested"
        )
    return policy


class AppendLogStore(FramedLog, LocalStore):
    """Persistent store appending every binding to a single log file.

    Each put's record is handed to the OS before put returns; the log is
    fsynced only at close, so a power loss can drop recent puts. A put that
    fails leaves no partial record behind. Recovery on open, locking and the
    <log>.hint sidecar (the keydir and the highest 8-byte key) follow
    framedlog.py.

    The keydir maps each key to one int locator, offset << 32 | length,
    where offset is where the value starts in the log (MAX_VALUE_LEN fits
    the low 32 bits). The hint splits it into KEYDIR_BUCKETS buckets by the
    low byte of zlib.crc32(key), each kept packed as (key count, marshal
    bytes of its {key: locator}). An open through the hint decodes none of
    them: a lookup merges the one bucket of its key into the index, and
    len, keys() and bindings() merge them all, then restore log order by
    sorting the locators. A packed bucket that does not decode to its count
    of int locators, each of a value inside the log the hint covers, raises
    CorruptionError then. Close packs again only the buckets it decoded.
    """

    _format = STORE_LOG

    def __init__(self, *args, **kwargs):
        raise TypeError("use AppendLogStore.open(path, policy)")

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        policy: KeyPolicy | str | None = None,
        store_id: StoreID | None = None,
    ) -> AppendLogStore:
        """Open an existing log or create a fresh one.

        store_id is honored only when creating; an existing header wins.
        """
        path = Path(path)
        self = object.__new__(cls)
        LocalStore.__init__(self, store_id or StoreID.generate(), make_policy(policy))
        self._top = b""  # the highest 8-byte key bound, b"" if none
        # bucket number -> (count, marshal bytes), for the hint's buckets not
        # yet merged into _index; None while _index is whole and in log order
        self._packed: dict[int, tuple[int, bytes]] | None = None

        def replay(header, records):
            self._id, extra = header
            self._policy = _header_policy(policy, extra, str(path), str(path))
            index, top = self._index, self._top
            for start, _, key_bytes, value, end in records:
                existing = self._locate(key_bytes)
                if existing is None:
                    index[key_bytes] = (end - 4 - len(value)) << 32 | len(value)
                # a well-formed log never repeats a key; tolerate an exact
                # duplicate record, keeping the first, but reject a rebinding
                elif self._read(key_bytes, existing) != value:
                    raise CorruptionError(f"{path}: key rebound at offset {start}")
                if len(key_bytes) == 8 and key_bytes > top:
                    top = key_bytes
            self._top = top

        self._open_log(path, self._id, bytes([self._policy.tag]), replay)
        self._policy.resume(self._top)
        return self

    def _hint_state(self) -> tuple[bytes, list[tuple[int, bytes]]]:
        packed = self._packed or {}
        groups: list[dict] = [{} for _ in range(KEYDIR_BUCKETS)]
        for key_bytes, locator in self._index.items():
            groups[zlib.crc32(key_bytes) % KEYDIR_BUCKETS][key_bytes] = locator
        return self._top, [packed.get(number) or pack(group) for number, group in enumerate(groups)]

    def _restore_hint(self, state) -> None:
        top, buckets = state
        if not (type(top) is bytes and type(buckets) is list and len(buckets) == KEYDIR_BUCKETS
                and all_packed(buckets)):
            raise ValueError("unexpected store hint shape")
        self._top, self._packed = top, dict(enumerate(buckets))

    def _locate(self, key_bytes: bytes) -> int | None:
        if self._packed:
            number = zlib.crc32(key_bytes) % KEYDIR_BUCKETS
            if number in self._packed:
                self._merge(number)
        return self._index.get(key_bytes)

    def _entries(self) -> dict[bytes, int]:
        if self._packed is not None:
            for number in list(self._packed):
                self._merge(number)
            # offsets, the high bits of each locator, grow with each record,
            # so the locators' order is the log's
            self._index = dict(sorted(self._index.items(), key=itemgetter(1)))
            self._packed = None
        return self._index

    def _merge(self, number: int) -> None:
        """Decode packed bucket number into the index. Each locator must be
        an int whose value lies inside the log the hint covers."""
        packed, what = self._packed[number], f"keydir bucket {number}"
        part = self._unpack(packed, dict, what, int)
        end = self._hint_end
        if not all(locator >= 0 and (locator >> 32) + (locator & 0xFFFFFFFF) <= end
                   for locator in part.values()):
            raise self._undecodable(what, packed[0], int)
        self._index.update(part)
        del self._packed[number]

    def _write(self, key_bytes: bytes, value: bytes) -> bool:
        start = self._append_bytes(STORE_LOG.record((), key_bytes, value))
        if len(key_bytes) == 8 and key_bytes > self._top:
            self._top = key_bytes
        self._index[key_bytes] = (start + 8 + len(key_bytes)) << 32 | len(value)
        return True

    def _read(self, key_bytes: bytes, locator: int) -> bytes:
        length = locator & 0xFFFFFFFF
        data = os.pread(self._fh.fileno(), length, locator >> 32)
        if len(data) != length:
            raise CorruptionError(f"{self._path}: short read at offset {locator >> 32}")
        return data


class FilePerKeyStore(LocalStore):
    """Persistent store keeping one value file per binding, named by the
    key's canonical hex plus ".bin". The directory is the only index, so
    handles in any number of processes may share it.

    A value is written to a temporary name and then linked to its final
    name. The link fails if the name exists, so a half-written file is never
    visible under a final name, and the first writer of a key wins. A key
    is bound while its name exists: a file removed under an open store
    reads as unbound, and keys list in hex order. store.meta holds the
    header, linked into place the same way. A key too long for a file name
    (over 125 bytes where names end at 255) raises KeyMismatchError.
    Nothing is fsynced.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("use FilePerKeyStore.open(path, policy)")

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        policy: KeyPolicy | str | None = None,
        store_id: StoreID | None = None,
    ) -> FilePerKeyStore:
        """Open a store directory, or create one in a missing directory or
        one that holds only dot files. store_id is honored only when
        creating; of two creators, the first to link store.meta wins."""
        directory = Path(path)
        meta_path = directory / META_FILENAME
        names = os.listdir(directory) if directory.exists() else []
        if META_FILENAME not in names:
            if any(not name.startswith(".") for name in names):
                raise CorruptionError(f"{directory}: not empty and no {META_FILENAME}")
            directory.mkdir(parents=True, exist_ok=True)
            header = STORE_LOG.header(store_id or StoreID.generate(), bytes([make_policy(policy).tag]))
            _atomic_write(meta_path, header, link=True)  # False: another creator linked first
        sid, extra = STORE_LOG.check_header(meta_path.read_bytes(), str(meta_path))
        self = object.__new__(cls)
        LocalStore.__init__(self, sid, _header_policy(policy, extra, str(meta_path), str(directory)))
        self._dir = directory
        self._policy.resume(max((k for k in self._entries() if len(k) == 8), default=b""))
        return self

    def _value_path(self, key_bytes: bytes) -> str:
        return os.path.join(self._dir, f"{key_bytes.hex()}.bin")

    def _locate(self, key_bytes: bytes) -> bool | None:
        # lexists tests the name as link sees it: a dangling symlink holds it too
        return True if os.path.lexists(self._value_path(key_bytes)) else None

    def _entries(self) -> dict[bytes, bool]:
        """Every value file's key, in hex order, mapped to True."""
        entries: dict[bytes, bool] = {}
        for name in sorted(os.listdir(self._dir)):
            if name == META_FILENAME or name.startswith("."):
                continue
            stem, suffix = os.path.splitext(name)
            if suffix != ".bin":
                raise CorruptionError(f"{self._dir / name}: unexpected file in store directory")
            try:
                key_bytes = bytes.fromhex(stem)
            except ValueError:
                key_bytes = None
            if key_bytes is None or key_bytes.hex() != stem:
                raise CorruptionError(f"{self._dir / name}: file name is not a hex key")
            if not key_bytes or len(key_bytes) > MAX_KEY_LEN:
                raise CorruptionError(f"{self._dir / name}: file name is not a valid key")
            entries[key_bytes] = True
        return entries

    def _write(self, key_bytes: bytes, value: bytes) -> bool:
        try:
            return _atomic_write(self._value_path(key_bytes), value, link=True)
        except OSError as exc:
            if exc.errno != errno.ENAMETOOLONG:
                raise
            raise KeyMismatchError(f"key {key_bytes.hex()} is too long for a file name") from None

    def _read(self, key_bytes: bytes, locator: bool) -> bytes:
        path = self._value_path(key_bytes)
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise CorruptionError(f"{path}: value file disappeared") from None

    @property
    def path(self) -> Path:
        return self._dir


def _atomic_write(target: str | os.PathLike, data: bytes, link: bool = False) -> bool:
    """Write data to a temporary file beside target, then move it to target:
    by os.replace, which overwrites target, or if link, by os.link, which
    leaves an existing target as it is and then returns False. A
    half-written file is never visible under target, and the temporary file
    never remains."""
    tmp = os.path.join(os.path.dirname(target), f".{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        try:
            (os.link if link else os.replace)(tmp, target)
        except FileExistsError:
            return False
        return True
    finally:
        Path(tmp).unlink(missing_ok=True)


LAYOUTS = {"append-log": AppendLogStore, "file-per-key": FilePerKeyStore}


def open_store(
    path: str | os.PathLike,
    layout: str | None = None,
    policy: KeyPolicy | str | None = None,
    store_id: StoreID | None = None,
) -> LocalStore:
    """Open or create a persistent store.

    layout is "append-log" or "file-per-key"; when None it is sniffed from
    an existing path (file vs directory) and defaults to append-log for a
    fresh one.
    """
    p = Path(path)
    if layout is None:
        layout = "file-per-key" if p.is_dir() else "append-log"
    cls = LAYOUTS.get(layout)
    if cls is None:
        raise ValueError(f"unknown layout {layout!r}; expected {' or '.join(map(repr, LAYOUTS))}")
    return cls.open(p, policy, store_id)


def get_root_store(home: str | os.PathLike | None = None) -> AppendLogStore:
    """The per-actor bootstrap store at <home>/root.store: an append-log
    store with content-hash keys, created on first use. Repeated calls in
    one process return the same instance for the same resolved home."""
    return open_root(ROOT_STORE_FILENAME,
                     lambda path: AppendLogStore.open(path, policy="content-hash"), home)
