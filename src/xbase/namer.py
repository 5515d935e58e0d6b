"""Name-to-key binding: in-memory namer, persistent binding log, root namer.

A namer is the one place update semantics exist: rebinding a name (unbind
the old key, bind the new one) changes what the name resolves to while the
underlying stores keep every value ever written.

The persistent namer appends BIND/UNBIND records to a log and replays them
on open, which also yields historical views: the binding state as of any
log sequence number can be reconstructed by prefix replay.

Log format, after a 21-byte header (magic "XNM1", version 0x01, 16-byte
namer instance id):

    [seq u64 BE][action u8][name_len u32 BE][name UTF-8][key_len u32 BE][key][crc32 u32 BE]

action is 0x01 BIND or 0x02 UNBIND; crc32 covers all preceding record
bytes with the same parameters as the store log. Torn-tail recovery follows
the same rule: an incomplete or tail-CRC-failed final record is dropped,
corruption anywhere earlier is an error.
"""
from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from .core import (
    MAX_KEY_LEN,
    MAX_NAME_UTF8_LEN,
    CorruptionError,
    Key,
    Name,
    Namer,
    NotBoundError,
    SeqOutOfRangeError,
    StoreID,
    check_key,
    check_name,
)
from .home import ROOT_NAMER_FILENAME, xbase_home
from .stores import AppendOnlyFile

NAMER_MAGIC = b"XNM1"
NAMER_VERSION = 0x01
NAMER_HEADER_LEN = 4 + 1 + 16

ACTION_BIND = 0x01
ACTION_UNBIND = 0x02


@dataclass(frozen=True)
class BindingRecord:
    """One committed log entry; seq is consecutive from 1."""

    seq: int
    action: int
    name: Name
    key: Key


class MemoryNamer(Namer):
    """Transient namer holding its bindings solely in memory."""

    def __init__(self, namer_id: StoreID | None = None):
        self._id = namer_id or StoreID.generate()
        self._bindings: dict[Name, set[Key]] = {}
        self._lock = threading.RLock()

    @property
    def namer_id(self) -> StoreID:
        return self._id

    def bind(self, name: Name, key: Key) -> None:
        check_name(name)
        check_key(key)
        with self._lock:
            self._bindings.setdefault(name, set()).add(key)

    def unbind(self, name: Name, key: Key) -> None:
        check_name(name)
        check_key(key)
        with self._lock:
            keys = self._bindings.get(name)
            if keys is None or key not in keys:
                raise NotBoundError(f"{name.text!r} is not bound to {key.hex}")
            keys.remove(key)
            if not keys:
                del self._bindings[name]

    def lookup(self, name: Name) -> set[Key]:
        check_name(name)
        with self._lock:
            return set(self._bindings.get(name, ()))

    def bindings(self) -> list[tuple[Name, Key]]:
        """Snapshot of the current binding set, sorted for determinism."""
        with self._lock:
            pairs = [(n, k) for n, keys in self._bindings.items() for k in keys]
        pairs.sort(key=lambda pair: (pair[0].text, pair[1].raw))
        return pairs


def _encode_record(record: BindingRecord) -> bytes:
    name_bytes = record.name.text.encode("utf-8")
    body = b"".join(
        (
            struct.pack(">Q", record.seq),
            bytes([record.action]),
            struct.pack(">I", len(name_bytes)),
            name_bytes,
            struct.pack(">I", len(record.key.raw)),
            record.key.raw,
        )
    )
    return body + struct.pack(">I", zlib.crc32(body))


class LogNamer(AppendOnlyFile, Namer):
    """Durable namer recording its bindings in an append-only log.

    Current state is the fold of all committed records; lookup_as_of
    reconstructs the state after any prefix of them.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("use LogNamer.open(path)")

    @classmethod
    def open(cls, path: str | os.PathLike, namer_id: StoreID | None = None) -> LogNamer:
        path = Path(path)
        self = object.__new__(cls)
        self._lock = threading.RLock()
        self._closed = False
        self._bindings: dict[Name, set[Key]] = {}
        self._records: list[BindingRecord] = []
        if path.exists() and path.stat().st_size > 0:
            nid, records, good_end = _replay_namer_log(path)
            self._id = nid
            if good_end < path.stat().st_size:
                with open(path, "r+b") as fh:
                    fh.truncate(good_end)
            for record in records:
                self._records.append(record)
                _apply(self._bindings, record, source=str(path))
        else:
            self._id = namer_id or StoreID.generate()
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(NAMER_MAGIC + bytes([NAMER_VERSION]) + self._id.raw)
            good_end = NAMER_HEADER_LEN
        self._path = path
        self._open_append(good_end)
        return self

    @property
    def namer_id(self) -> StoreID:
        return self._id

    @property
    def path(self) -> Path:
        return self._path

    @property
    def max_seq(self) -> int:
        """Sequence number of the newest committed record (0 when empty)."""
        with self._lock:
            return len(self._records)

    def bind(self, name: Name, key: Key) -> None:
        check_name(name)
        check_key(key)
        with self._lock:
            self._check_open()
            if key in self._bindings.get(name, ()):
                return  # duplicate bind appends nothing
            record = BindingRecord(len(self._records) + 1, ACTION_BIND, name, key)
            self._append(record)
            _apply(self._bindings, record, source=str(self._path))

    def unbind(self, name: Name, key: Key) -> None:
        check_name(name)
        check_key(key)
        with self._lock:
            self._check_open()
            if key not in self._bindings.get(name, ()):
                raise NotBoundError(f"{name.text!r} is not bound to {key.hex}")
            record = BindingRecord(len(self._records) + 1, ACTION_UNBIND, name, key)
            self._append(record)
            _apply(self._bindings, record, source=str(self._path))

    def lookup(self, name: Name) -> set[Key]:
        check_name(name)
        with self._lock:
            self._check_open()
            return set(self._bindings.get(name, ()))

    def lookup_as_of(self, name: Name, seq: int) -> set[Key]:
        """The key set lookup(name) would have returned right after record
        seq was applied; seq 0 is the empty namer."""
        check_name(name)
        with self._lock:
            self._check_open()
            if not 0 <= seq <= len(self._records):
                raise SeqOutOfRangeError(
                    f"seq {seq} outside 0..{len(self._records)}"
                )
            prefix = self._records[:seq]
        state: dict[Name, set[Key]] = {}
        for record in prefix:
            _apply(state, record, source=str(self._path))
        return set(state.get(name, ()))

    def records(self) -> list[BindingRecord]:
        """Snapshot of the committed record list."""
        with self._lock:
            return list(self._records)

    def bindings(self) -> list[tuple[Name, Key]]:
        with self._lock:
            pairs = [(n, k) for n, keys in self._bindings.items() for k in keys]
        pairs.sort(key=lambda pair: (pair[0].text, pair[1].raw))
        return pairs

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> LogNamer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("namer is closed")

    def _append(self, record: BindingRecord) -> None:
        self._append_bytes(_encode_record(record))
        self._records.append(record)


def _apply(state: dict[Name, set[Key]], record: BindingRecord, source: str) -> None:
    if record.action == ACTION_BIND:
        state.setdefault(record.name, set()).add(record.key)
    elif record.action == ACTION_UNBIND:
        keys = state.get(record.name)
        if keys is None or record.key not in keys:
            raise CorruptionError(
                f"{source}: UNBIND of unbound pair at seq {record.seq}"
            )
        keys.remove(record.key)
        if not keys:
            del state[record.name]
    else:
        raise CorruptionError(f"{source}: unknown action {record.action:#04x}")


def _replay_namer_log(path: Path) -> tuple[StoreID, list[BindingRecord], int]:
    size = path.stat().st_size
    records: list[BindingRecord] = []
    with open(path, "rb") as fh:
        header = fh.read(NAMER_HEADER_LEN)
        if len(header) < NAMER_HEADER_LEN:
            raise CorruptionError(f"{path}: short header")
        if header[:4] != NAMER_MAGIC:
            raise CorruptionError(f"{path}: bad magic {header[:4]!r}")
        if header[4] != NAMER_VERSION:
            raise CorruptionError(f"{path}: unsupported version {header[4]}")
        nid = StoreID(header[5:21])
        good_end = NAMER_HEADER_LEN
        offset = NAMER_HEADER_LEN
        while offset < size:
            record_start = offset
            fixed = fh.read(13)  # seq + action + name_len
            if len(fixed) < 13:
                break
            seq, action = struct.unpack(">QB", fixed[:9])
            (name_len,) = struct.unpack(">I", fixed[9:13])
            if name_len == 0 or name_len > MAX_NAME_UTF8_LEN:
                raise CorruptionError(
                    f"{path}: invalid name length {name_len} at offset {record_start}"
                )
            name_bytes = fh.read(name_len)
            if len(name_bytes) < name_len:
                break
            head = fh.read(4)
            if len(head) < 4:
                break
            (key_len,) = struct.unpack(">I", head)
            if key_len == 0 or key_len > MAX_KEY_LEN:
                raise CorruptionError(
                    f"{path}: invalid key length {key_len} at offset {record_start}"
                )
            key_bytes = fh.read(key_len)
            if len(key_bytes) < key_len:
                break
            tail = fh.read(4)
            if len(tail) < 4:
                break
            (stored_crc,) = struct.unpack(">I", tail)
            offset = record_start + 21 + name_len + key_len
            body_crc = zlib.crc32(fixed + name_bytes + head + key_bytes)
            if stored_crc != body_crc:
                if offset == size:
                    break  # torn tail
                raise CorruptionError(f"{path}: CRC mismatch at offset {record_start}")
            if seq != len(records) + 1:
                raise CorruptionError(
                    f"{path}: sequence gap at offset {record_start} (got {seq})"
                )
            if action not in (ACTION_BIND, ACTION_UNBIND):
                raise CorruptionError(
                    f"{path}: unknown action {action:#04x} at offset {record_start}"
                )
            try:
                name = Name(name_bytes.decode("utf-8"))
                key = Key(key_bytes)
            except (UnicodeDecodeError, ValueError) as exc:
                raise CorruptionError(f"{path}: bad record at {record_start}: {exc}") from None
            records.append(BindingRecord(seq, action, name, key))
            good_end = offset
    return nid, records, good_end


def open_namer(path: str | os.PathLike) -> LogNamer:
    """Open or create a persistent namer at path."""
    return LogNamer.open(path)


_root_namers: dict[Path, LogNamer] = {}
_root_lock = threading.Lock()


def get_root_namer(home: str | os.PathLike | None = None) -> LogNamer:
    """The per-actor bootstrap namer at <home>/root.namer.

    Repeated calls in one process return the same instance for the same
    resolved home directory.
    """
    path = xbase_home(home) / ROOT_NAMER_FILENAME
    with _root_lock:
        namer = _root_namers.get(path)
        if namer is None or namer._closed:
            namer = LogNamer.open(path)
            _root_namers[path] = namer
        return namer
