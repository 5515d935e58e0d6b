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
bytes with the same parameters as the store log. Framing, torn-tail
recovery and locking are shared with the store log: see framedlog.py.
"""
from __future__ import annotations

import os
import struct
import threading
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
from .framedlog import FramedLog, LogFormat
from .home import ROOT_NAMER_FILENAME, open_root

NAMER_MAGIC = b"XNM1"
NAMER_VERSION = 0x01
NAMER_HEADER_LEN = 4 + 1 + 16
NAMER_LOG = LogFormat(
    magic=NAMER_MAGIC,
    version=NAMER_VERSION,
    header_len=NAMER_HEADER_LEN,
    prefix=struct.Struct(">QB"),
    fields=(("name", 1, MAX_NAME_UTF8_LEN), ("key", 1, MAX_KEY_LEN)),
    crc_whole_record=True,
    short_header_error="short header",
    version_error="unsupported version {}",
)

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
        self._closed = False

    @property
    def namer_id(self) -> StoreID:
        return self._id

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark the namer closed; every later operation raises ValueError."""
        with self._lock:
            self._closed = True

    def bind(self, name: Name, key: Key) -> None:
        check_name(name)
        check_key(key)
        with self._lock:
            self._check_open()
            if key not in self._bindings.get(name, ()):
                self._change(ACTION_BIND, name, key)

    def unbind(self, name: Name, key: Key) -> None:
        check_name(name)
        check_key(key)
        with self._lock:
            self._check_open()
            if key not in self._bindings.get(name, ()):
                raise NotBoundError(f"{name.text!r} is not bound to {key.hex}")
            self._change(ACTION_UNBIND, name, key)

    def lookup(self, name: Name) -> set[Key]:
        check_name(name)
        with self._lock:
            self._check_open()
            return set(self._bindings.get(name, ()))

    def bindings(self) -> list[tuple[Name, Key]]:
        """Snapshot of the current binding set, sorted for determinism."""
        with self._lock:
            pairs = [(n, k) for n, keys in self._bindings.items() for k in keys]
        pairs.sort(key=lambda pair: (pair[0].text, pair[1].raw))
        return pairs

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("namer is closed")

    def _change(self, action: int, name: Name, key: Key) -> None:
        """The one state transition: a BIND, or an UNBIND of a bound pair."""
        if action == ACTION_BIND:
            self._bindings.setdefault(name, set()).add(key)
        else:
            keys = self._bindings[name]
            keys.remove(key)
            if not keys:
                del self._bindings[name]


class LogNamer(FramedLog, MemoryNamer):
    """Durable namer recording its bindings in an append-only log.

    Current state is the fold of all committed records; lookup_as_of
    reconstructs the state after any prefix of them.
    """

    _format = NAMER_LOG

    def __init__(self, *args, **kwargs):
        raise TypeError("use LogNamer.open(path)")

    @classmethod
    def open(cls, path: str | os.PathLike, namer_id: StoreID | None = None) -> LogNamer:
        self = object.__new__(cls)
        MemoryNamer.__init__(self, namer_id)
        self._records: list[BindingRecord] = []
        self._open_log(Path(path), self._id, b"", self._replay)
        return self

    def _replay(self, header: tuple[StoreID, bytes], records) -> None:
        self._id = header[0]
        path, change = self._path, super()._change
        for start, (seq, action), name_bytes, key_bytes, _ in records:
            if seq != len(self._records) + 1:
                raise CorruptionError(f"{path}: sequence gap at offset {start} (got {seq})")
            if action not in (ACTION_BIND, ACTION_UNBIND):
                raise CorruptionError(f"{path}: unknown action {action:#04x} at offset {start}")
            try:
                name = Name(name_bytes.decode("utf-8"))
                key = Key(key_bytes)
            except (UnicodeDecodeError, ValueError) as exc:
                raise CorruptionError(f"{path}: bad record at {start}: {exc}") from None
            if action == ACTION_UNBIND and key not in self._bindings.get(name, ()):
                raise CorruptionError(f"{path}: UNBIND of unbound pair at seq {seq}")
            self._records.append(BindingRecord(seq, action, name, key))
            change(action, name, key)

    @property
    def max_seq(self) -> int:
        """Sequence number of the newest committed record (0 when empty)."""
        with self._lock:
            return len(self._records)

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
        state = MemoryNamer(self._id)
        for record in prefix:
            state._change(record.action, record.name, record.key)
        return state.lookup(name)

    def records(self) -> list[BindingRecord]:
        """Snapshot of the committed record list."""
        with self._lock:
            return list(self._records)

    def _change(self, action: int, name: Name, key: Key) -> None:
        record = BindingRecord(len(self._records) + 1, action, name, key)
        self._append_bytes(NAMER_LOG.record((record.seq, action), name.text.encode("utf-8"), key.raw))
        self._records.append(record)
        super()._change(action, name, key)


def open_namer(path: str | os.PathLike) -> LogNamer:
    """Open or create a persistent namer at path."""
    return LogNamer.open(path)


def get_root_namer(home: str | os.PathLike | None = None) -> LogNamer:
    """The per-actor bootstrap namer at <home>/root.namer.

    Repeated calls in one process return the same instance for the same
    resolved home directory.
    """
    return open_root(ROOT_NAMER_FILENAME, LogNamer.open, home)
