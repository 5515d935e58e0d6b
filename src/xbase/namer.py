"""Name-to-key binding: in-memory namer, persistent binding log, root namer.

A namer is the one place update semantics exist: rebinding a name (unbind
the old key, bind the new one) changes what the name resolves to while the
underlying stores keep every value ever written.

The persistent namer appends BIND/UNBIND records to a log and replays them
on open, which also yields historical views: each name keeps its history
of (seq, action, key) records, so the keys a name had as of any log
sequence number are found by bisecting that history.

Log format, after a 21-byte header (magic "XNM1", version 0x01, 16-byte
namer instance id):

    [seq u64 BE][action u8][name_len u32 BE][name UTF-8][key_len u32 BE][key][crc32 u32 BE]

action is 0x01 BIND or 0x02 UNBIND; crc32 covers all preceding record
bytes with the same parameters as the store log. Framing, torn-tail
recovery, locking and the <log>.hint sidecar (max seq, the live bindings
and every name's history) are shared with the store log: see framedlog.py.
The sidecar keeps each name's history packed, as (record count, marshal
bytes of the history), so an open decodes only the histories it uses.
"""
from __future__ import annotations

import os
import struct
import threading
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
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
from .framedlog import FramedLog, LogFormat, all_packed, pack
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
    """Transient namer holding its bindings solely in memory, as name text ->
    set of key bytes (the form a LogNamer hint stores); Name and Key objects
    are built only where lookup and bindings hand them out."""

    def __init__(self, namer_id: StoreID | None = None):
        self._id = namer_id or StoreID.generate()
        self._bindings: dict[str, set[bytes]] = {}
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
            if key.raw not in self._bindings.get(name.text, ()):
                self._change(ACTION_BIND, name.text, key.raw)

    def unbind(self, name: Name, key: Key) -> None:
        check_name(name)
        check_key(key)
        with self._lock:
            self._check_open()
            if key.raw not in self._bindings.get(name.text, ()):
                raise NotBoundError(f"{name.text!r} is not bound to {key.hex}")
            self._change(ACTION_UNBIND, name.text, key.raw)

    def lookup(self, name: Name) -> set[Key]:
        check_name(name)
        with self._lock:
            self._check_open()
            return {Key(raw) for raw in self._bindings.get(name.text, ())}

    def bindings(self) -> list[tuple[Name, Key]]:
        """Snapshot of the current binding set, sorted for determinism."""
        with self._lock:
            pairs = sorted((text, raw) for text, raws in self._bindings.items() for raw in raws)
        return [(Name(text), Key(raw)) for text, raw in pairs]

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("namer is closed")

    def _change(self, action: int, text: str, raw: bytes) -> None:
        """The one state transition: a BIND, or an UNBIND of a bound pair."""
        if action == ACTION_BIND:
            self._bindings.setdefault(text, set()).add(raw)
        else:
            raws = self._bindings[text]
            raws.remove(raw)
            if not raws:
                del self._bindings[text]


class LogNamer(FramedLog, MemoryNamer):
    """Durable namer recording its bindings in an append-only log.

    Current state is the fold of all committed records, each applied to
    the bindings and to its name's history, [(seq, action, key bytes)] in
    seq order, which answers lookup_as_of by bisection and from which
    records() rebuilds the log; replay and a bind or unbind apply a record
    alike. An open through the hint installs its live bindings as they
    are stored, but keeps each history packed as the hint stored it,
    (record count, marshal bytes), until lookup_as_of, bind, unbind,
    records() or the tail replay first needs it; a packed history that
    does not decode to its count raises CorruptionError then. Close packs
    again only the histories it decoded.
    """

    _format = NAMER_LOG

    def __init__(self, *args, **kwargs):
        raise TypeError("use LogNamer.open(path)")

    @classmethod
    def open(cls, path: str | os.PathLike, namer_id: StoreID | None = None) -> LogNamer:
        self = object.__new__(cls)
        MemoryNamer.__init__(self, namer_id)
        self._max_seq = 0
        # name text -> its history, or (count, marshal bytes) until first use
        self._history: dict[str, list[tuple[int, int, bytes]] | tuple[int, bytes]] = {}
        self._open_log(Path(path), self._id, b"", self._replay)
        return self

    def _replay(self, header: tuple[StoreID, bytes], records) -> None:
        self._id = header[0]
        path, bindings, apply = self._path, self._bindings, self._apply
        # each distinct name is decoded and checked once; the log's field
        # bounds already make every key valid
        names: dict[bytes, str] = {}
        for start, (seq, action), name_bytes, raw, _ in records:
            if seq != self._max_seq + 1:
                raise CorruptionError(f"{path}: sequence gap at offset {start} (got {seq})")
            if action not in (ACTION_BIND, ACTION_UNBIND):
                raise CorruptionError(f"{path}: unknown action {action:#04x} at offset {start}")
            text = names.get(name_bytes)
            if text is None:
                try:
                    text = names[name_bytes] = Name(name_bytes.decode("utf-8")).text
                except (UnicodeDecodeError, ValueError) as exc:
                    raise CorruptionError(f"{path}: bad record at {start}: {exc}") from None
            if action == ACTION_UNBIND and raw not in bindings.get(text, ()):
                raise CorruptionError(f"{path}: UNBIND of unbound pair at seq {seq}")
            apply(seq, action, text, raw)

    def _apply(self, seq: int, action: int, text: str, raw: bytes) -> None:
        """Apply record seq, already checked, to the history, max_seq and bindings."""
        history = self._history.get(text)
        if type(history) is not list:  # new, or still packed as the hint left it
            history = self._history[text] = self._history_of(text)
        history.append((seq, action, raw))
        self._max_seq = seq
        super()._change(action, text, raw)

    def _hint_state(self) -> tuple:
        live = {text: list(raws) for text, raws in self._bindings.items()}
        packed = {text: pack(history) if type(history) is list else history
                  for text, history in self._history.items()}
        return self._max_seq, live, packed

    def _restore_hint(self, state) -> None:
        max_seq, live, history = state
        if not (type(max_seq) is int and type(live) is dict and type(history) is dict
                and all_packed(history.values())
                and sum(count for count, _ in history.values()) == max_seq
                and all(type(t) is str and type(r) is list
                        and all(type(b) is bytes and 0 < len(b) <= MAX_KEY_LEN for b in r)
                        for t, r in live.items())):
            raise ValueError("unexpected namer hint shape")
        self._max_seq, self._history = max_seq, history
        self._bindings = {text: set(raws) for text, raws in live.items()}

    def _history_of(self, text: str) -> list:
        """The history of the name text, decoded and installed on first use
        if the hint left it packed; a new list if the name has none. Each
        decoded entry must be a record the log could hold: (seq up to
        max_seq, BIND or UNBIND, key bytes)."""
        history = self._history.get(text, [])
        if type(history) is tuple:
            what = f"the history of {text!r}"
            decoded = self._unpack(history, list, what)
            if not all(type(entry) is tuple and len(entry) == 3
                       and type(entry[0]) is int and 0 < entry[0] <= self._max_seq
                       and entry[1] in (ACTION_BIND, ACTION_UNBIND)
                       and type(entry[2]) is bytes and 0 < len(entry[2]) <= MAX_KEY_LEN
                       for entry in decoded):
                raise self._undecodable(what, history[0])
            history = self._history[text] = decoded
        return history

    @property
    def max_seq(self) -> int:
        """Sequence number of the newest committed record (0 when empty)."""
        with self._lock:
            return self._max_seq

    def lookup_as_of(self, name: Name, seq: int) -> set[Key]:
        """The key set lookup(name) would have returned right after record
        seq was applied; seq 0 is the empty namer."""
        check_name(name)
        with self._lock:
            self._check_open()
            if not 0 <= seq <= self._max_seq:
                raise SeqOutOfRangeError(f"seq {seq} outside 0..{self._max_seq}")
            history = self._history_of(name.text)
            keys: set[bytes] = set()
            for _, action, raw in history[: bisect_right(history, seq, key=itemgetter(0))]:
                if action == ACTION_BIND:
                    keys.add(raw)
                else:
                    keys.discard(raw)
        return {Key(raw) for raw in keys}

    def records(self) -> list[BindingRecord]:
        """Snapshot of the committed record list, in seq order."""
        with self._lock:
            out: list = [None] * self._max_seq
            for text in list(self._history):
                name = Name(text)
                for seq, action, raw in self._history_of(text):
                    out[seq - 1] = BindingRecord(seq, action, name, Key(raw))
        return out

    def _change(self, action: int, text: str, raw: bytes) -> None:
        self._history_of(text)  # before the append: decoding it may raise
        seq = self._max_seq + 1
        self._append_bytes(NAMER_LOG.record((seq, action), text.encode("utf-8"), raw))
        self._apply(seq, action, text, raw)


def open_namer(path: str | os.PathLike) -> LogNamer:
    """Open or create a persistent namer at path."""
    return LogNamer.open(path)


def get_root_namer(home: str | os.PathLike | None = None) -> LogNamer:
    """The per-actor bootstrap namer at <home>/root.namer.

    Repeated calls in one process return the same instance for the same
    resolved home directory.
    """
    return open_root(ROOT_NAMER_FILENAME, LogNamer.open, home)
