"""The append-only, CRC-framed log under AppendLogStore and LogNamer
(Bitcask's log plus in-memory keydir). A log is a header, then records:

    header: [magic 4][version u8][log id 16][extra bytes]
    record: [prefix][len1 u32 BE][field1][len2 u32 BE][field2][crc32 u32 BE]

Recovery, one rule for every format: a complete length field is authentic,
so one outside its range is corruption. A short read, or a CRC mismatch in
the final record, is a torn tail, which open cuts off; a CRC mismatch
anywhere earlier raises CorruptionError. Each append reaches the OS before
it returns; the log is fsynced only at close. Open takes an exclusive flock:
a second opener, in this process or another, gets LogLockedError.

Checkpointed open (Bitcask's hint file): close, still holding the lock,
fsyncs the log and then writes a derived sidecar <log>.hint through a
temporary file and os.replace. The sidecar holds a format byte, the log id,
the end offset it covers, the CRC32 of the whole log prefix [0, end), the
host's replay state at that offset (a store's keydir, a namer's bindings
and per-name history), and a CRC32 of the sidecar itself. A host may keep
parts of its state packed as marshal bytes, each with the count it must
decode to, and decode a part only when first used: a store's keydir in
256 buckets by key CRC32, a namer's history per name. Open trusts it
only if its own CRC holds, its format byte is HINT_FORMAT, it decodes to
the expected shape, the ids match, the log is at least end bytes long, and
one chunked CRC32 pass over [0, end) gives the stored prefix CRC; it then
replays only the records past end, under the rules above. Anything else
falls back to a full replay, so a changed byte anywhere in the log raises
the same CorruptionError with or without a hint. A close rewrites the
sidecar only when the log has grown past what a trusted hint covered, or
no hint was trusted. The sidecar is never fsynced and is safe to delete; a
torn one fails its own CRC.
"""
from __future__ import annotations

import contextlib
import fcntl
import logging
import marshal
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .core import CorruptionError, LogLockedError, StoreID

logger = logging.getLogger(__name__)

# 0x02: a store's keydir maps each key to offset << 32 | length (0x01 held
# (offset, length) tuples); a hint of another format is replayed past
HINT_FORMAT = 0x02
_CRC_CHUNK = 1 << 18  # bytes per read of the prefix CRC pass


@dataclass(frozen=True)
class LogFormat:
    """One kind of log: its header, its fixed record prefix (possibly empty),
    a (label, min, max) length range per field, and whether the CRC covers
    the whole record body or only the two fields."""

    magic: bytes
    version: int
    header_len: int
    prefix: struct.Struct
    fields: tuple[tuple[str, int, int], tuple[str, int, int]]
    crc_whole_record: bool

    def header(self, log_id: StoreID, extra: bytes) -> bytes:
        return self.magic + bytes([self.version]) + log_id.raw + extra

    def check_header(self, data: bytes, source: str) -> tuple[StoreID, bytes]:
        """Validate a header; return its log id and extra bytes."""
        if len(data) < self.header_len:
            raise CorruptionError(f"{source}: short header ({len(data)} bytes)")
        if data[:4] != self.magic:
            raise CorruptionError(f"{source}: bad magic {data[:4]!r}")
        if data[4] != self.version:
            raise CorruptionError(f"{source}: unsupported format version {data[4]}")
        return StoreID(data[5:21]), data[21 : self.header_len]

    def record(self, prefix: tuple, first: bytes, second: bytes) -> bytes:
        head = self.prefix.pack(*prefix) + len(first).to_bytes(4, "big")
        mid = first + len(second).to_bytes(4, "big")
        crc = self.crc(head, mid, first, second)
        return b"".join((head, mid, second, crc.to_bytes(4, "big")))

    def crc(self, head: bytes, mid: bytes, first: bytes, second: bytes) -> int:
        """head holds the prefix and first length, mid the first field and second length."""
        if self.crc_whole_record:
            return zlib.crc32(second, zlib.crc32(mid, zlib.crc32(head)))
        return zlib.crc32(second, zlib.crc32(first))


def _crc32_range(reader, start: int, end: int, crc: int) -> int:
    """Extend crc over bytes [start, end) of reader, read in chunks."""
    reader.seek(start)
    buf = memoryview(bytearray(min(_CRC_CHUNK, end - start)))
    while start < end:
        n = reader.readinto(buf[: end - start])
        if not n:
            raise CorruptionError(f"{reader.name}: shorter than {end} bytes")
        crc = zlib.crc32(buf[:n], crc)
        start += n
    return crc


def pack(part) -> tuple[int, bytes]:
    """A part of a replay state kept packed in the hint until first use:
    (its length, its marshal bytes)."""
    return len(part), marshal.dumps(part)


def all_packed(parts) -> bool:
    """Whether every one of parts has the shape pack gives."""
    return all(type(part) is tuple and len(part) == 2 and type(part[0]) is int
               and type(part[1]) is bytes for part in parts)


class FramedLog:
    """Mixin owning one log file, appended through an unbuffered O_APPEND
    handle. The host class sets _format and provides _id, _lock and _closed,
    plus _hint_state() -> its replay state as a marshal-able value, and
    _restore_hint(state), which installs such a state, or raises TypeError
    or ValueError, changing nothing, when the state has the wrong shape.

    _append_bytes writes one record whole or not at all: if the write fails
    partway (say ENOSPC), the file is cut back to where the record began
    before the error propagates. If that cut fails as well, every later
    append raises CorruptionError, so nothing is written after the torn
    bytes; reopening the log drops them as a torn tail.
    """

    _format: LogFormat

    def _open_log(self, path: Path, log_id: StoreID, extra: bytes, replay) -> None:
        """Open and lock the log at path; a missing or empty file gets a
        header of log_id and extra. Of an existing log, replay(header,
        records) gets the checked (log id, extra bytes) and an iterator over
        the whole records past a trusted hint (all of them if none), each
        (start, prefix, first, second, end), which it must exhaust; a torn
        tail is then cut off. If anything fails, the file is closed again."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self._path = path
        self._fh = open(path, "a+b", buffering=0)
        self._torn = False
        self._crc = 0  # CRC32 of the log bytes [0, _end_offset)
        self._hint_end = 0  # the end a trusted hint covers; 0 when none was
        try:
            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise LogLockedError(f"{path}: log is already open elsewhere") from None
            size = self._end_offset = os.fstat(self._fh.fileno()).st_size
            if size == 0:
                self._append_bytes(self._format.header(log_id, extra))
                return
            with open(path, "rb") as reader:
                header = self._format.check_header(reader.read(self._format.header_len), str(path))
                self._hint_end, crc = self._load_hint(reader, header[0], size)
                start = self._hint_end or self._format.header_len
                reader.seek(start)
                replay(header, self._scan(reader, start, size))
                self._crc = _crc32_range(reader, self._hint_end, self._end_offset, crc)
            if self._end_offset < size:
                logger.warning("%s: cut a torn tail of %d bytes at offset %d",
                               path, size - self._end_offset, self._end_offset)
                # drop torn tail bytes so new appends land on a record boundary
                os.ftruncate(self._fh.fileno(), self._end_offset)
        except BaseException:
            self._fh.close()
            raise

    def _hint_path(self) -> Path:
        return self._path.with_name(self._path.name + ".hint")

    def _load_hint(self, reader, log_id: StoreID, size: int) -> tuple[int, int]:
        """If the sidecar checks against the log in reader (size bytes),
        restore its replay state and return the (end, prefix CRC) it
        covers; otherwise log why not and return (0, 0)."""
        try:
            data = memoryview(self._hint_path().read_bytes())
        except FileNotFoundError:
            return self._no_hint("missing")
        except OSError as exc:
            return self._no_hint(f"unreadable: {exc}")
        if len(data) < 5 or zlib.crc32(data[:-4]) != int.from_bytes(data[-4:], "big"):
            return self._no_hint("sidecar CRC")
        try:
            if data[0] != HINT_FORMAT:
                raise ValueError(f"hint format {data[0]}")
            hint_id, end, crc, state = marshal.loads(data[1:-4])
            if not (type(hint_id) is bytes and type(end) is int and type(crc) is int
                    and end >= self._format.header_len):
                raise ValueError("unexpected hint shape")
        except (EOFError, TypeError, ValueError):
            return self._no_hint("format")
        if hint_id != log_id.raw:
            return self._no_hint("id")
        if end > size:
            return self._no_hint("short log")
        if _crc32_range(reader, 0, end, 0) != crc:
            return self._no_hint("prefix CRC")
        try:
            self._restore_hint(state)
        except (TypeError, ValueError):
            return self._no_hint("format")
        return end, crc

    def _unpack(self, packed: tuple[int, bytes], kind: type, what: str,
                values: type | None = None):
        """Decode a part that pack packed. It must be a kind of the packed
        length and, if values is given, a dict whose every value is of type
        values; if not, raise CorruptionError naming the hint and what."""
        count, blob = packed
        try:
            part = marshal.loads(blob)
        except (EOFError, TypeError, ValueError):
            part = None
        if not (type(part) is kind and len(part) == count and (
                values is None or all(type(value) is values for value in part.values()))):
            raise self._undecodable(what, count, values)
        return part

    def _undecodable(self, what: str, count: int, values: type | None = None) -> CorruptionError:
        """The error for a packed part, what, that does not decode to count
        entries (each of type values, if given) the host can use."""
        of = f" of {values.__name__}" if values else ""
        return CorruptionError(f"{self._hint_path()}: {what} does not decode to"
                               f" {count} entries{of}; delete the hint to replay the log")

    def _no_hint(self, reason: str) -> tuple[int, int]:
        logger.info("%s: hint not used (%s); replaying the whole log", self._path, reason)
        return 0, 0

    def _write_hint(self) -> None:
        """Write the sidecar covering the whole log; a failure is logged,
        as the sidecar is only ever a shortcut."""
        hint = self._hint_path()
        tmp = hint.with_name(hint.name + ".tmp")
        body = bytes([HINT_FORMAT]) + marshal.dumps(
            (self._id.raw, self._end_offset, self._crc, self._hint_state())
        )
        try:
            with open(tmp, "wb") as fh:
                fh.write(body)
                fh.write(zlib.crc32(body).to_bytes(4, "big"))
            os.replace(tmp, hint)
        except OSError as exc:
            logger.warning("%s: hint not written: %s", hint, exc)
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)

    def _scan(
        self, reader, offset: int, size: int
    ) -> Iterator[tuple[int, tuple, bytes, bytes, int]]:
        """Yield each whole record in reader, a file of size bytes, from
        offset on; at the end, set _end_offset to the end of the last."""
        fmt, source = self._format, self._path
        read = reader.read
        unpack_prefix = fmt.prefix.unpack_from
        head_len = fmt.prefix.size + 4
        (label1, min1, max1), (label2, min2, max2) = fmt.fields
        crc = fmt.crc
        # the lock keeps size fixed, so a record running past it is a torn tail
        while offset + head_len <= size:
            head = read(head_len)
            len1 = int.from_bytes(head[-4:], "big")
            if not min1 <= len1 <= max1:
                # a complete length field is authentic, so this cannot be a torn write
                raise CorruptionError(
                    f"{source}: invalid {label1} length {len1} at offset {offset}"
                )
            if offset + head_len + len1 + 4 > size:
                break
            mid = read(len1 + 4)
            len2 = int.from_bytes(mid[-4:], "big")
            if not min2 <= len2 <= max2:
                raise CorruptionError(
                    f"{source}: invalid {label2} length {len2} at offset {offset}"
                )
            end = offset + head_len + len1 + len2 + 8
            if end > size:
                break
            first, second = mid[:-4], read(len2)
            if crc(head, mid, first, second) != int.from_bytes(read(4), "big"):
                if end == size:
                    break  # torn tail: the final record's CRC never reached the disk
                raise CorruptionError(f"{source}: CRC mismatch at offset {offset}")
            yield offset, unpack_prefix(head), first, second, end
            offset = end
        self._end_offset = offset

    def _append_bytes(self, record: bytes) -> int:
        """Append record at the end of the log; return its start offset."""
        if self._torn:
            raise CorruptionError(
                f"{self._path}: a failed append left a partial record; reopen the log"
            )
        start = self._end_offset
        try:
            view = memoryview(record)
            while view:
                view = view[self._fh.write(view) :]
        except BaseException:
            try:
                os.ftruncate(self._fh.fileno(), start)
            except OSError:
                self._torn = True
            raise
        self._end_offset = start + len(record)
        self._crc = zlib.crc32(record, self._crc)
        return start

    @property
    def path(self) -> Path:
        return self._path

    def close(self) -> None:
        """Flush and fsync the log, write its hint if the log has grown past
        the trusted one, then release it; a second close does nothing."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                if self._hint_end != self._end_offset and not self._torn:
                    self._write_hint()
            finally:
                self._fh.close()
