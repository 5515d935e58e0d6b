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
"""
from __future__ import annotations

import fcntl
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .core import CorruptionError, LogLockedError, StoreID


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
    # each format's wording of two header errors, kept as released
    short_header_error: str
    version_error: str

    def header(self, log_id: StoreID, extra: bytes) -> bytes:
        return self.magic + bytes([self.version]) + log_id.raw + extra

    def check_header(self, data: bytes, source: str) -> tuple[StoreID, bytes]:
        """Validate a header; return its log id and extra bytes."""
        if len(data) < self.header_len:
            raise CorruptionError(f"{source}: " + self.short_header_error.format(len(data)))
        if data[:4] != self.magic:
            raise CorruptionError(f"{source}: bad magic {data[:4]!r}")
        if data[4] != self.version:
            raise CorruptionError(f"{source}: " + self.version_error.format(data[4]))
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


class FramedLog:
    """Mixin owning one log file, appended through an unbuffered O_APPEND
    handle. The host class sets _format and provides _lock and _closed.

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
        the whole records, each (start, prefix, first, second, end), which
        it must exhaust; a torn tail is then cut off. If anything fails, the
        file is closed again."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self._path = path
        self._fh = open(path, "a+b", buffering=0)
        self._torn = False
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
                replay(header, self._scan(reader, size))
            if self._end_offset < size:
                # drop torn tail bytes so new appends land on a record boundary
                os.ftruncate(self._fh.fileno(), self._end_offset)
        except BaseException:
            self._fh.close()
            raise

    def _scan(self, reader, size: int) -> Iterator[tuple[int, tuple, bytes, bytes, int]]:
        """Yield each whole record after the header in reader, a file of size
        bytes; at the end, set _end_offset to the end of the last."""
        fmt, source = self._format, self._path
        read = reader.read
        unpack_prefix = fmt.prefix.unpack_from
        head_len = fmt.prefix.size + 4
        (label1, min1, max1), (label2, min2, max2) = fmt.fields
        crc = fmt.crc
        offset = fmt.header_len
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
        return start

    @property
    def path(self) -> Path:
        return self._path

    def close(self) -> None:
        """Flush and fsync the log, then release it; a second close does nothing."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
