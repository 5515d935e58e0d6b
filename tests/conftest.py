"""Shared fixtures and independent reference implementations.

The reference functions here are deliberately written from the published
algorithm definitions, not by calling the code under test (or the stdlib
primitives it uses), so golden values in the tests are genuinely
independent.
"""
from __future__ import annotations

import errno

import pytest

CRC32_POLY = 0xEDB88320
LCG_A = 6364136223846793005
LCG_C = 1442695040888963407


def crc32_reference(data: bytes, crc: int = 0) -> int:
    """Bit-by-bit CRC-32: reflected poly 0xEDB88320, init and final xor
    0xFFFFFFFF. Check value: crc32_reference(b"123456789") == 0xCBF43926."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (CRC32_POLY if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def lcg_keystream_reference(key: bytes, length: int) -> bytes:
    """Keystream byte i = top 8 bits of the LCG state after i+1 steps,
    seeded with the key as a big-endian u64."""
    state = int.from_bytes(key, "big")
    out = bytearray()
    for _ in range(length):
        state = (LCG_A * state + LCG_C) % (1 << 64)
        out.append(state >> 56)
    return bytes(out)


def check_batches_match_loops(batched, looped) -> None:
    """batched and looped are fresh stores of one kind and key policy.
    put_many and get_many on the first must give what put and get loops
    give on the second: with duplicate values and keys, unknown keys, empty
    batches, and batches over one RemoteStore window (128 requests or
    32 KiB of requests)."""
    from xbase.core import Key, UnknownKeyError

    values = [b"v%04d" % (i % 250) * (1 + i % 25) for i in range(600)]
    assert len(b"".join(values)) > 32 << 10 and len(set(values)) < len(values)
    assert batched.put_many([]) == []
    keys = batched.put_many(iter(values))
    assert keys == [looped.put(value) for value in values]
    unknown = [Key(b"\xfe" * 32), Key(b"\xfd" * 8)]
    asked = unknown[:1] + keys + keys[:50] + unknown
    expected = {}
    for key in asked:
        try:
            expected[key] = looped.get(key)
        except UnknownKeyError:
            pass
    assert len(expected) == len(set(keys))
    assert batched.get_many(asked) == expected
    assert batched.get_many(iter(asked)) == expected
    assert batched.get_many([]) == {}
    assert batched.get_many(unknown) == {}


class HalfWriteFile:
    """Stands in for a log's append handle: the first write puts half of its
    bytes in the file and then fails as a full disk does; later writes pass
    through to the real handle."""

    def __init__(self, fh):
        self._fh = fh
        self.tripped = False

    def write(self, data) -> int:
        if self.tripped:
            return self._fh.write(data)
        self.tripped = True
        data = bytes(data)
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


@pytest.fixture(autouse=True)
def empty_fragment_memo():
    """Every test starts and ends with an empty memo of parsed fragments, so
    none reads a tree that another test wrote."""
    from xbase import xmlfrag

    xmlfrag._memo = {}
    yield
    xmlfrag._memo = {}


@pytest.fixture
def tmp_home(tmp_path, monkeypatch):
    """Isolated data directory: XBASE_HOME plus an empty bootstrap registry,
    whose root stores and namers are closed at teardown."""
    home = tmp_path / "home"
    monkeypatch.setenv("XBASE_HOME", str(home))
    import xbase.home

    roots = {}
    monkeypatch.setattr(xbase.home, "_roots", roots)
    yield home
    for root in roots.values():
        root.close()
