"""Name binding semantics, the persistent binding log, and history replay."""
import errno
import os
import random
import struct
import zlib

import pytest

from conftest import HalfWriteFile, crc32_reference
from xbase.core import (
    CorruptionError,
    Key,
    Name,
    NotBoundError,
    SeqOutOfRangeError,
    StoreID,
)
from xbase.namer import (
    ACTION_BIND,
    ACTION_UNBIND,
    LogNamer,
    MemoryNamer,
    NAMER_HEADER_LEN,
    NAMER_MAGIC,
    get_root_namer,
    open_namer,
)

K1, K2, K3 = Key(b"\x01"), Key(b"\x02"), Key(b"\x03")
N = Name("n")


@pytest.fixture(params=["memory", "log"])
def namer(request, tmp_path):
    if request.param == "memory":
        yield MemoryNamer()
    else:
        namer = LogNamer.open(tmp_path / "n.namer")
        yield namer
        namer.close()


class TestSemantics:
    def test_bind_then_lookup(self, namer):
        namer.bind(N, K1)
        assert namer.lookup(N) == {K1}

    def test_name_to_many_keys(self, namer):
        namer.bind(N, K1)
        namer.bind(N, K2)
        assert namer.lookup(N) == {K1, K2}

    def test_key_to_many_names_aliasing(self, namer):
        namer.bind(Name("n1"), K1)
        namer.bind(Name("n2"), K1)
        assert namer.lookup(Name("n1")) == {K1}
        assert namer.lookup(Name("n2")) == {K1}

    def test_unbind_to_empty(self, namer):
        namer.bind(N, K1)
        namer.unbind(N, K1)
        assert namer.lookup(N) == set()

    def test_unbind_unbound_pair_fails(self, namer):
        with pytest.raises(NotBoundError):
            namer.unbind(N, K1)
        namer.bind(N, K1)
        with pytest.raises(NotBoundError):
            namer.unbind(N, K2)

    def test_update_protocol(self, namer):
        namer.bind(N, K1)
        namer.unbind(N, K1)
        namer.bind(N, K2)
        assert namer.lookup(N) == {K2}

    def test_lookup_unknown_name_is_empty_not_error(self, namer):
        assert namer.lookup(Name("never-bound")) == set()

    def test_lookup_is_read_only(self, namer):
        namer.bind(N, K1)
        assert namer.lookup(N) == namer.lookup(N)

    def test_lookup_returns_a_copy(self, namer):
        namer.bind(N, K1)
        namer.lookup(N).add(K2)
        assert namer.lookup(N) == {K1}

    def test_other_names_unaffected(self, namer):
        namer.bind(Name("a"), K1)
        namer.bind(Name("b"), K2)
        namer.unbind(Name("a"), K1)
        assert namer.lookup(Name("b")) == {K2}


    def test_with_closes_the_namer(self, namer):
        with namer as entered:
            assert entered is namer and not namer.closed
            namer.bind(N, K1)
        assert namer.closed
        with pytest.raises(ValueError):
            namer.lookup(N)
        namer.close()  # a second close does nothing


class TestLogFormat:
    def test_golden_log_bytes(self, tmp_path):
        """Exact file bytes for one BIND and one UNBIND, built from the
        format description with the independent CRC implementation."""
        path = tmp_path / "golden.namer"
        sid = StoreID(bytes(range(16)))
        namer = LogNamer.open(path, namer_id=sid)
        namer.bind(N, K1)
        namer.unbind(N, K1)
        namer.close()

        expected = NAMER_MAGIC + b"\x01" + bytes(range(16))
        for seq, action in ((1, 0x01), (2, 0x02)):
            body = struct.pack(">Q", seq) + bytes([action])
            body += struct.pack(">I", 1) + b"n"
            body += struct.pack(">I", 1) + b"\x01"
            expected += body + struct.pack(">I", crc32_reference(body))
        assert path.read_bytes() == expected

    def test_duplicate_bind_appends_nothing(self, tmp_path):
        path = tmp_path / "n.namer"
        namer = LogNamer.open(path)
        namer.bind(N, K1)
        size = path.stat().st_size
        namer.bind(N, K1)
        assert path.stat().st_size == size
        assert namer.max_seq == 1
        namer.close()

    def test_reopen_replays_state(self, tmp_path):
        path = tmp_path / "n.namer"
        namer = LogNamer.open(path)
        namer.bind(Name("a"), K1)
        namer.bind(Name("b"), K2)
        namer.bind(Name("a"), K3)
        nid = namer.namer_id
        namer.close()
        namer = LogNamer.open(path)
        assert namer.namer_id == nid
        assert namer.lookup(Name("a")) == {K1, K3}
        assert namer.lookup(Name("b")) == {K2}
        namer.close()

    def test_torn_tail_recovery(self, tmp_path):
        path = tmp_path / "n.namer"
        namer = LogNamer.open(path)
        namer.bind(Name("a"), K1)
        size_after_first = path.stat().st_size
        namer.bind(Name("b"), K2)
        namer.close()
        data = path.read_bytes()
        path.write_bytes(data[: size_after_first + 5])
        namer = LogNamer.open(path)
        assert namer.lookup(Name("a")) == {K1}
        assert namer.lookup(Name("b")) == set()
        assert namer.max_seq == 1
        # the torn bytes are gone and appending resumes at the right seq
        assert path.stat().st_size == size_after_first
        namer.bind(Name("c"), K3)
        assert namer.max_seq == 2
        namer.close()

    def test_mid_file_corruption_detected(self, tmp_path):
        path = tmp_path / "n.namer"
        namer = LogNamer.open(path)
        namer.bind(Name("aaaa"), K1)
        namer.bind(Name("bbbb"), K2)
        namer.close()
        data = bytearray(path.read_bytes())
        data[NAMER_HEADER_LEN + 13] ^= 0xFF  # first record's name bytes
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            LogNamer.open(path)

    def test_sequence_gap_is_corruption(self, tmp_path):
        path = tmp_path / "n.namer"
        namer = LogNamer.open(path)
        namer.bind(N, K1)
        namer.close()
        body = struct.pack(">Q", 7) + bytes([ACTION_BIND])
        body += struct.pack(">I", 1) + b"m" + struct.pack(">I", 1) + b"\x02"
        with open(path, "ab") as fh:
            fh.write(body + struct.pack(">I", zlib.crc32(body)))
        with pytest.raises(CorruptionError):
            LogNamer.open(path)

    def test_invalid_unbind_in_replay_is_corruption(self, tmp_path):
        path = tmp_path / "n.namer"
        namer = LogNamer.open(path)
        namer.bind(N, K1)
        namer.close()
        body = struct.pack(">Q", 2) + bytes([ACTION_UNBIND])
        body += struct.pack(">I", 1) + b"n" + struct.pack(">I", 1) + b"\x02"
        with open(path, "ab") as fh:
            fh.write(body + struct.pack(">I", zlib.crc32(body)))
        with pytest.raises(CorruptionError):
            LogNamer.open(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "n.namer"
        LogNamer.open(path).close()
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(CorruptionError):
            LogNamer.open(path)


class TestHistory:
    def test_update_protocol_as_of(self, tmp_path):
        namer = LogNamer.open(tmp_path / "n.namer")
        namer.bind(N, K1)   # seq 1
        namer.unbind(N, K1)  # seq 2
        namer.bind(N, K2)   # seq 3
        assert namer.lookup_as_of(N, 0) == set()
        assert namer.lookup_as_of(N, 1) == {K1}
        assert namer.lookup_as_of(N, 2) == set()
        assert namer.lookup_as_of(N, 3) == {K2}
        assert namer.lookup_as_of(N, namer.max_seq) == namer.lookup(N)
        namer.close()

    def test_seq_out_of_range(self, tmp_path):
        namer = LogNamer.open(tmp_path / "n.namer")
        namer.bind(N, K1)
        for bad in (-1, 2, 100):
            with pytest.raises(SeqOutOfRangeError):
                namer.lookup_as_of(N, bad)
        namer.close()

    def test_history_changes_only_at_matching_seqs(self, tmp_path):
        namer = LogNamer.open(tmp_path / "n.namer")
        namer.bind(Name("a"), K1)
        namer.bind(Name("b"), K2)
        namer.unbind(Name("a"), K1)
        namer.bind(Name("a"), K3)
        records = namer.records()
        for i in range(1, namer.max_seq + 1):
            before = namer.lookup_as_of(Name("a"), i - 1)
            after = namer.lookup_as_of(Name("a"), i)
            if records[i - 1].name != Name("a"):
                assert before == after
        namer.close()


def test_random_ops_match_memory_oracle(tmp_path):
    rng = random.Random(20260813)
    log = LogNamer.open(tmp_path / "big.namer")
    oracle = MemoryNamer()
    names = [Name(f"name-{i}") for i in range(12)]
    keys = [Key(bytes([i + 1]) * 3) for i in range(8)]
    for _ in range(2000):
        name, key = rng.choice(names), rng.choice(keys)
        if rng.random() < 0.55:
            log.bind(name, key)
            oracle.bind(name, key)
        else:
            outcomes = []
            for target in (log, oracle):
                try:
                    target.unbind(name, key)
                    outcomes.append("ok")
                except NotBoundError:
                    outcomes.append("notbound")
            assert outcomes[0] == outcomes[1]
        probe = rng.choice(names)
        assert log.lookup(probe) == oracle.lookup(probe)
    # reopen and compare whole state once more
    log.close()
    log = LogNamer.open(tmp_path / "big.namer")
    for name in names:
        assert log.lookup(name) == oracle.lookup(name)
    log.close()


def test_root_namer_bootstrap(tmp_home):
    namer = get_root_namer()
    assert namer.path == tmp_home / "root.namer"
    assert get_root_namer() is namer
    namer.bind(N, K1)
    namer.close()
    # a closed cache entry is transparently reopened, state intact
    again = get_root_namer()
    assert again is not namer
    assert again.lookup(N) == {K1}


def test_open_namer_helper(tmp_path):
    namer = open_namer(tmp_path / "x.namer")
    assert isinstance(namer, LogNamer)
    namer.close()


def test_failed_bind_leaves_no_partial_record(tmp_path):
    path = tmp_path / "f.namer"
    namer = LogNamer.open(path)
    namer.bind(N, K1)
    namer._fh = HalfWriteFile(namer._fh)
    with pytest.raises(OSError) as info:
        namer.bind(N, K2)
    assert info.value.errno == errno.ENOSPC
    namer.bind(N, K3)
    assert namer.lookup(N) == {K1, K3}
    namer.close()
    reopened = LogNamer.open(path)
    assert reopened.lookup(N) == {K1, K3}
    assert [(r.seq, r.key) for r in reopened.records()] == [(1, K1), (2, K3)]
    reopened.close()


def test_failed_cut_refuses_later_binds(tmp_path, monkeypatch):
    path = tmp_path / "f.namer"
    namer = LogNamer.open(path)
    namer.bind(N, K1)
    namer._fh = HalfWriteFile(namer._fh)

    def failing_ftruncate(fd, length):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "ftruncate", failing_ftruncate)
    with pytest.raises(OSError):
        namer.bind(N, K2)
    monkeypatch.undo()
    with pytest.raises(CorruptionError):
        namer.bind(N, K3)
    assert namer.lookup(N) == {K1}
    namer.close()
    reopened = LogNamer.open(path)
    assert reopened.lookup(N) == {K1}
    assert reopened.max_seq == 1
    reopened.close()
