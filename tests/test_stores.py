"""Local store layouts and key policies, including the on-disk formats."""
import errno
import hashlib
import os
import struct
import tempfile
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriteFile, check_batches_match_loops, crc32_reference
from xbase.core import (
    CorruptionError,
    Key,
    KeyConflictError,
    KeyGenerationError,
    KeyMismatchError,
    PolicyMismatchError,
    Store,
    StoreID,
    UnknownKeyError,
)
from xbase.stores import (
    AppendLogStore,
    ContentHashKeys,
    FilePerKeyStore,
    HEADER_LEN,
    LOG_MAGIC,
    MemoryStore,
    META_FILENAME,
    POLICY_TAG_CONTENT_HASH,
    POLICY_TAG_RANDOM,
    POLICY_TAG_SEQUENCE,
    RandomKeys,
    SequenceKeys,
    open_store,
)
import xbase.stores as stores_module

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def make_store(kind: str, tmp_path, policy, name="s"):
    if kind == "memory":
        return MemoryStore(policy=policy)
    if kind == "append-log":
        return AppendLogStore.open(tmp_path / f"{name}.store", policy=policy)
    return FilePerKeyStore.open(tmp_path / f"{name}.dir", policy=policy)


def reopen(store):
    path = store.path
    store.close()
    if isinstance(store, AppendLogStore):
        return AppendLogStore.open(path)
    return FilePerKeyStore.open(path)


LAYOUTS = ("memory", "append-log", "file-per-key")
POLICIES = ("random", "sequence", "content-hash")


def test_crc_reference_matches_check_value_and_zlib():
    # classic check value for this CRC-32 parameterization
    assert crc32_reference(b"123456789") == 0xCBF43926
    for sample in (b"", b"\x00", b"abc", bytes(range(256))):
        assert crc32_reference(sample) == zlib.crc32(sample)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_round_trip_all_layouts_and_policies(layout, policy, tmp_path):
    with make_store(layout, tmp_path, policy) as store:
        values = [b"", b"\x00", b"hello", bytes(range(256)) * 3]
        keys = [store.put(v) for v in values]
        for key, value in zip(keys, values):
            assert store.get(key) == value


@pytest.mark.parametrize("layout", LAYOUTS)
def test_with_closes_the_store(layout, tmp_path):
    with make_store(layout, tmp_path, "sequence") as store:
        key = store.put(b"v")
        assert not store.closed
    assert store.closed
    with pytest.raises(ValueError):
        store.get(key)
    store.close()  # a second close does nothing


def test_golden_append_log_bytes(tmp_path):
    """The exact on-disk bytes of a small log, built from the format
    description with an independent CRC implementation."""
    sid = StoreID(bytes(range(16)))
    path = tmp_path / "golden.store"
    store = AppendLogStore.open(path, policy="sequence", store_id=sid)
    store.put(b"hi")
    store.put(b"")
    store.close()

    key1 = (1).to_bytes(8, "big")
    key2 = (2).to_bytes(8, "big")
    expected = b"XLG1" + b"\x01" + bytes(range(16)) + b"\x02"
    for key, value in ((key1, b"hi"), (key2, b"")):
        expected += struct.pack(">I", len(key)) + key
        expected += struct.pack(">I", len(value)) + value
        expected += struct.pack(">I", crc32_reference(key + value))
    assert path.read_bytes() == expected


def test_header_constants():
    assert LOG_MAGIC == b"XLG1"
    assert HEADER_LEN == 22
    assert (POLICY_TAG_RANDOM, POLICY_TAG_SEQUENCE, POLICY_TAG_CONTENT_HASH) == (1, 2, 3)


class TestSequencePolicy:
    def test_first_key_is_one(self, tmp_path):
        with make_store("append-log", tmp_path, "sequence") as store:
            assert store.put(b"\xde\xad\xbe\xef").hex == "0000000000000001"

    def test_keys_strictly_increase(self):
        store = MemoryStore(policy="sequence")
        issued = [int.from_bytes(store.put(os.urandom(4)).raw, "big") for _ in range(50)]
        assert issued == sorted(issued)
        assert len(set(issued)) == 50

    def test_counter_resumes_after_reopen(self, tmp_path):
        store = make_store("append-log", tmp_path, "sequence")
        store.put(b"a")
        store.put(b"b")
        store = reopen(store)
        assert store.put(b"c").hex == "0000000000000003"
        store.close()

    def test_counter_skips_keys_planted_by_put_with_key(self, tmp_path):
        store = make_store("append-log", tmp_path, "sequence")
        store.put_with_key(b"planted", Key((7).to_bytes(8, "big")))
        store = reopen(store)
        # resumes past the largest 8-byte key, so issued keys never repeat
        assert store.put(b"x").hex == "0000000000000008"
        store.close()

    def test_put_skips_occupied_slot_without_reopen(self):
        store = MemoryStore(policy="sequence")
        store.put_with_key(b"planted", Key((1).to_bytes(8, "big")))
        key = store.put(b"x")
        assert key.hex == "0000000000000002"
        assert store.get(Key((1).to_bytes(8, "big"))) == b"planted"


class TestContentHashPolicy:
    def test_empty_value_matches_published_vector(self):
        store = MemoryStore(policy="content-hash")
        assert store.put(b"").hex == SHA256_EMPTY

    def test_two_stores_agree(self, tmp_path):
        with make_store("append-log", tmp_path, "content-hash", "a") as a, \
                make_store("file-per-key", tmp_path, "content-hash", "b") as b:
            for value in (b"", b"x", os.urandom(100)):
                assert a.put(value) == b.put(value)

    def test_dedup_appends_nothing(self, tmp_path):
        with make_store("append-log", tmp_path, "content-hash") as store:
            key1 = store.put(b"same")
            size = store.path.stat().st_size
            key2 = store.put(b"same")
            assert key1 == key2
            assert store.path.stat().st_size == size
            assert len(store) == 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_re_put_reads_nothing(self, layout, tmp_path, monkeypatch):
        """The key of a value already present is its digest, so a re-put
        returns it without reading the bound value back."""
        with make_store(layout, tmp_path, "content-hash") as store:
            key = store.put(b"once")
            reads = []
            monkeypatch.setattr(store, "_read", lambda *args: reads.append(args))
            assert store.put(b"once") == key
            assert reads == []

    def test_put_with_key_requires_digest(self):
        store = MemoryStore(policy="content-hash")
        good = hashlib.sha256(b"v").digest()
        store.put_with_key(b"v", Key(good))
        wrong = bytes(32)
        assert wrong != good
        with pytest.raises(KeyMismatchError):
            store.put_with_key(b"v", Key(wrong))

    def test_shared_key_retrievable_from_second_store(self):
        a = MemoryStore(policy="content-hash")
        b = MemoryStore(policy="content-hash")
        key = a.put(b"shared")
        with pytest.raises(UnknownKeyError):
            b.get(key)
        assert b.put(b"shared") == key
        assert b.get(key) == b"shared"


class TestRandomPolicy:
    def test_key_length_default(self):
        store = MemoryStore(policy="random")
        assert len(store.put(b"v").raw) == 16

    def test_retry_on_collision_with_different_value(self, monkeypatch):
        store = MemoryStore(policy="random")
        first = store.put(b"one")
        draws = [first.raw, b"\xaa" * 16]

        def fake_token_bytes(n):
            return draws.pop(0)

        monkeypatch.setattr(stores_module.secrets, "token_bytes", fake_token_bytes)
        key = store.put(b"two")
        assert key.raw == b"\xaa" * 16
        assert store.get(first) == b"one"

    def test_collision_with_identical_value_reuses_key(self, monkeypatch):
        store = MemoryStore(policy="random")
        first = store.put(b"same")
        monkeypatch.setattr(
            stores_module.secrets, "token_bytes", lambda n: first.raw
        )
        assert store.put(b"same") == first
        assert len(store) == 1

    def test_exhaustion_after_eight_retries(self, monkeypatch):
        store = MemoryStore(policy="random")
        first = store.put(b"one")
        calls = []

        def always_collide(n):
            calls.append(n)
            return first.raw

        monkeypatch.setattr(stores_module.secrets, "token_bytes", always_collide)
        with pytest.raises(KeyGenerationError):
            store.put(b"different")
        assert len(calls) == 8

    def test_keys_are_16_bytes_before_and_after_a_reopen(self, tmp_path):
        """The length is not a setting, so a reopen cannot lose it."""
        with pytest.raises(TypeError):
            RandomKeys(key_len=4)
        path = tmp_path / "r.store"
        with AppendLogStore.open(path, policy=RandomKeys()) as store:
            first = store.put(b"v")
        with AppendLogStore.open(path) as store:
            assert store.get(first) == b"v"
            assert [len(key.raw) for key in (first, store.put(b"w"))] == [16, 16]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("policy", ("sequence", "content-hash"))
def test_batches_match_loops(layout, policy, tmp_path):
    with make_store(layout, tmp_path, policy, "batched") as batched, \
            make_store(layout, tmp_path, policy, "looped") as looped:
        check_batches_match_loops(batched, looped)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_get_unknown_key_fails(layout, tmp_path):
    with make_store(layout, tmp_path, "random") as store:
        with pytest.raises(UnknownKeyError):
            store.get(Key(b"\x01" * 16))


def test_monotonicity_under_many_puts():
    store = MemoryStore(policy="sequence")
    key = store.put(b"first")
    for i in range(1000):
        store.put(i.to_bytes(4, "big"))
    assert store.get(key) == b"first"


@pytest.mark.parametrize("layout", LAYOUTS)
def test_put_with_key_semantics(layout, tmp_path):
    with make_store(layout, tmp_path, "random") as store:
        for key_len in (3, 118, 119, 125, 126, 1024):
            key = Key(bytes([key_len % 256]) * key_len)
            if layout == "file-per-key" and key_len > 125:
                # the file name, 2 * key_len + 4 bytes, would pass the 255 a name may hold
                with pytest.raises(KeyMismatchError, match="too long for a file name"):
                    store.put_with_key(b"v1", key)
                assert key not in store
                continue
            store.put_with_key(b"v1", key)
            assert store.get(key) == b"v1"
            store.put_with_key(b"v1", key)  # identical binding: no-op
            with pytest.raises(KeyConflictError):
                store.put_with_key(b"v2", key)
            assert store.get(key) == b"v1"
        if layout == "file-per-key":
            assert not list(store.path.glob("*.tmp"))


@pytest.mark.parametrize("layout", ("memory", "append-log"))
@pytest.mark.parametrize("policy", POLICIES)
def test_engine_calls_of_puts_on_an_index_in_memory(layout, policy, tmp_path, monkeypatch):
    """With the index in memory, a put looks its key up once after mint
    (which looks it up too, unless the key is the value's digest) and
    writes once; a re-put under content-hash only looks up; a put_with_key
    looks up, then writes or reads the bound value back."""
    with make_store(layout, tmp_path, policy) as store:
        calls = []
        for name in ("_locate", "_read", "_write"):
            def record(*args, name=name, method=getattr(store, name)):
                calls.append(name)
                return method(*args)
            monkeypatch.setattr(store, name, record)

        def calls_of(action):
            calls.clear()
            action()
            return [name.strip("_") for name in calls]

        minted = ["locate"] if policy == "content-hash" else ["locate", "locate"]
        assert calls_of(lambda: store.put(b"new")) == minted + ["write"]
        if policy == "content-hash":
            assert calls_of(lambda: store.put(b"new")) == ["locate"]
        key = Key(hashlib.sha256(b"v").digest())
        assert calls_of(lambda: store.put_with_key(b"v", key)) == ["locate", "write"]
        assert calls_of(lambda: store.put_with_key(b"v", key)) == ["locate", "read"]
        if policy != "content-hash":
            calls.clear()
            with pytest.raises(KeyConflictError):
                store.put_with_key(b"w", key)
            assert [name.strip("_") for name in calls] == ["locate", "read"]


@pytest.mark.parametrize("layout", ("append-log", "file-per-key"))
def test_store_id_survives_reopen(layout, tmp_path):
    store = make_store(layout, tmp_path, "random")
    sid = store.get_store_id()
    assert len(sid.raw) == 16
    store = reopen(store)
    assert store.get_store_id() == sid
    store.close()


def test_fresh_store_ids_differ():
    assert MemoryStore().get_store_id() != MemoryStore().get_store_id()


def test_persistence_across_reopen(tmp_path):
    store = make_store("append-log", tmp_path, "sequence")
    keys = [store.put(v) for v in (b"a", b"b", b"c")]
    store = reopen(store)
    assert [store.get(k) for k in keys] == [b"a", b"b", b"c"]
    store.close()


class TestTornTail:
    def build(self, tmp_path, n=5):
        path = tmp_path / "log.store"
        store = AppendLogStore.open(path, policy="sequence")
        ends = []
        entries = []
        for i in range(n):
            value = bytes([i]) * (i * 3 + 1)
            key = store.put(value)
            entries.append((key, value))
            store._fh.flush()
            ends.append(path.stat().st_size)
        store.close()
        return path, ends, entries

    def test_truncation_keeps_committed_prefix(self, tmp_path):
        path, ends, entries = self.build(tmp_path)
        full = path.read_bytes()
        # cut in the middle of the last record
        path.write_bytes(full[: ends[-2] + 3])
        store = AppendLogStore.open(path)
        assert len(store) == len(entries) - 1
        for key, value in entries[:-1]:
            assert store.get(key) == value
        # recovery physically drops the torn bytes and appending continues
        assert path.stat().st_size == ends[-2]
        key = store.put(b"after recovery")
        assert store.get(key) == b"after recovery"
        store.close()

    def test_tail_crc_mismatch_is_torn_not_corrupt(self, tmp_path):
        path, ends, entries = self.build(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last CRC byte
        path.write_bytes(bytes(data))
        store = AppendLogStore.open(path)
        assert len(store) == len(entries) - 1
        store.close()

    def test_mid_file_corruption_is_detected(self, tmp_path):
        path, ends, entries = self.build(tmp_path)
        data = bytearray(path.read_bytes())
        data[ends[0] - 5] ^= 0xFF  # record 0's value byte, nowhere near the tail
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            AppendLogStore.open(path)

    def test_mid_file_crc_field_corruption_is_detected(self, tmp_path):
        path, ends, entries = self.build(tmp_path)
        data = bytearray(path.read_bytes())
        data[ends[1] - 1] ^= 0xFF  # record 1's stored CRC
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            AppendLogStore.open(path)

    def test_invalid_key_length_field_is_corruption(self, tmp_path):
        path, ends, entries = self.build(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into(">I", data, HEADER_LEN, 5000)  # > max key length
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            AppendLogStore.open(path)

    def test_bad_magic_and_version(self, tmp_path):
        path, _, _ = self.build(tmp_path, n=1)
        data = bytearray(path.read_bytes())
        bad_version = bytes(data[:4]) + b"\x09" + bytes(data[5:])
        path.write_bytes(b"YYYY" + bytes(data[4:]))
        with pytest.raises(CorruptionError):
            AppendLogStore.open(path)
        path.write_bytes(bad_version)
        with pytest.raises(CorruptionError):
            AppendLogStore.open(path)

    def test_policy_mismatch_on_open(self, tmp_path):
        path, _, _ = self.build(tmp_path, n=1)  # header says sequence
        with pytest.raises(PolicyMismatchError):
            AppendLogStore.open(path, policy="content-hash")

    def test_duplicate_key_with_different_value_in_log(self, tmp_path):
        path, _, _ = self.build(tmp_path, n=1)
        key = (1).to_bytes(8, "big")
        record = struct.pack(">I", 8) + key + struct.pack(">I", 3) + b"zzz"
        record += struct.pack(">I", zlib.crc32(key + b"zzz"))
        with open(path, "ab") as fh:
            fh.write(record)
        with pytest.raises(CorruptionError):
            AppendLogStore.open(path)


class TestFailedAppend:
    def test_failed_put_leaves_no_partial_record(self, tmp_path):
        path = tmp_path / "f.store"
        store = AppendLogStore.open(path, policy="sequence")
        kept = store.put(b"kept")
        store._fh = HalfWriteFile(store._fh)
        with pytest.raises(OSError) as info:
            store.put(b"F" * 100)
        assert info.value.errno == errno.ENOSPC
        good = store.put(b"good-value")
        assert store.get(good) == b"good-value"
        store = reopen(store)
        assert dict(store.bindings()) == {kept: b"kept", good: b"good-value"}
        store.close()

    def test_failed_cut_refuses_later_puts(self, tmp_path, monkeypatch):
        path = tmp_path / "f.store"
        store = AppendLogStore.open(path, policy="sequence")
        kept = store.put(b"kept")
        end = path.stat().st_size
        store._fh = HalfWriteFile(store._fh)

        def failing_ftruncate(fd, length):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "ftruncate", failing_ftruncate)
        with pytest.raises(OSError):
            store.put(b"F" * 100)
        monkeypatch.undo()
        with pytest.raises(CorruptionError):
            store.put(b"next")
        assert store.get(kept) == b"kept"
        store = reopen(store)
        assert dict(store.bindings()) == {kept: b"kept"}
        assert path.stat().st_size == end
        store.close()


class TestFilePerKey:
    def test_layout_on_disk(self, tmp_path):
        store = FilePerKeyStore.open(tmp_path / "d", policy="sequence")
        key = store.put(b"payload")
        meta = (tmp_path / "d" / META_FILENAME).read_bytes()
        assert meta[:4] == LOG_MAGIC and meta[4] == 1 and meta[21] == POLICY_TAG_SEQUENCE
        value_file = tmp_path / "d" / f"{key.hex}.bin"
        assert value_file.read_bytes() == b"payload"
        # writes go through a temp name; nothing half-written is left over
        assert not list((tmp_path / "d").glob("*.tmp"))
        store.close()

    def test_reopen_reads_existing_files(self, tmp_path):
        store = FilePerKeyStore.open(tmp_path / "d", policy="random")
        pairs = [(store.put(os.urandom(9)), i) for i in range(5)]
        store = reopen(store)
        assert len(store) == 5
        for key, _ in pairs:
            store.get(key)
        store.close()

    def test_foreign_file_is_corruption(self, tmp_path):
        store = FilePerKeyStore.open(tmp_path / "d", policy="random")
        store.close()
        # a name that is not a key's canonical hex would list a key that
        # no lookup finds
        for name, message in (("notes.txt", "unexpected file"), ("AA.bin", "not a hex key"),
                              ("aa bb.bin", "not a hex key"), ("xy.bin", "not a hex key")):
            (tmp_path / "d" / name).write_text("hello")
            with pytest.raises(CorruptionError, match=message):
                FilePerKeyStore.open(tmp_path / "d")
            (tmp_path / "d" / name).unlink()

    def test_empty_dir_initializes_fresh(self, tmp_path):
        (tmp_path / "d").mkdir()
        store = FilePerKeyStore.open(tmp_path / "d")
        assert (tmp_path / "d" / META_FILENAME).exists()
        store.close()

    def test_populated_dir_without_meta_is_corruption(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "aa.bin").write_bytes(b"v")
        with pytest.raises(CorruptionError):
            FilePerKeyStore.open(tmp_path / "d")


def test_open_store_sniffs_layout(tmp_path):
    log = AppendLogStore.open(tmp_path / "a.store", policy="sequence")
    key_a = log.put(b"a")
    log.close()
    fpk = FilePerKeyStore.open(tmp_path / "b", policy="sequence")
    key_b = fpk.put(b"b")
    fpk.close()

    opened = open_store(tmp_path / "a.store")
    assert isinstance(opened, AppendLogStore) and opened.get(key_a) == b"a"
    opened.close()
    opened = open_store(tmp_path / "b")
    assert isinstance(opened, FilePerKeyStore) and opened.get(key_b) == b"b"
    opened.close()
    # fresh paths default to the append-log layout
    fresh = open_store(tmp_path / "new.store", policy="sequence")
    assert isinstance(fresh, AppendLogStore)
    fresh.close()
    fresh = open_store(tmp_path / "newdir", layout="file-per-key")
    assert isinstance(fresh, FilePerKeyStore)
    fresh.close()


def test_closed_store_rejects_operations(tmp_path):
    store = AppendLogStore.open(tmp_path / "c.store")
    key = store.put(b"v")
    store.close()
    with pytest.raises(ValueError):
        store.put(b"w")
    with pytest.raises(ValueError):
        store.get(key)


def test_concurrent_puts_are_linearizable(tmp_path):
    store = AppendLogStore.open(tmp_path / "conc.store", policy="sequence")
    results = [None] * 8
    errors = []

    def worker(i):
        try:
            mine = [(store.put(bytes([i]) * (j + 1)), bytes([i]) * (j + 1)) for j in range(100)]
            results[i] = mine
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    all_keys = [k.raw for r in results for k, _ in r]
    assert len(set(all_keys)) == 800
    for r in results:
        for key, value in r:
            assert store.get(key) == value
    store = reopen(store)
    assert len(store) == 800
    store.close()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=2048))
def test_memory_round_trip_property(value):
    store = MemoryStore()
    assert store.get(store.put(value)) == value


class TestRuleErrors:
    """The type and exact message of each key-policy and layout error."""

    def test_sequence_exhaustion(self):
        store = MemoryStore(policy=SequenceKeys(next_seq=2**64 - 1))
        assert store.put(b"last").raw == b"\xff" * 8
        with pytest.raises(KeyGenerationError) as exc:
            store.put(b"one too many")
        assert str(exc.value) == "sequence key space exhausted"

    def test_random_retries_exhausted(self, monkeypatch):
        store = MemoryStore(policy="random")
        first = store.put(b"one")
        monkeypatch.setattr(stores_module.secrets, "token_bytes", lambda n: first.raw)
        with pytest.raises(KeyGenerationError) as exc:
            store.put(b"two")
        assert str(exc.value) == "no unused random key after 8 attempts"

    def test_key_mismatch(self):
        store = MemoryStore(policy="content-hash")
        with pytest.raises(KeyMismatchError) as exc:
            store.put_with_key(b"", Key(b"\x01" * 32))
        assert str(exc.value) == f"key {'01' * 32} is not the content digest {SHA256_EMPTY}"

    def test_policy_mismatch_in_a_log(self, tmp_path):
        path = tmp_path / "p.store"
        AppendLogStore.open(path, policy="sequence").close()
        with pytest.raises(PolicyMismatchError) as exc:
            AppendLogStore.open(path, policy="content-hash")
        assert str(exc.value) == (
            f"{path}: header records 'sequence' but 'content-hash' was requested")

    def test_policy_mismatch_in_a_directory(self, tmp_path):
        directory = tmp_path / "p.dir"
        FilePerKeyStore.open(directory, policy="random").close()
        with pytest.raises(PolicyMismatchError) as exc:
            FilePerKeyStore.open(directory, policy=SequenceKeys())
        assert str(exc.value) == (
            f"{directory}: header records 'random' but 'sequence' was requested")

    def test_unknown_policy_tag_in_a_log_header(self, tmp_path):
        path = tmp_path / "t.store"
        AppendLogStore.open(path, policy="sequence").close()
        (tmp_path / "t.store.hint").unlink(missing_ok=True)
        data = bytearray(path.read_bytes())
        data[HEADER_LEN - 1] = 0x07
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError) as exc:
            AppendLogStore.open(path)
        assert str(exc.value) == f"{path}: unknown policy tag 0x07"

    def test_unknown_policy_tag_in_store_meta(self, tmp_path):
        directory = tmp_path / "t.dir"
        FilePerKeyStore.open(directory, policy="sequence").close()
        meta = directory / META_FILENAME
        data = bytearray(meta.read_bytes())
        data[HEADER_LEN - 1] = 0x07
        meta.write_bytes(bytes(data))
        with pytest.raises(CorruptionError) as exc:
            FilePerKeyStore.open(directory, policy="sequence")
        assert str(exc.value) == f"{meta}: unknown policy tag 0x07"

    def test_unknown_layout(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            open_store(tmp_path / "x", layout="btree")
        assert str(exc.value) == (
            "unknown layout 'btree'; expected 'append-log' or 'file-per-key'")
        assert not (tmp_path / "x").exists()

    def test_make_policy_unknown_kind(self):
        with pytest.raises(ValueError) as exc:
            stores_module.make_policy("fancy")
        assert str(exc.value) == (
            "unknown key policy 'fancy'; expected one of "
            "['content-hash', 'random', 'sequence']")

    def test_make_policy_non_policy(self):
        with pytest.raises(TypeError) as exc:
            stores_module.make_policy(3)
        assert str(exc.value) == "policy must be KeyPolicy or str, got int"

    @pytest.mark.parametrize("next_seq", (0, -1, 2**64 + 1))
    def test_sequence_next_seq_out_of_range(self, next_seq):
        with pytest.raises(ValueError) as exc:
            SequenceKeys(next_seq=next_seq)
        assert str(exc.value) == "next_seq must be an unsigned 64-bit value >= 1"


@pytest.mark.parametrize("layout", LAYOUTS)
def test_contains(layout, tmp_path):
    store = make_store(layout, tmp_path, "sequence")
    key = store.put(b"v")
    assert key in store
    assert Key(b"\x00" * 8) not in store
    with pytest.raises(TypeError):
        b"\x00" * 8 in store
    store.close()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_get_many_matches_the_get_loop(data):
    """LocalStore.get_many against core.Store's loop over get: the same
    values in the same order, or the same error, for bound and unbound
    keys, duplicates, objects that are not keys, a store reopened through
    its hint and a closed store."""
    layout = data.draw(st.sampled_from(LAYOUTS))
    with tempfile.TemporaryDirectory() as tmp:
        store = make_store(layout, Path(tmp), "sequence")
        try:
            bound = store.put_many([b"v%d" % i for i in range(data.draw(st.integers(0, 5)))])
            if layout != "memory" and data.draw(st.booleans()):
                store = reopen(store)
            if data.draw(st.booleans()):
                store.close()
            keys = data.draw(st.lists(st.one_of(
                st.sampled_from(bound) if bound else st.nothing(),
                st.binary(min_size=1, max_size=8).map(Key),
                st.sampled_from(["k", None, b"\x00" * 8])), max_size=12))

            def outcome(get_many):
                try:
                    return "ok", list(get_many(keys).items())
                except Exception as exc:
                    return type(exc), str(exc)

            assert outcome(store.get_many) == outcome(lambda ks: Store.get_many(store, ks))
        finally:
            store.close()


def test_get_many_raises_nothing_for_unbound_keys(monkeypatch):
    raised = []

    class Counted(UnknownKeyError):
        def __init__(self, *args):
            raised.append(args)
            super().__init__(*args)

    monkeypatch.setattr(stores_module, "UnknownKeyError", Counted)
    store = MemoryStore(policy="sequence")
    key = store.put(b"v")
    unbound = [Key(b"\x09" * 8), Key(b"\x0a")]
    assert store.get_many([unbound[0], key, *unbound]) == {key: b"v"}
    assert raised == []
    with pytest.raises(UnknownKeyError):
        store.get(unbound[0])
    assert len(raised) == 1  # get's error is the one counted
