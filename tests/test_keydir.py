"""The keydir of an append log's hint, packed in buckets: a store opened
through it behaves as one opened by a full replay, under every policy;
a hint in the older one-dict layout, or with (offset, length) locators,
is replayed past and rewritten; a bucket that does not decode to its
count of int locators raises when first touched. A binding costs one
int locator, and a file-per-key binding none."""
import hashlib
import logging
import marshal
import random
import re
import tracemalloc
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbase import framedlog, stores
from xbase.core import CorruptionError, Key, XbaseError
from xbase.framedlog import pack
from xbase.stores import (
    KEYDIR_BUCKETS,
    AppendLogStore,
    ContentHashKeys,
    FilePerKeyStore,
    RandomKeys,
    SequenceKeys,
)


def hint_of(path):
    return path.with_name(path.name + ".hint")


def read_hint(path):
    data = hint_of(path).read_bytes()
    return marshal.loads(data[1:-4])


def write_hint(path, fields):
    body = bytes([framedlog.HINT_FORMAT]) + marshal.dumps(fields)
    hint_of(path).write_bytes(body + zlib.crc32(body).to_bytes(4, "big"))


def bucket_of(key: Key) -> int:
    return zlib.crc32(key.raw) & 255


VALUES = [b"", b"a", b"b", b"ab", b"abc", b"\x00", b"zz", b"v" * 10]
KEYS = ([Key(i.to_bytes(8, "big")) for i in range(1, 11)]
        + [Key(bytes([i])) for i in range(6)]
        + [Key(hashlib.sha256(v).digest()) for v in VALUES])
# a fresh policy for each open
POLICIES = {
    "random": RandomKeys,
    "sequence": SequenceKeys,
    "content-hash": ContentHashKeys,
}

_value = st.integers(0, len(VALUES) - 1)
_key = st.integers(0, len(KEYS) - 1)
_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), _value),
    st.tuples(st.just("put_with_key"), _value, _key),
    st.tuples(st.sampled_from(["get", "in"]), _key),
    st.tuples(st.just("get_issued"), st.integers(0, 1000)),
    st.tuples(st.sampled_from(["len", "keys", "bindings", "reopen"])),
), max_size=60)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=100, deadline=None)
@given(setup=st.lists(_value, max_size=40), ops=_ops)
def test_hinted_and_replayed_stores_agree(tmp_path_factory, policy, setup, ops):
    """A store that trusts its hint and one whose hint is deleted before
    every reopen see the same operations, with close and reopen at random
    points; results, errors, keys() order and the records written are
    equal. Right after a reopen every bucket of the hinted store is still
    packed."""
    work = tmp_path_factory.mktemp("keydir")
    paths = [work / "hinted.store", work / "replayed.store"]
    make = POLICIES[policy]
    rng = random.Random()
    issued: list[Key] = []  # every key a put returned
    step = 0

    def open_both():
        return [AppendLogStore.open(path, make()) for path in paths]

    def reopen():
        for store in subjects:
            store.close()
        assert paths[0].read_bytes()[22:] == paths[1].read_bytes()[22:]  # the same records
        hint_of(paths[1]).unlink()
        subjects[:] = open_both()
        hinted, replayed = subjects
        assert hinted._hint_end != 0 and replayed._hint_end == 0
        assert sorted(hinted._packed) == list(range(KEYDIR_BUCKETS))

    def apply(method, *args):
        nonlocal step
        step += 1
        outcomes = []
        for store in subjects:
            rng.seed(step)  # the same random draws for both
            try:
                result = method(store, *args)
            except XbaseError as exc:
                result = type(exc).__name__, str(exc)
            outcomes.append(result)
        assert outcomes[0] == outcomes[1], (method, args)
        return outcomes[0]

    def put(store, value):
        # random keys of one byte, which collide often
        with mock.patch.object(stores.secrets, "token_bytes", lambda n: rng.randbytes(1)):
            return store.put(value)

    def get_issued(store, i):
        return store.get(issued[i % len(issued)]) if issued else None

    calls = {
        "put_with_key": lambda store, v, k: store.put_with_key(VALUES[v], KEYS[k]),
        "get": lambda store, k: store.get(KEYS[k]),
        "in": lambda store, k: KEYS[k] in store,
        "get_issued": get_issued,
        "len": len,
        "keys": lambda store: store.keys(),
        "bindings": lambda store: list(store.bindings()),
    }
    subjects = open_both()
    try:
        for v in setup:
            issued.append(apply(put, VALUES[v]))
        reopen()
        for op, *args in ops:
            if op == "reopen":
                reopen()
            elif op == "put":
                key = apply(put, VALUES[args[0]])
                if isinstance(key, Key):
                    issued.append(key)
            else:
                apply(calls[op], *args)
        apply(calls["bindings"])
    finally:
        for store in subjects:
            store.close()


def build(path, n=300):
    with AppendLogStore.open(path, policy="sequence") as store:
        return [store.put(b"value %d" % i) for i in range(n)]


def test_old_layout_hint_is_replayed_past_and_rewritten(tmp_path, caplog):
    """A hint whose keydir is one dict (the layout before the buckets)
    fails the shape check: the open replays the whole log, and its close
    writes the bucketed layout, which the next open trusts."""
    caplog.set_level(logging.INFO, logger="xbase.framedlog")
    path = tmp_path / "s.store"
    keys = build(path)
    log_id, end, crc, (top, buckets) = read_hint(path)
    keydir = {}
    for _, blob in buckets:
        keydir.update(marshal.loads(blob))
    keydir = dict(sorted(keydir.items(), key=lambda item: item[1]))
    write_hint(path, (log_id, end, crc, (top, keydir)))
    before = hint_of(path).stat().st_ino
    with AppendLogStore.open(path) as store:
        assert store._hint_end == 0
        assert store.keys() == keys
    assert f"{path}: hint not used (format); replaying the whole log" in caplog.messages
    assert hint_of(path).stat().st_ino != before
    assert type(read_hint(path)[3][1]) is list
    with AppendLogStore.open(path) as store:
        assert store._hint_end != 0
        assert [store.get(k) for k in keys] == [b"value %d" % i for i in range(len(keys))]


def test_hint_of_tuple_locators_is_replayed_past_and_rewritten(tmp_path, caplog):
    """A hint in the format before int locators (format byte 0x01, each
    locator an (offset, length) tuple) is not trusted: the open logs
    "(format)" and replays the whole log, every value reads back, and the
    close rewrites the hint with the current format byte and int locators."""
    caplog.set_level(logging.INFO, logger="xbase.framedlog")
    path = tmp_path / "s.store"
    keys = build(path)
    log_id, end, crc, (top, buckets) = read_hint(path)
    old = [pack({key: (locator >> 32, locator & 0xFFFFFFFF)
                 for key, locator in marshal.loads(blob).items()}) for _, blob in buckets]
    body = b"\x01" + marshal.dumps((log_id, end, crc, (top, old)))
    hint_of(path).write_bytes(body + zlib.crc32(body).to_bytes(4, "big"))
    before = hint_of(path).stat().st_ino
    with AppendLogStore.open(path) as store:
        assert store._hint_end == 0
        assert [store.get(k) for k in keys] == [b"value %d" % i for i in range(len(keys))]
    assert f"{path}: hint not used (format); replaying the whole log" in caplog.messages
    assert hint_of(path).stat().st_ino != before
    assert hint_of(path).read_bytes()[0] == framedlog.HINT_FORMAT
    _, _, _, (_, buckets) = read_hint(path)
    assert all(type(locator) is int
               for _, blob in buckets for locator in marshal.loads(blob).values())
    caplog.clear()
    with AppendLogStore.open(path) as store:
        assert store._hint_end != 0
        assert store.keys() == keys
    assert caplog.messages == []


def test_locators_are_ints(tmp_path):
    """Each locator is the one int offset << 32 | length: after a put, after
    a replay without a hint, and after a hint bucket is merged."""
    path = tmp_path / "s.store"
    keys = build(path, 20)
    record = 4 + 8 + 4 + len(b"value 0") + 4

    def check(store):
        for i, key in enumerate(keys[:10]):
            locator = store._locate(key.raw)
            assert type(locator) is int
            assert locator == (stores.HEADER_LEN + i * record + 4 + 8 + 4) << 32 | len(b"value 0")
            assert store.get(key) == b"value %d" % i

    with AppendLogStore.open(path) as store:  # through the hint
        assert store._hint_end != 0
        check(store)
        assert all(type(locator) is int for locator in store._entries().values())
        store.put(b"one more")
        assert all(type(locator) is int for locator in store._index.values())
    hint_of(path).unlink()
    with AppendLogStore.open(path) as store:  # a replay
        assert store._hint_end == 0
        check(store)
        assert all(type(locator) is int for locator in store._index.values())


# bytes per binding that tracemalloc counts; the put bound lies between
# the figures for (offset, length) tuple and int locators (about 181 B and
# 127 B on CPython 3.11); a file-per-key store holds no index, so an open
# leaves well under a byte per value file (95 B when it held True per key)
PUT_BYTES_BOUND = 155
FILE_PER_KEY_BYTES_BOUND = 16
MEMORY_KEYS = 20_000


def _traced(action):
    """(bytes per binding of MEMORY_KEYS that action() leaves allocated,
    what it returns)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = action()
        return (tracemalloc.get_traced_memory()[0] - before) / MEMORY_KEYS, result
    finally:
        tracemalloc.stop()


def test_keydir_grown_by_puts_holds_one_int_per_binding(tmp_path):
    values = [b"value %d" % i for i in range(MEMORY_KEYS)]

    def put_all():
        for value in values:
            store.put(value)

    with AppendLogStore.open(tmp_path / "s.store", policy="content-hash") as store:
        per_binding, _ = _traced(put_all)
        assert len(store) == MEMORY_KEYS
    assert per_binding < PUT_BYTES_BOUND


def test_file_per_key_index_holds_no_path(tmp_path):
    directory = tmp_path / "f"
    FilePerKeyStore.open(directory, policy="content-hash").close()
    for i in range(MEMORY_KEYS):  # the value files a put writes, written directly
        value = b"value %d" % i
        (directory / f"{hashlib.sha256(value).hexdigest()}.bin").write_bytes(value)
    per_binding, store = _traced(lambda: FilePerKeyStore.open(directory))
    with store:
        assert len(store) == MEMORY_KEYS
        assert store.get(Key(hashlib.sha256(b"value 7").digest())) == b"value 7"
    assert per_binding < FILE_PER_KEY_BYTES_BOUND


@pytest.mark.parametrize("damage", ["count", "bytes", "locator", "negative", "past-end"])
def test_bad_bucket_raises_on_first_touch(tmp_path, damage):
    """Under a valid sidecar CRC, a bucket whose count does not match its
    contents, whose bytes do not decode, or which holds a locator that is
    not an int, is negative, or whose value ends past the end the hint
    covers, opens fine and raises CorruptionError naming the hint when a
    lookup or a full view first needs it, and on every later touch; other
    buckets still serve."""
    path = tmp_path / "s.store"
    keys = build(path)
    log_id, end, crc, (top, buckets) = read_hint(path)
    bad = keys[0]
    count, blob = buckets[bucket_of(bad)]
    if damage == "count":
        buckets[bucket_of(bad)] = (count + 1, blob)
    elif damage == "bytes":
        buckets[bucket_of(bad)] = (count, b"\xff")
    else:
        entries = marshal.loads(blob)
        locator = entries[bad.raw]
        entries[bad.raw] = {
            # the (offset, length) tuple of the format before int locators
            "locator": (locator >> 32, locator & 0xFFFFFFFF),
            "negative": -1,
            "past-end": (end - 1) << 32 | 2,
        }[damage]
        buckets[bucket_of(bad)] = pack(entries)
    write_hint(path, (log_id, end, crc, (top, buckets)))
    good = next(k for k in keys if bucket_of(k) != bucket_of(bad))
    message = f"{hint_of(path)}: keydir bucket {bucket_of(bad)} does not decode"
    with AppendLogStore.open(path) as store:
        assert store._hint_end != 0
        for touch in (lambda: store.get(bad), lambda: bad in store,
                      lambda: store.put_with_key(b"value 0", bad), store.keys, lambda: len(store)):
            with pytest.raises(CorruptionError, match=re.escape(message)):
                touch()
        assert store.get(good) == b"value %d" % keys.index(good)
