"""The keydir of an append log's hint, packed in buckets: a store opened
through it behaves as one opened by a full replay, under every policy;
a hint in the older one-dict layout is replayed past and rewritten; a
bucket that does not decode to its count raises when first touched."""
import hashlib
import logging
import marshal
import random
import re
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbase import stores
from xbase.core import CorruptionError, Key, XbaseError
from xbase.stores import KEYDIR_BUCKETS, AppendLogStore, ContentHashKeys, RandomKeys, SequenceKeys


def hint_of(path):
    return path.with_name(path.name + ".hint")


def read_hint(path):
    data = hint_of(path).read_bytes()
    return marshal.loads(data[1:-4])


def write_hint(path, fields):
    body = b"\x01" + marshal.dumps(fields)
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
    keydir = dict(sorted(keydir.items(), key=lambda item: item[1][0]))
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


@pytest.mark.parametrize("damage", ["count", "bytes"])
def test_bad_bucket_raises_on_first_touch(tmp_path, damage):
    """Under a valid sidecar CRC, a bucket whose count does not match its
    contents, or whose bytes do not decode, opens fine and raises
    CorruptionError naming the hint when a lookup or a full view first
    needs it, and on every later touch; other buckets still serve."""
    path = tmp_path / "s.store"
    keys = build(path)
    log_id, end, crc, (top, buckets) = read_hint(path)
    bad = keys[0]
    count, blob = buckets[bucket_of(bad)]
    buckets[bucket_of(bad)] = (count + 1, blob) if damage == "count" else (count, b"\xff")
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
