"""Several handles on one FilePerKeyStore directory, in one process or in
many: the directory is the only index and a value file is bound by link,
so the first writer of a key wins and every key serves the bytes it was
handed out for."""
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

import xbase
from xbase.core import CorruptionError, Key, KeyConflictError, UnknownKeyError
from xbase.stores import META_FILENAME, FilePerKeyStore

# A child process opens the directory (unless it creates stores), says
# "ready", waits for a line on stdin, then acts and prints its results as
# JSON, so that every child has opened before any writes.
CHILD = r"""
import json, struct, sys
from xbase.core import Key, KeyConflictError
from xbase.stores import FilePerKeyStore

action, tag, *paths = sys.argv[1:]
store = None if action == "create" else FilePerKeyStore.open(paths[0])
print("ready", flush=True)
sys.stdin.readline()
if action == "create":
    out = []
    for path in paths:
        with FilePerKeyStore.open(path, policy="sequence") as created:
            out.append(created.get_store_id().hex)
elif action == "put":
    out = [store.put(b"%s %d" % (tag.encode(), i)).hex for i in range(100)]
else:
    out = []
    for i in range(100):
        try:
            store.put_with_key(b"%s %d" % (tag.encode(), i), Key(struct.pack(">Q", i + 1)))
            out.append("ok")
        except KeyConflictError:
            out.append("conflict")
print(json.dumps(out))
"""


def seq_key(n):
    return Key(struct.pack(">Q", n))


def run_children(action, *paths):
    """Run children "a" and "b" on paths; return each child's results."""
    env = dict(os.environ, PYTHONPATH=str(Path(xbase.__file__).parents[1]))
    with ExitStack() as stack:
        children = [stack.enter_context(subprocess.Popen(
            [sys.executable, "-c", CHILD, action, tag, *map(str, paths)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )) for tag in "ab"]
        try:
            for child in children:
                assert child.stdout.readline() == "ready\n"
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
            outputs = [child.communicate(timeout=60)[0] for child in children]
        except BaseException:
            for child in children:
                child.kill()
            raise
    assert [child.returncode for child in children] == [0] * len(children)
    return [json.loads(output) for output in outputs]


def test_two_handles_in_one_process(tmp_path):
    directory = tmp_path / "d"
    with FilePerKeyStore.open(directory, policy="sequence") as a, \
            FilePerKeyStore.open(directory) as b:
        pairs = []
        for i in range(20):
            for tag, store in ((b"a", a), (b"b", b)):
                value = b"%s %d" % (tag, i)
                pairs.append((store.put(value), value))
        assert len({key for key, _ in pairs}) == len(pairs)
        for store in (a, b):
            assert all(store.get(key) == value for key, value in pairs)
        key = Key(b"\x99" * 4)
        a.put_with_key(b"from a", key)
        with pytest.raises(KeyConflictError):
            b.put_with_key(b"from b", key)
        b.put_with_key(b"from a", key)  # the identical binding is a no-op
        assert b.get(key) == b"from a"


def test_a_sequence_put_skips_keys_bound_elsewhere_unread(tmp_path, monkeypatch):
    """A handle whose counter catches up past keys another handle bound
    tests each key's file name and reads none of the values."""
    directory = tmp_path / "d"
    with FilePerKeyStore.open(directory, policy="sequence") as late, \
            FilePerKeyStore.open(directory) as busy:
        for i in range(5000):
            busy.put(b"busy %d" % i)
        reads = []
        read = FilePerKeyStore._read
        monkeypatch.setattr(FilePerKeyStore, "_read",
                            lambda self, *args: reads.append(args) or read(self, *args))
        assert late.put(b"late") == seq_key(5001)
        assert reads == []
        assert busy.get(seq_key(5001)) == b"late"


@pytest.fixture
def lost_race(monkeypatch):
    """lose(path): from now on, os.path.lexists misses path until a link to
    it fails, as if another writer bound it between a handle's existence
    check and its link."""
    hidden = set()
    lexists, link = os.path.lexists, os.link

    def missing_lexists(path):
        return str(path) not in hidden and lexists(path)

    def failing_link(src, dst):
        try:
            link(src, dst)
        except FileExistsError:
            hidden.discard(str(dst))
            raise

    monkeypatch.setattr(os.path, "lexists", missing_lexists)
    monkeypatch.setattr(os, "link", failing_link)
    return lambda store, key: hidden.add(store._value_path(key.raw))


def test_a_put_that_loses_the_link_mints_again(tmp_path, lost_race):
    directory = tmp_path / "d"
    with FilePerKeyStore.open(directory, policy="sequence") as late, \
            FilePerKeyStore.open(directory) as first:
        assert first.put(b"first") == seq_key(1)
        lost_race(late, seq_key(1))
        assert late.put(b"late") == seq_key(2)
        for store in (late, first):
            assert store.get(seq_key(1)) == b"first"
            assert store.get(seq_key(2)) == b"late"


def test_a_put_with_key_that_loses_the_link_compares_bytes(tmp_path, lost_race):
    directory = tmp_path / "d"
    with FilePerKeyStore.open(directory, policy="sequence") as late, \
            FilePerKeyStore.open(directory) as first:
        same, other = Key(b"\x77" * 8), Key(b"\x78" * 8)
        for key in (same, other):
            first.put_with_key(b"first", key)
            lost_race(late, key)
        late.put_with_key(b"first", same)  # equal bytes: the binding stands
        with pytest.raises(KeyConflictError):
            late.put_with_key(b"late", other)
        for store in (late, first):
            assert store.get(same) == store.get(other) == b"first"


def test_two_processes_put(tmp_path):
    directory = tmp_path / "d"
    FilePerKeyStore.open(directory, policy="sequence").close()
    handed = run_children("put", directory)
    keys = [key for keys in handed for key in keys]
    assert len(set(keys)) == len(keys) == 200
    with FilePerKeyStore.open(directory) as store:
        for tag, keys in zip("ab", handed):
            for i, key in enumerate(keys):
                assert store.get(Key.from_hex(key)) == b"%s %d" % (tag.encode(), i)
        assert len(store) == 200


def test_two_processes_put_with_key(tmp_path):
    directory = tmp_path / "d"
    FilePerKeyStore.open(directory, policy="sequence").close()
    results = run_children("put-with-key", directory)
    with FilePerKeyStore.open(directory) as store:
        for i, outcomes in enumerate(zip(*results)):
            assert sorted(outcomes) == ["conflict", "ok"]
            winner = "ab"[outcomes.index("ok")]
            assert store.get(seq_key(i + 1)) == b"%s %d" % (winner.encode(), i)


def test_two_processes_create_one_directory(tmp_path):
    """Each child creates the same fresh directories at once; both end up
    with the id that store.meta records."""
    directories = [tmp_path / f"d{i}" for i in range(8)]
    ids = run_children("create", *directories)
    for i, directory in enumerate(directories):
        with FilePerKeyStore.open(directory) as store:
            assert ids[0][i] == ids[1][i] == store.get_store_id().hex


def test_a_value_file_removed_under_an_open_store_reads_as_unbound(tmp_path):
    directory = tmp_path / "d"
    with FilePerKeyStore.open(directory, policy="sequence") as store:
        kept, gone = store.put(b"kept"), store.put(b"gone")
        os.unlink(directory / f"{gone.hex}.bin")
        with pytest.raises(UnknownKeyError):
            store.get(gone)
        assert gone not in store
        assert store.get_many([kept, gone]) == {kept: b"kept"}
        assert store.keys() == [kept] and len(store) == 1


def test_a_dangling_link_holds_its_key(tmp_path):
    """A content-hash put that finds its key's name taken by a dangling
    symlink returns the key instead of trying to link it forever; reading
    the key then raises CorruptionError."""
    directory = tmp_path / "d"
    with FilePerKeyStore.open(directory, policy="content-hash") as store:
        digest = hashlib.sha256(b"value").digest()
        os.symlink(directory / "nowhere", directory / f"{digest.hex()}.bin")
        assert store.put(b"value") == Key(digest)
        with pytest.raises(CorruptionError, match="disappeared"):
            store.get(Key(digest))


def test_dot_files_do_not_make_a_directory_a_store(tmp_path):
    """A directory holding only dot files (say another creator's temp file)
    is still empty enough to create a store in."""
    directory = tmp_path / "d"
    directory.mkdir()
    (directory / ".notes").write_bytes(b"partial")
    with FilePerKeyStore.open(directory) as store:
        assert len(store) == 0
    assert (directory / META_FILENAME).exists()


class TwoHandles(RuleBasedStateMachine):
    """Two handles on one directory against a dict of key -> value."""

    keys = Bundle("keys")

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "d"
        self.model = {}
        self.handles = []

    @initialize(policy=st.sampled_from(("sequence", "random", "content-hash")))
    def open_both(self, policy):
        self.policy = policy
        self.handles = [FilePerKeyStore.open(self.path, policy=policy),
                        FilePerKeyStore.open(self.path)]

    @rule(target=keys, h=st.integers(0, 1), value=st.binary(max_size=8))
    def put(self, h, value):
        key = self.handles[h].put(value)
        assert self.model.setdefault(key, value) == value
        return key

    @rule(target=keys, h=st.integers(0, 1), value=st.binary(max_size=8), n=st.integers(1, 12))
    def put_with_key(self, h, value, n):
        if self.policy == "content-hash":
            key = Key(hashlib.sha256(value).digest())
        else:
            key = seq_key(n)
        if self.model.setdefault(key, value) == value:
            self.handles[h].put_with_key(value, key)
        else:
            with pytest.raises(KeyConflictError):
                self.handles[h].put_with_key(value, key)
        return key

    @rule(h=st.integers(0, 1), key=st.one_of(keys, st.integers(1, 30).map(seq_key)))
    def get(self, h, key):
        if key in self.model:
            assert self.handles[h].get(key) == self.model[key]
        else:
            with pytest.raises(UnknownKeyError):
                self.handles[h].get(key)

    @rule(h=st.integers(0, 1), keys=st.lists(st.one_of(keys, st.integers(1, 30).map(seq_key))))
    def get_many(self, h, keys):
        expected = {key: self.model[key] for key in keys if key in self.model}
        assert self.handles[h].get_many(keys) == expected

    @rule(h=st.integers(0, 1))
    def reopen(self, h):
        self.handles[h].close()
        self.handles[h] = FilePerKeyStore.open(self.path)

    @invariant()
    def both_list_the_model(self):
        for handle in self.handles:
            assert handle.keys() == sorted(self.model, key=lambda key: key.hex)

    def teardown(self):
        for handle in self.handles:
            handle.close()
        self.tmp.cleanup()


TestTwoHandles = TwoHandles.TestCase
TestTwoHandles.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
