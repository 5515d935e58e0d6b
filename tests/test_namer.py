"""Name binding semantics, the persistent binding log, and history replay."""
import errno
import logging
import marshal
import os
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriteFile, crc32_reference
from xbase.core import (
    MAX_KEY_LEN,
    CorruptionError,
    Key,
    Name,
    NotBoundError,
    SeqOutOfRangeError,
    StoreID,
)
from xbase.framedlog import HINT_FORMAT
from xbase.namer import (
    ACTION_BIND,
    ACTION_UNBIND,
    BindingRecord,
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


# ---- the hint keeps each name's history packed until first use

LAZY_NAMES = [Name("a"), Name("b"), Name("ç"), Name("d")]
LAZY_KEYS = [Key(bytes([i]) * i) for i in range(1, 5)]


def _hint_path(path):
    return path.with_name(path.name + ".hint")


class _HistoryModel:
    """The namer as a plain list of (action, name, key) records."""

    def __init__(self):
        self.log = []

    @property
    def max_seq(self):
        return len(self.log)

    def lookup_as_of(self, name, seq):
        if not 0 <= seq <= self.max_seq:
            raise SeqOutOfRangeError(seq)
        keys = set()
        for action, n, key in self.log[:seq]:
            if n == name:
                (keys.add if action == ACTION_BIND else keys.discard)(key)
        return keys

    def lookup(self, name):
        return self.lookup_as_of(name, self.max_seq)

    def bind(self, name, key):
        if key not in self.lookup(name):
            self.log.append((ACTION_BIND, name, key))

    def unbind(self, name, key):
        if key not in self.lookup(name):
            raise NotBoundError(name)
        self.log.append((ACTION_UNBIND, name, key))

    def records(self):
        return [BindingRecord(seq, *record) for seq, record in enumerate(self.log, 1)]


_lazy_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["bind", "unbind"]), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("lookup"), st.integers(0, 3)),
    st.tuples(st.just("lookup_as_of"), st.integers(0, 3), st.integers(0, 1000)),
    st.just(("records",)),
    st.just(("reopen",)),
), max_size=50)


class TestLazyHistory:
    @settings(max_examples=150, deadline=None)
    @given(setup=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
           ops=_lazy_ops)
    def test_hinted_unhinted_and_model_agree(self, tmp_path_factory, setup, ops):
        """A namer that trusts its hint, one whose hint is deleted before
        every reopen, and a model see the same operations, with close and
        reopen at random points; right after a reopen every history of the
        hinted namer is still packed, so each first use decodes one."""
        work = tmp_path_factory.mktemp("lazy")
        paths = [work / "hinted.namer", work / "replayed.namer"]
        model = _HistoryModel()
        namers = [LogNamer.open(path) for path in paths]

        def reopen():
            for namer in namers:
                namer.close()
            _hint_path(paths[1]).unlink(missing_ok=True)
            namers[:] = [LogNamer.open(path) for path in paths]
            hinted, replayed = namers
            assert replayed._hint_end == 0
            if model.max_seq:
                assert hinted._hint_end != 0
                assert all(type(h) is tuple for h in hinted._history.values())

        def apply(method, *args):
            outcomes = []
            for subject in (model, *namers):
                try:
                    result = getattr(subject, method)(*args)
                except (NotBoundError, SeqOutOfRangeError) as exc:
                    result = type(exc)
                outcomes.append(result)
            assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0], (method, args)

        try:
            for name, key in setup:
                apply("bind", LAZY_NAMES[name], LAZY_KEYS[key])
            reopen()
            for op, *args in ops:
                if op == "reopen":
                    reopen()
                elif op == "records":
                    apply("records")
                elif op == "lookup":
                    apply("lookup", LAZY_NAMES[args[0]])
                elif op == "lookup_as_of":
                    apply("lookup_as_of", LAZY_NAMES[args[0]], args[1] % (model.max_seq + 2))
                else:
                    apply(op, LAZY_NAMES[args[0]], LAZY_KEYS[args[1]])
            reopen()
            apply("records")
            assert namers[0].bindings() == namers[1].bindings()
        finally:
            for namer in namers:
                namer.close()

    @staticmethod
    def _build(path):
        """A closed namer log over three names, and its full-replay state."""
        with LogNamer.open(path) as namer:
            for i in range(12):
                name = LAZY_NAMES[i % 3]
                namer.bind(name, LAZY_KEYS[i % 4])
                if i % 5 == 4:
                    namer.unbind(name, LAZY_KEYS[i % 4])
        return TestLazyHistory._state(path)

    @staticmethod
    def _state(path):
        with LogNamer.open(path) as namer:
            history = [[namer.lookup_as_of(n, s) for s in range(namer.max_seq + 1)]
                       for n in LAZY_NAMES]
            return namer.records(), namer.bindings(), history

    @pytest.mark.parametrize("hinted", [True, False], ids=["hint", "replay"])
    def test_open_builds_no_key(self, tmp_path, monkeypatch, hinted):
        """An open installs the bindings as name text and key bytes: through
        the hint it builds no Name and no Key; a replay builds no Key and
        checks each distinct name once through Name."""
        path = tmp_path / "n.namer"
        records, bindings, _ = self._build(path)
        if not hinted:
            _hint_path(path).unlink()
        built = []
        for cls in (Key, Name):
            monkeypatch.setattr(f"xbase.namer.{cls.__name__}",
                                lambda *args, cls=cls: built.append(cls) or cls(*args))
        namer = LogNamer.open(path)
        monkeypatch.undo()
        with namer:
            assert (namer._hint_end != 0) == hinted
            assert built == ([] if hinted else [Name] * 3)
            assert (namer.records(), namer.bindings()) == (records, bindings)

    @staticmethod
    def _rewrite_history(path, rewrite):
        """Replace the hint's per-name history map by rewrite(map), keeping
        its sidecar CRC valid."""
        hint = _hint_path(path)
        log_id, end, crc, (max_seq, live, history) = marshal.loads(hint.read_bytes()[1:-4])
        state = (max_seq, live, rewrite(history))
        body = bytes([HINT_FORMAT]) + marshal.dumps((log_id, end, crc, state))
        hint.write_bytes(body + zlib.crc32(body).to_bytes(4, "big"))

    def test_hint_with_unpacked_histories_is_replayed_and_rewritten(self, tmp_path, caplog):
        """A hint that holds each history as a list, the shape written before
        histories were packed, is not trusted: the open replays the whole log
        and the close writes the packed shape, which the next open trusts."""
        path = tmp_path / "n.namer"
        expected = self._build(path)
        self._rewrite_history(path, lambda history: {
            text: marshal.loads(blob) for text, (_, blob) in history.items()})
        caplog.set_level(logging.INFO, logger="xbase.framedlog")
        with LogNamer.open(path) as namer:
            assert namer._hint_end == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: hint not used (format); replaying the whole log"]
        _, _, _, (_, _, history) = marshal.loads(_hint_path(path).read_bytes()[1:-4])
        assert all(type(packed) is tuple for packed in history.values())
        caplog.clear()
        assert self._state(path) == expected
        assert caplog.records == []

    def test_counts_that_do_not_sum_to_max_seq_are_not_trusted(self, tmp_path, caplog):
        path = tmp_path / "n.namer"
        expected = self._build(path)
        self._rewrite_history(path, lambda history: dict(list(history.items())[1:]))
        caplog.set_level(logging.INFO, logger="xbase.framedlog")
        assert self._state(path) == expected
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: hint not used (format); replaying the whole log"]

    @pytest.mark.parametrize("entry", [
        (1, ACTION_BIND),  # a 2-tuple
        [1, ACTION_BIND, b"k"],  # a list
        (1, ACTION_BIND, b""),  # an empty key
        (1, ACTION_BIND, bytes(MAX_KEY_LEN + 1)),
        (1, ACTION_BIND, "k"),
        (1, 3, b"k"),  # an unknown action
        (0, ACTION_BIND, b"k"),
        (99, ACTION_BIND, b"k"),  # past max_seq
        (True, ACTION_BIND, b"k"),
    ], ids=["pair", "list", "empty key", "long key", "str key", "unknown action", "seq 0",
            "seq past max_seq", "bool seq"])
    def test_history_entry_a_log_could_not_hold_is_corruption(self, tmp_path, entry):
        """A history whose count and shape are right but one of whose
        entries no record could give raises CorruptionError naming the hint
        on each use, and appends nothing."""
        path = tmp_path / "n.namer"
        self._build(path)
        text = LAZY_NAMES[0].text

        def rewrite(packed):
            count, blob = packed[text]
            history = marshal.loads(blob)
            packed[text] = (count, marshal.dumps([entry] + history[1:]))
            return packed

        self._rewrite_history(path, rewrite)
        size = path.stat().st_size
        with LogNamer.open(path) as namer:
            assert namer._hint_end != 0
            for use in (lambda: namer.lookup_as_of(LAZY_NAMES[0], 3),
                        lambda: namer.bind(LAZY_NAMES[0], Key(b"\x09")),
                        namer.records):
                with pytest.raises(CorruptionError, match=f"{_hint_path(path)}: the history"):
                    use()
        assert path.stat().st_size == size

    @pytest.mark.parametrize("damage", ["count", "not marshal", "not a list"])
    def test_history_that_does_not_match_its_count_is_corruption(self, tmp_path, damage):
        """The counts still sum to max_seq, so the open trusts the hint; each
        use of a damaged history raises CorruptionError and appends nothing,
        while the other names and the live bindings still answer."""
        path = tmp_path / "n.namer"
        records, bindings, history = self._build(path)
        a, b = LAZY_NAMES[0].text, LAZY_NAMES[1].text

        def rewrite(packed):
            (count_a, blob_a), (count_b, blob_b) = packed[a], packed[b]
            if damage == "count":
                packed[a], packed[b] = (count_a - 1, blob_a), (count_b + 1, blob_b)
            elif damage == "not marshal":
                packed[a] = (count_a, b"\xffnot marshal data")
            else:
                packed[a] = (count_a, marshal.dumps(tuple(marshal.loads(blob_a))))
            return packed

        self._rewrite_history(path, rewrite)
        size = path.stat().st_size
        with LogNamer.open(path) as namer:
            assert namer._hint_end != 0
            assert namer.lookup(LAZY_NAMES[0]) == {k for n, k in bindings if n == LAZY_NAMES[0]}
            assert namer.lookup_as_of(LAZY_NAMES[2], 5) == history[2][5]
            bound = next(iter(namer.lookup(LAZY_NAMES[0])))
            for use in (lambda: namer.lookup_as_of(LAZY_NAMES[0], 3),
                        lambda: namer.bind(LAZY_NAMES[0], Key(b"\x09")),
                        lambda: namer.unbind(LAZY_NAMES[0], bound),
                        namer.records):
                with pytest.raises(CorruptionError, match="does not decode"):
                    use()
            if damage == "count":
                with pytest.raises(CorruptionError):
                    namer.lookup_as_of(LAZY_NAMES[1], 3)
        assert path.stat().st_size == size
        _hint_path(path).unlink()
        assert self._state(path) == (records, bindings, history)
