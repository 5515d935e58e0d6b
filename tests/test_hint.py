"""The <log>.hint sidecar: an open that trusts it gives exactly what a full
replay gives, at every cut of the log and with every kind of bad sidecar,
and only a close after the log has grown rewrites it."""
import builtins
import logging
import marshal
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import xbase
from conftest import HalfWriteFile, crc32_reference
from xbase import framedlog
from xbase.cli import main
from xbase.core import MAX_KEY_LEN, Key, Name, XbaseError
from xbase.namer import NAMER_HEADER_LEN, LogNamer
from xbase.stores import HEADER_LEN, AppendLogStore

LOGGER = "xbase.framedlog"


def hint_of(path):
    return path.with_name(path.name + ".hint")


class StoreKind:
    header_len = HEADER_LEN

    @staticmethod
    def open(path):
        return AppendLogStore.open(path, policy="sequence")

    @staticmethod
    def write(log, i):
        if i % 4 == 3:  # a sequence-shaped key ahead of the counter
            log.put_with_key(bytes([i]) * 5, Key((100 + i).to_bytes(8, "big")))
        else:
            log.put(bytes([i]) * (2 * i + 1))

    @staticmethod
    def state(log):
        return list(log.bindings()), log.policy.next_seq

    @staticmethod
    def cli(path):
        return ["get", "--store", str(path), (1).to_bytes(8, "big").hex()]


NAMES = [Name("a"), Name("b"), Name("ç")]


class NamerKind:
    header_len = NAMER_HEADER_LEN

    @staticmethod
    def open(path):
        return LogNamer.open(path)

    @staticmethod
    def write(log, i):
        name = NAMES[i % 3]
        keys = log.lookup(name)
        if keys and i % 2:
            log.unbind(name, min(keys, key=lambda k: k.raw))
        else:
            log.bind(name, Key(bytes([i + 1]) * (i % 5 + 1)))

    @staticmethod
    def state(log):
        names = NAMES + [Name("absent")]
        history = [[log.lookup_as_of(n, s) for s in range(log.max_seq + 1)] for n in names]
        return log.max_seq, log.records(), log.bindings(), history

    @staticmethod
    def cli(path):
        return ["lookup-as-of", "--namer", str(path), "a", "2"]


KINDS = [pytest.param(StoreKind, id="store"), pytest.param(NamerKind, id="namer")]


def build(kind, path, phases=(3, 3, 3)):
    """Write a log in phases, closing after each; return its bytes and the
    (covered end, sidecar bytes) each close left."""
    hints, i = [], 0
    for count in phases:
        log = kind.open(path)
        for _ in range(count):
            kind.write(log, i)
            i += 1
        log.close()
        hints.append((path.stat().st_size, hint_of(path).read_bytes()))
    return path.read_bytes(), hints


def outcome(kind, path):
    """(state, file size, hint trusted) after an open, or the open's error."""
    try:
        log = kind.open(path)
    except XbaseError as exc:
        return type(exc).__name__, str(exc)
    try:
        return kind.state(log), path.stat().st_size, log._hint_end != 0
    finally:
        log.close()


def open_both(kind, path, log_bytes, hint_bytes):
    """The outcome without a sidecar, and with hint_bytes as the sidecar."""
    path.write_bytes(log_bytes)
    hint_of(path).unlink(missing_ok=True)
    plain = outcome(kind, path)
    path.write_bytes(log_bytes)
    hint_of(path).write_bytes(hint_bytes)
    return plain, outcome(kind, path)


def same(plain, hinted):
    """Equal outcomes, apart from whether a hint was trusted."""
    return plain[:2] == hinted[:2]


def fallbacks(caplog):
    messages = [r.getMessage() for r in caplog.records if r.name == LOGGER]
    caplog.clear()
    return [m for m in messages if "hint not used" in m]


@pytest.mark.parametrize("kind", KINDS)
def test_open_with_hint_equals_full_replay_at_every_cut(kind, tmp_path):
    full, hints = build(kind, tmp_path / "built.log")
    path = tmp_path / "cut.log"
    for cut in range(kind.header_len, len(full) + 1):
        for end, hint in hints:
            plain, hinted = open_both(kind, path, full[:cut], hint)
            assert same(plain, hinted), (cut, end)
            assert hinted[2] == (cut >= end), (cut, end)
            assert plain[2] is False
            # the close after a full replay wrote a hint the next open trusts
            again = outcome(kind, path)
            assert same(plain, again) and again[2], (cut, end)


@pytest.mark.parametrize("kind", KINDS)
def test_damaged_or_truncated_hint_falls_back(kind, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=LOGGER)
    full, hints = build(kind, tmp_path / "built.log")
    hint = hints[-1][1]
    path = tmp_path / "log"
    for at in range(len(hint)):
        damaged = bytearray(hint)
        damaged[at] ^= 0x20
        plain, hinted = open_both(kind, path, full, bytes(damaged))
        assert same(plain, hinted) and not hinted[2], at
        assert fallbacks(caplog) == [
            f"{path}: hint not used (missing); replaying the whole log",
            f"{path}: hint not used (sidecar CRC); replaying the whole log",
        ]
    for length in range(len(hint)):
        plain, hinted = open_both(kind, path, full, hint[:length])
        assert same(plain, hinted) and not hinted[2], length
        assert "(sidecar CRC)" in fallbacks(caplog)[1]


@pytest.mark.parametrize("kind", KINDS)
def test_foreign_stale_and_short_hints(kind, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=LOGGER)
    full, hints = build(kind, tmp_path / "built.log")
    _, foreign = build(kind, tmp_path / "other.log")  # another log id
    path = tmp_path / "log"

    plain, hinted = open_both(kind, path, full, foreign[-1][1])
    assert same(plain, hinted) and not hinted[2]
    assert "(id)" in fallbacks(caplog)[1]

    plain, hinted = open_both(kind, path, full, hints[0][1])  # stale: the log grew since
    assert same(plain, hinted) and hinted[2]
    assert len(fallbacks(caplog)) == 1

    short = full[: hints[-1][0] - 1]
    plain, hinted = open_both(kind, path, short, hints[-1][1])
    assert same(plain, hinted) and not hinted[2]
    assert "(short log)" in fallbacks(caplog)[1]


def sidecar(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "big")


@pytest.mark.parametrize("kind", KINDS)
def test_hint_of_the_wrong_shape_falls_back(kind, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=LOGGER)
    full, hints = build(kind, tmp_path / "built.log")
    end, hint = hints[-1]
    log_id, _, crc, state = marshal.loads(hint[1:-4])
    path = tmp_path / "log"
    fmt = bytes([framedlog.HINT_FORMAT])
    wrong = [
        bytes([framedlog.HINT_FORMAT + 1]) + hint[1:-4],  # an unknown format byte
        fmt + b"not marshal data",
        fmt + marshal.dumps((log_id, end, crc)),
        fmt + marshal.dumps((log_id, 0, 0, state)),  # an end inside the header
        fmt + marshal.dumps((log_id, end, crc, "not a state")),
        fmt + marshal.dumps((log_id, end, crc, (state[0],) + state)),
    ]
    if kind is NamerKind:  # a live key list holding what is not a key's bytes
        max_seq, live, history = state
        for bad in ("not key bytes", b"", bytes(MAX_KEY_LEN + 1)):
            bad_live = {**live, next(iter(live)): [bad]}
            wrong.append(fmt + marshal.dumps((log_id, end, crc, (max_seq, bad_live, history))))
    for body in wrong:
        plain, hinted = open_both(kind, path, full, sidecar(body))
        assert same(plain, hinted) and not hinted[2], body
        assert "(format)" in fallbacks(caplog)[1], body


@pytest.mark.parametrize("kind", KINDS)
def test_flipped_byte_in_covered_prefix_raises_as_without_hint(kind, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=LOGGER)
    full, hints = build(kind, tmp_path / "built.log")
    end, hint = hints[-1]
    path = tmp_path / "log"
    errors = 0
    for at in range(end):
        flipped = bytearray(full)
        flipped[at] ^= 0x01
        plain, hinted = open_both(kind, path, bytes(flipped), hint)
        assert plain == hinted, at  # the same state, or the same error and message
        errors += plain[0] == "CorruptionError"
        reasons = fallbacks(caplog)
        if at >= kind.header_len:
            assert "(prefix CRC)" in reasons[-1], at
    assert errors > end // 2


def test_hint_layout(tmp_path):
    path = tmp_path / "s.log"
    with AppendLogStore.open(path, policy="sequence") as store:
        keys = [store.put(b"%03d" % i) for i in range(300)]
    data = hint_of(path).read_bytes()
    log = path.read_bytes()
    assert data[0] == 0x02
    assert int.from_bytes(data[-4:], "big") == crc32_reference(data[:-4])
    log_id, end, crc, (top, buckets) = marshal.loads(data[1:-4])
    assert log_id == log[5:21] and end == len(log)
    assert crc == crc32_reference(log)
    assert top == (300).to_bytes(8, "big")
    # the keydir, in 256 buckets of (count, marshal bytes of {key: offset << 32 | length}),
    # each key in bucket crc32(key) & 255
    assert type(buckets) is list and len(buckets) == 256
    keydir = {}
    for number, (count, blob) in enumerate(buckets):
        entries = marshal.loads(blob)
        assert type(entries) is dict and len(entries) == count
        assert all(crc32_reference(key) & 255 == number for key in entries)
        keydir.update(entries)
    record = 4 + 8 + 4 + 3 + 4
    assert keydir == {k.raw: (HEADER_LEN + i * record + 16) << 32 | 3 for i, k in enumerate(keys)}


def test_hint_is_trusted_under_another_hash_seed(tmp_path):
    """The keydir buckets do not follow the per-process hash(): a hint
    written under one PYTHONHASHSEED is trusted under another, and every
    key is found in it."""
    path = tmp_path / "s.log"
    script = """if True:
        import sys
        from xbase.core import Key
        from xbase.stores import AppendLogStore
        with AppendLogStore.open(sys.argv[1], policy="sequence") as store:
            if sys.argv[2] == "write":
                for i in range(500):
                    store.put(b"value %d" % i)
            else:
                keys = [Key(i.to_bytes(8, "big")) for i in range(1, 501)]
                print(store._hint_end != 0,
                      all(store.get(k) == b"value %d" % i for i, k in enumerate(keys)),
                      Key((501).to_bytes(8, "big")) in store)
    """

    def run(seed, mode):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(xbase.__file__).parents[1]))
        return subprocess.run([sys.executable, "-c", script, str(path), mode],
                              capture_output=True, env=env, timeout=60, check=True)

    run("1", "write")
    before = hint_of(path).stat()
    assert run("2", "read").stdout.split() == [b"True", b"True", b"False"]
    after = hint_of(path).stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_lookup_as_of_matches_a_fold_of_the_records(tmp_path):
    path = tmp_path / "n.namer"
    build(NamerKind, path, phases=(7, 8))
    for trusted in (True, False):
        if not trusted:
            hint_of(path).unlink()
        with LogNamer.open(path) as namer:
            assert (namer._hint_end != 0) == trusted
            records = namer.records()
            assert [r.seq for r in records] == list(range(1, 16))
            for name in NAMES:
                keys = set()
                for seq in range(namer.max_seq + 1):
                    if seq:
                        r = records[seq - 1]
                        if r.name == name:
                            (keys.add if r.action == 1 else keys.discard)(r.key)
                    assert namer.lookup_as_of(name, seq) == keys


@pytest.mark.parametrize("kind", KINDS)
def test_only_a_grown_log_rewrites_the_hint(kind, tmp_path):
    path = tmp_path / "log"
    build(kind, path, phases=(4,))
    before = hint_of(path).stat()
    with kind.open(path) as log:
        kind.state(log)
    assert main(kind.cli(path)) == 0
    after = hint_of(path).stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    with kind.open(path) as log:
        kind.write(log, 9)
    assert hint_of(path).stat().st_ino != before.st_ino


@pytest.mark.parametrize("kind", KINDS)
def test_failed_hint_write_leaves_no_temp_file(kind, tmp_path, monkeypatch, caplog):
    path = tmp_path / "log"
    build(kind, path, phases=(2,))
    old_hint = hint_of(path).read_bytes()
    shims = []

    def half_open(file, *args, **kwargs):
        fh = builtins.open(file, *args, **kwargs)
        if str(file).endswith(".hint.tmp"):
            shims.append(HalfWriteFile(fh))
            return shims[-1]
        return fh

    log = kind.open(path)
    kind.write(log, 5)
    expected = kind.state(log)
    monkeypatch.setattr(framedlog, "open", half_open, raising=False)
    log.close()  # the log is closed; only the sidecar failed
    monkeypatch.undo()
    assert shims and shims[0].tripped
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "log.hint"]
    assert hint_of(path).read_bytes() == old_hint
    assert any("hint not written" in r.getMessage() and r.levelno == logging.WARNING
               for r in caplog.records if r.name == LOGGER)
    with kind.open(path) as log:  # the old hint is stale, and still trusted
        assert kind.state(log) == expected and log._hint_end != 0


@pytest.mark.parametrize("kind", KINDS)
def test_torn_tail_cut_is_logged_once(kind, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=LOGGER)
    path = tmp_path / "log"
    full, hints = build(kind, path, phases=(3,))
    path.write_bytes(full + b"\x00\x00\x00")
    kind.open(path).close()
    warnings = [r for r in caplog.records if r.name == LOGGER and r.levelno == logging.WARNING]
    assert [r.getMessage() for r in warnings] == [
        f"{path}: cut a torn tail of 3 bytes at offset {len(full)}"
    ]
    assert fallbacks(caplog) == []  # the hint still covers the whole log
    hint_of(path).unlink()
    kind.open(path).close()
    assert fallbacks(caplog) == [f"{path}: hint not used (missing); replaying the whole log"]
    kind.open(path).close()
    assert caplog.records == []
