"""The framed log under AppendLogStore and LogNamer: recovery from a cut at
every byte offset, and one opener at a time."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xbase
from xbase.cli import main
from xbase.core import CorruptionError, Key, LogLockedError, Name
from xbase.namer import NAMER_HEADER_LEN, LogNamer
from xbase.stores import HEADER_LEN, META_FILENAME, AppendLogStore, FilePerKeyStore


class StoreLog:
    header_len = HEADER_LEN

    @staticmethod
    def open(path):
        return AppendLogStore.open(path, policy="sequence")

    @staticmethod
    def write(log, i):
        log.put(bytes([i]) * (3 * i + 1))

    @staticmethod
    def contents(log):
        return list(log.bindings())

    @staticmethod
    def cli(path):
        return ["store-id", "--store", str(path)]


class NamerLog:
    header_len = NAMER_HEADER_LEN

    @staticmethod
    def open(path):
        return LogNamer.open(path)

    @staticmethod
    def write(log, i):
        name = Name(f"name-{i % 2}")
        keys = log.lookup(name)
        if keys and i % 3 == 0:
            log.unbind(name, keys.pop())
        else:
            log.bind(name, Key(bytes([i + 1]) * (i + 1)))

    @staticmethod
    def contents(log):
        return log.records(), log.bindings()

    @staticmethod
    def cli(path):
        return ["lookup", "--namer", str(path), "name-0"]


KINDS = [pytest.param(StoreLog, id="store"), pytest.param(NamerLog, id="namer")]


@pytest.mark.parametrize("kind", KINDS)
def test_cut_at_every_offset_recovers_the_whole_records(kind, tmp_path):
    path = tmp_path / "built.log"
    log = kind.open(path)
    ends, snapshots = [path.stat().st_size], [kind.contents(log)]
    for i in range(6):
        kind.write(log, i)
        ends.append(path.stat().st_size)
        snapshots.append(kind.contents(log))
    log.close()
    full = path.read_bytes()
    assert ends[0] == kind.header_len and ends[-1] == len(full)

    cut_path = tmp_path / "cut.log"
    for cut in range(kind.header_len, len(full)):
        cut_path.write_bytes(full[:cut])
        whole = max(i for i, end in enumerate(ends) if end <= cut)
        log = kind.open(cut_path)
        assert kind.contents(log) == snapshots[whole], cut
        assert cut_path.stat().st_size == ends[whole], cut
        kind.write(log, 40)
        expected = kind.contents(log)
        log.close()
        log = kind.open(cut_path)
        assert kind.contents(log) == expected, cut
        log.close()


@pytest.mark.parametrize("kind", KINDS)
def test_second_open_in_one_process_is_refused(kind, tmp_path):
    path = tmp_path / "held.log"
    first = kind.open(path)
    kind.write(first, 0)
    with pytest.raises(LogLockedError):
        kind.open(path)
    assert main(kind.cli(path)) == 2
    kind.write(first, 1)  # the refused opener changed nothing
    expected = kind.contents(first)
    first.close()
    again = kind.open(path)
    assert kind.contents(again) == expected
    again.close()


@pytest.mark.parametrize("kind", KINDS)
def test_open_from_another_process_is_refused(kind, tmp_path):
    path = tmp_path / "held.log"
    log = kind.open(path)
    kind.write(log, 0)
    env = dict(os.environ, PYTHONPATH=str(Path(xbase.__file__).parents[1]))

    def run_cli():
        return subprocess.run(
            [sys.executable, "-m", "xbase", *kind.cli(path)],
            capture_output=True, env=env, timeout=60,
        )

    refused = run_cli()
    assert refused.returncode == 2
    assert b"already open" in refused.stderr
    log.close()
    assert run_cli().returncode == 0


@pytest.mark.parametrize("opener, name", [
    pytest.param(AppendLogStore.open, "s.store", id="store"),
    pytest.param(LogNamer.open, "n.namer", id="namer"),
    pytest.param(lambda path: FilePerKeyStore.open(path.parent), f"d/{META_FILENAME}",
                 id="store.meta"),
])
@pytest.mark.parametrize("damage, message", [
    (lambda header: header[:3], "short header (3 bytes)"),
    (lambda header: header[:4] + b"\x09" + header[5:], "unsupported format version 9"),
])
def test_header_errors_read_alike(opener, name, damage, message, tmp_path):
    """Both logs and store.meta report a bad header in one wording."""
    path = tmp_path / name
    opener(path).close()
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CorruptionError) as exc:
        opener(path)
    assert str(exc.value) == f"{path}: {message}"
