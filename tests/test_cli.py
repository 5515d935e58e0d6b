"""Command-line interface: exit codes, stdout discipline, command behavior."""
import errno
import functools
import io
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xbase.home
from xbase import cli, stores
from xbase.cli import main
from xbase.core import Key, Name
from xbase.namer import LogNamer, get_root_namer
from xbase.netstore import RemoteStore, serve
from xbase.stores import MemoryStore, get_root_store, open_store
from xbase.xmldoc import xml_parse


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "cli.store")


class TestPutGet:
    def test_round_trip_prints_only_payload(self, store_path, capsysbinary):
        assert main(["put", "--store", store_path, "--hex", "0102"]) == 0
        key_hex = capsysbinary.readouterr().out.decode().strip()
        assert bytes.fromhex(key_hex)
        assert main(["get", "--store", store_path, key_hex]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == b"\x01\x02"
        assert captured.err == b""

    def test_value_from_stdin(self, store_path, capsysbinary, monkeypatch):
        class _Stdin:
            buffer = io.BytesIO(b"piped bytes")

        monkeypatch.setattr(sys, "stdin", _Stdin)
        assert main(["put", "--store", store_path]) == 0
        key_hex = capsysbinary.readouterr().out.decode().strip()
        main(["get", "--store", store_path, key_hex])
        assert capsysbinary.readouterr().out == b"piped bytes"

    def test_value_from_file(self, store_path, tmp_path, capsysbinary):
        src = tmp_path / "value.bin"
        src.write_bytes(b"\x00\xff\x00")
        assert main(["put", "--store", store_path, "--file", str(src)]) == 0
        key_hex = capsysbinary.readouterr().out.decode().strip()
        main(["get", "--store", store_path, key_hex])
        assert capsysbinary.readouterr().out == b"\x00\xff\x00"

    def test_conflicting_value_sources(self, store_path, tmp_path, capsys):
        src = tmp_path / "v"
        src.write_bytes(b"x")
        code = main(["put", "--store", store_path, "--hex", "01", "--file", str(src)])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_missing_value_file_is_io_error(self, store_path, capsys):
        assert main(["put", "--store", store_path, "--file", "/no/such/file"]) == 2

    def test_bad_hex_value(self, store_path, capsys):
        assert main(["put", "--store", store_path, "--hex", "zz"]) == 1

    def test_bad_key_hex(self, store_path, capsys):
        main(["put", "--store", store_path, "--hex", "01"])
        assert main(["get", "--store", store_path, "not-hex"]) == 1

    def test_unknown_key(self, store_path, capsys):
        main(["put", "--store", store_path, "--hex", "01"])
        capsys.readouterr()
        assert main(["get", "--store", store_path, "ff" * 8]) == 1
        assert capsys.readouterr().out == ""  # diagnostics go to stderr

    def test_get_out_writes_file(self, store_path, tmp_path, capsysbinary):
        main(["put", "--store", store_path, "--hex", "abcd"])
        key_hex = capsysbinary.readouterr().out.decode().strip()
        out = tmp_path / "fetched.bin"
        assert main(["get", "--store", store_path, key_hex, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == b"\xab\xcd"

    def test_put_with_key(self, store_path, capsysbinary):
        assert main(["put-with-key", "--store", store_path, "--hex", "ff", "0a0b"]) == 0
        assert capsysbinary.readouterr().out == b""
        main(["get", "--store", store_path, "0a0b"])
        assert capsysbinary.readouterr().out == b"\xff"

    def test_put_with_key_conflict_is_user_error(self, store_path, capsys):
        main(["put-with-key", "--store", store_path, "--hex", "01", "aa"])
        assert main(["put-with-key", "--store", store_path, "--hex", "02", "aa"]) == 1

    def test_policy_and_layout_options(self, tmp_path, capsysbinary):
        seq = str(tmp_path / "seq.store")
        main(["put", "--store", seq, "--policy", "sequence", "--hex", "01"])
        assert capsysbinary.readouterr().out.decode().strip() == "00" * 7 + "01"
        fpk = str(tmp_path / "fpk.store")
        main(["put", "--store", fpk, "--layout", "file-per-key", "--hex", "01"])
        assert (tmp_path / "fpk.store").is_dir()

    def test_store_id_stable(self, store_path, capsys):
        main(["put", "--store", store_path, "--hex", "01"])
        capsys.readouterr()
        assert main(["store-id", "--store", store_path]) == 0
        first = capsys.readouterr().out.strip()
        main(["store-id", "--store", store_path])
        assert capsys.readouterr().out.strip() == first
        assert len(first) == 32 and bytes.fromhex(first)

    def test_corrupt_store_exits_2(self, tmp_path, capsys):
        mangled = tmp_path / "mangled.store"
        mangled.write_bytes(b"not a store at all, sorry")
        assert main(["store-id", "--store", str(mangled)]) == 2

    def test_unreachable_remote_exits_2(self, capsys):
        assert main(["store-id", "--store", f"127.0.0.1:{_free_port()}"]) == 2

    def test_root_store_via_home(self, tmp_home, capsysbinary):
        assert main(["put", "--hex", "11"]) == 0
        key_hex = capsysbinary.readouterr().out.decode().strip()
        assert (tmp_home / "root.store").is_file()
        assert main(["get", key_hex]) == 0
        assert capsysbinary.readouterr().out == b"\x11"


def test_root_store_and_namer_are_closed(tmp_home, capsys):
    """The root store and root namer close on exit like any other, so their
    logs get a hint, and the next command reopens them."""
    assert main(["put", "--hex", "11"]) == 0
    key_hex = capsys.readouterr().out.strip()
    assert main(["bind", "n", key_hex]) == 0
    assert (tmp_home / "root.store.hint").exists()
    assert (tmp_home / "root.namer.hint").exists()
    roots = xbase.home._roots
    assert len(roots) == 2 and all(root.closed for root in roots.values())
    assert main(["lookup", "n"]) == 0
    assert capsys.readouterr().out == key_hex + "\n"


def test_a_root_the_process_holds_stays_open(tmp_home, capsys):
    """A command closes only the roots it opened itself."""
    store, namer = get_root_store(tmp_home), get_root_namer(tmp_home)
    assert main(["--home", str(tmp_home), "put", "--hex", "01"]) == 0
    key = Key.from_hex(capsys.readouterr().out.strip())
    assert main(["--home", str(tmp_home), "bind", "n", key.hex]) == 0
    assert store.get(key) == b"\x01" and store.put(b"x")
    assert namer.lookup(Name("n")) == {key}
    namer.bind(Name("m"), key)
    assert not store.closed and not namer.closed
    assert get_root_store(tmp_home) is store and get_root_namer(tmp_home) is namer


class TestArgparseBehavior:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_store_options_list_the_store_module_tables(self, capsys):
        assert main(["put", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--layout {%s}" % ",".join(stores.LAYOUTS) in out
        assert "--policy {%s}" % ",".join(stores.POLICIES) in out
        assert list(stores.LAYOUTS) == ["append-log", "file-per-key"]
        assert list(stores.POLICIES) == ["random", "sequence", "content-hash"]

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["put", "--wat"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


# argv lists the table reader must read as argparse does, or leave to it:
# help, errors and the top-level options, before and after the command
_ARGVS = [
    [], ["--help"], ["-h"], ["--he"], ["--h", "put"], ["--help", "put"],
    ["--home", "h", "-h", "get"], ["--home"], ["--home", "h"],
    ["frobnicate"], ["--wat", "put"], ["--", "put"], ["put"], ["put", "--wat"],
    ["put", "--help"], ["put", "--home", "h"], ["put", "--he"], ["put", "x"],
    ["--home", "put", "get", "ab"], ["--hom", "put", "put"], ["--home=get", "get"],
    ["--home=h", "get", "ab", "--out", "o"], ["get"], ["get", "ab", "cd"],
    ["lookup-as-of", "n", "x"], ["lookup-as-of", "n", "-1"], ["proxy"],
    ["proxy", "list"], ["proxy", "frob"], ["proxy", "add-target"],
    ["frag", "doc"], ["frag", "--mode", "bad", "--schema", "s", "doc"],
    ["put", "--policy", "seq"], ["put", "--store", "s", "--hex", "01", "--policy", "sequence"],
    ["put", "--hex=-1"], ["get", "--out", "-", "ab"], ["get", "--", "ab"],
    ["lookup-as-of", "n", "+7"], ["bind", "n", "--namer=m", ""],
]
# the argvs in _ARGVS that the table reader reads; argparse parses the rest
_PLAIN = [
    ["put"], ["--home", "put", "get", "ab"], ["--home=h", "get", "ab", "--out", "o"],
    ["put", "--store", "s", "--hex", "01", "--policy", "sequence"],
    ["lookup-as-of", "n", "+7"], ["bind", "n", "--namer=m", ""],
]


def _parsed(parser, argv):
    """The attributes parser.parse_args(argv) gives, None if it exits; what
    it prints is dropped."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _read(argv):
    args = cli._read_plain(argv)
    return None if args is None else vars(args)


_full_parser = functools.cache(cli.build_parser)  # one parser for every draw


_VALUES = ["ab", "01", "7", "+7", "-1", "-x", "", "x y", "a=b", "put", "--", "-", "=", "root"]


@st.composite
def _command_argvs(draw):
    """An argv built from one command's table entry: each flag present or
    not, exact, with a space or =, values from the table's choices or from
    _VALUES, each positional once, in any order; then often one change
    that argparse reads otherwise or rejects: a token repeated, dropped or
    added, a flag abbreviated, or a top-level prefix."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    words = []
    for argument in cli._COMMANDS[command][2]:
        if callable(argument):
            words.append([draw(st.sampled_from(["list", "add-target", "remove-target", "x"]))])
            continue
        name, spec = argument
        value = draw(st.sampled_from(list(spec.get("choices", ())) * 4 + _VALUES))
        if not name.startswith("-"):
            words.append([value])
        elif draw(st.booleans()):
            words.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    argv = [command] + [w for word in draw(st.permutations(words)) for w in word]
    change = draw(st.sampled_from(["none", "repeat", "drop", "add", "abbreviate", "prefix"]))
    i = draw(st.integers(0, len(argv)))
    if change == "repeat" and i < len(argv):
        argv.insert(i, argv[i])
    elif change == "drop" and i < len(argv):
        del argv[i]
    elif change == "add":
        argv.insert(i, draw(st.sampled_from(["--", "-h", "--help", "-1", "", "x", "--home",
                                             "--store", "--hex=", "--mode"])))
    elif change == "abbreviate" and i < len(argv) and argv[i].startswith("--"):
        argv[i] = argv[i][:5]
    elif change == "prefix":
        argv[:0] = draw(st.sampled_from([["--home", "h"], ["--home=h"], ["--home=-h"],
                                         ["--hom", "h"], ["--home"], ["-h"], ["--"],
                                         ["--home", "h", "--home", "g"], ["--home", ""]]))
    return argv


_TOKENS = (list(cli._COMMANDS) + ["--home", "--hom", "--help", "-h", "--", "-1", "", "-",
                                  "--store", "--st", "--hex=01", "--out", "--schema", "--mode",
                                  "--policy=sequence", "--namer", "ab", "n", "5"])


class TestParser:
    """main reads a plain argv from the command table, and hands every
    other argv to the full argparse parser."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: xbase {command} ")

    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        listed = re.findall(r"^    (\S+)\s", out, re.M)
        assert listed == list(cli._COMMANDS) and len(listed) == 14

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: xbase ")
        assert "argument command: invalid choice: 'frobnicate'" in err

    @pytest.mark.parametrize("home", ["h", "put"])
    @pytest.mark.parametrize("form", [["--home={}"], ["--home", "{}"], ["--hom", "{}"]],
                             ids=["equals", "separate", "abbreviated"])
    def test_home_before_the_command(self, form, home, tmp_home, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [arg.format(home) for arg in form] + ["put", "--hex", "01"]
        assert main(argv) == 0
        assert (tmp_path / home / "root.store").is_file()
        assert not tmp_home.exists()

    def test_same_parse_as_the_full_parser(self):
        """The reader gives the attributes argparse gives, or declines."""
        for argv in _ARGVS:
            read = _read(argv)
            assert read is None or read == _parsed(_full_parser(), argv), argv
        assert [argv for argv in _ARGVS if _read(argv) is not None] == _PLAIN

    @settings(max_examples=400, deadline=None)
    @given(argv=st.one_of(_command_argvs(), st.lists(st.sampled_from(_TOKENS), max_size=6)))
    def test_reader_agrees_with_argparse(self, argv):
        read = _read(argv)
        if read is not None:
            assert read == _parsed(_full_parser(), argv)

    def test_same_output_as_argparse_alone(self, tmp_home, tmp_path, monkeypatch, capsysbinary):
        """main gives the exit code, stdout and stderr it gives when argparse
        parses every argv, each side in a directory and home of its own,
        with empty stdin."""
        def run(side, i, argv):
            where = tmp_path / side / str(i)
            where.mkdir(parents=True)
            monkeypatch.chdir(where)
            monkeypatch.setenv("XBASE_HOME", str(where / "home"))
            monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO()))
            return main(argv), capsysbinary.readouterr()

        for i, argv in enumerate(_ARGVS):
            read = run("read", i, argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_read_plain", lambda argv: None)
                assert run("argparse", i, argv) == read, argv

    def test_plain_commands_build_no_parser(self, tmp_path, monkeypatch, capsys):
        """Every command but proxy runs from plain argv with no argparse
        parser built."""
        import argparse

        def refuse(*args, **kwargs):
            raise AssertionError("an argparse parser was built")

        def interrupt(server):
            raise KeyboardInterrupt

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        monkeypatch.setattr(cli.StoreServer, "serve_forever", interrupt)
        store, namer = str(tmp_path / "s"), str(tmp_path / "n")
        (tmp_path / "doc.xml").write_bytes(LIBRARY_XML)
        (tmp_path / "schema.xml").write_bytes(LIBRARY_SCHEMA)
        ran = set()

        def run(*argv):
            assert main(list(argv)) == 0, argv
            ran.add(argv[2] if argv[0] == "--home" else argv[0])
            return capsys.readouterr().out.strip()

        key = run("--home", str(tmp_path / "home"), "put", "--store", store, "--hex=0102")
        assert run("get", "--store", store, key) == "\x01\x02"
        run("put-with-key", "--store", store, "--hex", "ff", "0a0b")
        run("store-id", "--store", store)
        run("bind", "--namer", namer, "doc", key)
        assert run("lookup", "--namer", namer, "doc") == key
        assert run("lookup-as-of", f"--namer={namer}", "doc", "1") == key
        run("unbind", "--namer", namer, "doc", key)
        root = run("frag", "--store", store, "--schema", str(tmp_path / "schema.xml"),
                   "--mode", "key", str(tmp_path / "doc.xml"))
        assert run("defrag", "--store", store, root) == LIBRARY_XML.decode()
        (tmp_path / "image.xml").write_text(run("export-store", store))
        run("import-store", str(tmp_path / "image.xml"), str(tmp_path / "copy"))
        run("serve", store, "127.0.0.1:0")
        assert ran == set(cli._COMMANDS) - {"proxy"}


class TestNamerCommands:
    def test_bind_lookup_unbind(self, tmp_path, capsys):
        namer = str(tmp_path / "n.namer")
        assert main(["bind", "--namer", namer, "doc", "ff00"]) == 0
        assert main(["bind", "--namer", namer, "doc", "0a"]) == 0
        assert main(["lookup", "--namer", namer, "doc"]) == 0
        assert capsys.readouterr().out == "0a\nff00\n"  # sorted by hex
        assert main(["unbind", "--namer", namer, "doc", "0a"]) == 0
        main(["lookup", "--namer", namer, "doc"])
        assert capsys.readouterr().out == "ff00\n"

    def test_lookup_unknown_name_prints_nothing(self, tmp_path, capsys):
        namer = str(tmp_path / "n.namer")
        main(["bind", "--namer", namer, "other", "01"])
        capsys.readouterr()
        assert main(["lookup", "--namer", namer, "doc"]) == 0
        assert capsys.readouterr().out == ""

    def test_unbind_missing_binding(self, tmp_path, capsys):
        namer = str(tmp_path / "n.namer")
        main(["bind", "--namer", namer, "doc", "01"])
        assert main(["unbind", "--namer", namer, "doc", "02"]) == 1

    def test_lookup_as_of(self, tmp_path, capsys):
        namer = str(tmp_path / "n.namer")
        main(["bind", "--namer", namer, "n", "01"])  # seq 1
        main(["bind", "--namer", namer, "n", "02"])  # seq 2
        main(["unbind", "--namer", namer, "n", "01"])  # seq 3
        capsys.readouterr()
        assert main(["lookup-as-of", "--namer", namer, "n", "1"]) == 0
        assert capsys.readouterr().out == "01\n"
        assert main(["lookup-as-of", "--namer", namer, "n", "3"]) == 0
        assert capsys.readouterr().out == "02\n"
        assert main(["lookup-as-of", "--namer", namer, "n", "99"]) == 1

    def test_root_namer_via_home(self, tmp_home, capsys):
        assert main(["bind", "n", "0b"]) == 0
        assert (tmp_home / "root.namer").is_file()
        main(["lookup", "n"])
        assert capsys.readouterr().out == "0b\n"


class TestProxyCommands:
    def test_add_list_remove(self, tmp_home, capsys):
        assert main(["proxy", "add-target", "127.0.0.1:9001"]) == 0
        assert main(["proxy", "add-target", "127.0.0.1:9002"]) == 0
        assert main(["proxy", "list"]) == 0
        assert capsys.readouterr().out == "127.0.0.1:9001\n127.0.0.1:9002\n"
        assert main(["proxy", "remove-target", "127.0.0.1:9001"]) == 0
        main(["proxy", "list"])
        assert capsys.readouterr().out == "127.0.0.1:9002\n"

    def test_config_file_shape(self, tmp_home, capsys):
        main(["proxy", "add-target", "127.0.0.1:9001"])
        doc = xml_parse((tmp_home / "proxy.xml").read_bytes())
        assert doc.name == "proxy"
        assert doc.attr("put-policy") == "local-first"
        targets = doc.child_elements()
        assert [t.attr("address") for t in targets] == ["127.0.0.1:9001"]

    def test_config_keeps_the_proxy_store_id(self, tmp_home, capsys):
        """A saved proxy.xml records the proxy's id, so every command loads
        the same store; one without an id gets a new id per command until
        the next save writes one."""
        tmp_home.mkdir()
        (tmp_home / "proxy.xml").write_bytes(b'<proxy put-policy="local-first"/>')

        def store_id():
            assert main(["store-id", "--store", "proxy"]) == 0
            return capsys.readouterr().out.strip()

        assert store_id() != store_id()
        assert main(["proxy", "add-target", "127.0.0.1:9"]) == 0
        saved = store_id()
        assert store_id() == saved
        assert xml_parse((tmp_home / "proxy.xml").read_bytes()).attr("id") == saved

    def test_duplicate_and_unknown_targets(self, tmp_home, capsys):
        main(["proxy", "add-target", "127.0.0.1:9001"])
        assert main(["proxy", "add-target", "127.0.0.1:9001"]) == 1
        assert main(["proxy", "remove-target", "127.0.0.1:9999"]) == 1

    def test_same_address_spelled_differently_is_a_duplicate(self, tmp_home, capsys):
        assert main(["proxy", "add-target", "127.0.0.1:9"]) == 0
        assert main(["proxy", "add-target", "127.0.0.1:09"]) == 1
        assert "127.0.0.1:9 already present" in capsys.readouterr().err
        assert main(["store-id", "--store", "proxy"]) == 0
        capsys.readouterr()
        assert main(["proxy", "list"]) == 0
        assert capsys.readouterr().out == "127.0.0.1:9\n"

    def test_remove_matches_the_parsed_address(self, tmp_home, capsys):
        main(["proxy", "add-target", "127.0.0.1:9"])
        assert main(["proxy", "remove-target", "127.0.0.1:009"]) == 0
        main(["proxy", "list"])
        assert capsys.readouterr().out == ""

    def test_config_listing_a_target_twice_loads_it_once(self, tmp_home, capsys, caplog):
        tmp_home.mkdir()
        config = tmp_home / "proxy.xml"
        config.write_bytes(b'<proxy put-policy="local-first">'
                           b'<target address="127.0.0.1:9"/><target address="127.0.0.1:09"/>'
                           b'</proxy>')
        caplog.set_level(logging.WARNING, logger="xbase.cli")
        assert main(["proxy", "list"]) == 0
        assert capsys.readouterr().out == "127.0.0.1:9\n"
        assert [r.getMessage() for r in caplog.records] == [
            f"{config}: skipped target 127.0.0.1:09: target 127.0.0.1:9 already present"]
        assert main(["proxy", "add-target", "127.0.0.1:10"]) == 0
        targets = xml_parse(config.read_bytes()).child_elements()
        assert [t.attr("address") for t in targets] == ["127.0.0.1:9", "127.0.0.1:10"]
        assert main(["proxy", "remove-target", "127.0.0.1:9"]) == 0
        main(["proxy", "list"])
        assert capsys.readouterr().out == "127.0.0.1:10\n"

    def test_a_failed_save_keeps_the_previous_config(self, tmp_home, capsys, monkeypatch):
        assert main(["proxy", "add-target", "127.0.0.1:9001"]) == 0

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", full_disk)
            assert main(["proxy", "add-target", "127.0.0.1:9002"]) == 2
        assert [path.name for path in tmp_home.iterdir()] == ["proxy.xml"]
        capsys.readouterr()
        assert main(["proxy", "list"]) == 0
        assert capsys.readouterr().out == "127.0.0.1:9001\n"

    def test_bad_address_rejected(self, tmp_home, capsys):
        assert main(["proxy", "add-target", "no-port-here"]) == 1
        assert main(["proxy", "list"]) == 0
        assert capsys.readouterr().out == ""

    def test_store_proxy_uses_config(self, tmp_home, capsysbinary):
        backing = MemoryStore(policy="sequence")
        server = serve(backing, ("127.0.0.1", 0))
        try:
            address = f"127.0.0.1:{server.address[1]}"
            main(["proxy", "add-target", address])
            capsysbinary.readouterr()
            assert main(["put", "--store", "proxy", "--hex", "c0ffee"]) == 0
            key_hex = capsysbinary.readouterr().out.decode().strip()
            assert backing.get_store_id()  # value landed on the backing store
            assert backing.get(next(iter(backing.keys()))) == b"\xc0\xff\xee"
            assert main(["get", "--store", "proxy", key_hex]) == 0
            assert capsysbinary.readouterr().out == b"\xc0\xff\xee"
        finally:
            server.stop()

    def test_an_index_put_policy_routes_puts_to_that_target(self, tmp_home, capsys):
        backings = [MemoryStore(policy="sequence") for _ in range(2)]
        servers = [serve(backing, ("127.0.0.1", 0)) for backing in backings]
        try:
            targets = "".join(f'<target address="127.0.0.1:{server.address[1]}"/>'
                              for server in servers)
            tmp_home.mkdir()
            (tmp_home / "proxy.xml").write_text(f'<proxy put-policy="1">{targets}</proxy>')
            assert main(["put", "--store", "proxy", "--hex", "c0ffee"]) == 0
            key = Key.from_hex(capsys.readouterr().out.strip())
            assert len(backings[0]) == 0 and backings[1].get(key) == b"\xc0\xff\xee"
        finally:
            for server in servers:
                server.stop()

    @pytest.mark.parametrize("config", [
        b'<proxy put-policy="-1"/>',
        b'<proxy put-policy="first"/>',
        b'<proxies put-policy="local-first"/>',
        b'<proxy><target/></proxy>',
        b'<proxy><peer address="127.0.0.1:9"/></proxy>',
    ])
    def test_a_bad_config_exits_1(self, tmp_home, capsys, config):
        tmp_home.mkdir()
        (tmp_home / "proxy.xml").write_bytes(config)
        assert main(["store-id", "--store", "proxy"]) == 1
        assert "proxy.xml" in capsys.readouterr().err

    def test_proxy_with_all_targets_down_exits_2(self, tmp_home, capsys):
        main(["proxy", "add-target", f"127.0.0.1:{_free_port()}"])
        capsys.readouterr()
        assert main(["get", "--store", "proxy", "ab"]) == 2


LIBRARY_XML = b"<library><book><t>A</t></book><book><t>B</t></book></library>"
LIBRARY_SCHEMA = b"<library><book/></library>"


@pytest.fixture
def frag_files(tmp_path):
    doc = tmp_path / "doc.xml"
    doc.write_bytes(LIBRARY_XML)
    schema = tmp_path / "schema.xml"
    schema.write_bytes(LIBRARY_SCHEMA)
    return str(doc), str(schema)


class TestFragCommands:
    def test_key_mode_round_trip(self, frag_files, store_path, capsysbinary):
        doc, schema = frag_files
        code = main(["frag", "--store", store_path, "--schema", schema, doc])
        assert code == 0
        root_hex = capsysbinary.readouterr().out.decode().strip()
        assert main(["defrag", "--store", store_path, root_hex]) == 0
        assert capsysbinary.readouterr().out == LIBRARY_XML

    def test_name_mode_round_trip(self, frag_files, store_path, tmp_path, capsysbinary):
        doc, schema = frag_files
        namer = str(tmp_path / "n.namer")
        code = main([
            "frag", "--store", store_path, "--namer", namer, "--schema", schema,
            "--mode", "name", "--prefix", "doc", doc,
        ])
        assert code == 0
        assert capsysbinary.readouterr().out.decode().strip() == "doc/library.1"
        code = main(["defrag", "--store", store_path, "--namer", namer, "doc/library.1"])
        assert code == 0
        assert capsysbinary.readouterr().out == LIBRARY_XML

    def test_key_mode_defrag_does_not_open_the_namer(
            self, frag_files, store_path, tmp_home, capsysbinary):
        """A key root without name references needs no namer, so another
        opener holding the root namer does not stop the defrag."""
        doc, schema = frag_files
        assert main(["frag", "--store", store_path, "--schema", schema, doc]) == 0
        root_hex = capsysbinary.readouterr().out.decode().strip()
        tmp_home.mkdir(parents=True)
        with LogNamer.open(tmp_home / "root.namer"):
            assert main(["defrag", "--store", store_path, root_hex]) == 0
        assert capsysbinary.readouterr().out == LIBRARY_XML

    def test_key_root_of_name_mode_fragments_uses_the_namer(
            self, frag_files, store_path, tmp_path, capsysbinary):
        """The namer opens once defrag meets a name reference below a key root."""
        doc, schema = frag_files
        namer = str(tmp_path / "n.namer")
        code = main([
            "frag", "--store", store_path, "--namer", namer, "--schema", schema,
            "--mode", "name", "--prefix", "doc", doc,
        ])
        assert code == 0
        name = capsysbinary.readouterr().out.decode().strip()
        assert main(["lookup", "--namer", namer, name]) == 0
        root_hex = capsysbinary.readouterr().out.decode().strip()
        assert main(["defrag", "--store", store_path, "--namer", namer, root_hex]) == 0
        assert capsysbinary.readouterr().out == LIBRARY_XML

    @pytest.mark.parametrize("writer", ["proxy", "address"])
    def test_self_mode_reads_back_through_the_proxy(
            self, frag_files, tmp_home, capsysbinary, writer):
        """A self-mode document fragmented through the configured proxy, or
        through the served store it lists, reads back through --store proxy
        in a later command: the proxy keeps its id in proxy.xml, and defrag
        resolves an x-ref naming a target through the proxy."""
        doc, schema = frag_files
        server = serve(MemoryStore(), ("127.0.0.1", 0))
        try:
            address = f"127.0.0.1:{server.address[1]}"
            assert main(["proxy", "add-target", address]) == 0
            store = "proxy" if writer == "proxy" else address
            assert main(["frag", "--store", store, "--mode", "self", "--schema", schema,
                         doc]) == 0
            root_hex = capsysbinary.readouterr().out.decode().strip()
            assert main(["defrag", "--store", "proxy", root_hex]) == 0
            assert capsysbinary.readouterr().out == LIBRARY_XML
        finally:
            server.stop()

    def test_name_mode_requires_prefix(self, frag_files, store_path, capsys):
        doc, schema = frag_files
        code = main([
            "frag", "--store", store_path, "--schema", schema, "--mode", "name", doc,
        ])
        assert code == 1

    def test_bad_document_is_user_error(self, tmp_path, store_path, capsys):
        doc = tmp_path / "bad.xml"
        doc.write_bytes(b"<unclosed>")
        schema = tmp_path / "schema.xml"
        schema.write_bytes(b"<unclosed/>")
        code = main(["frag", "--store", store_path, "--schema", str(schema), str(doc)])
        assert code == 1

    def test_defrag_unknown_ref(self, store_path, capsys):
        main(["put", "--store", store_path, "--hex", "01"])
        capsys.readouterr()
        assert main(["defrag", "--store", store_path, "ffff"]) == 1


class TestImportExport:
    def test_round_trip(self, tmp_path, capsysbinary):
        original = str(tmp_path / "orig.store")
        for value in ("01", "0203", ""):
            main(["put", "--store", original, "--policy", "sequence", "--hex", value])
        capsysbinary.readouterr()
        assert main(["export-store", original]) == 0
        image = capsysbinary.readouterr().out
        image_file = tmp_path / "image.xml"
        image_file.write_bytes(image)
        clone = str(tmp_path / "clone.store")
        assert main(["import-store", str(image_file), clone]) == 0
        with open_store(original) as a, open_store(clone) as b:
            assert a.get_store_id() == b.get_store_id()
            assert dict(a.bindings()) == dict(b.bindings())

    def test_sequence_counter_survives(self, tmp_path, capsysbinary):
        original = str(tmp_path / "orig.store")
        main(["put", "--store", original, "--policy", "sequence", "--hex", "01"])
        capsysbinary.readouterr()
        main(["export-store", original])
        image_file = tmp_path / "image.xml"
        image_file.write_bytes(capsysbinary.readouterr().out)
        clone = str(tmp_path / "clone.store")
        main(["import-store", str(image_file), clone])
        main(["put", "--store", clone, "--hex", "02"])
        assert capsysbinary.readouterr().out.decode().strip() == "00" * 7 + "02"

    def test_import_refuses_existing_path(self, tmp_path, capsys):
        image_file = tmp_path / "image.xml"
        image_file.write_bytes(b'<store id="00112233445566778899aabbccddeeff" policy="random"/>')
        existing = tmp_path / "already.there"
        existing.write_bytes(b"")
        assert main(["import-store", str(image_file), str(existing)]) == 1

    def test_import_bad_image(self, tmp_path, capsys):
        image_file = tmp_path / "image.xml"
        image_file.write_bytes(b"<junk/>")
        assert main(["import-store", str(image_file), str(tmp_path / "new")]) == 1


@contextmanager
def _served(store_path):
    """Run `xbase serve` on store_path in a subprocess; yield the process
    and a RemoteStore connected to it. Stopped with SIGTERM on exit."""
    port = _free_port()
    with subprocess.Popen(
        [sys.executable, "-m", "xbase", "serve", str(store_path), f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            deadline = time.monotonic() + 10
            remote = None
            while time.monotonic() < deadline:
                try:
                    remote = RemoteStore(("127.0.0.1", port), timeout=2)
                    remote.get_store_id()
                    break
                except Exception:
                    remote = None
                    time.sleep(0.05)
            assert remote is not None, "server never came up"
            with remote:
                yield proc, remote
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def test_serve_command_subprocess(tmp_path):
    store_path = tmp_path / "served.store"
    assert main(["put", "--store", str(store_path), "--hex", "aa"]) == 0
    with _served(store_path) as (_, remote):
        key = remote.put(b"via subprocess")
        assert remote.get(key) == b"via subprocess"


def test_serve_closes_its_store_on_sigterm(tmp_path):
    """SIGTERM is a clean stop: exit status 0, and the store closed on the
    way out, so the log is fsynced and its hint written."""
    store_path = tmp_path / "served.store"
    with _served(store_path) as (proc, remote):
        keys = [remote.put(b"value %d" % i) for i in range(100)]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    assert (tmp_path / "served.store.hint").exists()
    with open_store(str(store_path)) as store:
        assert [store.get(key) for key in keys] == [b"value %d" % i for i in range(100)]
