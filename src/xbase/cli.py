"""Command-line surface for stores, namers, serving, proxying, and
fragmentation.

Conventions: stdout carries only payloads and answers (key hex, values,
documents); every diagnostic goes to stderr. Exit codes: 0 success, 1 user
error (bad arguments, unknown keys or names), 2 corruption or I/O trouble.

Store selection (--store): a filesystem path, the literal "root" for the
per-user bootstrap store, "host:port" for a served store, or "proxy" for
the proxy configured under the home directory. Values come from --hex,
--file, or stdin.

Parsing: _COMMANDS is the one table of commands and their arguments. main
reads a plain argv straight from it (_read_plain) and builds no parser;
every other argv, help and errors included, goes to the argparse parser
built from the same table (build_parser), so output and exit codes are
argparse's. argparse is imported only then.
"""
from __future__ import annotations

import logging
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .casters import store_reflect, store_reify
from .core import (
    CorruptionError,
    Key,
    LogLockedError,
    Name,
    StoreID,
    XbaseError,
)
from .home import ROOT_NAMER_FILENAME, ROOT_STORE_FILENAME, root_is_open, xbase_home
from .namer import get_root_namer, open_namer
from .netstore import (
    AllTargetsUnreachableError,
    DuplicateTargetError,
    MalformedMessageError,
    ProxyStore,
    RemoteError,
    RemoteStore,
    StoreServer,
    UnreachableError,
    parse_address,
)
from .stores import LAYOUTS, POLICIES, AppendLogStore, _atomic_write, get_root_store, open_store
from .xmldoc import Element, xml_parse, xml_serialize
from .xmlfrag import FragSchema, MODE_NAME, defragment, fragment

if TYPE_CHECKING:
    import argparse

PROXY_CONFIG_FILENAME = "proxy.xml"

logger = logging.getLogger(__name__)

_IO_ERRORS = (
    CorruptionError,
    LogLockedError,
    UnreachableError,
    AllTargetsUnreachableError,
    RemoteError,
    MalformedMessageError,
    OSError,
)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built from _COMMANDS. main parses with it
    every argv that _read_plain declines."""
    import argparse  # here, not at the top: a plain command does not pay for it

    class ArgumentParser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2; we use 1
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = ArgumentParser(prog="xbase", description=__doc__.splitlines()[0])
    parser.add_argument("--home", help="override the data directory (else XBASE_HOME)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), arguments)
    return parser


def _add_arguments(parser: argparse.ArgumentParser, arguments) -> None:
    """arguments: (flag, add_argument keywords) pairs, and callables that
    add their own arguments to parser."""
    for argument in arguments:
        if callable(argument):
            argument(parser)
        else:
            parser.add_argument(argument[0], **argument[1])


_STORE = (
    ("--store", dict(default="root", help="path | root | host:port | proxy (default root)")),
    ("--layout", dict(choices=LAYOUTS, help="layout when creating a path store")),
    ("--policy", dict(choices=POLICIES, help="key policy when creating a path store")),
)
_NAMER = (("--namer", dict(default="root", help="path | root (default root)")),)
_VALUE = (
    ("--hex", dict(dest="value_hex", help="value as hex")),
    ("--file", dict(dest="value_file", help="read value from a file")),
)
_KEY = ("key", dict(help="key as hex"))
_NAME = ("name", {})


def _proxy_commands(parser: argparse.ArgumentParser) -> None:
    proxy_sub = parser.add_subparsers(dest="proxy_command", required=True)
    address = (("address", dict(help="host:port")),)
    _add_arguments(proxy_sub.add_parser("add-target", help="register a target address"), address)
    _add_arguments(proxy_sub.add_parser("remove-target", help="drop a target address"), address)
    proxy_sub.add_parser("list", help="print target addresses, one per line")


def _option(argv: list[str], i: int, flags) -> tuple[str, str, int] | None:
    """The flag at argv[i], one of flags exactly, given as --flag value or
    --flag=value: (flag, value, index after the value). None for any other
    token, a missing value or a value that starts with "-"."""
    flag, equals, value = argv[i].partition("=")
    if flag not in flags:
        return None
    if not equals:
        i += 1
        if i == len(argv):
            return None
        value = argv[i]
    return None if value.startswith("-") else (flag, value, i + 1)


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser().parse_args(argv) would give, read from
    _COMMANDS without argparse, for a plain argv: an optional leading --home,
    a command named exactly, that command's own long flags named exactly, and
    positionals that do not start with "-". It checks the positional count,
    choices, required flags and types as argparse does. Anything else, valid
    or not, it declines with None: help, errors, abbreviations, "--", values
    that start with "-", and proxy's subcommands are argparse's to parse."""
    args, i = SimpleNamespace(home=None), 0
    if argv and (home := _option(argv, 0, ("--home",))):
        _, args.home, i = home
    if i == len(argv) or argv[i] not in _COMMANDS:
        return None
    args.command = argv[i]
    flags, positionals = {}, []
    for argument in _COMMANDS[args.command][2]:
        if callable(argument):
            return None  # subcommands of its own
        name, spec = argument
        if name.startswith("--"):
            dest = spec.get("dest", name[2:].replace("-", "_"))
            flags[name] = dest, spec
            setattr(args, dest, spec.get("default"))
        else:
            positionals.append((name, spec))
    given, pending, i = set(), iter(positionals), i + 1
    while i < len(argv):
        if argv[i].startswith("-"):
            option = _option(argv, i, flags)
            if option is None:
                return None
            flag, value, i = option
            given.add(flag)
            dest, spec = flags[flag]
        else:
            positional = next(pending, None)
            if positional is None:
                return None  # one too many
            (dest, spec), value, i = positional, argv[i], i + 1
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        setattr(args, dest, value)
    if next(pending, None) or any(spec.get("required") and flag not in given
                                  for flag, (_, spec) in flags.items()):
        return None
    return args


def _read_value(args) -> bytes:
    sources = [s for s in (args.value_hex, args.value_file) if s is not None]
    if len(sources) > 1:
        raise ValueError("give a value as --hex or --file, not both")
    if args.value_hex is not None:
        return bytes.fromhex(args.value_hex)
    if args.value_file is not None:
        return Path(args.value_file).read_bytes()
    return sys.stdin.buffer.read()


def _is_address(text: str) -> bool:
    try:
        parse_address(text)
        return True
    except ValueError:
        return False


def _root(filename: str, get_root, home):
    """get_root(home), for a with block that closes it only if this call
    opened it: a root the process already held stays open."""
    if root_is_open(filename, home):
        return nullcontext(get_root(home))
    return get_root(home)


def _open_selected_store(args):
    """The selected store, for a with block that closes it (the root store
    only if this call opened it)."""
    selection = args.store
    if selection == "root":
        return _root(ROOT_STORE_FILENAME, get_root_store, args.home)
    if selection == "proxy":
        return _load_proxy(args.home)
    if _is_address(selection):
        return RemoteStore(selection)
    return open_store(selection, layout=getattr(args, "layout", None),
                      policy=getattr(args, "policy", None))


def _open_selected_namer(args):
    """The selected namer, for a with block that closes it (the root namer
    only if this call opened it)."""
    if args.namer == "root":
        return _root(ROOT_NAMER_FILENAME, get_root_namer, args.home)
    return open_namer(args.namer)


def _proxy_config_path(home) -> Path:
    return xbase_home(home) / PROXY_CONFIG_FILENAME


def _load_proxy(home) -> ProxyStore:
    """The proxy configured under home, with the store id it records (else a
    new one), and no targets if there is no config yet. A target listed twice,
    under any spelling of its address, is added once; the next save writes it once."""
    path = _proxy_config_path(home)
    if not path.exists():
        return ProxyStore()
    root = xml_parse(path.read_bytes())
    if root.name != "proxy":
        raise ValueError(f"{path}: expected a <proxy> document")
    proxy_id = root.attr("id")
    proxy = ProxyStore(store_id=StoreID.from_hex(proxy_id) if proxy_id else None)
    policy = root.attr("put-policy", "local-first")
    if policy != "local-first":
        if not policy.isdigit():
            raise ValueError(f"{path}: bad put-policy {policy!r}")
        proxy.put_policy = int(policy)
    for child in root.child_elements():
        address = child.attr("address")
        if child.name != "target" or address is None:
            raise ValueError(f"{path}: expected <target address=...> entries")
        try:
            proxy.add_target(address)
        except DuplicateTargetError as exc:
            logger.warning("%s: skipped target %s: %s", path, address, exc)
    return proxy


def _target_addresses(proxy: ProxyStore) -> list[str]:
    return ["%s:%d" % target.address for target in proxy.targets()]


def _save_proxy_config(home, proxy: ProxyStore) -> None:
    children = tuple(Element("target", (("address", a),)) for a in _target_addresses(proxy))
    attributes = (("id", proxy.get_store_id().hex), ("put-policy", str(proxy.put_policy)))
    doc = Element("proxy", attributes, children)
    _atomic_write(_proxy_config_path(home), xml_serialize(doc))


def _cmd_put(args) -> int:
    value = _read_value(args)
    with _open_selected_store(args) as store:
        print(store.put(value).hex)
    return 0


def _cmd_get(args) -> int:
    with _open_selected_store(args) as store:
        value = store.get(Key.from_hex(args.key))
    if args.out:
        Path(args.out).write_bytes(value)
    else:
        sys.stdout.buffer.write(value)
        sys.stdout.buffer.flush()
    return 0


def _cmd_put_with_key(args) -> int:
    value = _read_value(args)
    with _open_selected_store(args) as store:
        store.put_with_key(value, Key.from_hex(args.key))
    return 0


def _cmd_store_id(args) -> int:
    with _open_selected_store(args) as store:
        print(store.get_store_id().hex)
    return 0


def _cmd_bind(args) -> int:
    with _open_selected_namer(args) as namer:
        namer.bind(Name(args.name), Key.from_hex(args.key))
    return 0


def _cmd_unbind(args) -> int:
    with _open_selected_namer(args) as namer:
        namer.unbind(Name(args.name), Key.from_hex(args.key))
    return 0


def _cmd_lookup(args) -> int:
    """Serves both lookup and lookup-as-of."""
    with _open_selected_namer(args) as namer:
        if args.command == "lookup-as-of":
            keys = namer.lookup_as_of(Name(args.name), args.seq)
        else:
            keys = namer.lookup(Name(args.name))
    for key_hex in sorted(k.hex for k in keys):
        print(key_hex)
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _cmd_serve(args) -> int:
    import signal  # here, not at the top: no other command pays for it

    # SIGTERM stops the server as Ctrl-C does, so the store still closes:
    # its log is fsynced and its hint written
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        with open_store(args.path) as store, StoreServer(store, args.address) as server:
            host, port = server.address
            print(f"serving {args.path} on {host}:{port}", file=sys.stderr)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_proxy(args) -> int:
    with _load_proxy(args.home) as proxy:
        if args.proxy_command == "list":
            for address in _target_addresses(proxy):
                print(address)
            return 0
        if args.proxy_command == "add-target":
            proxy.add_target(args.address)
        else:
            proxy.remove_target(args.address)
        _save_proxy_config(args.home, proxy)
    return 0


def _cmd_frag(args) -> int:
    doc = xml_parse(Path(args.doc).read_bytes())
    schema = FragSchema.from_xml(Path(args.schema).read_bytes())
    with ExitStack() as stack:
        store = stack.enter_context(_open_selected_store(args))
        namer = None
        if args.mode == MODE_NAME:
            if not args.prefix:
                raise ValueError("--prefix is required for name mode")
            namer = stack.enter_context(_open_selected_namer(args))
        ref = fragment(doc, schema, store, mode=args.mode, namer=namer,
                       name_prefix=args.prefix)
    print(ref.text if isinstance(ref, Name) else ref.hex)
    return 0


def _parse_ref(text: str) -> Key | Name:
    try:
        return Key.from_hex(text)
    except ValueError:
        return Name(text)


def _cmd_defrag(args) -> int:
    with ExitStack() as stack:
        store = stack.enter_context(_open_selected_store(args))
        namer = None  # opened once a name reference needs it

        def lookup(name: Name) -> set[Key]:
            nonlocal namer
            if namer is None:
                namer = stack.enter_context(_open_selected_namer(args))
            return namer.lookup(name)

        resolver = store.store_for_id if args.store == "proxy" else None  # self-mode x-refs
        doc = defragment(_parse_ref(args.ref), store, SimpleNamespace(lookup=lookup), resolver)
    sys.stdout.buffer.write(xml_serialize(doc))
    sys.stdout.buffer.flush()
    return 0


def _cmd_export_store(args) -> int:
    with open_store(args.path) as store:
        image = store_reify(store)
    sys.stdout.buffer.write(image)
    sys.stdout.buffer.flush()
    return 0


def _cmd_import_store(args) -> int:
    if Path(args.path).exists():
        raise ValueError(f"{args.path} already exists")
    reflected = store_reflect(Path(args.image).read_bytes())
    with AppendLogStore.open(args.path, policy=reflected.policy.kind,
                             store_id=reflected.get_store_id()) as store:
        for key, value in reflected.bindings():
            store.put_with_key(value, key)
    return 0


# command -> (handler, help, arguments as _add_arguments takes them and
# _read_plain reads them)
_COMMANDS = {
    "put": (_cmd_put, "store a value, print its key", _STORE + _VALUE),
    "get": (_cmd_get, "print a stored value",
            _STORE + (_KEY, ("--out", dict(help="write the value to a file instead of stdout")))),
    "put-with-key": (_cmd_put_with_key, "store a value under a caller-chosen key",
                     _STORE + _VALUE + (_KEY,)),
    "store-id": (_cmd_store_id, "print the store's id", _STORE),
    "bind": (_cmd_bind, "bind a name to a key", _NAMER + (_NAME, _KEY)),
    "unbind": (_cmd_unbind, "remove one name-to-key binding", _NAMER + (_NAME, _KEY)),
    "lookup": (_cmd_lookup, "print the keys bound to a name, one per line",
               _NAMER + (_NAME,)),
    "lookup-as-of": (_cmd_lookup, "lookup against a historical log position",
                     _NAMER + (_NAME, ("seq", dict(type=int)))),
    "serve": (_cmd_serve, "serve a store over TCP until interrupted", (
        ("path", {}), ("address", dict(help="host:port to bind")))),
    "proxy": (_cmd_proxy, "manage the proxy target list", (_proxy_commands,)),
    "frag": (_cmd_frag, "fragment an XML document into a store", _STORE + _NAMER + (
        ("doc", dict(help="XML document file")),
        ("--schema", dict(required=True, help="fragmentation schema file")),
        ("--mode", dict(choices=["key", "name", "self"], default="key")),
        ("--prefix", dict(help="name prefix (name mode)")),
    )),
    "defrag": (_cmd_defrag, "reassemble a fragmented document", _STORE + _NAMER + (
        ("ref", dict(help="root fragment key (hex) or bound name")),)),
    "export-store": (_cmd_export_store, "print a store's XML image", (("path", {}),)),
    "import-store": (_cmd_import_store, "rebuild a store from an XML image", (
        ("image", dict(help="XML image file")),
        ("path", dict(help="destination store path (must not exist)")),
    )),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command][0](args)
    except _IO_ERRORS as exc:
        print(f"xbase: {exc}", file=sys.stderr)
        return 2
    except (XbaseError, ValueError) as exc:
        print(f"xbase: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
