"""`documents`: the fragmentation round trip over TCP.

The client writes through a ProxyStore whose local store is an in-process
MemoryStore and whose one target is `xbase serve` on a fresh content-hash
append log; with put_policy=0 puts go to the target and every get probes
local (a miss), then the target (a hit). Generated libraries are parsed and
fragmented (schema library/book/chapter), then defragmented and serialized.
Half the libraries use key references; the other half use name references
through a LogNamer and get chapter edits. The namer log already holds an
archive of earlier versions under other names, so opening it in set-up
replays a real history.

The generator writes every library directly in the canonical form, so a
correct round trip reproduces the source text byte for byte.
"""
from __future__ import annotations

import hashlib
import random
import time

from harness import latency_summary, quiesce, rss_kb, thaw, wait_first_answer

FULL = dict(books=200, chapters=3, pool=60, setup_reps=5, warmup_books=20, state_rounds=12,
            archive_names=2000, archive_versions=30_000)
SMOKE = dict(books=6, chapters=2, pool=4, setup_reps=2, warmup_books=3, state_rounds=2,
             archive_names=20, archive_versions=200)
SHARED_SHARE = 0.2  # chapters drawn from the shared pool, across books and libraries
EDITS_PER_NAMED_LIBRARY = 2
SCHEMA = b"<library><book><chapter/></book></library>"
SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "xe", "zu", "bra", "cle", "dro")
SPECIAL_WORDS = ("R&D", "a<b", "x>y", "été", "naïve")


def _text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _attr(value: str) -> str:
    return _text(value).replace('"', "&quot;")


class LibraryGenerator:
    """Canonical library text: <library><book><title/><author/><chapter/>...</book>...</library>."""

    def __init__(self, rng: random.Random, p: dict):
        self.rng = rng
        self.p = p
        self.pool = [self.chapter() for _ in range(p["pool"])]

    def words(self, n: int) -> str:
        rng = self.rng
        out = []
        for _ in range(n):
            if rng.random() < 0.02:
                out.append(rng.choice(SPECIAL_WORDS))
            else:
                out.append("".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 4))))
        return " ".join(out)

    def chapter(self) -> str:
        rng = self.rng
        paras = "".join(f"<p>{_text(self.words(rng.randint(20, 40)))}</p>" for _ in range(2))
        return f'<chapter title="{_attr(self.words(3))}">{paras}</chapter>'

    def library(self, label: str, books: int) -> list:
        """[(book head, [chapter text, ...]), ...]; see render()."""
        rng = self.rng
        out = []
        for b in range(books):
            head = (f'<book id="b{b + 1}" year="{rng.randint(1800, 2020)}">'
                    f"<title>{_text(self.words(4))}</title>"
                    f"<author>{_text(self.words(2))}</author>")
            chapters = [rng.choice(self.pool) if rng.random() < SHARED_SHARE else self.chapter()
                        for _ in range(self.p["chapters"])]
            out.append((head, chapters))
        return [f'<library name="{label}">', out]


def render(lib: list) -> bytes:
    head, books = lib
    return (head + "".join(h + "".join(chs) + "</book>" for h, chs in books)
            + "</library>").encode("utf-8")


def write_archive(path, rng: random.Random, p: dict) -> None:
    """A namer log of earlier versions: each archive version binds a name to
    a new key and unbinds the key it replaces."""
    from xbase.core import Key, Name
    from xbase.namer import LogNamer

    names = [Name(f"archive/{i:05d}") for i in range(p["archive_names"])]
    current = {}
    with LogNamer.open(path) as namer:
        for _ in range(p["archive_versions"]):
            name = rng.choice(names)
            key = Key(rng.randbytes(32))
            namer.bind(name, key)
            if name in current:
                namer.unbind(name, current[name])
            current[name] = key


def run(ctx) -> dict:
    from xbase import xmldoc, xmlfrag
    from xbase.core import Key, Name
    from xbase.namer import LogNamer
    from xbase.netstore import ProxyStore
    from xbase.stores import AppendLogStore, MemoryStore

    p = SMOKE if ctx.smoke else FULL
    rng = random.Random(ctx.seed)
    gen = LibraryGenerator(rng, p)
    schema = xmlfrag.FragSchema.from_xml(SCHEMA)
    namer_path = ctx.work / "documents.namer"
    write_archive(namer_path, rng, p)
    archive_bytes = namer_path.stat().st_size

    # ---- set-up, several times; the last server, namer and proxy stay
    ctx.trace("setup")
    setups, server, namer = [], None, None
    for rep in range(p["setup_reps"]):
        if server is not None:
            namer.close()
            server.kill()
        store_path = ctx.work / f"documents-{rep}.log"
        quiesce()
        t0 = time.perf_counter()
        AppendLogStore.open(store_path, policy="content-hash").close()
        server = ctx.start_server(store_path)
        wait_first_answer(server.address).close()
        namer = LogNamer.open(namer_path)
        proxy = ProxyStore(local=MemoryStore(), put_policy=0)
        proxy.add_target(server.address)
        setups.append(time.perf_counter() - t0)
        thaw()
    ctx.trace_off()

    reads, writes, edits = [], [], []
    correct, failed, errors = True, 0, []
    source_bytes = 0
    clock = time.perf_counter

    rss_base = rss_peak = 0

    def timed(samples, fn, *args):
        nonlocal failed, rss_peak
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation of the program failed
            failed += 1
            errors.append(f"{fn.__name__}: {exc!r}")
            return None
        if samples is not None:
            samples.append(clock() - t0)
            rss_peak = max(rss_peak, rss_kb())
        return result

    def write(text: bytes, mode: str, prefix: str | None):
        doc = xmldoc.xml_parse(text)
        return xmlfrag.fragment(doc, schema, proxy, mode=mode, namer=namer, name_prefix=prefix)

    def read(ref) -> bytes:
        return xmldoc.xml_serialize(xmlfrag.defragment(ref, proxy, namer=namer))

    def edit(name: Name, old: bytes, new: bytes) -> None:
        key = proxy.put(new)
        namer.bind(name, key)
        namer.unbind(name, Key(hashlib.sha256(old).digest()))

    def library_round(label: str, books: int, record: bool) -> int:
        """Key-mode library: write, read. Name-mode library: write, read,
        edits, read. Returns the number of operations attempted."""
        nonlocal correct, source_bytes
        ops = 0
        for mode in ("key", "name"):
            lib = gen.library(f"{label}-{mode}", books)
            text = render(lib)
            source_bytes += len(text)
            prefix = f"{label}-{mode}" if mode == "name" else None
            ref = timed(writes if record else None, write, text, mode, prefix)
            out = timed(reads if record else None, read, ref)
            ops += 2
            correct &= out == text
            if mode == "key":
                correct &= isinstance(ref, Key)
                continue
            for _ in range(EDITS_PER_NAMED_LIBRARY):
                b = rng.randrange(books)
                c = rng.randrange(p["chapters"])
                old = lib[1][b][1][c]
                new = gen.chapter()
                name = Name(f"{prefix}/library.1/book.{b + 1}/chapter.{c + 1}")
                timed(edits if record else None, edit, name, old.encode(), new.encode())
                lib[1][b][1][c] = new
                source_bytes += len(new.encode())
                ops += 1
            text = render(lib)
            out = timed(reads if record else None, read, ref)
            ops += 1
            correct &= out == text
        return ops

    library_round(f"warmup-{ctx.seed}", p["warmup_books"], record=False)
    failed_in_warmup = failed
    correct &= failed_in_warmup == 0

    # Every library adds fragments to the server's index and names to the
    # namer, so the memory and disk readings are taken after a fixed number
    # of rounds: the same stored data in every run, however fast it goes.
    def read_state():
        disk = store_path.stat().st_size + namer_path.stat().st_size - archive_bytes
        return server.peak_rss_kb(), rss_peak - rss_base, disk / source_bytes

    quiesce()
    rss_base = rss_peak = rss_kb()
    ctx.trace_on()
    ops, rounds, state = 0, 0, None
    deadline = clock() + ctx.seconds
    while (rounds < p["state_rounds"] or clock() < deadline) and not ctx.trace_full():
        ops += library_round(f"lib-{ctx.seed}-{rounds}", p["books"], record=True)
        rounds += 1
        if rounds == p["state_rounds"]:
            state = read_state()
    ctx.trace_off()
    server_peak_kb, client_growth_kb, disk_ratio = state or read_state()  # a traced run may stop first
    thaw()

    namer.close()
    server_spans = server.dump_spans() if ctx.traced else None
    busy = sum(reads) + sum(writes) + sum(edits)
    return dict(
        correct=correct,
        attempted=ops,
        failed=failed - failed_in_warmup,
        errors=errors,
        setup=setups,
        ops_per_s=len(reads + writes + edits) / busy,
        read=latency_summary(reads),
        write=latency_summary(writes),
        peak_rss_mb=max(server_peak_kb, client_growth_kb) / 1024,
        disk_ratio=disk_ratio,
        server_spans=server_spans,
        notes=[f"{rounds} rounds of 2 libraries x {p['books']} books x {p['chapters']} chapters; "
               f"after {p['state_rounds']} rounds: client RSS growth "
               f"{client_growth_kb / 1024:.1f} MB, server peak {server_peak_kb / 1024:.1f} MB; "
               f"namer archive {p['archive_versions']} versions, {archive_bytes / 1e6:.1f} MB"],
    )
