"""End-to-end acceptance checks.

Each test exercises one observable guarantee of the toolkit at full size
(random corpora, loopback servers, on-disk logs) and prints a single
C<nn> PASS line when it holds. Run with -v for one line per guarantee.
"""
import hashlib
import os
import random
import shutil
import threading
import time

import pytest

from xbase.casters import (
    PersonRecord,
    namer_reflect,
    namer_reify,
    person_reflect,
    person_reify,
    store_reflect,
    store_reify,
)
from xbase.core import (
    CorruptionError,
    InvalidRepresentationError,
    Key,
    Name,
    StoreID,
    UnknownKeyError,
)
from xbase.interpreters import rle_compress, rle_expand, keystream, xor_cipher
from xbase.namer import LogNamer, MemoryNamer
from xbase.netstore import (
    GetRequest,
    MalformedMessageError,
    ProxyStore,
    RemoteStore,
    StoreIdRequest,
    decode_message,
    encode_message,
    serve,
)
from xbase.stores import (
    HEADER_LEN,
    AppendLogStore,
    FilePerKeyStore,
    MemoryStore,
)
from xbase.xmldoc import Element, Text, iter_elements, xml_parse
from xbase.xmlfrag import (
    FragSchema,
    SchemaNode,
    defragment,
    fragment,
    fully_collapsed_schema,
    fully_expanded_schema,
)

POLICIES = ("random", "sequence", "content-hash")


def _open_layout(layout: str, policy: str, base):
    if layout == "memory":
        return MemoryStore(policy=policy)
    path = base / f"{layout}-{policy}.store"
    if layout == "append-log":
        return AppendLogStore.open(path, policy=policy)
    return FilePerKeyStore.open(path, policy=policy)


def test_c01_store_round_trip_suite(tmp_path):
    """1000 random values per layout x policy combination survive put/get."""
    rng = random.Random(0xC1)
    started = time.monotonic()
    for layout in ("memory", "append-log", "file-per-key"):
        for policy in POLICIES:
            store = _open_layout(layout, policy, tmp_path)
            values = [b"", bytes(65536)]  # pin both length extremes
            values += [
                rng.randbytes(rng.randrange(0, 65537)) for _ in range(998)
            ]
            pairs = [(store.put(v), v) for v in values]
            for key, value in pairs:
                assert store.get(key) == value, (layout, policy, key.hex)
            if hasattr(store, "close"):
                store.close()
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"round-trip suite took {elapsed:.1f}s"
    print(f"C01 PASS store round-trips, 9 combos x 1000 values in {elapsed:.1f}s")


def test_c02_append_only_crash_suite(tmp_path):
    """Random truncations reopen cleanly with the committed prefix only."""
    path = tmp_path / "crash.store"
    store = AppendLogStore.open(path, policy="sequence")
    rng = random.Random(0xC2)
    expected: list[tuple[Key, bytes]] = []
    ends: list[int] = []
    for i in range(50):
        value = rng.randbytes(rng.randrange(0, 400))
        key = store.put(value)
        expected.append((key, value))
        ends.append(os.path.getsize(path))
    store.close()
    original = path.read_bytes()

    for i in range(200):
        offset = rng.randrange(HEADER_LEN, len(original) + 1)
        work = tmp_path / "truncated.store"
        work.write_bytes(original[:offset])
        committed = sum(1 for end in ends if end <= offset)
        reopened = AppendLogStore.open(work)
        assert dict(reopened.bindings()) == dict(expected[:committed]), offset
        reopened.put(b"still writable")  # clean open means usable
        reopened.close()
        work.unlink()

    # flipping a committed value byte mid-file must be caught on replay
    corrupt = bytearray(original)
    corrupt[ends[0] - 5] ^= 0xFF
    bad = tmp_path / "corrupt.store"
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(CorruptionError):
        AppendLogStore.open(bad)
    print("C02 PASS append-log: 200 truncations recover, CRC corruption detected")


def test_c03_content_hash_sharing(tmp_path):
    """Independent content-hash stores agree on keys; empty input matches
    the published test vector."""
    a = MemoryStore(policy="content-hash")
    b = AppendLogStore.open(tmp_path / "b.store", policy="content-hash")
    rng = random.Random(0xC3)
    for _ in range(200):
        value = rng.randbytes(rng.randrange(0, 2000))
        assert a.put(value) == b.put(value)
    empty_key = a.put(b"")
    assert empty_key.raw == hashlib.sha256(b"").digest()
    assert empty_key.hex == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    b.close()
    print("C03 PASS content-hash keys shared across stores, empty vector exact")


def _replay(records) -> MemoryNamer:
    oracle = MemoryNamer()
    for record in records:
        if record.action == 1:
            oracle.bind(record.name, record.key)
        else:
            oracle.unbind(record.name, record.key)
    return oracle


def test_c04_namer_oracle_equivalence(tmp_path):
    """10,000 random operations against memory and log namers agree; as-of
    lookups equal a fresh replay of the log prefix."""
    rng = random.Random(0xC4)
    names = [Name(f"name-{i}") for i in range(20)]
    keys = [Key(bytes([i + 1]) * 4) for i in range(10)]
    memory = MemoryNamer()
    log = LogNamer.open(tmp_path / "oracle.namer")

    for step in range(10_000):
        name, key = rng.choice(names), rng.choice(keys)
        action = rng.random()
        if action < 0.5:
            memory.bind(name, key)
            log.bind(name, key)
        elif action < 0.8:
            outcomes = []
            for namer in (memory, log):
                try:
                    namer.unbind(name, key)
                    outcomes.append("ok")
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
            assert outcomes[0] == outcomes[1], step
        else:
            assert memory.lookup(name) == log.lookup(name), step
    for name in names:
        assert memory.lookup(name) == log.lookup(name)

    records = log.records()
    for _ in range(100):
        i = rng.randrange(0, len(records) + 1)
        oracle = _replay(records[:i])
        for name in names:
            assert log.lookup_as_of(name, i) == oracle.lookup(name), i
    log.close()
    print("C04 PASS namer: 10,000-op oracle agreement, 100 as-of replays equal")


def test_c05_update_protocol(tmp_path):
    """Rebinding a name steers reads to new data without discarding old."""
    store = AppendLogStore.open(tmp_path / "u.store", policy="sequence")
    namer = LogNamer.open(tmp_path / "u.namer")
    d1, d2 = b"first revision", b"second revision"
    n = Name("document")
    k1 = store.put(d1)
    namer.bind(n, k1)
    k2 = store.put(d2)
    namer.bind(n, k2)
    namer.unbind(n, k1)
    assert namer.lookup(n) == {k2}
    assert store.get(k1) == d1  # old data remains readable
    assert store.get(k2) == d2
    store.close()
    namer.close()
    print("C05 PASS update protocol: lookup moves to k2, d1 still served")


def test_c06_interpreter_suite():
    """Run-length coding and the XOR cipher invert themselves; the three
    hand-derived byte examples match."""
    assert rle_compress(b"\xaa\xaa\xaa") == b"\x03\xaa"
    assert rle_compress(b"\x00" * 300) == b"\xff\x00\x2d\x00"
    assert keystream(b"\x00" * 8, 1) == b"\x14"

    rng = random.Random(0xC6)
    key = rng.randbytes(8)
    for _ in range(1000):
        data = (
            rng.randbytes(rng.randrange(0, 300))
            if rng.random() < 0.5
            else rng.choice([b"\x00", b"\xab", b"\x7f"]) * rng.randrange(0, 1000)
        )
        assert rle_expand(rle_compress(data)) == data
        assert xor_cipher(xor_cipher(data, key), key) == data
    print("C06 PASS interpreters: 1000 round-trips, hand-derived bytes exact")


def test_c07_caster_suite():
    """Casters round-trip, nest, and reject arbitrary bytes gracefully."""
    person = PersonRecord(name="Graham", age=37)
    assert person_reflect(person_reify(person)) == person

    inner = MemoryStore(policy="sequence")
    for payload in (b"alpha", b"", b"gamma"):
        inner.put(payload)
    outer = MemoryStore(policy="content-hash")
    pointer = outer.put(store_reify(inner))
    inner_copy = store_reflect(store_reflect(store_reify(outer)).get(pointer))
    assert dict(inner_copy.bindings()) == dict(inner.bindings())
    assert inner_copy.get_store_id() == inner.get_store_id()

    namer = MemoryNamer()
    namer.bind(Name("a"), Key(b"\x01"))
    namer.bind(Name("b"), Key(b"\x02"))
    assert namer_reflect(namer_reify(namer)).bindings() == namer.bindings()

    rng = random.Random(0xC7)
    for _ in range(1000):
        blob = rng.randbytes(rng.randrange(0, 200))
        for reflect in (person_reflect, store_reflect, namer_reflect):
            with pytest.raises(InvalidRepresentationError):
                reflect(blob)
    print("C07 PASS casters: round-trips, nested store, 1000 rejects clean")


_DOC_NAMES = ("a", "b", "item", "node", "row")
_DOC_TEXTS = ("alpha", "beta <&> 'q'", " ", "42")


def _random_doc(rng: random.Random) -> Element:
    budget = rng.randrange(1, 51)

    def build(depth: int) -> Element:
        nonlocal budget
        budget -= 1
        attrs = tuple(
            (name, rng.choice(_DOC_TEXTS))
            for name in rng.sample(_DOC_NAMES, rng.randrange(0, 3))
        )
        children: list = []
        if depth < 5:
            for _ in range(rng.randrange(0, 4)):
                if budget <= 0:
                    break
                if rng.random() < 0.25 and not (
                    children and isinstance(children[-1], Text)
                ):
                    children.append(Text(rng.choice(_DOC_TEXTS)))
                else:
                    children.append(build(depth + 1))
        return Element(rng.choice(_DOC_NAMES), attrs, tuple(children))

    return build(1)


def _random_schema(element: Element, rng: random.Random) -> SchemaNode:
    if rng.random() < 0.3:
        return SchemaNode(element.name, collapse=True)
    children: dict[str, SchemaNode] = {}
    for child in element.child_elements():
        if child.name not in children and rng.random() < 0.7:
            children[child.name] = _random_schema(child, rng)
    nodes = tuple(children.values())
    if rng.random() < 0.25:
        nodes += (SchemaNode("*", collapse=rng.random() < 0.5),)
    return SchemaNode(element.name, False, nodes)


def _doc_depth(element: Element) -> int:
    return 1 + max((_doc_depth(c) for c in element.child_elements()), default=0)


def test_c08_fragmentation_suite():
    """200 random documents x random collapse markings x all three modes
    reassemble bit-exactly; fragment counts match the two schema extremes."""
    rng = random.Random(0xC8)
    for i in range(200):
        doc = _random_doc(rng)
        schema = FragSchema(_random_schema(doc, rng))
        for mode in ("key", "name", "self"):
            store = MemoryStore(policy="sequence")
            namer = MemoryNamer()
            ref = fragment(
                doc, schema, store, mode=mode, namer=namer, name_prefix=f"d{i}"
            )
            assert defragment(ref, store, namer=namer) == doc, (i, mode)
            for _, body in store.bindings():
                xml_parse(body)  # every fragment stands alone

        store = MemoryStore(policy="sequence")
        fragment(doc, fully_collapsed_schema(), store)
        assert len(store) == 1, i

        store = MemoryStore(policy="sequence")
        key = fragment(doc, fully_expanded_schema(_doc_depth(doc)), store)
        assert len(store) == len(list(iter_elements(doc))), i
        assert defragment(key, store) == doc, i
    print("C08 PASS fragmentation: 200 docs x 3 modes round-trip, counts exact")


def test_c09_name_mode_document_update():
    """Rebinding one fragment name swaps exactly that subtree; the same
    attempt leaves a key-mode document untouched."""
    doc = xml_parse(
        b"<library><book><t>A</t></book><book><t>B</t></book></library>"
    )
    schema = FragSchema.from_xml(b"<library><book/></library>")
    replacement = b"<book><t>B revised</t></book>"
    expected = xml_parse(
        b"<library><book><t>A</t></book><book><t>B revised</t></book></library>"
    )

    store = MemoryStore(policy="random")
    namer = MemoryNamer()
    ref = fragment(doc, schema, store, mode="name", namer=namer, name_prefix="doc")
    target = Name("doc/library.1/book.2")
    (old_key,) = namer.lookup(target)
    new_key = store.put(replacement)
    namer.bind(target, new_key)
    namer.unbind(target, old_key)
    updated = defragment(ref, store, namer=namer)
    assert updated == expected
    assert updated.child_elements()[0] == doc.child_elements()[0]  # sibling intact

    key_store = MemoryStore(policy="random")
    key_ref = fragment(doc, schema, key_store)
    key_store.put(replacement)  # same attempt: new data beside the old
    side_namer = MemoryNamer()
    side_namer.bind(target, Key(b"\x01"))
    assert defragment(key_ref, key_store, namer=side_namer) == doc
    print("C09 PASS name-mode rebind updates one subtree, key-mode immutable")


def test_c10_wire_proxy_suite(tmp_path):
    """Golden wire bytes, two-remote proxy topology, probe-everything
    semantics, concurrency against a sequential oracle, decoder fuzzing."""
    # the two hand-encoded frames
    get_frame = bytes.fromhex("58425331" "02" "00000001" "ab")
    assert encode_message(GetRequest(b"\xab")) == get_frame
    assert decode_message(get_frame) == (GetRequest(b"\xab"), len(get_frame))
    id_frame = bytes.fromhex("58425331" "03")
    assert encode_message(StoreIdRequest()) == id_frame
    assert decode_message(id_frame) == (StoreIdRequest(), len(id_frame))

    # one proxy, two served stores: values held by either remote are found
    # (content-hash keys so the two remotes cannot hand out colliding keys)
    east = MemoryStore(policy="content-hash")
    west = MemoryStore(policy="content-hash")
    east_server = serve(east, ("127.0.0.1", 0))
    west_server = serve(west, ("127.0.0.1", 0))
    proxy = ProxyStore(local=MemoryStore(policy="random"))
    try:
        proxy.add_target(f"127.0.0.1:{east_server.address[1]}")
        proxy.add_target(f"127.0.0.1:{west_server.address[1]}")
        east_key = east.put(b"held in the east")
        west_key = west.put(b"held in the west")
        assert proxy.get(east_key) == b"held in the east"
        value, trace = proxy.get_with_trace(west_key)
        assert value == b"held in the west"
        assert [p.outcome for p in trace] == ["miss", "miss", "hit"]

        # unknown key: reported only after every candidate was probed
        with pytest.raises(UnknownKeyError) as info:
            proxy.get(Key(b"\xee" * 8))
        assert [p.outcome for p in info.value.trace] == ["miss", "miss", "miss"]

        # concurrent clients against a sequential oracle
        shared = MemoryStore(policy="content-hash")
        shared_server = serve(shared, ("127.0.0.1", 0))
        try:
            payloads = {
                w: [f"worker {w} value {i}".encode() for i in range(50)]
                for w in range(6)
            }
            results: dict[int, list[Key]] = {}

            def client(worker: int):
                with RemoteStore(shared_server.address, timeout=5) as remote:
                    results[worker] = [remote.put(v) for v in payloads[worker]]

            threads = [
                threading.Thread(target=client, args=(w,)) for w in payloads
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            oracle = MemoryStore(policy="content-hash")
            expected = {
                w: [oracle.put(v) for v in vs] for w, vs in payloads.items()
            }
            assert results == expected
            assert dict(shared.bindings()) == dict(oracle.bindings())
        finally:
            shared_server.stop()
    finally:
        proxy.close()
        east_server.stop()
        west_server.stop()

    # decoder fuzzing: 10^5 frames, failures must stay inside the codec
    rng = random.Random(0xC10)
    survived = 0
    for _ in range(100_000):
        if rng.random() < 0.5:
            frame = rng.randbytes(rng.randrange(0, 32))
        else:
            frame = bytearray(encode_message(GetRequest(rng.randbytes(4))))
            frame[rng.randrange(len(frame))] ^= 1 << rng.randrange(8)
            frame = bytes(frame[: rng.randrange(1, len(frame) + 1)])
        try:
            decode_message(frame)
        except MalformedMessageError:
            pass
        survived += 1
    assert survived == 100_000
    print("C10 PASS wire/proxy: goldens, two-remote topology, oracle, fuzz")
