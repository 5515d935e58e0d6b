"""Wire codec, server loopback behavior, remote client, proxy store."""
import itertools
import os
import socket
import socketserver
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbase.core import (
    BitString,
    Key,
    KeyConflictError,
    KeyMismatchError,
    Store,
    StoreID,
    UnknownKeyError,
)
from xbase.netstore import (
    MAX_WIRE_LEN,
    AllTargetsUnreachableError,
    DataResponse,
    DuplicateTargetError,
    ErrResponse,
    GetRequest,
    IdResponse,
    KeyResponse,
    MalformedMessageError,
    NoWritableTargetError,
    ProbeRecord,
    ProxyStore,
    PutRequest,
    PutWithKeyRequest,
    RemoteError,
    RemoteStore,
    StoreIdRequest,
    StoreServer,
    TruncatedStreamError,
    UnknownTargetError,
    UnreachableError,
    decode_message,
    encode_message,
    parse_address,
    read_message,
    serve,
)
from conftest import check_batches_match_loops
from xbase.stores import MemoryStore, get_root_store


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _raw_exchange(address: tuple[str, int], payload: bytes) -> bytes:
    """Send raw bytes, half-close, read everything the server answers."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestGoldenWireBytes:
    """Frozen frame encodings, assembled by hand from the layout rules."""

    def test_get_request(self):
        assert encode_message(GetRequest(b"\xab")) == bytes.fromhex(
            "58425331" "02" "00000001" "ab"
        )

    def test_store_id_request(self):
        assert encode_message(StoreIdRequest()) == bytes.fromhex("58425331" "03")

    def test_put_request(self):
        assert encode_message(PutRequest(b"\xde\xad\xbe\xef")) == bytes.fromhex(
            "58425331" "01" "00000004" "deadbeef"
        )

    def test_put_with_key_request(self):
        assert encode_message(PutWithKeyRequest(b"\x01", b"\x02\x03")) == bytes.fromhex(
            "58425331" "04" "00000001" "01" "00000002" "0203"
        )

    def test_key_response(self):
        assert encode_message(KeyResponse(b"\xab")) == bytes.fromhex(
            "58425331" "81" "00000001" "ab"
        )

    def test_data_response_empty_value(self):
        assert encode_message(DataResponse(b"")) == bytes.fromhex(
            "58425331" "82" "00000000"
        )

    def test_id_response_is_raw_16_bytes(self):
        sid = bytes(range(16))
        assert encode_message(IdResponse(sid)) == bytes.fromhex("58425331" "83") + sid
        with pytest.raises(ValueError):
            encode_message(IdResponse(b"\x00" * 15))

    def test_err_response(self):
        assert encode_message(ErrResponse(0x01, "x")) == bytes.fromhex(
            "58425331" "ff" "01" "00000001" "78"
        )


class TestCodec:
    MESSAGES = [
        PutRequest(b""),
        PutRequest(b"\x00\xff" * 7),
        GetRequest(b"\xab\xcd"),
        StoreIdRequest(),
        PutWithKeyRequest(b"k", b"value"),
        PutWithKeyRequest(b"", b""),
        KeyResponse(b"\x01" * 32),
        DataResponse(os.urandom(100)),
        IdResponse(bytes(range(16))),
        ErrResponse(0x05, "boom"),
        ErrResponse(0xFF, ""),
        ErrResponse(0x04, "héllo \U0001F600"),
    ]

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
    def test_round_trip(self, msg):
        encoded = encode_message(msg)
        decoded, consumed = decode_message(encoded)
        assert decoded == msg and consumed == len(encoded)

    def test_back_to_back_messages(self):
        blob = encode_message(GetRequest(b"\x01")) + encode_message(StoreIdRequest())
        first, used = decode_message(blob)
        second, _ = decode_message(blob[used:])
        assert first == GetRequest(b"\x01") and second == StoreIdRequest()

    def test_bad_magic(self):
        with pytest.raises(MalformedMessageError):
            decode_message(b"NOPE" + bytes([0x02]))

    def test_unknown_opcode(self):
        with pytest.raises(MalformedMessageError):
            decode_message(b"XBS1" + bytes([0x7A]))

    ONE_PER_OPCODE = [
        PutRequest(b"\x01\x02\x03"),
        GetRequest(b"\xab"),
        StoreIdRequest(),
        PutWithKeyRequest(b"k", b"v"),
        KeyResponse(b"\x01"),
        DataResponse(b"\x02\x03"),
        IdResponse(bytes(range(16))),
        ErrResponse(0x01, "x"),
    ]

    @pytest.mark.parametrize("msg", ONE_PER_OPCODE, ids=lambda m: type(m).__name__)
    def test_truncated_frames(self, msg):
        full = encode_message(msg)
        for cut in range(len(full)):
            with pytest.raises(TruncatedStreamError):
                decode_message(full[:cut])

    def test_empty_stream_with_allow_eof(self):
        assert read_message(lambda n: b"", allow_eof=True) is None
        with pytest.raises(TruncatedStreamError):
            read_message(lambda n: b"")

    def test_oversize_length_rejected_before_allocation(self):
        header = b"XBS1" + bytes([0x01]) + (MAX_WIRE_LEN + 1).to_bytes(4, "big")
        with pytest.raises(MalformedMessageError) as info:
            decode_message(header)
        assert not isinstance(info.value, TruncatedStreamError)

    def test_length_at_cap_is_only_truncated(self):
        header = b"XBS1" + bytes([0x01]) + MAX_WIRE_LEN.to_bytes(4, "big")
        with pytest.raises(TruncatedStreamError):
            decode_message(header)

    def test_err_message_must_be_utf8(self):
        frame = bytes.fromhex("58425331" "ff" "01" "00000001" "ff")
        with pytest.raises(MalformedMessageError):
            decode_message(frame)

    def test_non_message_rejected_by_encoder(self):
        with pytest.raises(TypeError):
            encode_message("GET")

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_decoder_fuzz_fails_closed(self, blob):
        try:
            msg, consumed = decode_message(blob)
        except MalformedMessageError:
            return
        assert consumed <= len(blob)
        assert encode_message(msg) == blob[:consumed]


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address("::1:9000") == ("::1", 9000)
    for bad in ("nohost", ":90", "h:", "h:abc"):
        with pytest.raises(ValueError):
            parse_address(bad)


@pytest.fixture
def loopback():
    store = MemoryStore(policy="sequence")
    server = serve(store, ("127.0.0.1", 0))
    try:
        yield store, server
    finally:
        server.stop()


class TestServerAndRemote:
    def test_put_get_round_trip(self, loopback):
        _, server = loopback
        with RemoteStore(server.address, timeout=5) as remote:
            key = remote.put(b"over the wire")
            assert remote.get(key) == b"over the wire"
            assert key.raw == (1).to_bytes(8, "big")

    def test_store_id_fetched_once_and_cached(self, loopback):
        store, server = loopback
        with RemoteStore(server.address, timeout=5) as remote:
            assert remote.get_store_id() == store.get_store_id()
            assert remote.get_store_id() is remote.get_store_id()

    def test_put_with_key_echoes(self, loopback):
        store, server = loopback
        with RemoteStore(server.address, timeout=5) as remote:
            remote.put_with_key(b"v", Key(b"\x42"))
            assert store.get(Key(b"\x42")) == b"v"
            remote.put_with_key(b"v", Key(b"\x42"))  # idempotent rebind
            with pytest.raises(KeyConflictError):
                remote.put_with_key(b"other", Key(b"\x42"))

    def test_unknown_key_crosses_the_wire(self, loopback):
        _, server = loopback
        with RemoteStore(server.address, timeout=5) as remote:
            with pytest.raises(UnknownKeyError):
                remote.get(Key(b"\x99" * 8))

    def test_key_mismatch_crosses_the_wire(self):
        server = serve(MemoryStore(policy="content-hash"), ("127.0.0.1", 0))
        try:
            with RemoteStore(server.address, timeout=5) as remote:
                with pytest.raises(KeyMismatchError):
                    remote.put_with_key(b"data", Key(b"\x00" * 32))
        finally:
            server.stop()

    def test_empty_key_reported_malformed(self, loopback):
        _, server = loopback
        with RemoteStore(server.address, timeout=5) as remote:
            response = _raw_exchange(
                server.address, encode_message(GetRequest(b""))
            )
            err, _ = decode_message(response)
            assert isinstance(err, ErrResponse) and err.code == 0x04

    def test_malformed_magic_answered_then_dropped(self, loopback):
        _, server = loopback
        response = _raw_exchange(server.address, b"JUNKJUNKJUNK")
        err, used = decode_message(response)
        assert isinstance(err, ErrResponse) and err.code == 0x04
        assert used == len(response)  # nothing after the error: connection over
        # and the server keeps serving new connections
        with RemoteStore(server.address, timeout=5) as remote:
            assert remote.get(remote.put(b"still alive")) == b"still alive"

    def test_oversize_declared_length_answered_malformed(self, loopback):
        _, server = loopback
        frame = b"XBS1" + bytes([0x01]) + (1 << 30).to_bytes(4, "big")
        err, _ = decode_message(_raw_exchange(server.address, frame))
        assert isinstance(err, ErrResponse) and err.code == 0x04

    def test_response_opcode_as_request_is_malformed(self, loopback):
        _, server = loopback
        err, _ = decode_message(
            _raw_exchange(server.address, encode_message(KeyResponse(b"\x01")))
        )
        assert isinstance(err, ErrResponse) and err.code == 0x04

    def test_internal_error_maps_to_code_5(self):
        class ExplodingStore(MemoryStore):
            def get(self, key):
                raise RuntimeError("disk on fire")

        server = serve(ExplodingStore(policy="random"), ("127.0.0.1", 0))
        try:
            err, _ = decode_message(
                _raw_exchange(server.address, encode_message(GetRequest(b"\x01")))
            )
            assert isinstance(err, ErrResponse) and err.code == 0x05
            with RemoteStore(server.address, timeout=5) as remote:
                with pytest.raises(RemoteError):
                    remote.get(Key(b"\x01"))
        finally:
            server.stop()

    def test_with_drops_the_connection(self, loopback):
        _, server = loopback
        with RemoteStore(server.address, timeout=5) as remote:
            key = remote.put(b"v")
            assert remote._sock is not None
        assert remote._sock is None
        assert remote.get(key) == b"v"  # a later request connects again
        remote.close()

    def test_several_requests_per_connection(self, loopback):
        _, server = loopback
        with RemoteStore(server.address, timeout=5) as remote:
            keys = [remote.put(bytes([i])) for i in range(20)]
            for i, key in enumerate(keys):
                assert remote.get(key) == bytes([i])

    def test_reconnects_once_after_stale_connection(self, loopback):
        _, server = loopback
        remote = RemoteStore(server.address, timeout=5)
        try:
            key = remote.put(b"first")
            # sever the established connection behind the client's back
            remote._sock.shutdown(socket.SHUT_RDWR)
            assert remote.get(key) == b"first"  # silently reconnected
        finally:
            remote.close()

    def test_put_is_not_resent_after_a_broken_connection(self):
        """The server may have applied a PUT whose connection broke; sending
        it again would bind the value under a second sequence key."""
        store = MemoryStore(policy="sequence")

        class ApplyFirstPutThenHangUp(socketserver.StreamRequestHandler):
            def handle(self):
                key = store.put(read_message(self.rfile.read).value)
                if len(store) > 1:
                    self.wfile.write(encode_message(KeyResponse(key.raw)))

        server = socketserver.TCPServer(("127.0.0.1", 0), ApplyFirstPutThenHangUp)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with RemoteStore(server.server_address, timeout=5) as remote:
                with pytest.raises(UnreachableError, match="may or may not have been applied"):
                    remote.put(b"once")
            assert len(store) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_connection_dropped_after_a_malformed_response(self):
        """A response with bad magic leaves the rest of its frame unread;
        the next request must not read those bytes as its answer."""
        connections, answered = [], []

        class BadMagicFirst(socketserver.StreamRequestHandler):
            def handle(self):
                connections.append(self.client_address)
                while read_message(self.rfile.read, allow_eof=True) is not None:
                    frame = encode_message(DataResponse(b"good"))
                    if not answered:
                        frame = b"XBS2" + frame[4:]
                    answered.append(frame)
                    self.wfile.write(frame)

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), BadMagicFirst)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with RemoteStore(server.server_address, timeout=5) as remote:
                with pytest.raises(MalformedMessageError, match="bad magic b'XBS2'"):
                    remote.get(Key(b"\x01"))
                assert remote.get(Key(b"\x01")) == b"good"
            assert len(connections) == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_eight_mib_round_trip(self, loopback):
        """A value much larger than the client's read buffer, read across
        many socket reads."""
        _, server = loopback
        value = os.urandom(8 << 20)
        with RemoteStore(server.address, timeout=30) as remote:
            assert remote.get(remote.put(value)) == value

    def test_unreachable_endpoint(self):
        remote = RemoteStore(("127.0.0.1", _free_port()), timeout=1)
        with pytest.raises(UnreachableError):
            remote.put(b"x")

    def test_stopped_server_becomes_unreachable(self):
        store = MemoryStore(policy="sequence")
        server = serve(store, ("127.0.0.1", 0))
        remote = RemoteStore(server.address, timeout=1)
        key = remote.put(b"x")
        server.stop()
        remote.close()  # established connections outlive stop(); force a reconnect
        with pytest.raises(UnreachableError):
            remote.get(key)

    def test_concurrent_clients(self, loopback):
        store, server = loopback
        results: dict[int, list] = {}

        def worker(worker_id: int):
            with RemoteStore(server.address, timeout=5) as remote:
                results[worker_id] = [
                    remote.put(f"{worker_id}:{i}".encode()) for i in range(25)
                ]

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        all_keys = [k for keys in results.values() for k in keys]
        assert len(set(all_keys)) == 8 * 25 == len(store)
        for worker_id, keys in results.items():
            for i, key in enumerate(keys):
                assert store.get(key) == f"{worker_id}:{i}".encode()

    def test_stop_returns_when_no_loop_ran(self):
        """stop() of a server that never served, alone or on leaving a with
        block whose body raised, and stop() right after start()."""
        done = []

        def never_served():
            StoreServer(MemoryStore(), ("127.0.0.1", 0)).stop()
            done.append("stop")

        def body_raised():
            try:
                with StoreServer(MemoryStore(), ("127.0.0.1", 0)):
                    raise RuntimeError
            except RuntimeError:
                done.append("with")

        def started():
            serve(MemoryStore(), ("127.0.0.1", 0)).stop()
            done.append("start")

        threads = [threading.Thread(target=fn, daemon=True)
                   for fn in (never_served, body_raised, started)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(done) == ["start", "stop", "with"]

    def test_server_context_manager_and_explicit_loop(self):
        store = MemoryStore(policy="random")
        with StoreServer(store, "127.0.0.1:0") as server:
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            with RemoteStore(server.address, timeout=5) as remote:
                assert remote.get_store_id() == store.get_store_id()


class TestProxyStore:
    def test_target_bookkeeping(self):
        proxy = ProxyStore()
        remote = proxy.add_target("h:1")
        store = MemoryStore(policy="random")
        assert proxy.add_target(store) is store
        assert proxy.targets() == [remote, store]
        assert isinstance(remote, RemoteStore) and remote.address == ("h", 1)
        with pytest.raises(DuplicateTargetError):
            proxy.add_target("h:1")
        proxy.remove_target("h:1")
        assert proxy.targets() == [store]
        with pytest.raises(UnknownTargetError):
            proxy.remove_target("h:1")

    def test_address_without_port_registers_nothing(self):
        proxy = ProxyStore()
        with pytest.raises(ValueError):
            proxy.add_target("no-port")
        assert proxy.targets() == []

    def test_same_address_or_same_store_is_a_duplicate(self):
        store = MemoryStore(policy="random")
        proxy = ProxyStore()
        proxy.add_target("h:1")
        proxy.add_target(store)
        for again in ("h:01", RemoteStore(("h", 1)), store):
            with pytest.raises(DuplicateTargetError):
                proxy.add_target(again)
        proxy.add_target("h:2")
        proxy.add_target(MemoryStore(policy="random"))
        assert len(proxy.targets()) == 4

    def test_other_target_types_rejected(self):
        proxy = ProxyStore()
        for bad in (("h", 1), 42, None):
            with pytest.raises(TypeError):
                proxy.add_target(bad)
            with pytest.raises(TypeError):
                proxy.remove_target(bad)
        assert proxy.targets() == []

    def test_close_closes_only_the_remote_stores_it_made(self, loopback):
        """Passed-in stores and targets removed before close stay open."""
        _, server = loopback
        with serve(MemoryStore(), ("127.0.0.1", 0)) as second, \
                serve(MemoryStore(), ("127.0.0.1", 0)) as third:
            passed_in = RemoteStore(second.address, timeout=5)
            with ProxyStore(put_policy=1) as proxy:
                made = proxy.add_target(f"127.0.0.1:{server.address[1]}")
                proxy.add_target(passed_in)
                removed = proxy.add_target(f"127.0.0.1:{third.address[1]}")
                key = proxy.put(b"v")
                # a miss on made, a hit on passed_in
                assert proxy.get_with_trace(key)[0] == b"v"
                removed.get_store_id()
                proxy.remove_target(removed)
                assert None not in (made._sock, passed_in._sock, removed._sock)
            assert made._sock is None
            assert passed_in._sock is not None and removed._sock is not None
            passed_in.close()
            removed.close()

    def test_local_first_probe_order_with_trace(self):
        local = MemoryStore(policy="random")
        near = MemoryStore(policy="random")
        far = MemoryStore(policy="random")
        proxy = ProxyStore(local=local)
        proxy.add_target(near)
        proxy.add_target(far)
        key = far.put(b"payload")
        value, trace = proxy.get_with_trace(key)
        assert value == b"payload"
        assert [p.outcome for p in trace] == ["miss", "miss", "hit"]
        assert trace[0].target == "local"

    def test_local_hit_stops_probing(self):
        local = MemoryStore(policy="random")
        proxy = ProxyStore(local=local)
        proxy.add_target(MemoryStore(policy="random"))
        key = local.put(b"here")
        value, trace = proxy.get_with_trace(key)
        assert value == b"here"
        assert trace == [ProbeRecord("local", "hit")]

    def test_all_miss_raises_unknown_with_trace(self):
        proxy = ProxyStore(local=MemoryStore(policy="random"))
        proxy.add_target(MemoryStore(policy="random"))
        with pytest.raises(UnknownKeyError) as info:
            proxy.get(Key(b"\x01"))
        assert [p.outcome for p in info.value.trace] == ["miss", "miss"]

    def test_unreachable_target_is_skipped(self):
        dead = f"127.0.0.1:{_free_port()}"
        backing = MemoryStore(policy="random")
        proxy = ProxyStore()
        proxy.add_target(dead)
        proxy.add_target(backing)
        key = backing.put(b"found anyway")
        value, trace = proxy.get_with_trace(key)
        assert value == b"found anyway"
        assert [p.outcome for p in trace] == ["unreachable", "hit"]

    def test_every_candidate_unreachable(self):
        proxy = ProxyStore()
        proxy.add_target(f"127.0.0.1:{_free_port()}")
        with pytest.raises(AllTargetsUnreachableError) as info:
            proxy.get(Key(b"\x01"))
        assert [p.outcome for p in info.value.trace] == ["unreachable"]

    def test_no_candidates_is_plain_unknown(self):
        with pytest.raises(UnknownKeyError):
            ProxyStore().get(Key(b"\x01"))

    def test_miss_plus_unreachable_is_unknown_key(self):
        proxy = ProxyStore(local=MemoryStore(policy="random"))
        proxy.add_target(f"127.0.0.1:{_free_port()}")
        with pytest.raises(UnknownKeyError) as info:
            proxy.get(Key(b"\x01"))
        assert [p.outcome for p in info.value.trace] == ["miss", "unreachable"]

    def test_put_local_first(self):
        local = MemoryStore(policy="sequence")
        proxy = ProxyStore(local=local)
        proxy.add_target(MemoryStore(policy="sequence"))
        key = proxy.put(b"x")
        assert local.get(key) == b"x"

    def test_put_falls_back_to_first_target(self):
        first = MemoryStore(policy="sequence")
        proxy = ProxyStore()
        proxy.add_target(first)
        proxy.add_target(MemoryStore(policy="sequence"))
        key = proxy.put(b"x")
        assert first.get(key) == b"x"

    def test_put_by_index(self):
        stores = [MemoryStore(policy="sequence") for _ in range(3)]
        proxy = ProxyStore(put_policy=2)
        for s in stores:
            proxy.add_target(s)
        key = proxy.put(b"x")
        assert stores[2].get(key) == b"x"
        assert len(stores[0]) == len(stores[1]) == 0
        proxy.put_policy = 0
        assert stores[0].get(proxy.put(b"y")) == b"y"

    def test_no_writable_target(self):
        with pytest.raises(NoWritableTargetError):
            ProxyStore().put(b"x")
        proxy = ProxyStore(put_policy=5)
        proxy.add_target(MemoryStore(policy="random"))
        with pytest.raises(NoWritableTargetError):
            proxy.put(b"x")

    def test_put_policy_validation(self):
        with pytest.raises(ValueError):
            ProxyStore(put_policy="round-robin")
        proxy = ProxyStore()
        with pytest.raises(ValueError):
            proxy.put_policy = "sticky"

    def test_proxy_reports_its_own_store_id(self):
        local = MemoryStore(policy="random")
        proxy = ProxyStore(local=local)
        assert proxy.get_store_id() != local.get_store_id()
        assert proxy.get_store_id() == proxy.get_store_id()

    def test_store_for_id_registry(self):
        local = MemoryStore(policy="random")
        target = MemoryStore(policy="random")
        proxy = ProxyStore(local=local)
        proxy.add_target(target)
        assert proxy.store_for_id(proxy.get_store_id()) is proxy
        assert proxy.store_for_id(local.get_store_id()) is local
        assert proxy.store_for_id(target.get_store_id()) is target
        assert proxy.store_for_id(StoreID.generate()) is None

    def test_proxy_over_remote_targets(self):
        backing = MemoryStore(policy="sequence")
        server = serve(backing, ("127.0.0.1", 0))
        try:
            with ProxyStore(local=MemoryStore(policy="random")) as proxy:
                proxy.add_target(f"127.0.0.1:{server.address[1]}")
                key = backing.put(b"remote payload")
                value, trace = proxy.get_with_trace(key)
                assert value == b"remote payload"
                assert [p.outcome for p in trace] == ["miss", "hit"]
                assert proxy.store_for_id(backing.get_store_id()) is not None
        finally:
            server.stop()

    def test_proxy_is_usable_as_plain_store(self):
        proxy = ProxyStore(local=MemoryStore(policy="content-hash"))
        assert isinstance(proxy, Store)
        key = proxy.put(b"abc")
        assert proxy.get(key) == b"abc"
        proxy.put_with_key(b"abc", key)


class _Scripted(socketserver.StreamRequestHandler):
    """Fake server: each connection reads `expect` requests (or up to end of
    stream when None), logs them, applies PUTs to `store`, answers the first
    `answer` of them (all when None) and hangs up. Both come from `plan`,
    one (expect, answer) per connection; later connections answer all."""

    plan: list = []
    store: MemoryStore
    received: list

    def handle(self):
        expect, answer = self.plan.pop(0) if self.plan else (None, None)
        requests = []
        self.received.append(requests)  # filled before each answer goes out
        while expect is None or len(requests) < expect:
            msg = read_message(self.rfile.read, allow_eof=True)
            if msg is None:
                break
            requests.append(msg)
            if expect is None:  # answer as they come
                self.wfile.write(self._answer(msg))
        if expect is not None:
            answers = [self._answer(m) for m in requests]  # applies every PUT
            self.wfile.write(b"".join(answers[:answer]))

    def _answer(self, msg) -> bytes:
        if isinstance(msg, PutRequest):
            return encode_message(KeyResponse(self.store.put(msg.value).raw))
        try:
            return encode_message(DataResponse(self.store.get(Key(msg.key))))
        except UnknownKeyError:
            return encode_message(ErrResponse(0x01, msg.key.hex()))


@pytest.fixture
def scripted():
    """A _Scripted server; yields (handler class, address)."""
    handler = type("Handler", (_Scripted,), {
        "plan": [], "store": MemoryStore(policy="sequence"), "received": []})
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield handler, server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestBatches:
    @pytest.mark.parametrize("policy", ("sequence", "content-hash"))
    def test_remote_batches_match_loops(self, policy):
        with serve(MemoryStore(policy=policy), ("127.0.0.1", 0)) as one, \
                serve(MemoryStore(policy=policy), ("127.0.0.1", 0)) as two, \
                RemoteStore(one.address, timeout=5) as batched, \
                RemoteStore(two.address, timeout=5) as looped:
            check_batches_match_loops(batched, looped)

    @pytest.mark.parametrize("policy", ("sequence", "content-hash"))
    def test_proxy_batches_match_loops(self, policy):
        with serve(MemoryStore(policy=policy), ("127.0.0.1", 0)) as one, \
                serve(MemoryStore(policy=policy), ("127.0.0.1", 0)) as two, \
                ProxyStore(local=MemoryStore(policy=policy), put_policy=0) as batched, \
                ProxyStore(local=MemoryStore(policy=policy), put_policy=0) as looped:
            batched.add_target(f"127.0.0.1:{one.address[1]}")
            looped.add_target(f"127.0.0.1:{two.address[1]}")
            check_batches_match_loops(batched, looped)

    def test_large_get_batch_does_not_deadlock(self, loopback):
        """64 responses of 1 MiB: far more than the socket buffers hold,
        so the client must be reading while the server writes."""
        store, server = loopback
        value = os.urandom(1 << 20)
        keys = [store.put(value) for _ in range(64)]
        result = {}
        with RemoteStore(server.address, timeout=30) as remote:
            worker = threading.Thread(target=lambda: result.update(remote.get_many(keys)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive(), "get_many deadlocked"
        assert len(result) == 64 and all(v == value for v in result.values())

    def test_get_window_resent_on_a_new_connection(self, scripted):
        """The first connection answers 4 of 10 GETs and hangs up; the 6
        unanswered ones, and only they, go out again on a second."""
        handler, address = scripted
        keys = [handler.store.put(b"value %d" % i) for i in range(10)]
        handler.plan.append((10, 4))
        with RemoteStore(address, timeout=5) as remote:
            found = remote.get_many(keys)
        assert found == {key: b"value %d" % i for i, key in enumerate(keys)}
        assert [len(r) for r in handler.received] == [10, 6]
        assert [m.key for m in handler.received[1]] == [k.raw for k in keys[4:]]

    def test_put_window_is_never_resent(self, scripted):
        """The server applies all 10 PUTs, answers 4 and hangs up; the batch
        raises, and nothing is sent again."""
        handler, address = scripted
        handler.plan.append((10, 4))
        with RemoteStore(address, timeout=5) as remote:
            with pytest.raises(UnreachableError, match="may or may not have been applied"):
                remote.put_many([b"once %d" % i for i in range(10)])
        assert len(handler.store) == 10
        assert [len(r) for r in handler.received] == [10]

    def test_error_mid_window_keeps_the_connection(self):
        class ExplodingStore(MemoryStore):
            def get(self, key):
                if key.raw == b"boom":
                    raise RuntimeError("disk on fire")
                return super().get(key)

        store = ExplodingStore(policy="sequence")
        keys = [store.put(b"a"), store.put(b"b")]
        with serve(store, ("127.0.0.1", 0)) as server, \
                RemoteStore(server.address, timeout=5) as remote:
            unknown = Key(b"\x77" * 8)
            assert remote.get_many([keys[0], unknown, keys[1]]) == {keys[0]: b"a", keys[1]: b"b"}
            sock = remote._sock
            with pytest.raises(RemoteError, match="disk on fire"):
                remote.get_many([keys[0], Key(b"boom"), keys[1]])
            with pytest.raises(UnknownKeyError):
                remote.get(unknown)
            assert remote.get(keys[1]) == b"b"
            assert remote._sock is sock  # the same connection throughout

    def test_proxy_get_many_over_local_and_targets(self):
        """Keys split over local and two targets, a dead target first; each
        store is asked once, for the keys still missing."""
        asked = []

        class Counting(MemoryStore):
            def get_many(self, keys):
                asked.append((self, list(keys)))
                return super().get_many(keys)

        local, near, far = (Counting(policy="random") for _ in range(3))
        with ProxyStore(local=local) as proxy:
            proxy.add_target(f"127.0.0.1:{_free_port()}")
            proxy.add_target(near)
            proxy.add_target(far)
            in_local = [local.put(b"l%d" % i) for i in range(3)]
            in_near = [near.put(b"n%d" % i) for i in range(3)]
            in_far = [far.put(b"f%d" % i) for i in range(3)]
            unknown = Key(b"\x01" * 16)
            keys = [in_far[0], unknown, *in_local, *in_near, in_far[1], in_far[0]]
            expected = {}
            for key in keys:
                try:
                    expected[key] = proxy.get(key)
                except UnknownKeyError:
                    pass
            asked.clear()
            assert proxy.get_many(keys) == expected
        assert [store for store, _ in asked] == [local, near, far]
        assert asked[1][1] == [in_far[0], unknown, *in_near, in_far[1]]
        assert asked[2][1] == [in_far[0], unknown, in_far[1]]

    def test_proxy_get_many_unreachable_like_get(self):
        proxy = ProxyStore()
        proxy.add_target(f"127.0.0.1:{_free_port()}")
        with pytest.raises(AllTargetsUnreachableError) as info:
            proxy.get_many([Key(b"\x01")])
        assert [p.outcome for p in info.value.trace] == ["unreachable"]
        assert proxy.get_many([]) == {}
        assert ProxyStore().get_many([Key(b"\x01")]) == {}
        with ProxyStore(local=MemoryStore(policy="random")) as proxy:
            proxy.add_target(f"127.0.0.1:{_free_port()}")
            assert proxy.get_many([Key(b"\x01")]) == {}  # a miss, then unreachable

    def test_proxy_put_many_goes_to_the_put_target(self):
        stores = [MemoryStore(policy="sequence") for _ in range(2)]
        proxy = ProxyStore(put_policy=1)
        for store in stores:
            proxy.add_target(store)
        keys = proxy.put_many([b"x", b"y"])
        assert [stores[1].get(k) for k in keys] == [b"x", b"y"] and len(stores[0]) == 0


# The two probe loops ProxyStore had before get_with_trace, get and
# get_many shared one, kept as the reference for the differential test.
# A nested ProxyStore is probed with the reference loops too.


def _reference_candidates(proxy: ProxyStore) -> list[tuple[str, Store]]:
    candidates = [("local", proxy.local)] if proxy.local is not None else []
    for store in proxy.targets():
        if isinstance(store, RemoteStore):
            label = f"{store.address[0]}:{store.address[1]}"
        else:
            label = f"store:{id(store):#x}"
        candidates.append((label, store))
    return candidates


def _reference_get(store: Store, key: Key) -> BitString:
    if isinstance(store, ProxyStore):
        return _reference_get_with_trace(store, key)[0]
    return store.get(key)


def _reference_get_with_trace(proxy: ProxyStore, key: Key):
    candidates = _reference_candidates(proxy)
    trace = []
    queried = 0
    for label, store in candidates:
        try:
            value = _reference_get(store, key)
        except UnknownKeyError:
            trace.append(ProbeRecord(label, "miss"))
            queried += 1
            continue
        except (UnreachableError, OSError):
            trace.append(ProbeRecord(label, "unreachable"))
            continue
        trace.append(ProbeRecord(label, "hit"))
        return value, trace
    if candidates and queried == 0:
        exc = AllTargetsUnreachableError(
            f"all {len(candidates)} candidates unreachable for key {key.hex}"
        )
    else:
        exc = UnknownKeyError(key.hex)
    exc.trace = trace
    raise exc


def _reference_get_many(store: Store, keys) -> dict:
    if not isinstance(store, ProxyStore):
        return store.get_many(keys)
    missing = list(dict.fromkeys(keys))
    candidates = _reference_candidates(store)
    found = {}
    unreachable = []
    for label, candidate in candidates:
        if not missing:
            break
        try:
            hits = _reference_get_many(candidate, missing)
        except (UnreachableError, OSError):
            unreachable.append(ProbeRecord(label, "unreachable"))
            continue
        found.update(hits)
        missing = [key for key in missing if key not in hits]
    if missing and candidates and len(unreachable) == len(candidates):
        exc = AllTargetsUnreachableError(
            f"all {len(candidates)} candidates unreachable for key {missing[0].hex}"
        )
        exc.trace = unreachable
        raise exc
    return found


def _outcome(fn, *args):
    """What a call gives: its result, or its error's type, message and trace."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "trace", None)


@pytest.fixture(scope="module")
def live_server():
    store = MemoryStore(policy="content-hash")
    with serve(store, ("127.0.0.1", 0)) as server:
        yield store, server


def _dead_addresses(n: int) -> list[str]:
    """n distinct local addresses nothing listens on."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [f"127.0.0.1:{sock.getsockname()[1]}" for sock in socks]
    finally:
        for sock in socks:
            sock.close()


_example_tags = itertools.count()


class TestProxyAgainstTheTwoLoops:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_same_values_traces_and_errors(self, live_server, data):
        """Keys placed over a local store, a nested ProxyStore, a MemoryStore
        and a served store as targets (any of them may be left out) and up to
        two dead addresses, in any order; the nested proxy has its own local
        store, MemoryStore target and dead address, each optional."""
        backing, server = live_server
        homes = []  # the stores values can be placed in

        def memory() -> MemoryStore:
            homes.append(MemoryStore(policy="content-hash"))
            return homes[-1]

        dead = _dead_addresses(3)
        inner = ProxyStore(local=memory() if data.draw(st.booleans()) else None)
        if data.draw(st.booleans()):
            inner.add_target(memory())
        if data.draw(st.booleans()):
            inner.add_target(dead[2])
        live = data.draw(st.lists(st.sampled_from(["nested", "memory", "remote"]),
                                  unique=True, max_size=3))
        targets = live + dead[:data.draw(st.integers(0, 2))]
        targets = data.draw(st.permutations(targets))
        proxy = ProxyStore(local=memory() if data.draw(st.booleans()) else None)
        for target in targets:
            if target == "nested":
                proxy.add_target(inner)
            elif target == "memory":
                proxy.add_target(memory())
            elif target == "remote":
                proxy.add_target(f"127.0.0.1:{server.address[1]}")
                homes.append(backing)
            else:
                proxy.add_target(target)
        # values unique to this example, so the served store's earlier
        # examples cannot hold them
        tag = b"%d:" % next(_example_tags)
        values = data.draw(st.lists(st.binary(max_size=8), min_size=1, max_size=6, unique=True))
        keys = []
        for value in values:
            value = tag + value
            key = MemoryStore(policy="content-hash").put(value)
            for i in data.draw(st.lists(st.sampled_from(range(len(homes))), unique=True)
                               if homes else st.just([])):
                homes[i].put_with_key(value, key)
            keys.append(key)
        keys.append(Key(b"\x00" * 32))  # bound nowhere
        batch = data.draw(st.lists(st.sampled_from(keys), max_size=10))
        try:
            for key in keys:
                assert _outcome(proxy.get_with_trace, key) == \
                    _outcome(_reference_get_with_trace, proxy, key)
                assert _outcome(proxy.get, key) == _outcome(_reference_get, proxy, key)
            assert _outcome(proxy.get_many, batch) == \
                _outcome(_reference_get_many, proxy, batch)
            assert _outcome(proxy.get_many, iter(batch)) == \
                _outcome(_reference_get_many, proxy, batch)
        finally:
            proxy.close()
            inner.close()


class TestRootStoreBootstrap:
    def test_created_on_first_use(self, tmp_home):
        store = get_root_store()
        assert (tmp_home / "root.store").is_file()
        key = store.put(b"boot")
        assert store.get(key) == b"boot"
        assert type(store.policy).__name__ == "ContentHashKeys"

    def test_same_instance_per_process(self, tmp_home):
        assert get_root_store() is get_root_store()

    def test_reopens_after_close_with_state(self, tmp_home):
        store = get_root_store()
        key = store.put(b"persisted")
        store.close()
        again = get_root_store()
        assert again is not store
        assert again.get(key) == b"persisted"

    def test_explicit_home_argument(self, tmp_path):
        store = get_root_store(tmp_path / "elsewhere")
        assert (tmp_path / "elsewhere" / "root.store").is_file()
        store.close()
