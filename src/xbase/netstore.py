"""Store access over a socket: wire codec, server, remote client, proxy.

Every message starts with the magic "XBS1" and a one-byte opcode, followed
by an opcode-specific payload using u32 big-endian length prefixes:

    0x01 PUT           [val_len][value]            -> 0x81 KEY
    0x02 GET           [key_len][key]              -> 0x82 DATA
    0x03 STORE_ID      (empty)                     -> 0x83 ID [16 bytes]
    0x04 PUT_WITH_KEY  [key_len][key][val_len][value] -> 0x81 KEY (echo)
    0xFF ERR           [code][msg_len][UTF-8 message]

ERR codes: 0x01 UnknownKey, 0x02 KeyConflict, 0x03 KeyMismatch,
0x04 Malformed, 0x05 Internal. One request yields exactly one response;
the server's handler, a stdlib StreamRequestHandler, answers the requests
on a connection in order, and both ends set TCP_NODELAY. Declared lengths
above 64 MiB are rejected before any allocation.

RemoteStore pipelines: get_many and put_many send a window of requests
(at most 128 of them and 32 KiB of request bytes, so they fit the socket
buffers) in one write, then read that window's responses in order. A
single get or put is a window of one. An error response is read in its
turn; get_many leaves unknown keys out and raises any other error once
its window is read. After a broken connection, the unanswered requests
of a window of GET, STORE_ID or PUT_WITH_KEY are resent once on a new
connection; a window holding a PUT, which the server may have applied,
raises UnreachableError instead.

A response that fails to decode drops the connection, as its framing is
lost; the next request goes out on a new one.

The ProxyStore holds no data of its own unless given a local backing
store. Its targets are plain stores; a "host:port" address becomes a
RemoteStore that the proxy owns and closes. get, get_with_trace and
get_many share one probe loop: local first, then each target in insertion
order, skipping unreachable ones, with one get_many per store for the keys
still missing; a single get is a batch of one. Puts go to one store chosen
by the put policy.
"""
from __future__ import annotations

import io
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    BitString,
    Key,
    KeyConflictError,
    KeyMismatchError,
    Store,
    StoreID,
    UnknownKeyError,
    XbaseError,
)

WIRE_MAGIC = b"XBS1"
MAX_WIRE_LEN = 1 << 26  # 64 MiB cap on any declared length

OP_PUT = 0x01
OP_GET = 0x02
OP_STORE_ID = 0x03
OP_PUT_WITH_KEY = 0x04
OP_KEY = 0x81
OP_DATA = 0x82
OP_ID = 0x83
OP_ERR = 0xFF

ERR_UNKNOWN_KEY = 0x01
ERR_KEY_CONFLICT = 0x02
ERR_KEY_MISMATCH = 0x03
ERR_MALFORMED = 0x04
ERR_INTERNAL = 0x05


class MalformedMessageError(XbaseError):
    """Bad magic, unknown opcode, oversize length, or truncated frame."""


class TruncatedStreamError(MalformedMessageError):
    """The stream ended inside a message; also covers transport loss."""


class UnreachableError(XbaseError):
    """The remote endpoint cannot be contacted."""


class RemoteError(XbaseError):
    """The remote side reported an internal or unrecognized error."""


class DuplicateTargetError(XbaseError):
    pass


class UnknownTargetError(XbaseError):
    pass


class NoWritableTargetError(XbaseError):
    pass


class AllTargetsUnreachableError(XbaseError):
    """No get candidate could even be queried."""


@dataclass(frozen=True)
class PutRequest:
    value: bytes


@dataclass(frozen=True)
class GetRequest:
    key: bytes


@dataclass(frozen=True)
class StoreIdRequest:
    pass


@dataclass(frozen=True)
class PutWithKeyRequest:
    key: bytes
    value: bytes


@dataclass(frozen=True)
class KeyResponse:
    key: bytes


@dataclass(frozen=True)
class DataResponse:
    value: bytes


@dataclass(frozen=True)
class IdResponse:
    store_id: bytes


@dataclass(frozen=True)
class ErrResponse:
    code: int
    message: str


WireMessage = (
    PutRequest | GetRequest | StoreIdRequest | PutWithKeyRequest
    | KeyResponse | DataResponse | IdResponse | ErrResponse
)


def _put_with_key(store: Store, msg: PutWithKeyRequest) -> KeyResponse:
    store.put_with_key(msg.value, Key(msg.key))
    return KeyResponse(msg.key)


# opcode -> (message type, payload fields in wire order, server handler).
# A field is (dataclass field, kind): "bytes" is a u32 length and bytes,
# "id" the 16-byte store id, "code" one byte, "text" a u32 length and
# UTF-8. A response has no handler; as a request it is malformed.
_WIRE = {
    OP_PUT: (PutRequest, (("value", "bytes"),),
             lambda store, msg: KeyResponse(store.put(msg.value).raw)),
    OP_GET: (GetRequest, (("key", "bytes"),),
             lambda store, msg: DataResponse(store.get(Key(msg.key)))),
    OP_STORE_ID: (StoreIdRequest, (),
                  lambda store, msg: IdResponse(store.get_store_id().raw)),
    OP_PUT_WITH_KEY: (PutWithKeyRequest, (("key", "bytes"), ("value", "bytes")),
                      _put_with_key),
    OP_KEY: (KeyResponse, (("key", "bytes"),), None),
    OP_DATA: (DataResponse, (("value", "bytes"),), None),
    OP_ID: (IdResponse, (("store_id", "id"),), None),
    OP_ERR: (ErrResponse, (("code", "code"), ("message", "text")), None),
}
_BY_TYPE = {
    cls: (WIRE_MAGIC + bytes([opcode]), fields, handler)
    for opcode, (cls, fields, handler) in _WIRE.items()
}


def encode_message(msg: WireMessage) -> bytes:
    try:
        header, fields, _ = _BY_TYPE[type(msg)]
    except KeyError:
        raise TypeError(f"not a wire message: {type(msg).__name__}") from None
    parts = [header]
    for name, kind in fields:
        value = getattr(msg, name)
        if kind == "code":
            if not 0 <= value <= 0xFF:
                raise ValueError("error code must fit one byte")
            value = bytes([value])
        elif kind == "id":
            if len(value) != 16:
                raise ValueError("store id must be 16 bytes")
        else:
            if kind == "text":
                value = value.encode("utf-8")
            value = struct.pack(">I", len(value)) + value
        parts.append(value)
    return b"".join(parts)


def read_message(read: Callable[[int], bytes], allow_eof: bool = False) -> WireMessage | None:
    """Read exactly one message from a blocking byte source.

    read(n) must return up to n bytes, empty only at end of stream. With
    allow_eof, a stream that ends cleanly between messages yields None.
    """

    def need(n: int, what: str) -> bytes:
        chunks = []
        while n:
            chunk = read(n)
            if not chunk:
                raise TruncatedStreamError(f"stream ended inside {what}")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    first = read(1)
    if not first:
        if allow_eof:
            return None
        raise TruncatedStreamError("stream ended before a message")
    magic = first + need(3, "magic")
    if magic != WIRE_MAGIC:
        raise MalformedMessageError(f"bad magic {magic!r}")
    opcode = need(1, "opcode")[0]
    try:
        cls, fields, _ = _WIRE[opcode]
    except KeyError:
        raise MalformedMessageError(f"unknown opcode {opcode:#04x}") from None
    values = []
    for name, kind in fields:
        if kind == "code":
            value = need(1, "error code")[0]
        elif kind == "id":
            value = need(16, "store id")
        else:
            (n,) = struct.unpack(">I", need(4, name + " length"))
            if n > MAX_WIRE_LEN:
                raise MalformedMessageError(f"{name} length {n} exceeds {MAX_WIRE_LEN}")
            value = need(n, name)
            if kind == "text":
                try:
                    value = value.decode("utf-8")
                except UnicodeDecodeError:
                    raise MalformedMessageError("error message is not UTF-8") from None
        values.append(value)
    return cls(*values)


def decode_message(data: bytes) -> tuple[WireMessage, int]:
    """Decode one message from the front of data; returns (message, bytes consumed)."""
    stream = io.BytesIO(data)
    return read_message(stream.read), stream.tell()


# (ERR code, exception), matched in this order by the server; the client
# raises the exception. A ValueError is malformed too; the rest internal.
_ERRORS = (
    (ERR_UNKNOWN_KEY, UnknownKeyError),
    (ERR_KEY_CONFLICT, KeyConflictError),
    (ERR_KEY_MISMATCH, KeyMismatchError),
    (ERR_MALFORMED, MalformedMessageError),
)


def _error_response(exc: Exception) -> ErrResponse:
    code = next((code for code, cls in _ERRORS if isinstance(exc, cls)),
                ERR_MALFORMED if isinstance(exc, ValueError) else ERR_INTERNAL)
    return ErrResponse(code, str(exc) or type(exc).__name__)


def _raise_remote(err: ErrResponse) -> None:
    for code, cls in _ERRORS:
        if err.code == code:
            raise cls(err.message)
    raise RemoteError(f"code {err.code:#04x}: {err.message}")


def parse_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad port in {address!r}") from None


class _Handler(socketserver.StreamRequestHandler):
    # one response per request: Nagle would hold back the second of a burst
    disable_nagle_algorithm = True

    def handle(self):
        store: Store = self.server.store  # type: ignore[attr-defined]
        try:
            while True:
                try:
                    msg = read_message(self.rfile.read, allow_eof=True)
                except MalformedMessageError as exc:
                    self.wfile.write(encode_message(_error_response(exc)))
                    return  # framing is lost, drop the connection
                if msg is None:
                    return
                try:
                    response = self._dispatch(store, msg)
                except Exception as exc:  # never kill the server on a request
                    response = _error_response(exc)
                self.wfile.write(encode_message(response))
        except (OSError, ValueError):
            return  # client went away mid-write

    @staticmethod
    def _dispatch(store: Store, msg: WireMessage) -> WireMessage:
        handler = _BY_TYPE[type(msg)][2]
        if handler is None:
            raise MalformedMessageError(f"{type(msg).__name__} is not a request")
        return handler(store, msg)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class StoreServer:
    """Serves one store over TCP, one thread per connection."""

    def __init__(self, store: Store, address: str | tuple[str, int]):
        if isinstance(address, str):
            address = parse_address(address)
        self._server = _Server(address, _Handler)
        self._server.store = store  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._looped = False  # whether a serve loop was started, in any thread

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "StoreServer":
        self._looped = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._looped = True
        self._server.serve_forever()

    def stop(self) -> None:
        # shutdown() waits for a serve loop to end: forever if none was
        # started, and briefly for one started but not yet running.
        if self._looped:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "StoreServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(store: Store, bind_address: str | tuple[str, int]) -> StoreServer:
    """Start serving store on bind_address in a background thread."""
    return StoreServer(store, bind_address).start()


# A window is the requests sent in one go before their responses are read.
# Its requests stay within the default socket buffers (client send plus
# server receive), so the client always finishes sending and starts reading
# even while the server is blocked writing large responses. A request
# larger than the byte cap travels in a window of its own.
_WINDOW_REQUESTS = 128
_WINDOW_BYTES = 32 << 10


class RemoteStore(Store):
    """Store client over the wire protocol; connects lazily, pipelines
    batches a window at a time, and resends only windows without a PUT,
    once, after a broken connection."""

    def __init__(self, address: str | tuple[str, int], timeout: float | None = 10.0):
        self._address = parse_address(address) if isinstance(address, str) else address
        self._timeout = timeout
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._rfile = None
        self._store_id: StoreID | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(self._address, timeout=self._timeout)
        except OSError as exc:
            raise UnreachableError(f"{self._address[0]}:{self._address[1]}: {exc}") from None
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")

    def _drop(self) -> None:
        for f in (self._rfile, self._sock):
            if f is not None:
                try:
                    f.close()
                except OSError:
                    pass
        self._sock = self._rfile = None

    def _exchange(self, requests: Iterable[WireMessage], expected: type,
                  missing_ok: bool = False) -> list[WireMessage | None]:
        """Send requests a window at a time and return their responses in
        order. With missing_ok an UnknownKey error gives None; any other
        error raises once its window has been read, so framing is kept.
        Requests are encoded as their window fills."""
        out: list[WireMessage | None] = []
        window: list[bytes] = []
        size = 0
        put = False  # whether the window holds a PUT
        with self._lock:
            for msg in requests:
                frame = encode_message(msg)
                if window and (len(window) == _WINDOW_REQUESTS
                               or size + len(frame) > _WINDOW_BYTES):
                    self._send_window(window, put, expected, missing_ok, out)
                    window, size, put = [], 0, False
                window.append(frame)
                size += len(frame)
                put = put or frame[4] == OP_PUT
            if window:
                self._send_window(window, put, expected, missing_ok, out)
        return out

    def _send_window(self, frames: list[bytes], put: bool, expected: type,
                     missing_ok: bool, out: list[WireMessage | None]) -> None:
        """Send one window, read all its responses, then append them to out
        as _exchange describes."""
        # A broken connection may just be stale: resend the unanswered
        # requests once on a new one, but never a window holding a PUT,
        # which the server may already have applied.
        responses: list[WireMessage] = []
        for final in (put, True):
            if self._sock is None:
                self._connect()
            try:
                self._sock.sendall(b"".join(frames[len(responses):]))
                for _ in range(len(frames) - len(responses)):
                    responses.append(read_message(self._rfile.read))
                break
            except (OSError, TruncatedStreamError) as exc:
                self._drop()
                if final:
                    unknown = "; the put may or may not have been applied" if put else ""
                    raise UnreachableError(
                        f"{self._address[0]}:{self._address[1]}: {exc}{unknown}"
                    ) from None
            except MalformedMessageError:
                self._drop()  # framing is lost
                raise
        for response in responses:
            if isinstance(response, expected):
                out.append(response)
            elif not isinstance(response, ErrResponse):
                raise RemoteError(f"unexpected response {type(response).__name__}")
            elif missing_ok and response.code == ERR_UNKNOWN_KEY:
                out.append(None)
            else:
                _raise_remote(response)

    def _request(self, msg: WireMessage, expected: type) -> WireMessage:
        return self._exchange((msg,), expected)[0]

    def put(self, value: BitString) -> Key:
        return Key(self._request(PutRequest(bytes(value)), KeyResponse).key)

    def get(self, key: Key) -> BitString:
        return self._request(GetRequest(key.raw), DataResponse).value

    def put_with_key(self, value: BitString, key: Key) -> None:
        self._request(PutWithKeyRequest(key.raw, bytes(value)), KeyResponse)

    def get_store_id(self) -> StoreID:
        if self._store_id is None:
            self._store_id = StoreID(self._request(StoreIdRequest(), IdResponse).store_id)
        return self._store_id

    def get_many(self, keys: Iterable[Key]) -> dict[Key, BitString]:
        keys = list(dict.fromkeys(keys))
        responses = self._exchange((GetRequest(key.raw) for key in keys), DataResponse,
                                   missing_ok=True)
        return {key: r.value for key, r in zip(keys, responses) if r is not None}

    def put_many(self, values: Iterable[BitString]) -> list[Key]:
        responses = self._exchange((PutRequest(bytes(v)) for v in values), KeyResponse)
        return [Key(r.key) for r in responses]

    def close(self) -> None:
        """Drop the connection; a later request opens a new one."""
        with self._lock:
            self._drop()


@dataclass(frozen=True)
class ProbeRecord:
    """One step of a proxy get: where we looked and how it went."""

    target: str
    outcome: str  # "hit" | "miss" | "unreachable"


def _identify(target: Store | str) -> tuple[Store | tuple[str, int], str]:
    """A target's identity and probe label. Two targets are the same when
    they have the same (host, port), as an address or a RemoteStore, or
    are the same store object."""
    if isinstance(target, str):
        address = parse_address(target)
    elif isinstance(target, RemoteStore):
        address = target.address
    elif isinstance(target, Store):
        return target, f"store:{id(target):#x}"
    else:
        raise TypeError("target must be an address string or a Store")
    return address, f"{address[0]}:{address[1]}"


class ProxyStore(Store):
    """Store that forwards to a managed target set.

    Gets are local-first, then insertion order over targets; puts go to
    exactly one store picked by put_policy ("local-first" or an integer
    target index). close() closes the RemoteStores made from addresses;
    the local store and stores passed in as targets stay open.
    """

    def __init__(
        self,
        local: Store | None = None,
        put_policy: str | int = "local-first",
        store_id: StoreID | None = None,
    ):
        self.put_policy = put_policy
        self._local = local
        self._id = store_id or StoreID.generate()
        # identity -> (probe label, store, whether made here from an address)
        self._targets: dict[Store | tuple[str, int], tuple[str, Store, bool]] = {}
        self._lock = threading.RLock()

    @property
    def put_policy(self) -> str | int:
        return self._put_policy

    @put_policy.setter
    def put_policy(self, value: str | int) -> None:
        if not (value == "local-first" or isinstance(value, int)):
            raise ValueError("put_policy must be 'local-first' or a target index")
        self._put_policy = value

    @property
    def local(self) -> Store | None:
        return self._local

    def targets(self) -> list[Store]:
        with self._lock:
            return [store for _, store, _ in self._targets.values()]

    def add_target(self, target: Store | str) -> Store:
        """Register a store, or a "host:port" address as a RemoteStore;
        return the store registered."""
        identity, label = _identify(target)
        with self._lock:
            if identity in self._targets:
                raise DuplicateTargetError(f"target {label} already present")
            made = isinstance(target, str)
            if made:
                target = RemoteStore(identity)
            self._targets[identity] = (label, target, made)
        return target

    def remove_target(self, target: Store | str) -> None:
        identity, label = _identify(target)
        with self._lock:
            if self._targets.pop(identity, None) is None:
                raise UnknownTargetError(f"target {label} is not registered")

    def close(self) -> None:
        with self._lock:
            owned = [store for _, store, made in self._targets.values() if made]
        for store in owned:
            store.close()

    def get_store_id(self) -> StoreID:
        return self._id  # the proxy is a store instance in its own right

    def _probe(self, keys: Iterable[Key]) -> tuple[dict[Key, BitString], list[ProbeRecord]]:
        """Ask local, then each target in insertion order, with one get_many
        for the keys still missing. Returns the values found and one record
        per store asked, a hit if it had any of those keys. Raises
        AllTargetsUnreachableError, with the trace as .trace, when keys are
        left and no store could be queried."""
        candidates = [("local", self._local)] if self._local is not None else []
        with self._lock:
            candidates += [(label, store) for label, store, _ in self._targets.values()]
        missing = list(dict.fromkeys(keys))
        found: dict[Key, BitString] = {}
        trace: list[ProbeRecord] = []
        for label, store in candidates:
            if not missing:
                break
            try:
                hits = store.get_many(missing)
            except (UnreachableError, OSError):
                trace.append(ProbeRecord(label, "unreachable"))
                continue
            trace.append(ProbeRecord(label, "hit" if hits else "miss"))
            found.update(hits)
            missing = [key for key in missing if key not in hits]
        if missing and candidates and all(p.outcome == "unreachable" for p in trace):
            exc = AllTargetsUnreachableError(
                f"all {len(candidates)} candidates unreachable for key {missing[0].hex}"
            )
            exc.trace = trace
            raise exc
        return found, trace

    def get_with_trace(self, key: Key) -> tuple[BitString, list[ProbeRecord]]:
        """Like get, but also returns the probe trace. On failure the raised
        error carries the trace as a .trace attribute."""
        found, trace = self._probe((key,))
        if key in found:
            return found[key], trace
        exc = UnknownKeyError(key.hex)
        exc.trace = trace
        raise exc

    def get(self, key: Key) -> BitString:
        value, _ = self.get_with_trace(key)
        return value

    def get_many(self, keys: Iterable[Key]) -> dict[Key, BitString]:
        """Like get for each key, with one batch per store asked."""
        return self._probe(keys)[0]

    def _put_target(self) -> Store:
        targets = self.targets()
        policy = self._put_policy
        if policy == "local-first":
            if self._local is not None:
                return self._local
            if targets:
                return targets[0]
            raise NoWritableTargetError("no local store and no targets")
        if not 0 <= policy < len(targets):
            raise NoWritableTargetError(
                f"target index {policy} out of range, have {len(targets)}"
            )
        return targets[policy]

    def put(self, value: BitString) -> Key:
        return self._put_target().put(value)

    def put_many(self, values: Iterable[BitString]) -> list[Key]:
        return self._put_target().put_many(values)

    def put_with_key(self, value: BitString, key: Key) -> None:
        self._put_target().put_with_key(value, key)

    def store_for_id(self, store_id: StoreID) -> Store | None:
        """Resolve a StoreID against this proxy's registry: its own id, the
        local store, then each reachable target."""
        if store_id.raw == self._id.raw:
            return self
        if self._local is not None and self._local.get_store_id().raw == store_id.raw:
            return self._local
        for store in self.targets():
            try:
                if store.get_store_id().raw == store_id.raw:
                    return store
            except (UnreachableError, OSError):
                continue
        return None
