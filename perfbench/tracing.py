"""Spans around the calls into each xbase layer, recorded from the
benchmark's own code, and the per-layer metrics derived from them.

Nothing here edits xbase: instrument() replaces module functions and class
methods with wrappers, on the names callers look up at call time. A span is
five integers (name id, start ns, end ns, parent span, one measured
quantity) kept in memory until the run ends. A layer's self time is its
span time minus the time of its direct child spans.
"""
from __future__ import annotations

import inspect
import json
import socket
import statistics
import struct
import threading
import time
from array import array


FIELDS = 5  # name id, t0, t1, parent, quantity
MAX_SPANS = 600_000  # per process; a traced phase ends early once it is full


class SpanLog:
    """Finished spans: names, packed records, and rare rich extras."""

    def __init__(self, names=None, rec=None, extras=None):
        self.names: list[str] = names if names is not None else []
        self.rec = rec if rec is not None else array("q")
        self.extras: dict[int, object] = extras if extras is not None else {}

    def __len__(self) -> int:
        return len(self.rec) // FIELDS

    def to_bytes(self) -> bytes:
        head = json.dumps({"names": self.names,
                           "extras": [[k, v] for k, v in self.extras.items()]}).encode()
        return struct.pack(">I", len(head)) + head + self.rec.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SpanLog":
        (n,) = struct.unpack(">I", data[:4])
        head = json.loads(data[4:4 + n])
        rec = array("q")
        rec.frombytes(data[4 + n:])
        return cls(head["names"], rec, {k: v for k, v in head["extras"]})

    def extend(self, other: "SpanLog") -> None:
        """Append another log, renumbering its names and parents."""
        ids = []
        for name in other.names:
            if name not in self.names:
                self.names.append(name)
            ids.append(self.names.index(name))
        offset = len(self)
        r = other.rec
        out = array("q")
        for i in range(0, len(r), FIELDS):
            parent = r[i + 3]
            out.extend((ids[r[i]], r[i + 1], r[i + 2],
                        parent + offset if parent >= 0 else -1, r[i + 4]))
        self.rec.extend(out)
        for k, v in other.extras.items():
            self.extras[k + offset] = v


class Tracer(SpanLog):
    """Records spans while enabled; thread-safe appends, per-thread parents."""

    def __init__(self):
        super().__init__()
        self.enabled = False
        self.full = False
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> tuple[int, list]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.rec) // FIELDS
            self.rec.extend((nid, 0, 0, parent, 0))
            if idx + 1 >= MAX_SPANS:
                self.full = True
                self.enabled = False
        stack.append(idx)
        return idx, stack

    def wrap(self, name, fn, pre=None, post=None):
        """fn wrapped in a span; pre(args, kwargs) -> ctx and
        post(ctx, args, kwargs, result) -> (quantity, extra) run outside
        the timed interval."""
        nid = self.name_id(name)
        rec = self.rec
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            ctx = pre(args, kwargs) if pre is not None else None
            idx, stack = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                base = idx * FIELDS
                rec[base + 1] = t0
                rec[base + 2] = t1
            if post is not None:
                quantity, extra = post(ctx, args, kwargs, result)
                rec[base + 4] = quantity
                if extra is not None:
                    tracer.extras[idx] = extra
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, pre, post)))
        else:
            setattr(owner, attr, self.wrap(name, raw, pre, post))

    def snapshot(self) -> SpanLog:
        with self._lock:
            return SpanLog(list(self.names), array("q", self.rec), dict(self.extras))


# ---------------------------------------------------------------- instrumentation

def _file_size_after_open(ctx, args, kwargs, result):
    return result.path.stat().st_size, None


def _len_before(args, kwargs):
    return len(args[0])


def _written(before, args, kwargs, result):
    return int(len(args[0]) > before), None


def _parse_bytes(ctx, args, kwargs, result):
    data = args[0]
    return (len(data) if isinstance(data, bytes) else len(data.encode("utf-8"))), None


def _serialized_bytes(ctx, args, kwargs, result):
    return len(result), None


def _probes(ctx, args, kwargs, result):
    trace = result[1]
    hits = sum(1 for probe in trace if probe.outcome == "hit")
    return len(trace), (hits, args[1].raw.hex())


def _in_timed_phase(tracer):
    return lambda ctx, args, kwargs, result: (int(tracer.phase == "timed"), None)


def instrument(tracer: Tracer, server_side: bool = False) -> None:
    """Wrap the public calls of every layer the workloads use.

    xmlfrag binds xml_parse and xml_serialize by name at import, so those
    wrappers go on the xmlfrag names as well as on the xmldoc ones.
    """
    from xbase import cli, namer, netstore, stores, xmldoc, xmlfrag

    tracer.patch(stores.AppendLogStore, "open", "stores.open", post=_file_size_after_open)
    tracer.patch(stores.AppendLogStore, "put", "stores.put", pre=_len_before, post=_written)
    tracer.patch(stores.AppendLogStore, "get", "stores.get")
    tracer.patch(stores.AppendLogStore, "put_with_key", "stores.put_with_key")

    tracer.patch(namer.LogNamer, "open", "namer.open")
    for method in ("bind", "unbind", "lookup", "lookup_as_of"):
        tracer.patch(namer.LogNamer, method, f"namer.{method}")

    parse = tracer.wrap("xmldoc.parse", xmldoc.xml_parse, post=_parse_bytes)
    serialize = tracer.wrap("xmldoc.serialize", xmldoc.xml_serialize, post=_serialized_bytes)
    for module in (xmldoc, xmlfrag, cli):
        module.xml_parse = parse
        module.xml_serialize = serialize

    tracer.patch(xmlfrag, "fragment", "xmlfrag.fragment")
    tracer.patch(xmlfrag, "defragment", "xmlfrag.defragment")

    for method in ("put", "get", "put_with_key", "get_store_id"):
        tracer.patch(netstore.RemoteStore, method, "netstore.rpc")
    tracer.patch(netstore.ProxyStore, "get_with_trace", "netstore.proxy_get", post=_probes)
    tracer.patch(netstore, "encode_message", "netstore.encode")
    _instrument_read_message(tracer, netstore, server_side)
    if not server_side:
        original_connect = socket.create_connection
        netstore.socket.create_connection = tracer.wrap(
            "netstore.connect", original_connect, post=_in_timed_phase(tracer))

    tracer.patch(cli, "main", "cli.main")


def _instrument_read_message(tracer: Tracer, netstore, server_side: bool) -> None:
    """read_message blocks inside its read() calls while the peer works;
    the span records that waiting so codec time can exclude it."""
    original = netstore.read_message
    name = "netstore.server_read" if server_side else "netstore.read"
    nid = tracer.name_id(name)
    rec = tracer.rec
    clock = time.perf_counter_ns

    def read_message(read, allow_eof=False):
        if not tracer.enabled:
            return original(read, allow_eof)
        waited = 0

        def timed_read(n):
            nonlocal waited
            t = clock()
            chunk = read(n)
            waited += clock() - t
            return chunk

        idx, stack = tracer._open(nid)
        t0 = clock()
        try:
            result = original(timed_read, allow_eof)
        finally:
            t1 = clock()
            stack.pop()
            base = idx * FIELDS
            rec[base + 1] = t0
            rec[base + 2] = t1
            rec[base + 4] = waited
        if result is None:
            tracer.extras[idx] = "eof"
        return result

    netstore.read_message = read_message


# ---------------------------------------------------------------- metrics

# name -> (unit, better); every traced run prints all of them, with 0 for a
# layer that does no work on the workload.
LAYER_METRICS = {
    "stores.open_ms": ("ms", "lower"),
    "stores.replay_mb_per_s": ("MB/s", "higher"),
    "stores.put_us": ("us", "lower"),
    "stores.get_us": ("us", "lower"),
    "stores.puts_written_per_put": ("ratio", "lower"),
    "namer.open_ms": ("ms", "lower"),
    "namer.bind_us": ("us", "lower"),
    "namer.unbind_us": ("us", "lower"),
    "namer.lookup_us": ("us", "lower"),
    "namer.lookup_as_of_ms": ("ms", "lower"),
    "netstore.rpc_us": ("us", "lower"),
    "netstore.rpc_p99_us": ("us", "lower"),
    "netstore.server_us": ("us", "lower"),
    "netstore.wire_us": ("us", "lower"),
    "netstore.codec_us": ("us", "lower"),
    "netstore.requests_per_op": ("count", "lower"),
    "netstore.proxy_probes_per_get": ("ratio", "lower"),
    "netstore.proxy_hits_per_probe": ("ratio", "higher"),
    "netstore.reconnects": ("count", "lower"),
    "xmldoc.parse_mb_per_s": ("MB/s", "higher"),
    "xmldoc.serialize_mb_per_s": ("MB/s", "higher"),
    "xmlfrag.fragment_self_ms": ("ms", "lower"),
    "xmlfrag.defragment_self_ms": ("ms", "lower"),
    "xmlfrag.fetches_per_fragment": ("ratio", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class _View:
    """Per-name durations, self times and quantities of one span log."""

    def __init__(self, log: SpanLog):
        r = log.rec
        n = len(log)
        # a span still open when the log was taken (a server blocked in
        # read_message) has no end yet and is left out
        done = [i for i in range(n) if r[i * FIELDS + 2]]
        child = [0] * n
        for i in done:
            parent = r[i * FIELDS + 3]
            if parent >= 0:
                child[parent] += r[i * FIELDS + 2] - r[i * FIELDS + 1]
        self.log = log
        self.by_name: dict[str, list[int]] = {}
        for i in done:
            self.by_name.setdefault(log.names[r[i * FIELDS]], []).append(i)
        self.child = child

    def idx(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def dur(self, i: int) -> int:
        r = self.log.rec
        return r[i * FIELDS + 2] - r[i * FIELDS + 1]

    def self_ns(self, i: int) -> int:
        return self.dur(i) - self.child[i]

    def qty(self, i: int) -> int:
        return self.log.rec[i * FIELDS + 4]

    def parent(self, i: int) -> int:
        return self.log.rec[i * FIELDS + 3]

    def start(self, i: int) -> int:
        return self.log.rec[i * FIELDS + 1]

    def end(self, i: int) -> int:
        return self.log.rec[i * FIELDS + 2]


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(client: SpanLog, server: SpanLog | None, ops: int) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead.

    stores.put_us/get_us come from the server when there is one (the
    client's puts and gets then go over the wire), else from the client.
    """
    c = _View(client)
    s = _View(server) if server is not None else None
    both = [v for v in (c, s) if v is not None]
    store_side = s if s is not None else c
    m: dict[str, float] = {}

    opens = [(v, i) for v in both for i in v.idx("stores.open")]
    m["stores.open_ms"] = _p50([v.dur(i) / 1e6 for v, i in opens])
    open_ns = sum(v.dur(i) for v, i in opens)
    m["stores.replay_mb_per_s"] = (
        sum(v.qty(i) for v, i in opens) / 1e6 / (open_ns / 1e9) if open_ns else 0.0)
    puts = store_side.idx("stores.put")
    m["stores.put_us"] = _p50([store_side.dur(i) / 1e3 for i in puts])
    m["stores.get_us"] = _p50([store_side.dur(i) / 1e3 for i in store_side.idx("stores.get")])
    m["stores.puts_written_per_put"] = (
        sum(store_side.qty(i) for i in puts) / len(puts) if puts else 0.0)

    m["namer.open_ms"] = _p50([c.dur(i) / 1e6 for i in c.idx("namer.open")])
    for method in ("bind", "unbind", "lookup"):
        m[f"namer.{method}_us"] = _p50([c.dur(i) / 1e3 for i in c.idx(f"namer.{method}")])
    m["namer.lookup_as_of_ms"] = _p50([c.dur(i) / 1e6 for i in c.idx("namer.lookup_as_of")])

    rpcs = [c.dur(i) / 1e3 for i in c.idx("netstore.rpc")]
    m["netstore.rpc_us"] = _p50(rpcs)
    m["netstore.rpc_p99_us"] = statistics.quantiles(rpcs, n=100)[98] if len(rpcs) > 1 else 0.0
    gaps = []
    if s is not None:
        # The workloads hold one connection at a time, so a connection's
        # reads are consecutive. The handler reads the next request right
        # after writing a response, so the gap after a decoded request is
        # its service time: decoded -> response written. The first request
        # of a connection also pays one-time costs and is left out.
        reads = s.idx("netstore.server_read")
        first = True
        for i, j in zip(reads, reads[1:]):
            if s.log.extras.get(i) == "eof":
                first = True
                continue
            if not first:
                gaps.append((s.start(j) - s.end(i)) / 1e3)
            first = False
    # Means, not medians: the service gap is bimodal (the response write
    # sometimes has to wake the client), and means subtract cleanly.
    m["netstore.server_us"] = sum(gaps) / len(gaps) if gaps else 0.0
    m["netstore.wire_us"] = sum(rpcs) / len(rpcs) - m["netstore.server_us"] if gaps else 0.0
    codec = 0.0
    for v, read_name in ((c, "netstore.read"), (s, "netstore.server_read")):
        if v is None:
            continue
        reads = [i for i in v.idx(read_name) if v.log.extras.get(i) != "eof"]
        if reads:
            total = sum(v.dur(i) for i in v.idx("netstore.encode"))
            total += sum(v.dur(i) - v.qty(i) for i in reads)
            codec += total / len(reads) / 1e3
    m["netstore.codec_us"] = codec
    m["netstore.requests_per_op"] = len(rpcs) / ops if ops else 0.0
    gets = c.idx("netstore.proxy_get")
    probes = sum(c.qty(i) for i in gets)
    # a get that raised has no probe record
    probed = [c.log.extras[i] for i in gets if i in c.log.extras]
    hits = sum(hit for hit, _ in probed)
    m["netstore.proxy_probes_per_get"] = probes / len(gets) if gets else 0.0
    m["netstore.proxy_hits_per_probe"] = hits / probes if probes else 0.0
    m["netstore.reconnects"] = float(sum(c.qty(i) for i in c.idx("netstore.connect")))

    for what, name in (("parse", "xmldoc.parse"), ("serialize", "xmldoc.serialize")):
        spans = c.idx(name)
        busy = sum(c.dur(i) for i in spans)
        m[f"xmldoc.{what}_mb_per_s"] = (
            sum(c.qty(i) for i in spans) / 1e6 / (busy / 1e9) if busy else 0.0)
    m["xmlfrag.fragment_self_ms"] = _p50([c.self_ns(i) / 1e6 for i in c.idx("xmlfrag.fragment")])
    defrags = c.idx("xmlfrag.defragment")
    m["xmlfrag.defragment_self_ms"] = _p50([c.self_ns(i) / 1e6 for i in defrags])
    fetches: dict[int, list[str]] = {i: [] for i in defrags}
    for i in gets:
        p = c.parent(i)
        while p >= 0 and p not in fetches:
            p = c.parent(p)
        if p >= 0 and i in c.log.extras:
            fetches[p].append(c.log.extras[i][1])
    distinct = sum(len(set(keys)) for keys in fetches.values())
    m["xmlfrag.fetches_per_fragment"] = (
        sum(len(keys) for keys in fetches.values()) / distinct if distinct else 0.0)

    m["cli.self_ms"] = _p50([c.self_ns(i) / 1e6 for i in c.idx("cli.main")])
    return m
