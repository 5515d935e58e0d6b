"""`history`: the CLI as scripts use it, against long logs.

An append-log store with sequence keys and a LogNamer log are preloaded
with a long version history (many rebinds over a set of names). Each CLI
command then replays both logs on open; lookup-as-of replays a prefix on
top. Commands run one at a time, each in its own process forked from a
process that has already imported xbase.
"""
from __future__ import annotations

import base64
import json
import math
import random
import subprocess
import sys
import time

from harness import (
    BENCH_DIR,
    BenchError,
    child_env,
    latency_summary,
    pin,
    quiesce,
    thaw,
)

FULL = dict(names=300, versions=10_000, setup_reps=5, warmup_rounds=2, state_rounds=15)
SMOKE = dict(names=8, versions=60, setup_reps=2, warmup_rounds=1, state_rounds=2)
VALUE_MIN, VALUE_MAX = 64, 1024
GOLDEN = (math.sqrt(5) - 1) / 2


class ForkServer:
    def __init__(self, cores, traced: bool):
        argv = [sys.executable, str(BENCH_DIR / "cli_forkserver.py")]
        if traced:
            argv.append("--traced")
        self.proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        pin(self.proc.pid, cores)

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write((json.dumps({"argv": argv}) + "\n").encode())
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("CLI fork server went away")
        reply = json.loads(line)
        reply["out"] = base64.b64decode(reply["out"])
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


class Model:
    """The benchmark's own account of every put, bind and unbind."""

    def __init__(self):
        self.values: dict[str, bytes] = {}
        self.current: dict[str, str] = {}
        self.history: dict[str, list[tuple[int, str, str]]] = {}
        self.seq = 0

    def record(self, name: str, action: str, key_hex: str) -> None:
        self.seq += 1
        self.history.setdefault(name, []).append((self.seq, action, key_hex))

    def keys_as_of(self, name: str, seq: int) -> list[str]:
        keys: set[str] = set()
        for s, action, key_hex in self.history.get(name, ()):
            if s > seq:
                break
            if action == "bind":
                keys.add(key_hex)
            else:
                keys.discard(key_hex)
        return sorted(keys)


def _value(rng: random.Random) -> bytes:
    return rng.randbytes(int(VALUE_MIN * math.exp(rng.random() * math.log(VALUE_MAX / VALUE_MIN))))


def run(ctx) -> dict:
    from xbase.core import Key, Name
    from xbase.namer import LogNamer
    from xbase.stores import AppendLogStore

    p = SMOKE if ctx.smoke else FULL
    rng = random.Random(ctx.seed)
    names = [f"doc/{i:04d}" for i in range(p["names"])]
    plan = [(name, _value(rng)) for name in names]
    plan += [(rng.choice(names), _value(rng)) for _ in range(p["versions"])]

    # ---- set-up, several times: write the preloaded logs through the library
    setups = []
    for rep in range(p["setup_reps"]):
        store_path = ctx.work / f"history-{rep}.log"
        namer_path = ctx.work / f"history-{rep}.namer"
        quiesce()
        t0 = time.perf_counter()
        store = AppendLogStore.open(store_path, policy="sequence")
        namer = LogNamer.open(namer_path)
        current: dict[str, Key] = {}
        for name_text, value in plan:
            name = Name(name_text)
            key = store.put(value)
            namer.bind(name, key)
            old = current.get(name_text)
            if old is not None:
                namer.unbind(name, old)
            current[name_text] = key
        store.close()
        namer.close()
        setups.append(time.perf_counter() - t0)
        thaw()
    model = Model()
    for name_text, value in plan:  # the same history, on the model
        key_hex = f"{len(model.values) + 1:016x}"
        model.values[key_hex] = value
        model.record(name_text, "bind", key_hex)
        old = model.current.get(name_text)
        if old is not None:
            model.record(name_text, "unbind", old)
        model.current[name_text] = key_hex

    store_arg, namer_arg = ["--store", str(store_path)], ["--namer", str(namer_path)]
    forks = ForkServer(ctx.server_cores, ctx.traced)
    correct, failed, errors = True, 0, []
    if {name: k.hex for name, k in current.items()} != model.current:
        correct = False
        errors.append("preload keys differ from the sequence the model expects")
    reads, writes = [], []
    busy, commands, peak_kb = 0.0, 0, 0
    child_spans = []
    offset = rng.random()

    def command(argv: list[str]) -> bytes | None:
        nonlocal busy, commands, failed, correct, peak_kb
        reply = forks.run(argv)
        commands += 1
        busy += reply["elapsed_s"]
        peak_kb = max(peak_kb, reply["maxrss_kb"])
        if reply["spans"] is not None:
            from tracing import SpanLog

            child_spans.append(SpanLog.from_bytes(base64.b64decode(reply["spans"])))
        if reply["code"] != 0 or reply["status"] != 0:
            failed += 1
            errors.append(f"xbase {' '.join(argv[:1])}: exit {reply['code']}: {reply['err'].strip()}")
            return None
        return reply["out"]

    def lines(out: bytes | None) -> list[str]:
        return out.decode().split() if out is not None else []

    def check_gets(keys: list[str]) -> None:
        nonlocal correct
        for key_hex in keys:
            correct &= command(["get", *store_arg, key_hex]) == model.values.get(key_hex)

    def one_round(r: int, record: bool) -> None:
        nonlocal correct
        # publish one version: put, bind the new key, unbind the old one
        name = rng.choice(names)
        value = _value(rng)
        before = busy
        key_hex = (command(["put", *store_arg, "--hex", value.hex()]) or b"").decode().strip()
        expected = f"{len(model.values) + 1:016x}"
        correct &= key_hex == expected
        model.values[expected] = value
        old = model.current[name]
        command(["bind", *namer_arg, name, expected])
        model.record(name, "bind", expected)
        command(["unbind", *namer_arg, name, old])
        model.record(name, "unbind", old)
        model.current[name] = expected
        if record:
            writes.append(busy - before)
        # read one past version: lookup-as-of, then get of each key printed
        name = rng.choice(names)
        seq = 1 + int(((offset + r * GOLDEN) % 1.0) * model.seq)
        before = busy
        keys = lines(command(["lookup-as-of", *namer_arg, name, str(seq)]))
        correct &= keys == model.keys_as_of(name, seq)
        check_gets(keys)
        if record:
            reads.append(busy - before)
        # read the current version
        name = rng.choice(names)
        keys = lines(command(["lookup", *namer_arg, name]))
        correct &= keys == [model.current[name]]
        check_gets(keys)

    try:
        for r in range(p["warmup_rounds"]):
            one_round(r, record=False)
        failed_in_warmup, commands_in_warmup, busy_in_warmup = failed, commands, busy
        correct &= failed_in_warmup == 0
        child_spans.clear()
        # Every round publishes a version, so the memory and disk readings
        # are taken after a fixed number of rounds: the same logs in every
        # run, however fast the rounds go.
        quiesce()
        rounds = 0
        deadline = time.perf_counter() + ctx.seconds
        while rounds < p["state_rounds"] or time.perf_counter() < deadline:
            one_round(p["warmup_rounds"] + rounds, record=True)
            rounds += 1
            if rounds == p["state_rounds"]:
                state_peak_kb = peak_kb
                disk = store_path.stat().st_size + namer_path.stat().st_size
                disk_ratio = disk / sum(map(len, model.values.values()))
        thaw()
    finally:
        forks.close()

    timed_commands = commands - commands_in_warmup
    return dict(
        correct=correct,
        attempted=timed_commands,
        failed=failed - failed_in_warmup,
        errors=errors,
        setup=setups,
        ops_per_s=timed_commands / (busy - busy_in_warmup),
        read=latency_summary(reads),
        write=latency_summary(writes),
        peak_rss_mb=state_peak_kb / 1024,
        disk_ratio=disk_ratio,
        child_spans=child_spans,
        notes=[f"preloaded {len(plan)} versions over {len(names)} names; "
               f"{rounds} rounds, namer log at seq {model.seq}; memory and disk read "
               f"after {p['state_rounds']} rounds"],
    )
