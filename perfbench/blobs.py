"""`blobs`: the plain remote key-value path.

One RemoteStore connection in a closed loop against `xbase serve` on a
preloaded content-hash append log. Gets follow a Zipf law over the
preloaded values; puts add new values; re-puts send values already stored
and take the dedup path.
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from itertools import accumulate

from harness import (
    BenchError,
    latency_summary,
    quiesce,
    thaw,
    wait_first_answer,
)

FULL = dict(values=30_000, large_every=1000, setup_reps=3, warmup_rounds=40, state_rounds=2500)
SMOKE = dict(values=600, large_every=200, setup_reps=2, warmup_rounds=2, state_rounds=2)
SMALL_MIN, SMALL_MAX = 64, 4096
LARGE_MIN, LARGE_MAX = 64 << 10, 1 << 20
ZIPF_EXPONENT = 1.0
ROUND = ("get",) * 45 + ("put",) * 4 + ("reput",)


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(lo * math.exp(rng.random() * math.log(hi / lo)))


def make_values(rng: random.Random, n: int, large_every: int) -> list[bytes]:
    """Values in popularity rank order. Large values sit at fixed ranks
    (every large_every-th), so every seed puts the same load on them."""
    values = []
    for rank in range(n):
        if rank % large_every == large_every - 1:
            values.append(rng.randbytes(_log_uniform(rng, LARGE_MIN, LARGE_MAX)))
        else:
            values.append(rng.randbytes(_log_uniform(rng, SMALL_MIN, SMALL_MAX)))
    return values


def run(ctx) -> dict:
    from xbase.core import Key, XbaseError
    from xbase.stores import AppendLogStore

    p = SMOKE if ctx.smoke else FULL
    rng = random.Random(ctx.seed)
    values = make_values(rng, p["values"], p["large_every"])
    digests = [hashlib.sha256(v).digest() for v in values]
    if len(set(digests)) != len(digests):
        raise BenchError("generator produced a repeated value")
    zipf_cw = list(accumulate(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(values))))
    small_ranks = [r for r in range(len(values)) if len(values[r]) <= SMALL_MAX]
    load_order = list(range(len(values)))
    rng.shuffle(load_order)
    preload = [values[r] for r in load_order]
    user_bytes = sum(map(len, values))

    # ---- set-up, several times; the last server stays up
    setups, server, remote = [], None, None
    for rep in range(p["setup_reps"]):
        if server is not None:
            remote.close()
            server.kill()
        path = ctx.work / f"blobs-{rep}.log"
        quiesce()
        t0 = time.perf_counter()
        store = AppendLogStore.open(path, policy="content-hash")
        keys = [store.put(v) for v in preload]
        store.close()
        server = ctx.start_server(path)
        remote = wait_first_answer(server.address)
        setups.append(time.perf_counter() - t0)
        thaw()

    acked: dict[bytes, bytes] = dict(zip(digests, values))
    gets, puts = [], []
    correct, failed, errors = True, 0, []
    if [k.raw for k in keys] != [digests[r] for r in load_order]:
        correct = False
        errors.append("a preload put returned a key that is not the value's SHA-256")

    def plan_round():
        ops = list(ROUND)
        rng.shuffle(ops)
        plan = []
        for op in ops:
            if op == "get":
                r = rng.choices(range(len(values)), cum_weights=zipf_cw)[0]
                plan.append((op, values[r], digests[r]))
            elif op == "put":
                v = rng.randbytes(_log_uniform(rng, SMALL_MIN, SMALL_MAX))
                plan.append((op, v, hashlib.sha256(v).digest()))
            else:
                r = rng.choice(small_ranks)
                plan.append((op, values[r], digests[r]))
        return plan

    def run_round(plan, record: bool) -> float:
        nonlocal correct, failed, user_bytes
        clock = time.perf_counter
        start = clock()
        for op, value, digest in plan:
            t0 = clock()
            try:
                if op == "get":
                    got = remote.get(Key(digest))
                else:
                    got = remote.put(value).raw
            except Exception as exc:  # an operation of the program failed
                failed += 1
                errors.append(f"{op}: {exc!r}")
                continue
            t1 = clock()
            if op == "get":
                correct &= got == value
                if record:
                    gets.append(t1 - t0)
            else:
                correct &= got == digest
                acked[digest] = value
                user_bytes += len(value)
                if record and op == "put":
                    puts.append(t1 - t0)
        return clock() - start

    for _ in range(p["warmup_rounds"]):
        run_round(plan_round(), record=False)
    failed_in_warmup = failed
    correct &= failed_in_warmup == 0

    def read_state():
        return server.peak_rss_kb(), path.stat().st_size / user_bytes

    # Every put adds a binding to the server's index, so the memory and disk
    # readings are taken after a fixed number of rounds: the same stored
    # data in every run, however fast the rounds go.
    quiesce()
    ctx.trace_on()
    busy, rounds, state = 0.0, 0, None
    deadline = time.perf_counter() + ctx.seconds
    while (rounds < p["state_rounds"] or time.perf_counter() < deadline) and not ctx.trace_full():
        busy += run_round(plan_round(), record=True)
        rounds += 1
        if rounds == p["state_rounds"]:
            state = read_state()
    ctx.trace_off()
    peak_kb, disk_ratio = state or read_state()  # a traced run may stop first
    thaw()
    ops = rounds * len(ROUND)

    server_spans = server.dump_spans() if ctx.traced else None
    remote.close()
    server.kill()

    # ---- durability: after SIGKILL, every acknowledged binding is served
    try:
        with AppendLogStore.open(path) as reopened:
            if len(reopened) != len(acked):
                raise BenchError(f"reopened log holds {len(reopened)} bindings, "
                                 f"{len(acked)} acknowledged")
            for digest, value in acked.items():
                if reopened.get(Key(digest)) != value:
                    raise BenchError(f"value under {digest.hex()} changed after reopen")
    except (BenchError, XbaseError) as exc:
        correct = False
        errors.append(f"durability: {exc!r}")

    return dict(
        correct=correct,
        attempted=ops,
        failed=failed - failed_in_warmup,
        errors=errors,
        setup=setups,
        ops_per_s=ops / busy,
        read=latency_summary(gets),
        write=latency_summary(puts),
        peak_rss_mb=peak_kb / 1024,
        disk_ratio=disk_ratio,
        server_spans=server_spans,
        notes=[f"preloaded {len(values)} values, {sum(map(len, values)) / 1e6:.1f} MB; "
               f"memory and disk read after {p['state_rounds']} of {rounds} rounds; "
               f"durability check reopened {len(acked)} bindings"],
    )
