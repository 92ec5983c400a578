"""Seeded workload generators.

Each workload is a pattern source and a JSONL trace text, both built from the
seed alone; the engine receives nothing else.  The message-type sequence and
timestamps are fixed per workload, and the seed draws only attribute values
(device ids, keys, readings) and the constants of the inert patterns, so the
amount of work per run does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# virtual milliseconds between consecutive messages
SPACING_MS = 10
# the trace ends with one clock advance this far past the last message, so
# pending windows, negation deadlines and debounces all fire
TAIL_MS = 10_000

MIXED_MESSAGES = 4_000
# the longest window or debounce in the criterion-7 program is 5 s; after
# that many messages the buffered population no longer grows
MIXED_WARMUP = 5_000 // SPACING_MS
MIXED_PREFIX = 1_000

JOIN_INTERVAL_S = 3
# join_window sends one message every JOIN_SPACING_MS instead of SPACING_MS
JOIN_SPACING_MS = 20
JOIN_TYPES = "abcde"
# per-slot population at steady state: one message of each type every
# len(JOIN_TYPES) * JOIN_SPACING_MS, retained for the interval
JOIN_SLOT_POPULATION = JOIN_INTERVAL_S * 1000 // (len(JOIN_TYPES) * JOIN_SPACING_MS)
# after warm-up every slot holds between these bounds; the {:e} slot runs
# above the level while no {:c}/{:d} pair agrees, since only the DFS prunes it
JOIN_SLOT_BAND = (JOIN_SLOT_POPULATION * 3 // 4, JOIN_SLOT_POPULATION * 3 // 2)
JOIN_WARMUP = JOIN_INTERVAL_S * 1000 // JOIN_SPACING_MS
# 1,000 latency samples per repetition after warm-up, so that p99 has ten
# samples beyond it; a short repetition gives many repetitions per run
JOIN_MESSAGES = JOIN_WARMUP + 1_000
JOIN_PREFIX = 600
# key pools: a new {:a}/{:b} message finds its partner with odds of about
# 1 in 330.  In a selector `_` is an ordinary variable, so the three-way join
# unifies on both attributes; with 40 keys times 4 second values, about six
# buffered {:c}/{:d} pairs agree at any time, so the DFS reaches (and prunes)
# the {:e} slot on nearly every cycle while full three-way matches stay rare
JOIN_PAIR_KEYS = 10_000
JOIN_TRIPLE_KEYS = 40
JOIN_TRIPLE_SECOND = 4

INERT_BASES = 40
INERT_REFINEMENTS = 24  # per base: 40 bases + 960 refinements = 1,000 inert patterns
INERT_PREFIX = 300

WORKLOADS = ("mixed20", "join_window", "wide_inert")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    source: str
    trace_text: str
    messages: int
    warmup: int  # leading messages left out of latency samples
    prefix: int  # leading messages replayed through the oracle check


def build(name: str, seed: int) -> Workload:
    if name == "mixed20":
        return Workload(name, seed, mixed20_source(), _mixed_trace(seed),
                        MIXED_MESSAGES, MIXED_WARMUP, MIXED_PREFIX)
    if name == "join_window":
        return Workload(name, seed, JOIN_SOURCE, _join_trace(seed),
                        JOIN_MESSAGES, JOIN_WARMUP, JOIN_PREFIX)
    if name == "wide_inert":
        # the same trace as mixed20 at this seed, so the records are identical
        source = mixed20_source() + _inert_source(random.Random(f"wide_inert:{seed}"))
        return Workload(name, seed, source, _mixed_trace(seed),
                        MIXED_MESSAGES, MIXED_WARMUP, INERT_PREFIX)
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")


def mixed20_source() -> str:
    """The criterion-7 program: 20 patterns over the types s0..s9."""
    lines = []
    for k in range(5):
        lines.append(f"pattern lamp{k} as {{:s{k}, d, v}} when v > 0")
    for k in range(4):
        lines.append(
            f"pattern burst{k} as {{:s{k}, d, @v}}[count: 3, window: {{1, :secs}}]"
        )
    for k in range(2):
        lines.append(
            f"pattern load{k} as {{:s{k + 4}, d, @v}}[window: {{1, :secs}}] "
            f"|> fold(0, fn({{_, _, v}}, acc) -> acc + v end) |> bind(t{k}) when t{k} > 40"
        )
    lines.append("pattern pair0 as {:s1, d, v} and {:s2, e, w}, options: [interval: {1, :secs}, last: true]")
    lines.append("pattern pair1 as {:s5, d, v} and {:s6, e, w}, options: [interval: {1, :secs}]")
    lines.append("pattern calm0 as not {:s9, d, v}[window: {1, :secs}] and {:s4, e, w}")
    lines.append("pattern calm1 as not {:s8, d, v}[window: {1, :secs}] and {:s7, e, w}")
    lines.append("pattern tenth as {:s5, d, v}[every: 10]")
    lines.append("pattern quiet as {:s6, d, v}[debounce: {5, :secs}]")
    lines.append("pattern either as {:s0, d, v} or {:s7, d, v}")
    lines.append("pattern throttled as {:s6, d, @v}[window: {1, :secs}], options: [debounce: {2, :secs}]")
    lines.append("pattern trio as {:s2, d, @v}[count: 2, window: {3, :secs}] and {:s3, e, w}, options: [interval: {2, :secs}]")
    for k in (0, 1, 2):
        lines.append(f"react_to lamp{k}, with: emit(on{k})")
    return "\n".join(lines) + "\n"


def _mixed_trace(seed: int) -> str:
    """Criterion 7's tag mix (every 997th message is :s8, the rest cycle
    through s0..s7); the seed draws the device id and the reading."""
    rng = random.Random(f"mixed20:{seed}")
    n = MIXED_MESSAGES
    lines = []
    for i in range(n):
        tag = "s8" if i % 997 == 0 else f"s{i % 8}"
        device = rng.choice(("d1", "d2"))
        lines.append(
            f'{{"ts": {i * SPACING_MS}, "type": ":{tag}", "attrs": ["{device}", {rng.randint(1, 5)}]}}'
        )
    lines.append(f'{{"advance": {(n - 1) * SPACING_MS + TAIL_MS}}}')
    return "\n".join(lines) + "\n"


JOIN_SOURCE = (
    f"pattern pair as {{:a, x, p}} and {{:b, x, q}}, options: [interval: {{{JOIN_INTERVAL_S}, :secs}}]\n"
    f"pattern triple as {{:c, x, _}} and {{:d, x, _}} and {{:e, x, _}}, "
    f"options: [interval: {{{JOIN_INTERVAL_S}, :secs}}]\n"
    "react_to pair, with: emit(paired)\n"
    "react_to triple, with: emit(tripled)\n"
)


def _join_trace(seed: int) -> str:
    rng = random.Random(f"join_window:{seed}")
    n = JOIN_MESSAGES
    lines = []
    for i in range(n):
        tag = JOIN_TYPES[i % len(JOIN_TYPES)]
        if tag in "ab":
            attrs = f"{rng.randrange(JOIN_PAIR_KEYS)}, {rng.randrange(1000)}"
        else:
            attrs = f"{rng.randrange(JOIN_TRIPLE_KEYS)}, {rng.randrange(JOIN_TRIPLE_SECOND)}"
        lines.append(f'{{"ts": {i * JOIN_SPACING_MS}, "type": ":{tag}", "attrs": [{attrs}]}}')
    lines.append(f'{{"advance": {(n - 1) * JOIN_SPACING_MS + TAIL_MS}}}')
    return "\n".join(lines) + "\n"


def _inert_source(rng: random.Random) -> str:
    """Named base patterns over the types q*/r*, each refined many times with
    inline guards, aliases, joins and seq; none of these types is ever sent."""
    lines = []
    for k in range(INERT_BASES):
        lines.append(f"pattern probe{k} as {{:q{k}, id, level, zone}}")
        for j in range(INERT_REFINEMENTS):
            zone = f":z{rng.randrange(100)}"
            if j % 3 == 0:
                body = (f"probe{k}{{zone = {zone}, id ~> dev}} and {{:r{k}, dev, code}} "
                        f"when level > {rng.randint(1, 9)}")
            elif j % 3 == 1:
                body = (f"probe{k}{{zone = {zone}, level = {rng.randint(1, 9)}}} "
                        f"and {{:r{k}, id, code}} and {{:r{k + INERT_BASES}, id, code}}")
            else:
                body = f"{{:r{k}, id, code}} and probe{k}{{zone = {zone}}}"
            lines.append(f"pattern watch{k}_{j} as {body}, options: [seq: true]")
    return "\n".join(lines) + "\n"
