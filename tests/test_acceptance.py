"""Acceptance suite.

One test per criterion, each asserting its stated tolerance and printing a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them).
The random-corpus criteria (4 and 5) share a single differential run over
200 seeded cases drawn from the full operator grid.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter

import pytest

from sprw.combine import evaluate_pattern
from sprw.compile import compile_program
from sprw.engine import Network, replay_trace
from sprw.expand import expand
from sprw.fuzz import differential
from sprw.fuzzgen import OP_GRID, generate_case
from sprw.matching import Message
from sprw.oracle import oracle_run
from sprw.parser import parse_program
from sprw.printer import pretty_print
from sprw.cli import run_records
from sprw.tracefile import MessageEvent, AdvanceEvent, load_trace
from sprw.values import Symbol

from conftest import CORPUS_FILES, SCENARIOS, fixture_path
from spec import guard_no_consume, unify_selector


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- criterion 1: grammar corpus --------------------------------------------------


def test_criterion_1_grammar_corpus():
    started = time.monotonic()
    failures = []
    for path in CORPUS_FILES:
        try:
            text = path.read_text(encoding="utf-8")
            program = parse_program(text)
            compile_program(expand(program))
            once = pretty_print(program)
            assert parse_program(once) == program
            assert pretty_print(parse_program(once)) == once
        except Exception as err:  # noqa: BLE001 - collecting all corpus failures
            failures.append(f"{path.name}: {err}")
    elapsed = time.monotonic() - started
    report(
        1,
        not failures and elapsed < 1.0,
        f"({len(CORPUS_FILES)} corpus files, {len(failures)} failures, {elapsed:.2f}s)"
        + ("; ".join(failures) if failures else ""),
    )


# -- criterion 2: seven-scenario suite ---------------------------------------------


def test_criterion_2_scenario_suite():
    started = time.monotonic()
    mismatches = []
    for i in SCENARIOS:
        program = parse_program(fixture_path(f"scenario{i}.sprw").read_text(encoding="utf-8"))
        events = load_trace(fixture_path(f"scenario{i}.trace.jsonl").read_text(encoding="utf-8"))
        lines, diagnostics, _ = run_records(program, events)
        got = "".join(line + "\n" for line in lines)
        expected = fixture_path(f"scenario{i}.expected.jsonl").read_text(encoding="utf-8")
        if got != expected:
            mismatches.append(f"scenario{i}")
        if diagnostics:
            mismatches.append(f"scenario{i} diagnostics: {diagnostics}")
    elapsed = time.monotonic() - started
    report(
        2,
        not mismatches and elapsed < 5.0,
        f"(7 scenarios byte-identical, {elapsed:.2f}s) {mismatches}",
    )


# -- criterion 3: Fig 10 bug reproduction ------------------------------------------


def test_criterion_3_unhygienic_sharing_bug():
    trace = [
        ("motion", ("m1", Symbol("on"), Symbol("front_door")), 0),
        ("contact", ("c1", Symbol("open"), Symbol("front_door")), 5_000),
        ("motion", ("m2", Symbol("on"), Symbol("entrance_hall")), 10_000),
    ]

    def occupied_matches(file_name):
        text = (CORPUS_FILES[0].parent / file_name).read_text(encoding="utf-8")
        compiled = compile_program(expand(parse_program(text)))
        net = Network(compiled)
        hits = []
        for tag, attrs, ts in trace:
            _, results = net.ingest(Symbol(tag), attrs, ts)
            hits += [m for m in results if m.pattern == "occupied_home"]
        return len(hits)

    unaliased = occupied_matches("fig9.sprw")
    aliased = occupied_matches("fig10c.sprw")
    report(
        3,
        unaliased == 0 and aliased == 1,
        f"(shared-id version: {unaliased} matches, aliased version: {aliased})",
    )


# -- criteria 4 and 5: shared 200-case differential corpus -------------------------


class CorpusRun:
    def __init__(self):
        self.cases = 0
        self.mismatches = []
        self.ops_covered = set()
        self.cycle_violations = []
        self.reuse_violations = []
        self.guard_violations = []
        self.cross_pattern_reuse_seen = False
        self.elapsed = 0.0


@pytest.fixture(scope="module")
def corpus_run():
    run = CorpusRun()
    started = time.monotonic()
    # the engine's guard rejections must leave every slot as they found it
    with pytest.MonkeyPatch.context() as mp:
        rejections = guard_no_consume(mp)
        for i in range(200):
            seed = 31_000 + i
            if i % 50 == 49:
                n_events = 1000
            elif i % 20 == 19:
                n_events = 400
            else:
                n_events = 120
            case = generate_case(seed, n_events=n_events, force_op=OP_GRID[i % len(OP_GRID)])
            run.ops_covered |= case.ops
            run.cases += 1

            program = parse_program(case.program_text)
            compiled = compile_program(expand(program))
            guard_seen = len(rejections)
            diff = differential(compiled, case.trace)
            # records, diagnostics and match cycles
            if diff.divergence():
                run.mismatches.append(seed)
            engine_matches = diff.engine_matches

            per_cycle = Counter((m.pattern, m.cycle) for m in engine_matches)
            if any(v > 1 for v in per_cycle.values()):
                run.cycle_violations.append(seed)
            by_pattern: dict[str, list[int]] = {}
            for m in engine_matches:
                by_pattern.setdefault(m.pattern, []).extend(x.id for x in m.messages)
            for name, ids in by_pattern.items():
                if len(ids) != len(set(ids)):
                    run.reuse_violations.append((seed, name))
            all_sets = [set(ids) for ids in by_pattern.values()]
            for a, b in itertools.combinations(all_sets, 2):
                if a & b:
                    run.cross_pattern_reuse_seen = True
            if not all(untouched for _, untouched in rejections[guard_seen:]):
                run.guard_violations.append(seed)
    run.elapsed = time.monotonic() - started
    return run


def test_criterion_4_oracle_equivalence(corpus_run):
    grid_missing = set(OP_GRID) - corpus_run.ops_covered
    ok = (
        corpus_run.cases >= 200
        and not corpus_run.mismatches
        and not grid_missing
        and corpus_run.elapsed < 300.0
    )
    report(
        4,
        ok,
        f"({corpus_run.cases} cases byte-identical, grid covered, "
        f"{corpus_run.elapsed:.1f}s)"
        + (f" mismatched seeds: {corpus_run.mismatches[:5]}" if corpus_run.mismatches else "")
        + (f" grid gaps: {sorted(grid_missing)}" if grid_missing else ""),
    )


def test_criterion_5_policy_invariants(corpus_run):
    ok = (
        not corpus_run.cycle_violations
        and not corpus_run.reuse_violations
        and not corpus_run.guard_violations
        and corpus_run.cross_pattern_reuse_seen
    )
    report(
        5,
        ok,
        "(single selection, single consumption, guard-no-consume all hold; "
        f"cross-pattern sharing observed: {corpus_run.cross_pattern_reuse_seen})"
        + (f" cycle: {corpus_run.cycle_violations[:3]}" if corpus_run.cycle_violations else "")
        + (f" reuse: {corpus_run.reuse_violations[:3]}" if corpus_run.reuse_violations else "")
        + (f" guard: {corpus_run.guard_violations[:3]}" if corpus_run.guard_violations else ""),
    )


# -- criterion 6: selection extremality ---------------------------------------------


def test_criterion_6_selection_extremality():
    texts = [
        "pattern p as {:a, x} and {:b, x} and {:c, y}",
        "pattern p as {:a, x} and {:b, x} and {:c, y}, options: [last: true]",
        "pattern p as {:a, x} and {:b, y} and {:c, x}, options: [seq: true]",
        "pattern p as {:a, x} and {:b, x} and {:c, x}, options: [interval: {5, :secs}, last: true]",
    ]
    rng = random.Random(616)
    checked = 0
    bad = []
    for text in texts:
        cp = compile_program(expand(parse_program(text))).patterns[0]
        for _ in range(60):
            buffers = {}
            mid = 0
            for c_idx, tag in enumerate("abc"):
                buf = []
                ts = 0
                for _ in range(rng.randint(0, 6)):
                    mid += 1
                    ts += rng.randint(0, 3000)
                    buf.append(Message(mid, mid, ts, Symbol(tag), (rng.randint(1, 2),)))
                buffers[c_idx] = buf
            outcome = evaluate_pattern(
                cp, lambda cons, key=None: buffers.get(cons.cons_index, []), 20_000
            )
            got = tuple(outcome.result.messages) if outcome.result else None

            pools = [buffers.get(c.cons_index, []) for c in cp.alternatives[0].positives]
            valid = []
            for combo in itertools.product(*pools):
                if len({m.id for m in combo}) != len(combo):
                    continue
                env, distinct, fine = {}, {}, True
                for cons, m in zip(cp.alternatives[0].positives, combo):
                    r = unify_selector(cons.selector, m, env, distinct)
                    if r is None:
                        fine = False
                        break
                    env, distinct = r
                if not fine:
                    continue
                if cp.seq and any(
                    (b.ts, b.seq) <= (a.ts, a.seq) for a, b in zip(combo, combo[1:])
                ):
                    continue
                ts_all = [m.ts for m in combo]
                if cp.interval_ms is not None and max(ts_all) - min(ts_all) > cp.interval_ms:
                    continue
                valid.append(combo)
            key = lambda combo: tuple((m.ts, m.seq) for m in combo)
            expected = (max(valid, key=key) if cp.last else min(valid, key=key)) if valid else None
            checked += 1
            if got != expected:
                bad.append((text, got, expected))
    report(6, not bad, f"({checked} enumerated buffer sets, engine == brute force) {bad[:2]}")


# -- criterion 7: incremental performance sanity -------------------------------------


def _perf_program() -> str:
    # every message type is either consumed promptly or window-bounded, so the
    # retention rules keep all match state finite
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


def _perf_events(n):
    devices = ("d1", "d2")
    for i in range(n):
        tag = "s8" if i % 997 == 0 else f"s{i % 8}"
        yield MessageEvent(i * 10, Symbol(tag), (devices[i % 2], 1 + i % 5))


def test_criterion_7_performance_and_prefix_equivalence():
    text = _perf_program()
    compiled = compile_program(expand(parse_program(text)))
    assert len(compiled.patterns) == 20

    n = 100_000
    net = Network(compiled)
    started = time.monotonic()
    total_matches = 0
    max_buffered = 0
    for i, ev in enumerate(_perf_events(n)):
        _, results = net.ingest(ev.type_tag, ev.attrs, ev.ts)
        total_matches += len(results)
        if i % 10_000 == 9_999:
            net.gc(ev.ts)
            max_buffered = max(max_buffered, net.buffered_total())
    elapsed = time.monotonic() - started
    max_buffered = max(max_buffered, net.buffered_total())

    prefix = list(_perf_events(1000)) + [AdvanceEvent(1000 * 10 + 10_000)]
    engine_matches, _ = replay_trace(compiled, prefix)
    oracle_out = oracle_run(compiled, prefix)
    as_keys = lambda ms: [
        (m.pattern, m.at, tuple(x.id for x in m.messages)) for m in ms
    ]
    prefix_identical = as_keys(engine_matches) == as_keys(oracle_out.results)

    ok = elapsed < 10.0 and max_buffered < 5_000 and prefix_identical
    report(
        7,
        ok,
        f"({n} messages x 20 patterns in {elapsed:.2f}s, {total_matches} matches, "
        f"peak buffered {max_buffered}, 1000-event prefix oracle-identical: {prefix_identical})",
    )
