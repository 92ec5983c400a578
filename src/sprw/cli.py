"""Deterministic trace-replay command line.

Subcommands:
  run     replay a trace through one actor, emitting one JSON record per line
  check   parse/expand/compile a pattern file and report structure
  oracle  run engine and brute-force reference side by side and compare
  fuzz    seeded random differential testing over the operator grid

Exit codes: 0 success, 2 parse/load error, 3 runtime diagnostics occurred
(run), 1 divergence (oracle/fuzz).  All time comes from the trace; the
harness never reads the wall clock.

``run`` streams: it decodes the trace once in full to check it, keeping only
the message types it names, and then decodes it again line by line, writing
each record as it fires.  Its memory does not grow with the trace, and a
trace that fails to decode writes no record and creates no ``--out`` file.
An ``--out`` that is the ``--patterns`` or ``--trace`` file is refused
before anything is opened for writing.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterator

from .actor import deliver, spawn, step
from .compile import compile_program
from .errors import ParseError, SprwError
from .expand import expand
from .fuzz import differential, run_case
from .fuzzgen import OP_GRID, generate_case
from .nodes import Program, Selector, Var
from .parser import Parser, parse_program
from .printer import pattern_text
from .tracefile import AdvanceEvent, MessageEvent, decode_lines, file_lines, record_line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sprw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a trace through one actor")
    p_run.add_argument("--patterns", required=True)
    p_run.add_argument("--trace", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--lifetime", help="default message lifetime, e.g. '{1, :hours}' or ms")

    p_check = sub.add_parser("check", help="parse, expand and compile a pattern file")
    p_check.add_argument("--patterns", required=True)

    p_oracle = sub.add_parser("oracle", help="diff engine output against the reference matcher")
    p_oracle.add_argument("--patterns", required=True)
    p_oracle.add_argument("--trace", required=True)
    p_oracle.add_argument("--diff", action="store_true")
    p_oracle.add_argument("--lifetime")

    p_fuzz = sub.add_parser("fuzz", help="random differential testing")
    p_fuzz.add_argument("--count", type=positive_int, default=200)
    p_fuzz.add_argument("--events", type=positive_int, default=120)
    p_fuzz.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_fuzz(args)
    except SprwError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def positive_int(text: str) -> int:
    """An argparse type: a positive integer."""
    if int(text) <= 0:
        raise ValueError(text)
    return int(text)


@contextlib.contextmanager
def _opened(path: str, mode: str = "r"):
    """``path`` opened as UTF-8 text; an SprwError if it cannot be read or written."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeError) as err:
        verb = "write" if mode == "w" else "read"
        raise SprwError(f"cannot {verb} {path}: {getattr(err, 'strerror', None) or err}") from None


def _load_program(path: str) -> Program:
    with _opened(path) as fh:
        return parse_program(fh.read())


def _trace_events(path: str) -> Iterator:
    with _opened(path) as fh:
        yield from decode_lines(file_lines(fh))


def parse_lifetime(text: str | None) -> int | None:
    """``--lifetime`` in ms: an integer of ms or a duration literal."""
    if text is None:
        return None
    try:
        parser = Parser(text)
        ms = parser.parse_int() if parser.kinds[0] == "INT" else parser.parse_time().ms
        parser.expect("EOF")
    except ParseError:
        text = text.strip()
        raise SprwError(f"cannot parse lifetime {text!r} (use ms or '{{2, :mins}}')") from None
    return ms


def run_records(program: Program, events, lifetime_ms: int | None = None):
    """Replay a loaded trace through one actor; returns (record lines,
    diagnostics, cell), the cell's outputs drained."""
    cell = spawn(program, lifetime_ms=lifetime_ms)
    lines = list(replay(cell, events))
    return lines, _diagnostics(cell), cell


def replay(cell, events) -> Iterator[str]:
    """Deliver and step each event, yielding each record line as it fires
    and draining ``cell.outputs`` after every step."""
    outputs = cell.outputs
    for ev in events:
        if isinstance(ev, AdvanceEvent):
            step(cell, ev.to)
        else:
            deliver(cell, ev.type_tag, ev.attrs, ev.ts)
            step(cell, ev.ts)
        if outputs:
            for rec in outputs:
                yield record_line(rec)
            outputs.clear()


def _diagnostics(cell) -> list:
    return list(cell.network.diagnostics) + list(cell.diagnostics)


def _cmd_run(args) -> int:
    if args.out:  # opening --out for writing would empty an input before it is read
        for option, path in (("--patterns", args.patterns), ("--trace", args.trace)):
            with contextlib.suppress(OSError):  # either is missing: not the same file
                if os.path.samefile(args.out, path):
                    raise SprwError(f"--out {args.out} is the {option} file")
    program = _load_program(args.patterns)
    # the first pass fails on a bad trace before any record is written
    types = dict.fromkeys(ev.type_tag.name for ev in _trace_events(args.trace)
                          if isinstance(ev, MessageEvent))
    lifetime = parse_lifetime(args.lifetime)
    cell = spawn(program, lifetime_ms=lifetime)
    _warn_unrouted(cell.compiled, types)
    with _opened(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        for line in replay(cell, _trace_events(args.trace)):
            out.write(line + "\n")
    diagnostics = _diagnostics(cell)
    for d in diagnostics:
        print(f"diagnostic: {d.kind} in {d.pattern} at {d.at}: {d.detail}", file=sys.stderr)
    return 3 if diagnostics else 0


def _warn_unrouted(compiled, types) -> None:
    """Warn about each message type, in first-seen order, that no pattern
    references, then about each type that nothing bounds."""
    for name in types:
        if name not in compiled.routing:
            print(f"warning: no pattern references message type :{name}", file=sys.stderr)
    for _, warning in _retention_warnings(compiled):
        print(warning, file=sys.stderr)


def _retention_warnings(compiled) -> list[tuple[bool, str]]:
    """(consumed, warning) per message type that no window or interval
    bounds: a positive constituent consumes it, or nothing ever does, when
    only negated constituents reference it."""
    consumed = {c.selector.type_tag.name
                for cp in compiled.patterns for alt in cp.alternatives for c in alt.positives}
    return [
        (True, f"warning: messages of type :{tag} are retained until consumed")
        if tag in consumed else
        (False, f"warning: messages of type :{tag} are only negated, without a window: "
                "nothing consumes them, so without a lifetime they accumulate")
        for tag, bound in compiled.retention_ms.items() if bound is None
    ]


def _cmd_check(args) -> int:
    program = _load_program(args.patterns)
    expanded = expand(program)
    compiled = compile_program(expanded)
    for cp in compiled.patterns:
        print(f"pattern {cp.name}:")
        print(f"  expanded: {pattern_text(expanded.patterns[cp.index])}")
        shared = _shared_variables(cp)
        if shared:
            for name, slots in shared:
                where = ", ".join(str(i + 1) for i in slots)
                print(f"  shared variable {name!r} across constituents {where}")
        else:
            print("  shared variables: none")
    print(f"alpha nodes: {len(compiled.alphas)}")
    for key, spec in compiled.alphas.items():
        tests = ", ".join(f"{i}={v!r}" for i, v in spec.const_tests) or "no constant tests"
        extra = []
        if spec.every_n is not None:
            extra.append(f"every {spec.every_n}")
        if spec.debounce_ms is not None:
            extra.append(f"debounce {spec.debounce_ms}ms")
        suffix = f" ({', '.join(extra)})" if extra else ""
        users = ", ".join(
            f"{compiled.patterns[p].name}#{cons.cons_index + 1}" for p, _, cons in spec.targets
        )
        print(f"  :{spec.type_tag.name}/{spec.arity} [{tests}]{suffix} -> {users}")
    # consumption bounds a consumed type: name only the types nothing consumes
    for consumed, warning in _retention_warnings(compiled):
        if not consumed:
            print(warning, file=sys.stderr)
    return 0


def _shared_variables(cp):
    out = []
    for alt in cp.alternatives:
        seen: dict[str, list[int]] = {}
        for cons in alt.constituents:
            assert isinstance(cons.selector, Selector)
            for term in cons.selector.terms:
                if isinstance(term, Var):
                    slots = seen.setdefault(term.name, [])
                    if cons.cons_index not in slots:
                        slots.append(cons.cons_index)
        for name, slots in seen.items():
            if len(slots) > 1:
                out.append((name, slots))
    return out


def _cmd_oracle(args) -> int:
    compiled = compile_program(expand(_load_program(args.patterns)))
    diff = differential(compiled, list(_trace_events(args.trace)), parse_lifetime(args.lifetime))
    divergence = diff.divergence()
    if args.diff:
        print(divergence or f"identical ({len(diff.engine_records)} records)")
    else:
        sys.stdout.write("".join(line + "\n" for line in diff.oracle_records))
    return 1 if divergence else 0


# lifetimes `fuzz` cycles through, one per pass over the grid, so every
# operator meets every lifetime
FUZZ_LIFETIMES = (None, 300, 1_500, 5_000)


def _cmd_fuzz(args) -> int:
    failures = 0
    covered: set[str] = set()
    for i in range(args.count):
        seed = args.seed + i
        force = OP_GRID[i % len(OP_GRID)]
        lifetime = FUZZ_LIFETIMES[(i // len(OP_GRID)) % len(FUZZ_LIFETIMES)]
        case = generate_case(seed, n_events=args.events, force_op=force)
        covered |= case.ops
        ok, detail = run_case(case, lifetime)
        if not ok:
            failures += 1
            shown = "none" if lifetime is None else f"{lifetime} ms"
            print(f"seed {seed}, lifetime {shown}: DIVERGENCE\n{detail}", file=sys.stderr)
            print("program:\n" + case.program_text, file=sys.stderr)
            break
    if failures == 0:
        missing = set(OP_GRID) - covered
        note = f" (grid not covered: {sorted(missing)})" if missing else ""
        print(f"ok: {args.count} cases identical{note}")
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
