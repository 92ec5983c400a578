"""sprw benchmark: replay one seeded workload the way ``sprw run`` does.

    python3 perfbench/run.py --workload mixed20 --seed 0 --seconds 30 --trace 0

Runs one workload in this process, single-threaded.  Before timing, a
correctness gate replays the seven scenario fixtures, the workload's leading
prefix (against ``cli.run_records`` and the oracle) and the workload at the
default seed (against a pinned digest of its records).  Then it sets up
and replays the workload repeatedly for ``--seconds``: each repetition parses
the pattern source, spawns an actor (expand and compile), decodes the JSONL
trace, delivers and steps every event and encodes ``cell.outputs``, with the
same public calls ``cli.run_records`` makes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  The line
before the last is a self-describing report (machine, commit, seed, sample
counts, every check); the last line is the result summary.  ``--out FILE``
also writes the report to FILE.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "sprw" / "__init__.py").is_file():
    sys.exit(f"error: sprw sources not found under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import sprw.actor as actor  # noqa: E402
import sprw.parser as parser  # noqa: E402
import sprw.tracefile as tracefile  # noqa: E402
from sprw.cli import run_records  # noqa: E402
from sprw.compile import compile_program  # noqa: E402
from sprw.expand import expand  # noqa: E402
from sprw.oracle import oracle_run  # noqa: E402
from sprw.tracefile import AdvanceEvent, MessageEvent  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

FIXTURES = SRC / "sprw" / "fixtures"
SCENARIOS = range(1, 8)
# set-up is short and noisy next to the replay, so every run measures at
# least this many set-ups and reports their median
MIN_SETUPS = 10

# sha256 of each workload's full record output at DEFAULT_SEED
PINNED_DIGESTS = {
    "mixed20": "7fd4989d8c14a49897778806b26a3e19e5af9118752138f6d18978f80b179443",
    "join_window": "7e41d51295e546291623079e3de85f2de1747bfcd33017021f7eb3340f4b2be3",
    "wide_inert": "7fd4989d8c14a49897778806b26a3e19e5af9118752138f6d18978f80b179443",
}


def setup(source: str, trace_text: str):
    """Parse, spawn (expand and compile), decode: what ``sprw run`` does
    before the first message.  Returns (cell, events, seconds)."""
    started = time.perf_counter()
    program = parser.parse_program(source)
    cell = actor.spawn(program)
    events = tracefile.load_trace(trace_text)
    return cell, events, time.perf_counter() - started


def replay(cell, events, warmup: int = 0, buffered: list | None = None):
    """Deliver and step every event, then encode the outputs.

    Returns (record lines, seconds from first deliver to last record_line,
    per-message deliver+step seconds after the first ``warmup`` messages).
    With ``buffered`` given, appends the network's buffered total after each
    message (outside the timed calls)."""
    deliver, step, record_line = actor.deliver, actor.step, tracefile.record_line
    clock = time.perf_counter
    latencies = []
    seen = 0
    started = clock()
    for ev in events:
        if isinstance(ev, AdvanceEvent):
            step(cell, ev.to)
            continue
        t0 = clock()
        deliver(cell, ev.type_tag, ev.attrs, ev.ts)
        step(cell, ev.ts)
        t1 = clock()
        if seen >= warmup:
            latencies.append(t1 - t0)
        seen += 1
        if buffered is not None:
            buffered.append(cell.network.buffered_total())
    lines = [record_line(rec) for rec in cell.outputs]
    return lines, clock() - started, latencies


def digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


def diagnostics_of(cell) -> list:
    return list(cell.network.diagnostics) + list(cell.diagnostics)


# -- correctness gate -----------------------------------------------------------


def check_scenarios() -> list[str]:
    """Each scenario fixture must replay to its expected bytes."""
    failures = []
    for i in SCENARIOS:
        cell, events, _ = setup(
            (FIXTURES / f"scenario{i}.sprw").read_text(encoding="utf-8"),
            (FIXTURES / f"scenario{i}.trace.jsonl").read_text(encoding="utf-8"),
        )
        lines, _, _ = replay(cell, events)
        got = "".join(line + "\n" for line in lines).encode("utf-8")
        if got != (FIXTURES / f"scenario{i}.expected.jsonl").read_bytes():
            failures.append(f"scenario{i}: output differs from expected")
        if diagnostics_of(cell):
            failures.append(f"scenario{i}: diagnostics {diagnostics_of(cell)}")
    return failures


def prefix_events(events, n: int):
    """The first ``n`` messages followed by one clock advance past them."""
    prefix = [ev for ev in events if isinstance(ev, MessageEvent)][:n]
    return prefix + [AdvanceEvent(prefix[-1].ts + workloads.TAIL_MS)]


def check_prefix(w: workloads.Workload) -> list[str]:
    """Driver, ``cli.run_records`` and the oracle agree on the leading prefix."""
    program = parser.parse_program(w.source)
    prefix = prefix_events(tracefile.load_trace(w.trace_text), w.prefix)
    cell = actor.spawn(program)
    driver_lines, _, _ = replay(cell, prefix)
    cli_lines, diagnostics, _ = run_records(program, prefix)
    compiled = compile_program(expand(program))
    labels: dict[str, list[str]] = {}
    for b in compiled.bindings:
        labels.setdefault(b.pattern, []).append(b.label)
    oracle = oracle_run(compiled, prefix)
    oracle_lines = [tracefile.record_line(r)
                    for r in tracefile.records_for(oracle.results, lambda p: labels.get(p, []))]
    failures = []
    if driver_lines != cli_lines:
        failures.append(f"{w.name} prefix: driver and cli.run_records differ")
    if driver_lines != oracle_lines:
        failures.append(f"{w.name} prefix: driver and oracle differ")
    if diagnostics:
        failures.append(f"{w.name} prefix: diagnostics {diagnostics}")
    return failures


def check_pinned(name: str) -> list[str]:
    """The workload's full output at the default seed matches its pinned
    digest, whatever seed the run measures."""
    w = workloads.build(name, workloads.DEFAULT_SEED)
    cell, events, _ = setup(w.source, w.trace_text)
    lines, _, _ = replay(cell, events)
    got = digest(lines)
    if got != PINNED_DIGESTS[name]:
        return [f"{name}: default-seed output digest {got} differs from pinned {PINNED_DIGESTS[name]}"]
    return []


# -- measurement -------------------------------------------------------------------


def measure(w: workloads.Workload, seconds: float, traced: bool) -> dict:
    """Set up and replay until ``seconds`` of repetitions have run.

    Every statistic is a median over repetitions, so a stretch of
    interference from other processes moves it less than it moves a mean."""
    setups, throughputs, traced_throughputs, p50s, p99s = [], [], [], [], []
    layers: list[dict] = []
    residual = 0.0
    failures: list[str] = []
    digests = set()
    delivered = latency_samples = 0
    spent = 0.0
    rep = 0
    while spent < seconds or (traced and not layers) or not throughputs:
        gc.collect()
        started = time.perf_counter()
        if traced and rep % 2 == 1:
            tracer = tracing.Tracer()
            buffered: list[int] = []
            with tracing.instrumented(tracer):
                cell, events, _ = setup(w.source, w.trace_text)
                lines, elapsed, _ = replay(cell, events, buffered=buffered)
            traced_throughputs.append(w.messages / elapsed)
            layers.append(tracing.layer_metrics(tracer, cell, max(buffered)))
            residual = max(residual, tracer.root_residual())
            del tracer, buffered
        else:
            cell, events, setup_s = setup(w.source, w.trace_text)
            lines, elapsed, latencies = replay(cell, events, w.warmup)
            setups.append(setup_s)
            throughputs.append(w.messages / elapsed)
            q = statistics.quantiles(latencies, n=100)
            p50s.append(q[49])
            p99s.append(q[98])
            latency_samples += len(latencies)
            del latencies
        if diagnostics_of(cell):
            failures.append(f"{w.name}: diagnostics {diagnostics_of(cell)[:3]}")
        digests.add(digest(lines))
        delivered += w.messages
        del cell, events, lines
        spent += time.perf_counter() - started
        rep += 1
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(setup(w.source, w.trace_text)[2])
    if len(digests) != 1:
        failures.append(f"{w.name}: output differs between repetitions")

    result = {
        "reps": rep,
        "delivered": delivered,
        "setup_samples": len(setups),
        "throughput_samples": len(throughputs),
        "latency_samples": latency_samples,
        "latency_samples_per_rep": latency_samples // len(p50s),
        "output_digest": digests.pop() if len(digests) == 1 else None,
        "per_rep": {"throughput_msgs_per_s": throughputs, "latency_p50_us": [x * 1e6 for x in p50s],
                    "latency_p99_us": [x * 1e6 for x in p99s], "setup_s": setups},
        "failures": failures,
    }
    if not traced:
        result["metrics"] = {
            "throughput_msgs_per_s": (statistics.median(throughputs), "msgs/s"),
            "latency_p50_us": (statistics.median(p50s) * 1e6, "us"),
            "latency_p99_us": (statistics.median(p99s) * 1e6, "us"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return result
    # self times are differences of clock readings: allow for float rounding
    if residual > 1e-6:
        failures.append(f"{w.name}: span self times miss a root's wall time by {residual:.3g}s")
    metrics = {}
    for name, value in layers[0].items():
        unit = tracing.unit_of(name)
        values = [layer[name] for layer in layers]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) != 1:  # everything but timings counts work
            failures.append(f"{w.name}: {name} differs between traced repetitions")
        metrics[name] = (value, unit)
    metrics["trace.throughput_ratio"] = (
        statistics.median(traced_throughputs) / statistics.median(throughputs),
        tracing.unit_of("trace.throughput_ratio"))
    result["metrics"] = metrics
    result["root_residual_s"] = residual
    return result


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the self-describing report to this file")
    args = ap.parse_args(argv)

    w = workloads.build(args.workload, args.seed)
    failures = check_scenarios() + check_prefix(w) + check_pinned(w.name)
    result = measure(w, args.seconds, traced=bool(args.trace))
    failures += result.pop("failures")
    attempted = result["delivered"]
    failed = attempted if failures else 0
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.pop("metrics").items()}
    report = {
        "benchmark": "sprw perfbench",
        "workload": w.name,
        "seed": w.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "messages": w.messages,
        "warmup_messages": w.warmup,
        "prefix_messages": w.prefix,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "commit": git_commit(),
        **result,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "checks_failed": failures,
        "metrics": metrics,
    }
    if args.trace:
        report["layer_map"] = [dict(zip(("layer", "metric", "moves", "on"), row))
                               for row in tracing.LAYER_MAP]
    text = json.dumps(report)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(text)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
