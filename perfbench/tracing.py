"""Per-layer tracing from outside the program.

Each layer's public functions are wrapped by replacing the module (or class)
attribute that their caller looks them up through, e.g. ``sprw.engine.
evaluate_pattern`` for the engine's calls into the decision procedure.  The
engine itself is not edited.

Layer entries are recorded one span per call: (name, start, end, parent).
The two matching kernels that run thousands of times per message on
``join_window`` (``extend_env`` and the top-level guard ``eval_expr``) would
need gigabytes as single spans, so they are counted and timed per call and
their time is charged to the span they ran in.  A span's self time is its
duration minus the part of its interval that child spans and kernels cover.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import sprw.actor
import sprw.combine
import sprw.compile
import sprw.engine
import sprw.parser
import sprw.tracefile

# (layer, metric, end-to-end metric it should move, workload it moves on)
LAYER_MAP = (
    ("parser", "parser.parse_program_s", "setup_s", "wide_inert"),
    ("expand", "expand.expand_s", "setup_s", "wide_inert"),
    ("compile", "compile.compile_program_s", "setup_s", "wide_inert"),
    ("compile", "compile.alpha_nodes", "setup_s", "wide_inert"),
    ("compile", "compile.alternatives", "setup_s", "wide_inert"),
    ("compile", "compile.route_s", "throughput_msgs_per_s", "mixed20"),
    ("compile", "compile.route_calls", "throughput_msgs_per_s", "mixed20"),
    ("compile", "compile.route_pass_ratio", "throughput_msgs_per_s", "mixed20"),
    ("engine", "engine.self_s", "throughput_msgs_per_s latency_p50_us", "wide_inert mixed20"),
    ("engine", "engine.cycles", "throughput_msgs_per_s latency_p50_us", "wide_inert mixed20"),
    ("engine", "engine.timer_cycles", "throughput_msgs_per_s latency_p50_us", "wide_inert mixed20"),
    ("engine", "engine.evals_per_cycle", "throughput_msgs_per_s latency_p50_us", "wide_inert mixed20"),
    ("engine", "engine.skip_ratio", "throughput_msgs_per_s latency_p50_us", "wide_inert mixed20"),
    ("engine", "engine.peak_buffered", "throughput_msgs_per_s latency_p50_us peak_rss_mb",
     "wide_inert mixed20 join_window"),
    ("combine", "combine.evaluate_pattern_calls", "throughput_msgs_per_s latency_p99_us", "join_window"),
    ("combine", "combine.self_s", "throughput_msgs_per_s latency_p99_us", "join_window"),
    ("combine", "combine.match_ratio", "throughput_msgs_per_s latency_p99_us", "join_window"),
    ("combine", "combine.guard_reject_ratio", "throughput_msgs_per_s latency_p99_us", "join_window"),
    ("matching", "matching.extend_env_calls", "throughput_msgs_per_s latency_p99_us", "join_window"),
    ("matching", "matching.extend_env_hit_ratio", "throughput_msgs_per_s latency_p99_us", "join_window"),
    ("matching", "matching.extend_env_s", "throughput_msgs_per_s latency_p99_us", "join_window"),
    ("matching", "matching.apply_transformers_s", "latency_p50_us", "mixed20"),
    ("matching", "matching.guard_eval_s", "latency_p50_us", "mixed20"),
    ("actor", "actor.step_self_s", "throughput_msgs_per_s", "mixed20"),
    ("actor", "actor.deliver_s", "throughput_msgs_per_s", "mixed20"),
    ("tracefile", "tracefile.load_trace_s", "setup_s", "mixed20"),
    ("tracefile", "tracefile.encode_s", "throughput_msgs_per_s", "mixed20"),
    ("tracefile", "tracefile.records", "throughput_msgs_per_s", "mixed20"),
)

class Tracer:
    """Spans and kernel counters of one traced replay, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.kernel_cover: dict[int, float] = defaultdict(float)  # span -> kernel time inside it
        self.kernel_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def kernel(self, name: str, fn):
        """Count calls and non-None results; charge the time to the open span."""
        stack, cover, total, counts = self._stack, self.kernel_cover, self.kernel_s, self.counts
        hits = name + ".hits"

        def traced(*args):
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                dur = perf_counter() - start
                total[name] += dur
                counts[name] += 1
                if stack:
                    cover[stack[-1]] += dur
            if result is not None:
                counts[hits] += 1
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its children and kernels cover,
        each child clipped to the parent's interval."""
        covered = [self.kernel_cover.get(i, 0.0) for i in range(len(self.spans))]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total time, self time and call count per span name."""
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            total[name] += end - start
            self_s[name] += own
            calls[name] += 1
        return total, self_s, calls

    def root_residual(self) -> float:
        """Largest gap, over root spans, between the root's wall time and the
        summed self times of its span tree plus the kernels inside it."""
        roots: list[int] = []
        sums: dict[int, float] = defaultdict(float)
        for i, (own, (_, _, _, parent)) in enumerate(zip(self.self_times(), self.spans)):
            roots.append(i if parent < 0 else roots[parent])
            sums[roots[i]] += own + self.kernel_cover.get(i, 0.0)
        return max((abs(self.spans[r][2] - self.spans[r][1] - t) for r, t in sums.items()),
                   default=0.0)


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every traced entry point for the duration of the block."""
    router_route = sprw.compile.AlphaRouter.route
    route_span = tracer.span("compile.route", router_route)
    counts = tracer.counts

    def route(self, type_tag_name, attrs, ts):
        passing = route_span(self, type_tag_name, attrs, ts)
        counts["route.considered"] += len(self.compiled.routing.get(type_tag_name, ()))
        counts["route.passed"] += len(passing)
        return passing

    evaluate = tracer.span("combine.evaluate_pattern", sprw.engine.evaluate_pattern)

    def evaluate_pattern(*args):
        outcome = evaluate(*args)
        if outcome.result is not None:
            counts["combine.matches"] += 1
        if outcome.guard_failed:
            counts["combine.guard_rejects"] += 1
        return outcome

    extend_env = tracer.kernel("matching.extend_env", sprw.combine.extend_env)
    patches = [
        (sprw.parser, "parse_program", tracer.span("parser.parse_program", sprw.parser.parse_program)),
        (sprw.actor, "spawn", tracer.span("actor.spawn", sprw.actor.spawn)),
        (sprw.actor, "expand", tracer.span("expand.expand", sprw.actor.expand)),
        (sprw.actor, "compile_program", tracer.span("compile.compile_program", sprw.actor.compile_program)),
        (sprw.tracefile, "load_trace", tracer.span("tracefile.load_trace", sprw.tracefile.load_trace)),
        (sprw.actor, "deliver", tracer.span("actor.deliver", sprw.actor.deliver)),
        (sprw.actor, "step", tracer.span("actor.step", sprw.actor.step)),
        (sprw.engine.Network, "ingest", tracer.span("engine.ingest", sprw.engine.Network.ingest)),
        (sprw.engine.Network, "advance_time",
         tracer.span("engine.advance_time", sprw.engine.Network.advance_time)),
        (sprw.compile.AlphaRouter, "route", route),
        (sprw.engine, "evaluate_pattern", evaluate_pattern),
        (sprw.engine, "extend_env", extend_env),
        (sprw.combine, "extend_env", extend_env),
        (sprw.combine, "apply_transformers",
         tracer.span("matching.apply_transformers", sprw.combine.apply_transformers)),
        (sprw.combine, "eval_expr", tracer.kernel("matching.guard_eval", sprw.combine.eval_expr)),
        (sprw.actor, "output_record", tracer.span("tracefile.output_record", sprw.actor.output_record)),
        (sprw.tracefile, "record_line", tracer.span("tracefile.record_line", sprw.tracefile.record_line)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, cell, peak_buffered: int) -> dict[str, float]:
    """Per-layer metrics of one traced setup-and-replay."""
    total, own, calls = tracer.totals()
    c = tracer.counts
    cycles = cell.network.cycle
    evals = calls["combine.evaluate_pattern"]
    patterns = len(cell.compiled.patterns)
    engine_spans = ("engine.ingest", "engine.advance_time")
    return {
        "parser.parse_program_s": total["parser.parse_program"],
        "expand.expand_s": total["expand.expand"],
        "compile.compile_program_s": total["compile.compile_program"],
        "compile.alpha_nodes": len(cell.compiled.alphas),
        "compile.alternatives": sum(len(p.alternatives) for p in cell.compiled.patterns),
        "compile.route_s": total["compile.route"],
        "compile.route_calls": calls["compile.route"],
        "compile.route_pass_ratio": _ratio(c["route.passed"], c["route.considered"]),
        "engine.self_s": sum(own[n] for n in engine_spans),
        "engine.cycles": cycles,
        # every ingest runs exactly one message cycle; the rest are timer groups
        "engine.timer_cycles": cycles - calls["engine.ingest"],
        "engine.evals_per_cycle": _ratio(evals, cycles),
        "engine.skip_ratio": 1.0 - _ratio(evals, cycles * patterns),
        "engine.peak_buffered": peak_buffered,
        "combine.evaluate_pattern_calls": evals,
        "combine.self_s": own["combine.evaluate_pattern"],
        "combine.match_ratio": _ratio(c["combine.matches"], evals),
        "combine.guard_reject_ratio": _ratio(c["combine.guard_rejects"], c["matching.guard_eval"]),
        "matching.extend_env_calls": c["matching.extend_env"],
        "matching.extend_env_hit_ratio": _ratio(c["matching.extend_env.hits"], c["matching.extend_env"]),
        "matching.extend_env_s": tracer.kernel_s["matching.extend_env"],
        "matching.apply_transformers_s": total["matching.apply_transformers"],
        "matching.guard_eval_s": tracer.kernel_s["matching.guard_eval"],
        "actor.step_self_s": own["actor.step"],
        "actor.deliver_s": total["actor.deliver"],
        "tracefile.load_trace_s": total["tracefile.load_trace"],
        "tracefile.encode_s": total["tracefile.output_record"] + total["tracefile.record_line"],
        "tracefile.records": calls["tracefile.record_line"],
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_cycle"):
        return "1/cycle"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
