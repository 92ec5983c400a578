"""The benchmark's own tests: seeded inputs, workload shape, metric names.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run  # puts the repository's src/ on sys.path
import tracing
import workloads
from sprw.compile import AlphaRouter

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.trace_text.encode() == b.trace_text.encode()
    assert a.source.encode() == b.source.encode()
    assert workloads.build(name, 8).trace_text != a.trace_text


def test_join_window_population_stays_in_band_after_warmup():
    low, high = workloads.JOIN_SLOT_BAND
    for seed in (workloads.DEFAULT_SEED, 1):
        w = workloads.build("join_window", seed)
        cell, events, _ = run.setup(w.source, w.trace_text)
        per_slot = []
        for ev in events[: w.messages]:
            run.actor.deliver(cell, ev.type_tag, ev.attrs, ev.ts)
            run.actor.step(cell, ev.ts)
            per_slot.append([len(buf) for buf in cell.network.buffers.values()])
        steady = per_slot[w.warmup:]
        assert all(len(slots) == 5 for slots in steady)
        assert min(min(slots) for slots in steady) >= low
        assert max(max(slots) for slots in steady) <= high


def test_wide_inert_patterns_never_receive_a_routed_message(monkeypatch):
    w = workloads.build("wide_inert", workloads.DEFAULT_SEED)
    assert w.trace_text == workloads.build("mixed20", workloads.DEFAULT_SEED).trace_text
    targeted = set()
    route = AlphaRouter.route

    def recording_route(self, type_tag_name, attrs, ts):
        passing = route(self, type_tag_name, attrs, ts)
        targeted.update(p_idx for spec in passing for p_idx, _, _ in spec.targets)
        return passing

    monkeypatch.setattr(AlphaRouter, "route", recording_route)
    cell, events, _ = run.setup(w.source, w.trace_text)
    run.replay(cell, events)
    live = len(run.parser.parse_program(workloads.mixed20_source()).patterns)
    inert = workloads.INERT_BASES * (1 + workloads.INERT_REFINEMENTS)
    assert len(cell.compiled.patterns) == live + inert == 1_020
    assert targeted and max(targeted) < live
    stored = set(cell.network.buffers) | set(cell.network.blockers)
    assert all(p_idx < live for p_idx, _, _ in stored)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_default_seed_output_matches_pinned_digest(name):
    assert run.check_pinned(name) == []


@pytest.mark.parametrize("traced", [False, True])
def test_metrics_match_benchmark_json(traced):
    w = workloads.build("mixed20", 3)
    assert run.check_prefix(w) == []
    result = run.measure(w, 0.0, traced)
    assert result["failures"] == []
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: unit for name, (_, unit) in result["metrics"].items()
    }
    if traced:
        assert {row[1] for row in tracing.LAYER_MAP} <= set(result["metrics"])


def test_scenarios_pass_the_gate():
    assert run.check_scenarios() == []


def test_tracer_self_times_and_root_residual():
    tracer = tracing.Tracer()
    tracer.spans = [("root", 0.0, 10.0, -1), ("child", 2.0, 6.0, 0), ("late", 8.0, 12.0, 0)]
    tracer.kernel_cover[1] = 1.0
    # "late" ends after its parent, so only 2 s of it covers the root
    assert tracer.self_times() == [4.0, 3.0, 4.0]
    assert tracer.root_residual() == 2.0
    tracer.spans[2] = ("late", 8.0, 10.0, 0)
    assert tracer.root_residual() == 0.0
