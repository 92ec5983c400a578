"""The benchmark's per-layer tracer (``perfbench/tracing.py``) wraps engine
internals by the module attribute they are called through, such as
``sprw.engine.evaluate_pattern``.  An import refactor that moves one would
break ``perfbench/run.py --trace 1`` without failing anything else."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import sprw.actor
import sprw.engine
import sprw.parser
import sprw.tracefile
from sprw.values import Symbol

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SOURCE = (
    "pattern pair as {:a, x} and {:b, x}\n"
    "pattern calm as not {:m, x}[window: {1, :secs}] and {:a, x}\n"
    "react_to pair, with: emit(paired)\n"
)


def test_tracer_wraps_every_layer_and_restores_it():
    evaluate = sprw.engine.evaluate_pattern
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        cell = sprw.actor.spawn(sprw.parser.parse_program(SOURCE))
        for ts, tag in ((0, "a"), (10, "b"), (20, "a")):
            sprw.actor.deliver(cell, Symbol(tag), (1,), ts)
            sprw.actor.step(cell, ts)
        sprw.actor.step(cell, 5_000)
        lines = [sprw.tracefile.record_line(r) for r in cell.outputs]
    metrics = tracing.layer_metrics(tracer, cell, cell.network.buffered_total())
    assert sprw.engine.evaluate_pattern is evaluate
    assert len(lines) == metrics["tracefile.records"] == 3  # pair once, calm twice
    assert metrics["compile.route_calls"] == 3
    assert metrics["combine.evaluate_pattern_calls"] > 0
    assert metrics["matching.extend_env_calls"] > 0
    assert metrics["engine.timer_cycles"] > 0
    assert metrics["compile.compile_program_s"] > 0
