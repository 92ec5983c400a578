"""Differential runner: the engine and the oracle over one program and trace."""

from __future__ import annotations

from dataclasses import dataclass

from .compile import CompiledProgram, compile_program
from .engine import Network, replay_trace
from .expand import expand
from .fuzzgen import FuzzCase
from .matching import MatchResult
from .oracle import OracleOutput, oracle_run
from .parser import parse_program
from .tracefile import record_line, records_for


@dataclass(slots=True)
class Differential:
    """Both sides' outputs; the records are ``run``'s encoded output lines."""

    engine_records: list[str]
    oracle_records: list[str]
    engine_matches: list[MatchResult]
    oracle: OracleOutput
    network: Network

    def divergence(self) -> str:
        """The first difference between the sides, in their records, their
        diagnostics as (kind, pattern, at), then their matches' cycles, or
        else an engine index that differs from its buffer (see
        :func:`index_mismatch`); "" when there is none."""
        return (
            _first_difference("record", self.engine_records, self.oracle_records)
            or _first_difference(
                "diagnostic",
                [(d.kind, d.pattern, d.at) for d in self.network.diagnostics],
                [(d.kind, d.pattern, d.at) for d in self.oracle.diagnostics],
            )
            or _first_difference(
                "match cycle",
                [(m.pattern, m.at, m.cycle) for m in self.engine_matches],
                [(m.pattern, m.at, m.cycle) for m in self.oracle.results],
            )
            or index_mismatch(self.network)
        )


def index_mismatch(net: Network) -> str:
    """"" when every keyed slot's index equals its buffer grouped by join
    key, in buffer order, and no unkeyed slot has an index; else the first
    slot that breaks this.  The engine's readiness gate, join steps and
    negation probes read the index alone, so a stale or missing entry would
    drop a match or block one that the oracle, with no index, finds."""
    for slot, buf in [*net.buffers.items(), *net.blockers.items()]:
        p_idx, a_idx, c_idx = slot
        cons = net.cp.patterns[p_idx].alternatives[a_idx].constituents[c_idx]
        index = net.index.get(slot)
        if not cons.join_key:
            if index is not None:
                return f"unkeyed slot {slot} has an index"
            continue
        grouped: dict[tuple, list] = {}
        for m in buf:
            grouped.setdefault(cons.attrs_key(m.attrs), []).append(m)
        if (index or {}) != grouped:
            return f"index of slot {slot} differs from its buffer grouped by key"
    return ""


def differential(
    compiled: CompiledProgram, events, lifetime_ms: int | None = None
) -> Differential:
    """Replay ``events`` through a new network and through the oracle."""
    labels: dict[str, list[str]] = {}
    for b in compiled.bindings:
        labels.setdefault(b.pattern, []).append(b.label)

    def encode(matches):
        return [record_line(r) for r in records_for(matches, lambda n: labels.get(n, []))]

    engine_matches, net = replay_trace(compiled, events, lifetime_ms)
    oracle_out = oracle_run(compiled, events, lifetime_ms)
    return Differential(
        encode(engine_matches), encode(oracle_out.results), engine_matches, oracle_out, net
    )


def run_case(case: FuzzCase, lifetime_ms: int | None = None) -> tuple[bool, str]:
    """Run one generated case; the program goes through the full parse path
    so the surface syntax is exercised too."""
    compiled = compile_program(expand(parse_program(case.program_text)))
    detail = differential(compiled, case.trace, lifetime_ms).divergence()
    return not detail, detail


def _first_difference(what: str, engine: list, oracle: list) -> str:
    for i in range(max(len(engine), len(oracle))):
        e = engine[i] if i < len(engine) else "<missing>"
        o = oracle[i] if i < len(oracle) else "<missing>"
        if e != o:
            return f"first divergence at {what} {i}:\n  engine: {e}\n  oracle: {o}"
    return ""
