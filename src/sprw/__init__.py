"""Join-pattern coordination for actors with CEP-style synchronisation.

Declarative multi-message patterns (filtering, selection policies,
correlation with logic variables, windowed/counted accumulation with
fold/bind transformers) over an incremental discrimination-network engine,
plus a brute-force reference matcher and a deterministic trace-replay
harness.
"""

from .actor import ActorCell, FiredReaction, deliver, react_to, remove, remove_reactions, spawn, step
from .compile import CompiledProgram, compile_program
from .engine import Network, replay_trace
from .errors import (
    ActorError,
    CompileError,
    EvalError,
    ExpandError,
    ParseError,
    SprwError,
    TimeRegression,
    TraceError,
)
from .expand import expand
from .matching import Diagnostic, MatchResult, Message, apply_transformers, eval_expr
from .nodes import Program
from .oracle import oracle_run
from .parser import parse_program
from .printer import pretty_print
from .tracefile import AdvanceEvent, MessageEvent, load_trace
from .values import Duration, Symbol

__all__ = [
    "ActorCell",
    "ActorError",
    "AdvanceEvent",
    "CompileError",
    "CompiledProgram",
    "Diagnostic",
    "Duration",
    "EvalError",
    "ExpandError",
    "FiredReaction",
    "MatchResult",
    "Message",
    "MessageEvent",
    "Network",
    "ParseError",
    "Program",
    "SprwError",
    "Symbol",
    "TimeRegression",
    "TraceError",
    "apply_transformers",
    "compile_program",
    "deliver",
    "eval_expr",
    "expand",
    "load_trace",
    "oracle_run",
    "parse_program",
    "pretty_print",
    "react_to",
    "remove",
    "remove_reactions",
    "replay_trace",
    "spawn",
    "step",
]

__version__ = "0.1.0"
